//! TL2, the paper's two STMs (§IV): a global version clock and a
//! versioned-lock table ([`crate::locks`]), word-granularity conflict
//! detection (line under the granularity ablation), and read-set
//! validation at commit. The lazy STM buffers writes in a redo log and
//! locks its write set at commit; the eager STM locks at encounter time
//! and writes in place behind an undo log.

use super::{Abort, SystemProps, TxResult, Txn, READ, WRITTEN};
use crate::addr::WordAddr;
use crate::config::{MutationHook, SystemKind};
use crate::locks::LockWord;

const LAZY: SystemProps = SystemKind::LazyStm.props();
const EAGER: SystemProps = SystemKind::EagerStm.props();

/// Lazy read barrier: the redo log first, then a validated load.
pub(super) fn lazy_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.ctx.charge_tm(LAZY.read_barrier);
    if let Some(&v) = tx.ctx.txn.write_map.get(&addr.0) {
        return Ok(v);
    }
    let idx = tx.ctx.global.locks.index_of(addr);
    let val = match tx.ctx.global.locks.load(idx) {
        LockWord::Locked { owner } => return tx.lose(addr.line().0, Some(owner)),
        LockWord::Unlocked { version } => read_unlocked(tx, addr, idx, version)?,
    };
    let line = addr.line();
    tx.ctx.txn.mark(line.0, READ, READ);
    tx.ctx.charge_mem(line);
    Ok(val)
}

/// Eager read barrier: a word whose lock this transaction holds is read
/// directly, any other through a validated load.
pub(super) fn eager_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.ctx.charge_tm(EAGER.read_barrier);
    let idx = tx.ctx.global.locks.index_of(addr);
    let val = match tx.ctx.global.locks.load(idx) {
        // We hold the lock covering this word: the value is stable, so
        // the observation can be recorded directly.
        LockWord::Locked { owner } if owner == tx.ctx.tid => tx.ctx.txn_load(addr),
        LockWord::Locked { owner } => return tx.lose(addr.line().0, Some(owner)),
        LockWord::Unlocked { version } => read_unlocked(tx, addr, idx, version)?,
    };
    let line = addr.line();
    tx.ctx.txn.mark(line.0, READ, READ);
    tx.ctx.charge_mem(line);
    Ok(val)
}

/// TL2's read of a word whose lock `idx` was unlocked at `version`:
/// abort if that version is newer than the read timestamp, else load.
/// TL2 on real hardware rechecks the lock word after the load, because
/// a concurrent writer may commit between the two. Here threads
/// interleave only inside scheduler calls, and none lies between the
/// lock load and the word load, so the lock word cannot have moved and
/// the load is recorded at once.
fn read_unlocked(tx: &mut Txn<'_>, addr: WordAddr, idx: u32, version: u64) -> TxResult<u64> {
    let line = addr.line().0;
    if version > tx.ctx.txn.rv {
        // Version overrun: the conflicting writer already committed
        // and is anonymous.
        return tx.lose(line, None);
    }
    let val = tx.ctx.txn_load(addr);
    tx.ctx.txn.read_locks.push(idx);
    tx.ctx.prof_note_lock_line(idx, line);
    Ok(val)
}

pub(super) fn lazy_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) {
    tx.ctx.charge_tm(LAZY.write_barrier);
    tx.ctx.txn.write_map.insert(addr.0, value);
    tx.ctx.txn.mark(addr.line().0, WRITTEN, WRITTEN);
}

/// Eager write barrier: take the word's lock at encounter time (unless
/// already held), then write in place behind the undo log.
pub(super) fn eager_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.ctx.charge_tm(EAGER.write_barrier);
    let line = addr.line();
    let locks = &tx.ctx.global.locks;
    let idx = locks.index_of(addr);
    match locks.load(idx) {
        LockWord::Locked { owner } if owner == tx.ctx.tid => {}
        LockWord::Locked { owner } => return tx.lose(line.0, Some(owner)),
        LockWord::Unlocked { version } => {
            if version > tx.ctx.txn.rv {
                return tx.lose(line.0, None);
            }
            match locks.try_lock(idx, tx.ctx.tid) {
                Ok(saved) => tx.ctx.txn.held_locks.push((idx, saved)),
                Err(w) => return tx.lose(line.0, w.owner()),
            }
        }
    }
    tx.ctx.txn_store_eager(addr, value);
    tx.ctx.txn.mark(line.0, WRITTEN, WRITTEN);
    tx.ctx.charge_mem(line);
    Ok(())
}

/// Drop `addr`'s lock from the read set, so commit no longer validates
/// it.
pub(super) fn early_release(tx: &mut Txn<'_>, addr: WordAddr) {
    let line = addr.line();
    let idx = tx.ctx.global.locks.index_of(addr);
    tx.ctx.txn.read_locks.retain(|&i| i != idx);
    tx.ctx.txn.release_read(line.0);
    tx.ctx.verify_release_line(line);
    tx.ctx.charge_tm(2);
}

/// TL2 read-set validation at write version `wv`, skipped when no other
/// commit took a version since this attempt's read timestamp.
/// `acquired` holds (index, pre-lock version) pairs, sorted by index,
/// for locks this commit acquired: a read entry locked by ourselves is
/// valid only if the version the lock held *before we acquired it* is
/// no newer than `rv`. (The eager STM passes an empty slice: it
/// version-checks at acquisition.) A failure is attributed to the heap
/// line the attempt read through the offending index, and to the lock's
/// owner when there is one (`None` means the writer already committed).
fn validate(tx: &Txn<'_>, wv: u64, acquired: &[(u32, u64)]) -> TxResult<()> {
    let rv = tx.ctx.txn.rv;
    // Mutation hook for `tm::verify` teeth tests: skipping TL2
    // commit-time validation admits stale read sets, which the
    // sanitizer must surface as a serialization cycle.
    let skip = tx.ctx.global.config.mutation == MutationHook::SkipTl2Validation;
    if wv <= rv + 1 || skip {
        return Ok(());
    }
    for &idx in &tx.ctx.txn.read_locks {
        let conflict = match tx.ctx.global.locks.load(idx) {
            LockWord::Locked { owner } if owner == tx.ctx.tid => {
                let pos = acquired.binary_search_by_key(&idx, |&(i, _)| i);
                pos.is_ok_and(|p| acquired[p].1 > rv).then_some(None)
            }
            LockWord::Locked { owner } => Some(Some(owner)),
            LockWord::Unlocked { version } => (version > rv).then_some(None),
        };
        if let Some(owner) = conflict {
            if let Some(line) = tx.ctx.prof_lock_line(idx) {
                tx.ctx.prof_conflict(line, owner, tx.ctx.tid);
            }
            return Err(Abort(()));
        }
    }
    Ok(())
}

pub(super) fn lazy_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.ctx.charge_txn_fixed();
    if tx.ctx.txn.write_map.is_empty() {
        return Ok(()); // read-only: rv-consistent by TL2 validation
    }
    // Lock the write set in index order (deadlock-free; any failure
    // aborts). Each index carries one heap line it guards, so a
    // lock-acquisition conflict can be attributed by the profiler.
    let locks = &tx.ctx.global.locks;
    let mut idxs: Vec<(u32, u64)> = (tx.ctx.txn.write_map.keys())
        .map(|&a| {
            let addr = WordAddr(a);
            (locks.index_of(addr), addr.line().0)
        })
        .collect();
    idxs.sort_unstable();
    idxs.dedup_by_key(|&mut (i, _)| i);
    let mut acquired: Vec<(u32, u64)> = Vec::with_capacity(idxs.len());
    for &(idx, line) in &idxs {
        match locks.try_lock(idx, tx.ctx.tid) {
            Ok(saved) => acquired.push((idx, saved)),
            Err(w) => {
                tx.ctx.prof_conflict(line, w.owner(), tx.ctx.tid);
                for &(i, v) in &acquired {
                    locks.unlock(i, v);
                }
                return Err(Abort(()));
            }
        }
    }
    let wv = tx.ctx.global.clock.increment();
    if validate(tx, wv, &acquired).is_err() {
        for &(i, v) in &acquired {
            tx.ctx.global.locks.unlock(i, v);
        }
        return Err(Abort(()));
    }
    tx.apply_redo_log();
    let per_read = tx.ctx.global.config.cost.commit_per_read;
    tx.ctx
        .charge_tm(per_read * tx.ctx.txn.read_locks.len() as u64);
    for &(i, _) in &acquired {
        tx.ctx.global.locks.unlock(i, wv);
    }
    Ok(())
}

pub(super) fn eager_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.ctx.charge_txn_fixed();
    let wv = tx.ctx.global.clock.increment();
    validate(tx, wv, &[])?; // rollback (in try_commit) undoes and releases
    let per_read = tx.ctx.global.config.cost.commit_per_read;
    tx.ctx
        .charge_tm(per_read * tx.ctx.txn.read_locks.len() as u64);
    for &(idx, _) in &tx.ctx.txn.held_locks {
        tx.ctx.global.locks.unlock(idx, wv);
    }
    tx.ctx.txn.held_locks.clear();
    tx.ctx.txn.undo.clear();
    Ok(())
}

/// Release the eager STM's encounter-time locks, restoring their
/// pre-lock versions (the lazy STM holds none outside its commit).
pub(super) fn rollback(tx: &mut Txn<'_>) {
    for &(idx, saved) in &tx.ctx.txn.held_locks {
        tx.ctx.global.locks.unlock(idx, saved);
    }
    tx.ctx.txn.held_locks.clear();
}
