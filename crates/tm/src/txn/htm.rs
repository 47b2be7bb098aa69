//! The paper's two HTMs (§IV), modeled over the line directory
//! ([`crate::directory`]) with line-granularity conflict detection and
//! an L1 capacity bound on speculative state. The lazy HTM (TCC-style)
//! buffers writes and detects conflicts at commit, applying each line
//! and dooming its readers under the commit token; overflow serializes
//! the transaction. The eager HTM (LogTM-style) writes in place behind
//! an undo log and detects conflicts at encounter time: the requester
//! loses unless it holds the priority token (or stalls, under
//! `HtmConflictPolicy::RequesterStalls`), and overflowed lines move to
//! a Bloom filter that cannot be early-released.

use super::{Abort, TxResult, Txn};
use crate::addr::{LineAddr, WordAddr};
use crate::config::{HtmConflictPolicy, SystemKind};
use crate::runtime::{ThreadCtx, NO_PRIORITY};
use crate::trace::TraceLevel;

// ----- the eager HTM's priority token ----------------------------------
//
// The retry loop calls these three on every system; only the eager HTM
// promotes, so elsewhere the token is never held and they do nothing.

/// Eager-HTM livelock guard, second half: while another thread holds
/// the priority token, starting an attempt is futile (the holder dooms
/// us on first contact) and actively harmful under deterministic
/// dispatch — restarting victims re-register their lines between the
/// holder's occupancy probes, which can phase-lock into a schedule
/// where the holder never observes its conflict set drain. Wait (in
/// simulated cycles) for the holder to commit: a deterministic schedule
/// that phase-locks stays locked, so the cycle must be broken by rule.
pub(super) fn await_priority(ctx: &mut ThreadCtx) {
    if ctx.global.config.system == SystemKind::EagerHtm && !ctx.has_priority {
        while {
            let p = ctx.global.priority.get();
            p != NO_PRIORITY && p != ctx.tid
        } {
            ctx.spin_charge(20);
        }
    }
}

/// The paper's livelock guard: after 32 aborts (the contention manager
/// requests it) an eager-HTM transaction is promoted so no other
/// transaction can abort it.
pub(super) fn take_priority(ctx: &mut ThreadCtx) {
    if ctx.global.config.system == SystemKind::EagerHtm
        && !ctx.has_priority
        && ctx.global.priority.get() == NO_PRIORITY
    {
        ctx.global.priority.set(ctx.tid);
        ctx.has_priority = true;
    }
}

/// Drop the priority token on commit.
pub(super) fn release_priority(ctx: &mut ThreadCtx) {
    if ctx.has_priority {
        if ctx.global.priority.get() == ctx.tid {
            ctx.global.priority.set(NO_PRIORITY);
        }
        ctx.has_priority = false;
    }
}

// ----- barriers -----------------------------------------------------------

pub(super) fn lazy_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.check_doomed()?;
    if let Some(&v) = tx.ctx.txn.write_map.get(&addr.0) {
        let c = tx.ctx.global.config.cost.l1_hit;
        tx.ctx.charge_app(c);
        return Ok(v);
    }
    let line = addr.line();
    if !tx.ctx.txn.read_lines.contains(&line.0) {
        tx.ctx.global.directory.add_reader(line, tx.ctx.tid);
        tx.ctx.txn.dir_lines.push(line.0);
        cache_insert_lazy(tx, line)?;
        tx.ctx.txn.read_lines.insert(line.0);
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn lazy_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    let line = addr.line();
    if !tx.ctx.txn.write_lines.contains(&line.0) {
        tx.ctx.global.directory.add_writer(line, tx.ctx.tid);
        tx.ctx.txn.dir_lines.push(line.0);
        cache_insert_lazy(tx, line)?;
        tx.ctx.txn.write_lines.insert(line.0);
    }
    tx.ctx.txn.write_map.insert(addr.0, value);
    let c = tx.ctx.global.config.cost.l1_hit;
    tx.ctx.charge_app(c);
    Ok(())
}

pub(super) fn eager_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.check_doomed()?;
    let line = addr.line();
    if !tx.ctx.txn.read_lines.contains(&line.0) && !tx.ctx.txn.write_lines.contains(&line.0) {
        check_overflow_sigs(tx, line)?;
        let occ = tx.ctx.global.directory.add_reader(line, tx.ctx.tid);
        tx.ctx.txn.dir_lines.push(line.0);
        let conflicts = occ.other_writers(tx.ctx.tid);
        if conflicts != 0 {
            resolve_eager(tx, line, conflicts)?;
        }
        cache_insert_eager(tx, line);
        tx.ctx.txn.read_lines.insert(line.0);
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn eager_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    let line = addr.line();
    if !tx.ctx.txn.write_lines.contains(&line.0) {
        check_overflow_sigs(tx, line)?;
        let occ = tx.ctx.global.directory.add_writer(line, tx.ctx.tid);
        tx.ctx.txn.dir_lines.push(line.0);
        let conflicts = occ.others(tx.ctx.tid);
        if conflicts != 0 {
            resolve_eager(tx, line, conflicts)?;
        }
        if !tx.ctx.txn.read_lines.contains(&line.0) {
            cache_insert_eager(tx, line);
        }
        tx.ctx.txn.write_lines.insert(line.0);
    }
    tx.ctx.txn_store_eager(addr, value);
    tx.ctx.charge_mem(line);
    Ok(())
}

/// L1 capacity tracking for the lazy HTM: inserting a line that no
/// longer fits forces serialized execution (hold the commit token for
/// the rest of the transaction).
fn cache_insert_lazy(tx: &mut Txn<'_>, line: LineAddr) -> TxResult<()> {
    if tx.ctx.txn.resident.contains(&line.0) {
        return Ok(());
    }
    let assoc = tx.ctx.global.config.l1.assoc as u8;
    let set = tx.ctx.global.config.l1.set_of(line.0);
    let count = tx.ctx.txn.set_counts.entry(set).or_insert(0);
    if *count >= assoc {
        if !tx.ctx.txn.serialized {
            tx.acquire_commit_token()?;
            tx.ctx.txn.serialized = true;
        }
    } else {
        *count += 1;
        tx.ctx.txn.resident.insert(line.0);
    }
    Ok(())
}

/// L1 capacity tracking for the eager HTM: overflowing lines move to
/// the Bloom signature (conservative: may cause false conflicts for
/// other transactions, and cannot be early-released).
fn cache_insert_eager(tx: &mut Txn<'_>, line: LineAddr) {
    if tx.ctx.txn.resident.contains(&line.0) || tx.ctx.txn.overflowed.contains(&line.0) {
        return;
    }
    let assoc = tx.ctx.global.config.l1.assoc as u8;
    let set = tx.ctx.global.config.l1.set_of(line.0);
    let count = tx.ctx.txn.set_counts.entry(set).or_insert(0);
    if *count >= assoc {
        if crate::trace::enabled(TraceLevel::Overflows) {
            crate::trace::emit(
                TraceLevel::Overflows,
                format_args!("line={} set={set} tid={}", line.0, tx.ctx.tid),
            );
        }
        tx.ctx.global.overflow_sigs[tx.ctx.tid].insert(line);
        tx.ctx.txn.overflowed.insert(line.0);
    } else {
        *count += 1;
        tx.ctx.txn.resident.insert(line.0);
    }
}

/// The thread ids set in a directory bitmask, lowest first.
fn tids(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(t)
    })
}

/// Record a conflict that aborts this transaction, attributing it to
/// the lowest-tid transaction in `mask` (or anonymously when the mask
/// is empty), and abort.
fn lose_to_mask<T>(tx: &Txn<'_>, line: LineAddr, mask: u32) -> TxResult<T> {
    tx.lose(line.0, tids(mask).next())
}

/// Eager-HTM conflict resolution: the requester loses and aborts
/// unless it holds the priority token, in which case the victims are
/// doomed and the requester waits (in simulated time) for them to
/// vacate the line.
fn resolve_eager(tx: &mut Txn<'_>, line: LineAddr, victims: u32) -> TxResult<()> {
    if crate::trace::enabled(TraceLevel::Conflicts) {
        crate::trace::emit(
            TraceLevel::Conflicts,
            format_args!(
                "line={} tid={} victims={:#x} priority={}",
                line.0, tx.ctx.tid, victims, tx.ctx.has_priority
            ),
        );
    }
    let stall = tx.ctx.global.config.htm_conflict == HtmConflictPolicy::RequesterStalls;
    // Contention-manager arbitration (Karma): a requester with
    // strictly higher priority than every victim wins the conflict
    // as if it held the priority token. Fixed policies never win.
    let cm_win = !tx.ctx.has_priority
        && tx
            .ctx
            .cm
            .wins_conflict(tx.ctx.tid, victims, &tx.ctx.global.cm_shared);
    if !tx.ctx.has_priority && !cm_win && !stall {
        tx.ctx.stats.priority_losses += 1;
        return lose_to_mask(tx, line, victims);
    }
    if stall && !tx.ctx.has_priority && !cm_win {
        // LogTM-style deadlock avoidance: only the *older*
        // transaction may stall; a younger requester aborts so the
        // wait-for graph stays acyclic.
        let ts = &tx.ctx.global.txn_ts;
        let my_ts = ts[tx.ctx.tid].get();
        if let Some(v) = tids(victims).find(|&v| ts[v].get() < my_ts) {
            return tx.lose(line.0, Some(v));
        }
    }
    let doom = tx.ctx.has_priority || cm_win;
    // Stalling requesters get a bounded wait (LogTM-style, with a
    // timeout in place of deadlock detection); priority holders doom
    // their victims and wait for them to vacate.
    let limit: u32 = if doom { 100_000 } else { 10_000 };
    let mut spins = 0u32;
    loop {
        let occ = tx.ctx.global.directory.occupancy(line);
        let remaining = (occ.readers | occ.writers) & victims;
        if remaining == 0 {
            if doom {
                tx.ctx.stats.priority_wins += 1;
            }
            return Ok(());
        }
        if doom {
            // (Re-)doom every iteration: a victim that restarted and
            // re-registered cleared its doom flag at begin.
            for v in tids(remaining) {
                tx.doom_and_record(line.0, v);
            }
            // A karma winner can itself be doomed by a token holder
            // or a concurrent karma winner: yield rather than stall
            // a conflict we have already lost.
            if cm_win && !tx.ctx.has_priority && tx.is_doomed() {
                tx.ctx.stats.priority_losses += 1;
                return tx.lose(line.0, None);
            }
        } else if tx.is_doomed() {
            return tx.lose(line.0, None);
        }
        tx.ctx.spin_charge(20);
        spins += 1;
        if spins > limit {
            // Timeout: give up (stall) / safety valve (priority).
            if doom {
                tx.ctx.stats.priority_losses += 1;
            }
            return lose_to_mask(tx, line, remaining);
        }
    }
}

/// Conflict check against other transactions' overflow Bloom filters
/// (eager HTM). False positives abort the requester, as in the paper.
fn check_overflow_sigs(tx: &mut Txn<'_>, line: LineAddr) -> TxResult<()> {
    let n = tx.ctx.global.config.threads;
    let probe = tx.sig_probe(line);
    for t in 0..n {
        if t == tx.ctx.tid || !tx.ctx.global.active[t].get() {
            continue;
        }
        if tx.ctx.global.overflow_sigs[t].hits(&probe) {
            if crate::trace::enabled(TraceLevel::SigHits) {
                crate::trace::emit(
                    TraceLevel::SigHits,
                    format_args!("line={} tid={} owner={t}", line.0, tx.ctx.tid),
                );
            }
            if !tx.ctx.has_priority {
                return tx.lose(line.0, Some(t));
            }
            // Priority: doom the filter's owner and wait for it to
            // finish rolling back.
            let mut spins = 0u32;
            while tx.ctx.global.active[t].get() && tx.ctx.global.overflow_sigs[t].hits(&probe) {
                tx.doom_and_record(line.0, t);
                tx.ctx.spin_charge(20);
                spins += 1;
                if spins > 100_000 {
                    return tx.lose(line.0, Some(t));
                }
            }
        }
    }
    Ok(())
}

/// Drop `addr`'s line from the tracked read set and the directory,
/// freeing its L1 slot unless the line is also written. A line that
/// overflowed into the eager HTM's Bloom filter cannot be released.
pub(super) fn early_release(tx: &mut Txn<'_>, addr: WordAddr) {
    let line = addr.line();
    if tx.ctx.txn.overflowed.contains(&line.0) {
        return; // tracked only by the Bloom filter: cannot release
    }
    if tx.ctx.txn.read_lines.remove(&line.0) {
        tx.ctx.verify_release_line(line);
        tx.ctx.global.directory.remove_reader(line, tx.ctx.tid);
        if !tx.ctx.txn.write_lines.contains(&line.0) && tx.ctx.txn.resident.remove(&line.0) {
            let set = tx.ctx.global.config.l1.set_of(line.0);
            if let Some(c) = tx.ctx.txn.set_counts.get_mut(&set) {
                *c = c.saturating_sub(1);
            }
        }
    }
    tx.ctx.charge_tm(2);
}

// ----- commit / rollback ---------------------------------------------------

pub(super) fn lazy_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.check_doomed()?;
    if tx.ctx.txn.write_map.is_empty() && !tx.ctx.txn.serialized {
        tx.read_only_fence()?;
        release_directory_entries(tx);
        tx.ctx.charge_txn_fixed();
        return Ok(());
    }
    if !tx.ctx.txn.serialized {
        tx.acquire_commit_token()?;
        tx.ctx.txn.serialized = true; // rollback must release it now
    }
    if tx.is_doomed() {
        return Err(Abort(()));
    }
    // Group buffered writes by line and apply each line atomically
    // with its victim scan (doom-then-apply, with no scheduler call
    // in between).
    let mut entries: Vec<(u64, u64)> = (tx.ctx.txn.write_map.iter())
        .map(|(&a, &v)| (a, v))
        .collect();
    entries.sort_unstable_by_key(|&(a, _)| a);
    let per_line = tx.ctx.global.config.cost.htm_commit_per_line;
    for slice in entries.chunk_by(|x, y| WordAddr(x.0).line() == WordAddr(y.0).line()) {
        let line = WordAddr(slice[0].0).line();
        // Split-borrow the context so the commit closure can update
        // the sanitizer shadow heap.
        let victims = {
            let ThreadCtx {
                global, vtx, tid, ..
            } = &mut *tx.ctx;
            let heap = &global.heap;
            let vs = global.verify.as_ref();
            global.directory.commit_line(line, *tid, || {
                for &(a, v) in slice {
                    match vs {
                        Some(vs) => crate::verify::write_commit(vs, vtx, heap, WordAddr(a), v),
                        None => heap.raw_store(WordAddr(a), v),
                    }
                }
            })
        };
        for t in tids(victims) {
            tx.doom_and_record(line.0, t);
        }
        tx.ctx.charge_mem(line);
        tx.ctx.charge_tm(per_line);
    }
    release_directory_entries(tx);
    tx.ctx.global.commit_token.release();
    tx.ctx.txn.serialized = false;
    tx.ctx.charge_txn_fixed();
    Ok(())
}

pub(super) fn eager_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.check_doomed()?;
    release_directory_entries(tx);
    tx.ctx.global.overflow_sigs[tx.ctx.tid].clear();
    tx.ctx.txn.undo.clear();
    tx.ctx.charge_txn_fixed();
    Ok(())
}

fn release_directory_entries(tx: &mut Txn<'_>) {
    let tid = tx.ctx.tid;
    for &l in &tx.ctx.txn.dir_lines {
        tx.ctx.global.directory.remove(LineAddr(l), tid);
    }
    tx.ctx.txn.dir_lines.clear();
}

/// Leave the directory, clear the eager HTM's overflow filter, and
/// release the commit token if overflow (or the contention manager)
/// serialized this attempt.
pub(super) fn rollback(tx: &mut Txn<'_>) {
    release_directory_entries(tx);
    if tx.ctx.global.config.system == SystemKind::EagerHtm {
        tx.ctx.global.overflow_sigs[tx.ctx.tid].clear();
    }
    if tx.ctx.txn.serialized {
        tx.ctx.global.commit_token.release();
        tx.ctx.txn.serialized = false;
    }
}
