//! The SigTM-style hybrids (§IV): software versioning with hardware
//! read and write signatures ([`crate::signature`]) for line-granularity
//! conflict detection and strong isolation; a line enters a signature on
//! its first read or write in the attempt's line table
//! (`TxnState::lines`). The lazy hybrid buffers writes and, under the
//! commit token, dooms every active transaction whose signatures hold a
//! written line before and after applying them, scanning the lines in
//! address order so a victim is blamed on the lowest it holds; the eager
//! hybrid writes in place behind an undo log and checks the other
//! threads' signatures at encounter time, the requester losing (it does
//! not mark a read of a line it already wrote). Signatures cannot remove
//! a line, so early release is a no-op here.

use super::{Abort, SystemProps, TxResult, Txn, READ, WRITTEN};
use crate::addr::{LineAddr, WordAddr};
use crate::config::SystemKind;
use crate::signature::SigProbe;

const LAZY: SystemProps = SystemKind::LazyHybrid.props();
const EAGER: SystemProps = SystemKind::EagerHybrid.props();

pub(super) fn lazy_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.check_doomed()?;
    tx.ctx.charge_tm(LAZY.read_barrier);
    if let Some(&v) = tx.ctx.txn.write_map.get(&addr.0) {
        return Ok(v);
    }
    let line = addr.line();
    if tx.ctx.txn.mark(line.0, READ, READ).is_some() {
        tx.ctx.global.read_sigs[tx.ctx.tid].insert(line);
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn lazy_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    tx.ctx.charge_tm(LAZY.write_barrier);
    let line = addr.line();
    if tx.ctx.txn.mark(line.0, WRITTEN, WRITTEN).is_some() {
        tx.ctx.global.write_sigs[tx.ctx.tid].insert(line);
    }
    tx.ctx.txn.write_map.insert(addr.0, value);
    Ok(())
}

pub(super) fn eager_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.ctx.charge_tm(EAGER.read_barrier);
    let line = addr.line();
    if tx.ctx.txn.mark(line.0, READ | WRITTEN, READ).is_some() {
        tx.ctx.global.read_sigs[tx.ctx.tid].insert(line);
        check_signatures(tx, line, false)?;
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn eager_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.ctx.charge_tm(EAGER.write_barrier);
    let line = addr.line();
    if tx.ctx.txn.mark(line.0, WRITTEN, WRITTEN).is_some() {
        tx.ctx.global.write_sigs[tx.ctx.tid].insert(line);
        check_signatures(tx, line, true)?;
    }
    tx.ctx.txn_store_eager(addr, value);
    tx.ctx.charge_mem(line);
    Ok(())
}

/// The eager hybrid's encounter-time check: abort if another active
/// transaction's write signature holds `line`, or, for a write, its read
/// signature does. The requester loses; backoff breaks ties.
fn check_signatures(tx: &Txn<'_>, line: LineAddr, writing: bool) -> TxResult<()> {
    let global = &tx.ctx.global;
    let probe = tx.sig_probe(line);
    for t in 0..global.config.threads {
        if t != tx.ctx.tid
            && global.active[t].get()
            && (global.write_sigs[t].hits(&probe) || writing && global.read_sigs[t].hits(&probe))
        {
            return tx.lose(line.0, Some(t));
        }
    }
    Ok(())
}

/// Doom every active transaction whose signature intersects this
/// commit's write lines, given with their probes in address order.
fn scan_and_doom(tx: &Txn<'_>, lines: &[(u64, SigProbe)]) {
    let global = &tx.ctx.global;
    for t in 0..global.config.threads {
        if t == tx.ctx.tid || !global.active[t].get() {
            continue;
        }
        for (l, probe) in lines {
            if global.read_sigs[t].hits(probe) || global.write_sigs[t].hits(probe) {
                tx.doom_and_record(*l, t);
                break;
            }
        }
    }
}

/// Leave the conflict scans, on commit or rollback: mark this thread
/// inactive, then clear its signatures. Observers check the active flag
/// before the signature.
pub(super) fn retire(tx: &Txn<'_>) {
    let (global, tid) = (&tx.ctx.global, tx.ctx.tid);
    global.active[tid].set(false);
    global.read_sigs[tid].clear();
    global.write_sigs[tid].clear();
}

pub(super) fn lazy_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.check_doomed()?;
    // A CM-serialized attempt already holds the commit token: the
    // fence/acquire below would self-deadlock, and `try_commit`
    // releases that token after the commit stall. A token taken here
    // is released here, before the fixed charge.
    let held = tx.ctx.txn.token;
    if tx.ctx.txn.write_map.is_empty() && !held {
        tx.read_only_fence()?;
        retire(tx);
        tx.ctx.charge_txn_fixed();
        return Ok(());
    }
    if !held {
        tx.acquire_commit_token()?;
    }
    if tx.is_doomed() {
        return Err(Abort(())); // the rollback releases the token
    }
    // The written lines, taken from the redo log, which is smaller to
    // walk than the line table when the reads outnumber the writes.
    let mut lines: Vec<(u64, SigProbe)> = (tx.ctx.txn.write_map.keys())
        .map(|&a| WordAddr(a).line())
        .map(|l| (l.0, tx.sig_probe(l)))
        .collect();
    lines.sort_unstable_by_key(|&(l, _)| l);
    lines.dedup_by_key(|&mut (l, _)| l);
    // Doom–apply–doom: any reader that slips between the scans still
    // gets doomed by the second scan, so no zombie survives.
    scan_and_doom(tx, &lines);
    tx.apply_redo_log();
    scan_and_doom(tx, &lines);
    // Retire *before* releasing the token: committed lines no longer
    // conflict with anyone.
    retire(tx);
    if !held {
        tx.ctx.release_token();
    }
    tx.ctx.charge_txn_fixed();
    Ok(())
}

pub(super) fn eager_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    // Conflicts were resolved at encounter time; nothing to validate.
    // Our writes are committed (in place) either way.
    tx.ctx.txn.undo.clear();
    retire(tx);
    tx.ctx.charge_txn_fixed();
    Ok(())
}
