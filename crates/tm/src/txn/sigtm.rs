//! The SigTM-style hybrids (§IV): software versioning with hardware
//! read and write signatures ([`crate::signature`]) for line-granularity
//! conflict detection and strong isolation. The lazy hybrid buffers
//! writes and, under the commit token, dooms every active transaction
//! whose signatures hold a written line before and after applying them;
//! the eager hybrid writes in place behind an undo log and checks the
//! other threads' signatures at encounter time, the requester losing.
//! Signatures cannot remove a line, so early release is a no-op here.

use super::{Abort, TxResult, Txn};
use crate::addr::{LineAddr, WordAddr};
use crate::signature::SigProbe;

pub(super) fn lazy_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.check_doomed()?;
    let cost = tx.ctx.global.config.cost.hybrid_read;
    tx.ctx.charge_tm(cost);
    if let Some(&v) = tx.ctx.txn.write_map.get(&addr.0) {
        return Ok(v);
    }
    let line = addr.line();
    if !tx.ctx.txn.read_lines.contains(&line.0) {
        tx.ctx.global.read_sigs[tx.ctx.tid].insert(line);
        tx.ctx.txn.read_lines.insert(line.0);
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn lazy_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    let cost = tx.ctx.global.config.cost.hybrid_write;
    tx.ctx.charge_tm(cost);
    let line = addr.line();
    if !tx.ctx.txn.write_lines.contains(&line.0) {
        tx.ctx.global.write_sigs[tx.ctx.tid].insert(line);
        tx.ctx.txn.write_lines.insert(line.0);
    }
    tx.ctx.txn.write_map.insert(addr.0, value);
    Ok(())
}

pub(super) fn eager_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    let cost = tx.ctx.global.config.cost.hybrid_read;
    tx.ctx.charge_tm(cost);
    let line = addr.line();
    if !tx.ctx.txn.read_lines.contains(&line.0) && !tx.ctx.txn.write_lines.contains(&line.0) {
        tx.ctx.global.read_sigs[tx.ctx.tid].insert(line);
        tx.ctx.txn.read_lines.insert(line.0);
        check_signatures(tx, line, false)?;
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn eager_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    let cost = tx.ctx.global.config.cost.hybrid_write;
    tx.ctx.charge_tm(cost);
    let line = addr.line();
    if !tx.ctx.txn.write_lines.contains(&line.0) {
        tx.ctx.global.write_sigs[tx.ctx.tid].insert(line);
        tx.ctx.txn.write_lines.insert(line.0);
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
/// commit's write lines, given with their probes.
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
    // fence/acquire below would self-deadlock, and the token is
    // released centrally in `try_commit`/`rollback` instead.
    let cm_held = tx.ctx.txn.cm_token;
    if tx.ctx.txn.write_map.is_empty() && !cm_held {
        tx.read_only_fence()?;
        retire(tx);
        tx.ctx.charge_txn_fixed();
        return Ok(());
    }
    if !cm_held {
        tx.acquire_commit_token()?;
    }
    if tx.is_doomed() {
        if !cm_held {
            tx.ctx.global.commit_token.release();
        }
        return Err(Abort(()));
    }
    let lines: Vec<(u64, SigProbe)> = (tx.ctx.txn.write_lines.iter())
        .map(|&l| (l, tx.sig_probe(LineAddr(l))))
        .collect();
    // Doom–apply–doom: any reader that slips between the scans still
    // gets doomed by the second scan, so no zombie survives.
    scan_and_doom(tx, &lines);
    tx.apply_redo_log();
    scan_and_doom(tx, &lines);
    // Retire *before* releasing the token: committed lines no longer
    // conflict with anyone.
    retire(tx);
    if !cm_held {
        tx.ctx.global.commit_token.release();
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
