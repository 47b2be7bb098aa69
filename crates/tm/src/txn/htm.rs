//! The paper's two HTMs (§IV), modeled over the line directory
//! ([`crate::directory`]) with line-granularity conflict detection and
//! an L1 capacity bound on speculative state, kept in the attempt's line
//! table (`TxnState::lines`): a line's first read or write sets READ or
//! WRITTEN, registers the line in the directory and claims its L1 slot
//! (RESIDENT); commit and rollback leave the directory by walking those
//! lines. The lazy HTM (TCC-style) buffers writes and detects conflicts
//! at commit, applying each line in address order and dooming its
//! readers under the commit token; overflow serializes the transaction.
//! The eager HTM (LogTM-style) writes in place behind an undo log and
//! detects conflicts at encounter time: the requester loses unless it
//! holds the priority token (or stalls, under
//! `HtmConflictPolicy::RequesterStalls`), and overflowed lines move to
//! a Bloom filter (OVERFLOWED) that cannot be early-released. Unlike
//! the lazy HTM, it does not mark a read of a line it already wrote.

use super::{Abort, TxResult, Txn, OVERFLOWED, READ, RESIDENT, WRITTEN};
use crate::addr::{LineAddr, WordAddr};
use crate::cm::CmPolicy;
use crate::config::HtmConflictPolicy;
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
    while {
        let p = ctx.global.priority.get();
        p != NO_PRIORITY && p != ctx.tid
    } {
        ctx.spin_charge(20);
    }
}

/// The paper's livelock guard: after
/// [`HTM_PRIORITY_AFTER`](crate::cm::HTM_PRIORITY_AFTER) aborts a
/// transaction on a design with a priority token (the eager HTM) is
/// promoted so no other transaction can abort it, unless another
/// thread holds the token.
pub(super) fn take_priority(ctx: &ThreadCtx) {
    if ctx.global.priority.get() == NO_PRIORITY {
        ctx.global.priority.set(ctx.tid);
    }
}

/// Drop the priority token on commit.
pub(super) fn release_priority(ctx: &ThreadCtx) {
    if holds_priority(ctx) {
        ctx.global.priority.set(NO_PRIORITY);
    }
}

/// Whether this thread holds the priority token.
fn holds_priority(ctx: &ThreadCtx) -> bool {
    ctx.global.priority.get() == ctx.tid
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
    if let Some(flags) = tx.ctx.txn.mark(line.0, READ, READ) {
        tx.ctx.global.directory.add_reader(line, tx.ctx.tid);
        cache_insert_lazy(tx, line, flags)?;
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn lazy_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    let line = addr.line();
    if let Some(flags) = tx.ctx.txn.mark(line.0, WRITTEN, WRITTEN) {
        tx.ctx.global.directory.add_writer(line, tx.ctx.tid);
        cache_insert_lazy(tx, line, flags)?;
    }
    tx.ctx.txn.write_map.insert(addr.0, value);
    let c = tx.ctx.global.config.cost.l1_hit;
    tx.ctx.charge_app(c);
    Ok(())
}

pub(super) fn eager_read(tx: &mut Txn<'_>, addr: WordAddr) -> TxResult<u64> {
    tx.check_doomed()?;
    let line = addr.line();
    if let Some(flags) = tx.ctx.txn.mark(line.0, READ | WRITTEN, READ) {
        check_overflow_sigs(tx, line)?;
        let occ = tx.ctx.global.directory.add_reader(line, tx.ctx.tid);
        let conflicts = occ.other_writers(tx.ctx.tid);
        if conflicts != 0 {
            resolve_eager(tx, line, conflicts)?;
        }
        cache_insert_eager(tx, line, flags);
    }
    tx.ctx.charge_mem(line);
    Ok(tx.ctx.txn_load(addr))
}

pub(super) fn eager_write(tx: &mut Txn<'_>, addr: WordAddr, value: u64) -> TxResult<()> {
    tx.check_doomed()?;
    let line = addr.line();
    if let Some(flags) = tx.ctx.txn.mark(line.0, WRITTEN, WRITTEN) {
        check_overflow_sigs(tx, line)?;
        let occ = tx.ctx.global.directory.add_writer(line, tx.ctx.tid);
        let conflicts = occ.others(tx.ctx.tid);
        if conflicts != 0 {
            resolve_eager(tx, line, conflicts)?;
        }
        cache_insert_eager(tx, line, flags);
    }
    tx.ctx.txn_store_eager(addr, value);
    tx.ctx.charge_mem(line);
    Ok(())
}

/// The HTMs' L1 capacity model: give `line` a slot in its set and mark
/// it RESIDENT, or return false when the set is full.
fn take_l1_slot(tx: &mut Txn<'_>, line: LineAddr) -> bool {
    let assoc = tx.ctx.global.config.l1.assoc as u8;
    let set = tx.ctx.global.config.l1.set_of(line.0);
    let count = tx.ctx.txn.set_counts.entry(set).or_insert(0);
    if *count >= assoc {
        return false;
    }
    *count += 1;
    *tx.ctx.txn.lines.entry(line.0).or_insert(0) |= RESIDENT;
    true
}

/// Lazy HTM, given the line's flags before this access: a line that
/// does not fit in the L1 forces serialized execution (hold the commit
/// token for the rest of the transaction).
fn cache_insert_lazy(tx: &mut Txn<'_>, line: LineAddr, flags: u8) -> TxResult<()> {
    if flags & RESIDENT == 0 && !take_l1_slot(tx, line) && !tx.ctx.txn.token {
        tx.acquire_commit_token()?;
    }
    Ok(())
}

/// Eager HTM, given the line's flags before this access: a line that
/// does not fit in the L1 moves to the Bloom signature (conservative:
/// may cause false conflicts for other transactions, and cannot be
/// early-released). A line already read is resident or overflowed, so
/// a write after a read stops at once.
fn cache_insert_eager(tx: &mut Txn<'_>, line: LineAddr, flags: u8) {
    if flags & (RESIDENT | OVERFLOWED) != 0 || take_l1_slot(tx, line) {
        return;
    }
    let (global, tid) = (&tx.ctx.global, tx.ctx.tid);
    let set = global.config.l1.set_of(line.0);
    crate::trace!(TraceLevel::Overflows, "line={} set={set} tid={tid}", line.0);
    global.overflow_sigs[tid].insert(line);
    global.overflowing.set(global.overflowing.get() | 1 << tid);
    *tx.ctx.txn.lines.entry(line.0).or_insert(0) |= OVERFLOWED;
}

/// The thread ids set in a directory bitmask, lowest first.
fn tids(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(t)
    })
}

/// Eager-HTM conflict resolution: the requester loses and aborts
/// unless it holds the priority token, in which case the victims are
/// doomed and the requester waits (in simulated time) for them to
/// vacate the line.
fn resolve_eager(tx: &mut Txn<'_>, line: LineAddr, victims: u32) -> TxResult<()> {
    let priority = holds_priority(tx.ctx);
    crate::trace!(
        TraceLevel::Conflicts,
        "line={} tid={} victims={victims:#x} priority={priority}",
        line.0,
        tx.ctx.tid,
    );
    let stall = tx.ctx.global.config.htm_conflict == HtmConflictPolicy::RequesterStalls;
    // Karma arbitration: a requester with strictly more karma than
    // every victim wins the conflict as if it held the priority token.
    // No other policy wins.
    let cm_win = !priority
        && matches!(tx.ctx.cm, CmPolicy::Karma { .. })
        && tx.ctx.global.cm_shared.outranks(tx.ctx.tid, victims);
    if !priority && !cm_win && !stall {
        tx.ctx.stats.priority_losses += 1;
        return tx.lose(line.0, tids(victims).next());
    }
    if stall && !priority && !cm_win {
        // LogTM-style deadlock avoidance: only the *older*
        // transaction may stall; a younger requester aborts so the
        // wait-for graph stays acyclic.
        let ts = &tx.ctx.global.txn_ts;
        let my_ts = ts[tx.ctx.tid].get();
        if let Some(v) = tids(victims).find(|&v| ts[v].get() < my_ts) {
            return tx.lose(line.0, Some(v));
        }
    }
    let doom = priority || cm_win;
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
            if cm_win && tx.is_doomed() {
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
            return tx.lose(line.0, tids(remaining).next());
        }
    }
}

/// Conflict check against other transactions' overflow Bloom filters
/// (eager HTM). False positives abort the requester, as in the paper.
/// Most attempts fit in the L1, so no other filter usually holds a
/// line, and then there is nothing to hash or scan.
fn check_overflow_sigs(tx: &mut Txn<'_>, line: LineAddr) -> TxResult<()> {
    if tx.ctx.global.overflowing.get() & !(1 << tx.ctx.tid) == 0 {
        return Ok(());
    }
    let n = tx.ctx.global.config.threads;
    let probe = tx.sig_probe(line);
    for t in 0..n {
        if t == tx.ctx.tid || !tx.ctx.global.active[t].get() {
            continue;
        }
        if tx.ctx.global.overflow_sigs[t].hits(&probe) {
            crate::trace!(
                TraceLevel::SigHits,
                "line={} tid={} owner={t}",
                line.0,
                tx.ctx.tid
            );
            if !holds_priority(tx.ctx) {
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
    let flags = tx.ctx.txn.release_read(line.0).unwrap_or(0);
    if flags & OVERFLOWED != 0 {
        return; // tracked only by the Bloom filter: cannot release
    }
    if flags & READ != 0 {
        tx.ctx.verify_release_line(line);
        tx.ctx.global.directory.remove_reader(line, tx.ctx.tid);
        if flags & (WRITTEN | RESIDENT) == RESIDENT {
            let set = tx.ctx.global.config.l1.set_of(line.0);
            if let Some(c) = tx.ctx.txn.set_counts.get_mut(&set) {
                *c = c.saturating_sub(1);
            }
        }
    }
    tx.ctx.charge_tm(2);
}

// ----- commit / rollback ---------------------------------------------------

/// The lazy HTM's commit. It releases the commit token itself, however
/// the attempt came to hold it (overflow, the contention manager, or
/// this commit), before its fixed charge.
pub(super) fn lazy_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.check_doomed()?;
    if tx.ctx.txn.write_map.is_empty() && !tx.ctx.txn.token {
        tx.read_only_fence()?;
        release_directory_entries(tx);
        tx.ctx.charge_txn_fixed();
        return Ok(());
    }
    if !tx.ctx.txn.token {
        tx.acquire_commit_token()?;
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
    tx.ctx.release_token();
    tx.ctx.charge_txn_fixed();
    Ok(())
}

pub(super) fn eager_commit(tx: &mut Txn<'_>) -> TxResult<()> {
    tx.check_doomed()?;
    release_directory_entries(tx);
    clear_overflow_sig(tx.ctx);
    tx.ctx.txn.undo.clear();
    tx.ctx.charge_txn_fixed();
    Ok(())
}

/// Empty this thread's overflow filter, if it holds a line.
fn clear_overflow_sig(ctx: &ThreadCtx) {
    let bit = 1 << ctx.tid;
    let overflowing = &ctx.global.overflowing;
    if overflowing.get() & bit != 0 {
        ctx.global.overflow_sigs[ctx.tid].clear();
        overflowing.set(overflowing.get() & !bit);
    }
}

/// Leave the directory: remove this thread from every READ or WRITTEN
/// line, in any order (removing an unregistered line is a no-op).
fn release_directory_entries(tx: &mut Txn<'_>) {
    let (directory, tid) = (&tx.ctx.global.directory, tx.ctx.tid);
    for (&l, &flags) in &tx.ctx.txn.lines {
        if flags & (READ | WRITTEN) != 0 {
            directory.remove(LineAddr(l), tid);
        }
    }
}

/// Leave the directory and clear the eager HTM's overflow filter.
pub(super) fn rollback(tx: &mut Txn<'_>) {
    release_directory_entries(tx);
    clear_overflow_sig(tx.ctx);
}
