//! `tm::prof` — per-transaction cycle accounting and abort attribution.
//!
//! The paper's evaluation never stops at "system A is slower than
//! system B": §V attributes every slowdown to *where* the cycles go —
//! aborted work, backoff, validation and commit overhead, commit
//! serialization. This module reproduces that attribution. With
//! profiling enabled ([`crate::TmConfig::prof`]), every
//! simulated cycle a thread burns is assigned to exactly one of six
//! exclusive buckets:
//!
//! | Bucket | Meaning |
//! |---|---|
//! | [`ProfBucket::Useful`] | application work + memory latency of *committed* attempts, and all non-transactional execution |
//! | [`ProfBucket::Wasted`] | everything spent on attempts that aborted (app work, barrier overhead, rollback, the fixed abort cost) |
//! | [`ProfBucket::Backoff`] | contention-manager backoff between retries |
//! | [`ProfBucket::Overhead`] | TM bookkeeping of committed attempts: barrier instrumentation, validation, commit |
//! | [`ProfBucket::Wait`] | serialized-token and conflict-stall waits (commit token, CM serialization queue, GlobalLock acquire, eager-HTM stalls) |
//! | [`ProfBucket::Barrier`] | phase-barrier synchronization (clock jump to the latest arrival) |
//!
//! The buckets satisfy a hard invariant, checked by
//! [`ProfReport::check`] and asserted throughout the test suite: **per
//! thread, the six buckets sum exactly to the thread's simulated cycle
//! count**. There is no "other" bucket to hide drift in.
//!
//! Alongside the buckets, the profiler keeps a per-line conflict table:
//! who aborted whom, at which heap line, how often — recorded at every
//! doom transition, encounter-time lock/signature conflict, commit-time
//! lock acquisition failure, and TL2 validation failure. The top-N "hot
//! lines" ([`ProfReport::hot_lines`]) name the addresses a contended
//! workload is actually fighting over.
//!
//! Like [`crate::verify`], the profiler is a pure observer: it charges
//! zero simulated cycles, so `sim_cycles` and every engine statistic
//! are bit-identical with profiling on or off.

use std::cell::RefCell;

use crate::fxhash::FxHashMap;

/// The six exclusive cycle buckets (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfBucket {
    /// Committed application work (+ all non-transactional execution).
    Useful,
    /// Cycles spent on attempts that aborted (including rollback and
    /// the fixed abort cost).
    Wasted,
    /// Contention-manager backoff between retries.
    Backoff,
    /// TM bookkeeping of committed attempts (barriers, validation,
    /// commit).
    Overhead,
    /// Serialized-token and conflict-stall waits.
    Wait,
    /// Phase-barrier synchronization.
    Barrier,
}

/// Number of buckets (array size for [`ProfThreadReport::buckets`]).
pub const PROF_BUCKETS: usize = 6;

impl ProfBucket {
    /// All buckets, in reporting order.
    pub const ALL: [ProfBucket; PROF_BUCKETS] = [
        ProfBucket::Useful,
        ProfBucket::Wasted,
        ProfBucket::Backoff,
        ProfBucket::Overhead,
        ProfBucket::Wait,
        ProfBucket::Barrier,
    ];

    /// Stable snake_case key, used for JSON fields (`cycles_<key>`).
    pub fn key(self) -> &'static str {
        match self {
            ProfBucket::Useful => "useful",
            ProfBucket::Wasted => "wasted",
            ProfBucket::Backoff => "backoff",
            ProfBucket::Overhead => "overhead",
            ProfBucket::Wait => "token_wait",
            ProfBucket::Barrier => "barrier_wait",
        }
    }
}

impl std::fmt::Display for ProfBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Per-thread accumulator, owned by the thread context. Cycle charges
/// land here either directly (waits, backoff, non-transactional work)
/// or via the per-attempt staging counters, which are folded into
/// `Useful`/`Overhead` or `Wasted` once the attempt's outcome is known.
#[derive(Debug, Default)]
pub(crate) struct ProfThread {
    /// The six exclusive buckets.
    pub buckets: [u64; PROF_BUCKETS],
    /// TM-overhead cycles of the *current attempt* (folded on outcome:
    /// commit → `Overhead`, abort → `Wasted`). Application cycles need
    /// no twin counter — the engine already tracks them per attempt in
    /// `TxnState::app_cycles`.
    pub att_tm: u64,
    /// STM only: lock-table index → first line read through it this
    /// attempt, so a TL2 validation failure can name the conflicting
    /// line. Cleared at attempt start.
    pub lock_lines: FxHashMap<u32, u64>,
}

impl ProfThread {
    #[inline]
    pub(crate) fn add(&mut self, bucket: ProfBucket, cycles: u64) {
        self.buckets[bucket as usize] += cycles;
    }

    /// Begin a new attempt: clear the per-attempt staging state.
    pub(crate) fn begin_attempt(&mut self) {
        self.att_tm = 0;
        self.lock_lines.clear();
    }

    /// Fold the finished attempt into its outcome buckets.
    /// `app_cycles` is the attempt's application-cycle total (from
    /// `TxnState`); `att_tm` is the staged TM overhead.
    pub(crate) fn end_attempt(&mut self, committed: bool, app_cycles: u64) {
        let tm = std::mem::take(&mut self.att_tm);
        if committed {
            self.add(ProfBucket::Useful, app_cycles);
            self.add(ProfBucket::Overhead, tm);
        } else {
            self.add(ProfBucket::Wasted, app_cycles + tm);
        }
    }

    /// Snapshot into a report row once the thread's final clock is
    /// known.
    pub(crate) fn into_report(self, tid: usize, total_cycles: u64) -> ProfThreadReport {
        ProfThreadReport {
            tid,
            total_cycles,
            buckets: self.buckets,
        }
    }
}

/// Sentinel "aborter" for conflicts whose other side is anonymous (a
/// version overrun observed after the owner already committed).
const UNKNOWN_TID: u8 = u8::MAX;

#[derive(Debug, Default)]
struct LineCounts {
    /// Conflict events recorded at this line.
    events: u64,
    /// (aborter, victim) → events. Aborter [`UNKNOWN_TID`] when the
    /// conflicting transaction could not be identified.
    pairs: FxHashMap<(u8, u8), u64>,
}

/// Cross-thread conflict table, shared through the run's global state.
/// Never charges simulated cycles.
#[derive(Debug, Default)]
pub(crate) struct ProfShared {
    conflicts: RefCell<FxHashMap<u64, LineCounts>>,
}

impl ProfShared {
    /// Record one conflict event: `aborter` (if identifiable) aborted
    /// or doomed `victim` at heap line `line`.
    pub(crate) fn record(&self, line: u64, aborter: Option<usize>, victim: usize) {
        let a = aborter.map(|t| t as u8).unwrap_or(UNKNOWN_TID);
        let mut tbl = self.conflicts.borrow_mut();
        let entry = tbl.entry(line).or_default();
        entry.events += 1;
        *entry.pairs.entry((a, victim as u8)).or_default() += 1;
    }

    /// Drain into the deterministic report form (sorted: events
    /// descending, then line ascending). Called once at finalize, via
    /// the shared `Rc<Global>`.
    pub(crate) fn drain_hot_lines(&self) -> Vec<HotLine> {
        let tbl = self.conflicts.take();
        let mut lines: Vec<HotLine> = tbl
            .into_iter()
            .map(|(line, c)| {
                let mut pairs: Vec<ConflictPair> = c
                    .pairs
                    .into_iter()
                    .map(|((a, v), count)| ConflictPair {
                        aborter: (a != UNKNOWN_TID).then_some(a as usize),
                        victim: v as usize,
                        events: count,
                    })
                    .collect();
                pairs.sort_by(|x, y| {
                    y.events
                        .cmp(&x.events)
                        .then(x.aborter.cmp(&y.aborter))
                        .then(x.victim.cmp(&y.victim))
                });
                HotLine {
                    line,
                    events: c.events,
                    pairs,
                }
            })
            .collect();
        lines.sort_by(|x, y| y.events.cmp(&x.events).then(x.line.cmp(&y.line)));
        lines
    }
}

/// One (aborter, victim) edge of a hot line's conflict breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPair {
    /// Thread whose conflict aborted/doomed the victim; `None` when the
    /// conflicting transaction was anonymous (already committed).
    pub aborter: Option<usize>,
    /// The thread that lost the conflict.
    pub victim: usize,
    /// How many times this pair clashed here.
    pub events: u64,
}

/// Conflict history of one heap line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotLine {
    /// The 32-byte line address (line index, not byte address).
    pub line: u64,
    /// Total conflict events recorded at this line.
    pub events: u64,
    /// Per-(aborter, victim) breakdown, most frequent first.
    pub pairs: Vec<ConflictPair>,
}

/// One thread's cycle breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfThreadReport {
    /// Thread id.
    pub tid: usize,
    /// The thread's final simulated clock.
    pub total_cycles: u64,
    /// The six buckets, indexed by [`ProfBucket`] discriminant.
    pub buckets: [u64; PROF_BUCKETS],
}

impl ProfThreadReport {
    /// Cycles in one bucket.
    pub fn bucket(&self, b: ProfBucket) -> u64 {
        self.buckets[b as usize]
    }

    /// Sum of all six buckets.
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Complete profiler output for one run, attached to
/// [`crate::RunReport::prof`] when profiling was enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// Per-thread cycle breakdowns, in tid order.
    pub threads: Vec<ProfThreadReport>,
    /// Conflict table, hottest line first.
    pub hot_lines: Vec<HotLine>,
}

impl ProfReport {
    /// Cycles in one bucket, summed across threads.
    pub fn bucket(&self, b: ProfBucket) -> u64 {
        self.threads.iter().map(|t| t.bucket(b)).sum()
    }

    /// Sum of every thread's simulated clock (the denominator for
    /// bucket fractions; note this is thread-cycles, not makespan).
    pub fn total_cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.total_cycles).sum()
    }

    /// Fraction of all thread-cycles in `b` (0 when nothing ran).
    pub fn fraction(&self, b: ProfBucket) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.bucket(b) as f64 / total as f64
        }
    }

    /// The hard accounting invariant: for every thread, the six buckets
    /// must sum *exactly* to the thread's simulated cycle count. Any
    /// cycle charged outside the bucketed charge paths shows up here as
    /// drift.
    ///
    /// # Errors
    ///
    /// Describes the first thread whose buckets do not sum to its
    /// clock, with the full breakdown.
    pub fn check(&self) -> Result<(), String> {
        for t in &self.threads {
            let sum = t.bucket_sum();
            if sum != t.total_cycles {
                let detail: Vec<String> = ProfBucket::ALL
                    .iter()
                    .map(|&b| format!("{}={}", b.key(), t.bucket(b)))
                    .collect();
                return Err(format!(
                    "cycle-accounting drift on tid {}: buckets sum to {} but the \
                     thread clock is {} (delta {:+}): {}",
                    t.tid,
                    sum,
                    t.total_cycles,
                    sum as i64 - t.total_cycles as i64,
                    detail.join(" ")
                ));
            }
        }
        Ok(())
    }

    /// The `n` hottest conflict lines.
    pub fn hot_lines(&self, n: usize) -> &[HotLine] {
        &self.hot_lines[..n.min(self.hot_lines.len())]
    }

    /// Total conflict events across all lines.
    pub fn conflict_events(&self) -> u64 {
        self.hot_lines.iter().map(|h| h.events).sum()
    }

    /// Multi-line human summary: aggregate bucket percentages plus the
    /// top-`n` hot lines.
    pub fn summary(&self, n: usize) -> String {
        let mut out = String::from("cycle breakdown:");
        for b in ProfBucket::ALL {
            out.push_str(&format!(" {}={:.1}%", b.key(), self.fraction(b) * 100.0));
        }
        out.push('\n');
        if self.hot_lines.is_empty() {
            out.push_str("no conflicts recorded\n");
        } else {
            out.push_str(&format!(
                "hot lines ({} conflict events total):\n",
                self.conflict_events()
            ));
            for h in self.hot_lines(n) {
                let pair = h
                    .pairs
                    .first()
                    .map(|p| {
                        format!(
                            " (top pair: {}→t{} ×{})",
                            p.aborter
                                .map(|a| format!("t{a}"))
                                .unwrap_or_else(|| "?".into()),
                            p.victim,
                            p.events
                        )
                    })
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  line {:#x}: {} events{pair}\n",
                    h.line, h.events
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_attempt_folds_by_outcome() {
        let mut p = ProfThread {
            att_tm: 30,
            ..Default::default()
        };
        p.end_attempt(true, 100);
        assert_eq!(p.buckets[ProfBucket::Useful as usize], 100);
        assert_eq!(p.buckets[ProfBucket::Overhead as usize], 30);
        p.att_tm = 7;
        p.end_attempt(false, 50);
        assert_eq!(p.buckets[ProfBucket::Wasted as usize], 57);
        assert_eq!(p.att_tm, 0);
    }

    #[test]
    fn check_flags_drift() {
        let ok = ProfReport {
            threads: vec![ProfThreadReport {
                tid: 0,
                total_cycles: 10,
                buckets: [4, 3, 1, 1, 1, 0],
            }],
            hot_lines: vec![],
        };
        assert!(ok.check().is_ok());
        let bad = ProfReport {
            threads: vec![ProfThreadReport {
                tid: 1,
                total_cycles: 11,
                buckets: [4, 3, 1, 1, 1, 0],
            }],
            hot_lines: vec![],
        };
        let err = bad.check().unwrap_err();
        assert!(err.contains("tid 1"), "{err}");
        assert!(err.contains("delta -1"), "{err}");
    }

    #[test]
    fn conflict_table_sorts_deterministically() {
        let s = ProfShared::default();
        s.record(7, Some(0), 1);
        s.record(7, Some(0), 1);
        s.record(3, None, 2);
        s.record(9, Some(1), 0);
        s.record(9, Some(2), 0);
        let hot = s.drain_hot_lines();
        assert_eq!(hot.len(), 3);
        // line 7 (2 events) first; 3 and 9 tie at... 9 has 2 events,
        // 3 has 1: order 7(2), 9(2) — tie broken by line asc — then 3.
        assert_eq!(hot[0].line, 7);
        assert_eq!(hot[1].line, 9);
        assert_eq!(hot[2].line, 3);
        assert_eq!(hot[0].pairs[0].events, 2);
        assert_eq!(hot[2].pairs[0].aborter, None);
    }

    #[test]
    fn fractions_and_summary() {
        let rep = ProfReport {
            threads: vec![
                ProfThreadReport {
                    tid: 0,
                    total_cycles: 60,
                    buckets: [60, 0, 0, 0, 0, 0],
                },
                ProfThreadReport {
                    tid: 1,
                    total_cycles: 40,
                    buckets: [0, 40, 0, 0, 0, 0],
                },
            ],
            hot_lines: vec![HotLine {
                line: 0x20,
                events: 4,
                pairs: vec![ConflictPair {
                    aborter: Some(0),
                    victim: 1,
                    events: 4,
                }],
            }],
        };
        assert!(rep.check().is_ok());
        assert_eq!(rep.bucket(ProfBucket::Useful), 60);
        assert!((rep.fraction(ProfBucket::Wasted) - 0.4).abs() < 1e-12);
        let s = rep.summary(3);
        assert!(s.contains("useful=60.0%"), "{s}");
        assert!(s.contains("line 0x20"), "{s}");
        assert!(s.contains("t0→t1"), "{s}");
    }
}
