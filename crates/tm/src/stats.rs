//! Transactional statistics: everything needed to regenerate Table VI of
//! the paper — transaction length, read/write set sizes in 32-byte lines
//! (90th percentile), barrier counts, fraction of time spent in
//! transactions, and retries per transaction.

/// Bookkeeping cost of a `tm::verify` sanitizer pass (reported only
/// when verification is enabled; the sanitizer charges zero simulated
/// cycles, so its cost is pure wall-clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCost {
    /// Committed transactions whose logs were checked.
    pub txns_checked: u64,
    /// Serialization-graph edges built and examined.
    pub edges: u64,
    /// Wall-clock time of the finalize pass (graph build + cycle
    /// detection + consistency checks).
    pub wall: std::time::Duration,
}

/// Statistics of one *committed* transaction (the successful attempt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnRecord {
    /// Application cycles inside the committed attempt (work + memory
    /// latency, excluding TM barrier overhead) — the analogue of the
    /// paper's "instructions per transaction".
    pub app_cycles: u64,
    /// Distinct 32-byte lines read.
    pub read_lines: u32,
    /// Distinct 32-byte lines written.
    pub write_lines: u32,
    /// Read barrier invocations.
    pub read_barriers: u32,
    /// Write barrier invocations.
    pub write_barriers: u32,
    /// Aborted attempts before this commit.
    pub retries: u32,
}

/// A capped, stride-sampled store of transaction records. Keeps exact
/// records until the cap, then halves resolution; aggregate percentiles
/// stay representative for the long-running apps.
#[derive(Debug, Clone)]
pub struct SampledRecords {
    records: Vec<TxnRecord>,
    stride: u64,
    seen: u64,
    cap: usize,
}

impl Default for SampledRecords {
    fn default() -> Self {
        Self::with_cap(1 << 16)
    }
}

impl SampledRecords {
    /// Sampler keeping at most `cap` records.
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap >= 2);
        SampledRecords {
            records: Vec::new(),
            stride: 1,
            seen: 0,
            cap,
        }
    }

    /// Record a committed transaction.
    pub fn push(&mut self, rec: TxnRecord) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.stride) {
            self.records.push(rec);
            if self.records.len() >= self.cap {
                let mut keep = false;
                self.records.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
        }
    }

    /// Total transactions observed (not just sampled).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sampled records.
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Merge another sampler into this one (harmonizing strides).
    pub fn merge(&mut self, other: &SampledRecords) {
        self.seen += other.seen;
        self.records.extend_from_slice(&other.records);
        self.stride = self.stride.max(other.stride);
        while self.records.len() >= self.cap {
            let mut keep = false;
            self.records.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
    }
}

/// Transactional statistics, kept per thread during a run and summed
/// into one value per run by [`RunStats::absorb`].
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Transaction attempts begun (every attempt either commits or
    /// aborts: `commits + aborts == attempts`, asserted on absorb).
    pub attempts: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Simulated cycles spent in contention-manager backoff.
    pub backoff_cycles: u64,
    /// Eager-HTM conflicts won by priority/karma (victims doomed).
    pub priority_wins: u64,
    /// Eager-HTM conflicts lost despite priority/karma arbitration.
    pub priority_losses: u64,
    /// Commits whose attempt the contention manager serialized through
    /// the global queue.
    pub serialized_commits: u64,
    /// Aborts caused by an injected spurious event ([`crate::fault`]):
    /// capacity pressure, interrupts, or signature false positives —
    /// a subset of `aborts`, disjoint from real data conflicts.
    pub spurious_aborts: u64,
    /// Commits completed in irrevocable mode (starvation-watchdog
    /// escalation) — a subset of `commits`.
    pub irrevocable_commits: u64,
    /// Times the starvation watchdog escalated a transaction to
    /// irrevocable mode.
    pub watchdog_trips: u64,
    /// Cycles spent between the first `begin` and the final `commit` of
    /// each transaction (includes aborted attempts and backoff).
    pub cycles_in_txn: u64,
    /// A thread's final simulated clock; for a run, the sum over its
    /// threads.
    pub cycles_total: u64,
    /// Modeled cache accesses (0 unless `cache_sim` is enabled).
    pub mem_accesses: u64,
    /// Modeled cache misses.
    pub mem_misses: u64,
    /// Sampled committed-transaction records.
    pub records: SampledRecords,
}

impl RunStats {
    /// Fold a thread's statistics into the aggregate.
    ///
    /// # Panics
    ///
    /// Asserts the attempt-accounting invariant: every attempt the
    /// thread began must have either committed or aborted — exactly
    /// once. This pins down the abort bookkeeping the contention
    /// managers rely on (double-counting an abort would inflate every
    /// CM's view of contention).
    pub fn absorb(&mut self, t: &RunStats) {
        assert_eq!(
            t.commits + t.aborts,
            t.attempts,
            "attempt accounting: commits ({}) + aborts ({}) != attempts ({})",
            t.commits,
            t.aborts,
            t.attempts,
        );
        self.attempts += t.attempts;
        self.commits += t.commits;
        self.aborts += t.aborts;
        self.backoff_cycles += t.backoff_cycles;
        self.priority_wins += t.priority_wins;
        self.priority_losses += t.priority_losses;
        self.serialized_commits += t.serialized_commits;
        self.spurious_aborts += t.spurious_aborts;
        self.irrevocable_commits += t.irrevocable_commits;
        self.watchdog_trips += t.watchdog_trips;
        self.cycles_in_txn += t.cycles_in_txn;
        self.cycles_total += t.cycles_total;
        self.mem_accesses += t.mem_accesses;
        self.mem_misses += t.mem_misses;
        self.records.merge(&t.records);
    }

    /// Modeled cache miss rate (0 unless `cache_sim` was enabled).
    pub fn miss_rate(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.mem_misses as f64 / self.mem_accesses as f64
        }
    }

    /// Mean retries per committed transaction (Table VI, "Retries Per
    /// Transaction").
    pub fn retries_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Fraction of execution time spent inside transactions (Table VI,
    /// "Time in Transactions").
    pub fn time_in_txn(&self) -> f64 {
        if self.cycles_total == 0 {
            0.0
        } else {
            (self.cycles_in_txn as f64 / self.cycles_total as f64).min(1.0)
        }
    }

    /// Mean application cycles per committed transaction (the analogue
    /// of Table VI's mean instructions per transaction).
    pub fn mean_txn_len(&self) -> f64 {
        mean(self.records.records(), |r| r.app_cycles as f64)
    }

    /// Maximum application cycles over the sampled committed
    /// transactions (Table IV, "Length — Max").
    pub fn max_txn_len(&self) -> u64 {
        self.records
            .records()
            .iter()
            .map(|r| r.app_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Mean read-set size in lines (Table IV, "Read set — Mean").
    pub fn mean_read_lines(&self) -> f64 {
        mean(self.records.records(), |r| r.read_lines as f64)
    }

    /// Maximum read-set size in lines over the sample (Table IV,
    /// "Read set — Max").
    pub fn max_read_lines(&self) -> u32 {
        percentile(self.records.records(), 1.0, |r| r.read_lines)
    }

    /// Mean write-set size in lines (Table IV, "Write set — Mean").
    pub fn mean_write_lines(&self) -> f64 {
        mean(self.records.records(), |r| r.write_lines as f64)
    }

    /// Maximum write-set size in lines over the sample (Table IV,
    /// "Write set — Max").
    pub fn max_write_lines(&self) -> u32 {
        percentile(self.records.records(), 1.0, |r| r.write_lines)
    }

    /// 90th-percentile read-set size in lines.
    pub fn p90_read_lines(&self) -> u32 {
        percentile(self.records.records(), 0.90, |r| r.read_lines)
    }

    /// 90th-percentile write-set size in lines.
    pub fn p90_write_lines(&self) -> u32 {
        percentile(self.records.records(), 0.90, |r| r.write_lines)
    }

    /// 90th-percentile read-barrier count.
    pub fn p90_read_barriers(&self) -> u32 {
        percentile(self.records.records(), 0.90, |r| r.read_barriers)
    }

    /// 90th-percentile write-barrier count.
    pub fn p90_write_barriers(&self) -> u32 {
        percentile(self.records.records(), 0.90, |r| r.write_barriers)
    }
}

fn mean<T, F: Fn(&T) -> f64>(items: &[T], f: F) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// The `q`-quantile (0..=1) of `f` over `items`, by sorting.
fn percentile<T, F: Fn(&T) -> u32>(items: &[T], q: f64, f: F) -> u32 {
    if items.is_empty() {
        return 0;
    }
    let mut vals: Vec<u32> = items.iter().map(f).collect();
    vals.sort_unstable();
    let idx = ((vals.len() as f64 * q).ceil() as usize).clamp(1, vals.len()) - 1;
    vals[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(read_lines: u32) -> TxnRecord {
        TxnRecord {
            app_cycles: 10,
            read_lines,
            write_lines: 1,
            read_barriers: read_lines,
            write_barriers: 1,
            retries: 0,
        }
    }

    #[test]
    fn percentile_of_uniform() {
        let recs: Vec<TxnRecord> = (1..=100).map(rec).collect();
        assert_eq!(percentile(&recs, 0.90, |r| r.read_lines), 90);
        assert_eq!(percentile(&recs, 0.50, |r| r.read_lines), 50);
        assert_eq!(percentile(&recs, 1.0, |r| r.read_lines), 100);
    }

    #[test]
    fn percentile_empty_is_zero() {
        let recs: Vec<TxnRecord> = Vec::new();
        assert_eq!(percentile(&recs, 0.9, |r| r.read_lines), 0);
    }

    #[test]
    fn sampler_caps_and_counts() {
        let mut s = SampledRecords::with_cap(64);
        for i in 0..10_000 {
            s.push(rec(i % 100));
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.records().len() < 64);
        assert!(s.records().len() > 16);
    }

    #[test]
    fn sampler_merge_accumulates_seen() {
        let mut a = SampledRecords::with_cap(1024);
        let mut b = SampledRecords::with_cap(1024);
        for i in 0..100 {
            a.push(rec(i));
            b.push(rec(i + 100));
        }
        a.merge(&b);
        assert_eq!(a.seen(), 200);
        assert_eq!(a.records().len(), 200);
    }

    #[test]
    fn run_stats_ratios() {
        let mut rs = RunStats::default();
        let mut t = RunStats {
            attempts: 15,
            commits: 10,
            aborts: 5,
            cycles_in_txn: 600,
            cycles_total: 1000,
            ..Default::default()
        };
        for _ in 0..10 {
            t.records.push(rec(4));
        }
        rs.absorb(&t);
        assert_eq!(rs.retries_per_txn(), 0.5);
        assert_eq!(rs.time_in_txn(), 0.6);
        assert_eq!(rs.p90_read_lines(), 4);
        assert_eq!(rs.mean_txn_len(), 10.0);
    }

    #[test]
    fn absorb_sums_cm_counters() {
        let mut rs = RunStats::default();
        let t = RunStats {
            attempts: 7,
            commits: 4,
            aborts: 3,
            backoff_cycles: 250,
            priority_wins: 2,
            priority_losses: 1,
            serialized_commits: 1,
            spurious_aborts: 2,
            irrevocable_commits: 1,
            watchdog_trips: 1,
            ..Default::default()
        };
        rs.absorb(&t);
        rs.absorb(&t);
        assert_eq!(rs.attempts, 14);
        assert_eq!(rs.backoff_cycles, 500);
        assert_eq!(rs.priority_wins, 4);
        assert_eq!(rs.priority_losses, 2);
        assert_eq!(rs.serialized_commits, 2);
        assert_eq!(rs.spurious_aborts, 4);
        assert_eq!(rs.irrevocable_commits, 2);
        assert_eq!(rs.watchdog_trips, 2);
    }

    #[test]
    #[should_panic(expected = "attempt accounting")]
    fn absorb_rejects_attempt_mismatch() {
        // Regression guard for the CM refactor: moving abort accounting
        // into CM callbacks must not double-count (or drop) an outcome.
        let mut rs = RunStats::default();
        let t = RunStats {
            attempts: 10,
            commits: 10,
            aborts: 5, // 10 + 5 != 10: an abort was double-counted
            ..Default::default()
        };
        rs.absorb(&t);
    }

    #[test]
    fn time_in_txn_clamped() {
        let rs = RunStats {
            cycles_in_txn: 1200,
            cycles_total: 1000,
            ..Default::default()
        };
        assert_eq!(rs.time_in_txn(), 1.0);
    }
}
