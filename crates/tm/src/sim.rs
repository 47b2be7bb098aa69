//! Time-ordered execution simulation.
//!
//! The STAMP paper evaluates every TM system on an execution-driven
//! simulator (Table V) and reports *simulated cycles*, not hardware wall
//! clock. This module provides the equivalent substrate: the logical
//! threads of a run are fibers on one OS thread, and the deterministic
//! turn-based [`crate::sched::Scheduler`] decides which of them runs.
//! Every TM barrier, memory access, and unit of application work
//! advances the local clock, so contention, aborts, and serialization
//! emerge from reproducible interleavings of the *logical* processors —
//! independent of how many host cores exist.
//!
//! Synchronization primitives that must not stall simulated time
//! ([`SimMutex`]) spin in simulated time; the phase barrier
//! ([`SimBarrier`]) counts arrivals while the scheduler keeps arrived
//! threads parked outside its runnable set, and re-synchronizes their
//! clocks on release, like a hardware barrier would.
//!
//! Threads of a run interleave only inside scheduler calls (clock
//! publishes, barriers, the turn gate; see [`crate::runtime`]), so these
//! primitives are plain `Cell`s: between two scheduler calls the running
//! thread is the only one touching them. They are `!Sync`, and sharing
//! one with another OS thread does not compile:
//!
//! ```compile_fail,E0277
//! let barrier = tm::SimBarrier::new(2);
//! std::thread::scope(|s| {
//!     s.spawn(|| barrier.arrive(0));
//! });
//! ```

use std::cell::Cell;

/// Cycles a thread charges between flush points. A flush publishes to
/// the scheduler only once the turn's lease runs out
/// ([`crate::runtime::ThreadCtx::flush`]), but retention is judged at
/// flush points alone, so the effective quantum is
/// `quantum + FLUSH_CYCLES`.
pub(crate) const FLUSH_CYCLES: u64 = 64;

/// A mutex that spins in *simulated* time.
///
/// Holders are expected to release quickly (commit sections); waiters
/// retry [`SimMutex::try_acquire`], charging simulated cycles per failed
/// attempt, which hands the turn to the holder.
pub struct SimMutex {
    locked: Cell<bool>,
}

impl Default for SimMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMutex {
    /// Create an unlocked mutex.
    pub const fn new() -> Self {
        SimMutex {
            locked: Cell::new(false),
        }
    }

    /// Try to acquire without spinning. Returns true on success.
    #[inline]
    pub fn try_acquire(&self) -> bool {
        !self.locked.replace(true)
    }

    /// Release the mutex.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the mutex was held.
    #[inline]
    pub fn release(&self) {
        debug_assert!(self.locked.get());
        self.locked.set(false);
    }

    /// Whether the mutex is currently held by someone.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.get()
    }
}

impl std::fmt::Debug for SimMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimMutex(locked={})", self.is_locked())
    }
}

/// A phase barrier for logical threads that re-synchronizes simulated
/// clocks: all participants leave with their clock set to the latest
/// arrival time (plus a small fixed cost).
///
/// The barrier itself never blocks: it only counts arrivals.
/// [`crate::ThreadCtx::barrier`] parks each arriving thread in the
/// scheduler and lets the last arrival release them all.
pub struct SimBarrier {
    n: usize,
    cost: u64,
    arrived: Cell<usize>,
    max_clock: Cell<u64>,
}

impl SimBarrier {
    /// Barrier for `n` logical threads.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        SimBarrier {
            n,
            cost: 100,
            arrived: Cell::new(0),
            max_clock: Cell::new(0),
        }
    }

    /// Arrive with simulated clock `clock`. The last of the `n` arrivals
    /// gets `Some(release)`, the synchronized release clock, and the
    /// barrier resets for its next use; every earlier arrival gets
    /// `None`.
    ///
    /// The last arrival is the *releaser*: it must re-admit all
    /// participants to the scheduler in a single deterministic step
    /// ([`crate::sched::Scheduler::unpark_all`]).
    pub fn arrive(&self, clock: u64) -> Option<u64> {
        let max_clock = self.max_clock.get().max(clock);
        let arrived = self.arrived.get() + 1;
        if arrived < self.n {
            self.max_clock.set(max_clock);
            self.arrived.set(arrived);
            return None;
        }
        self.max_clock.set(0);
        self.arrived.set(0);
        Some(max_clock + self.cost)
    }
}

impl std::fmt::Debug for SimBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimBarrier(n={})", self.n)
    }
}

/// A tiny, fast, seedable PRNG (xorshift64*), used for backoff delays and
/// as the engine-internal randomness source. Deterministic per seed.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create from a seed (zero is mapped to a fixed nonzero constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_mutex_is_held_until_released() {
        let m = SimMutex::new();
        assert!(!m.is_locked());
        assert!(m.try_acquire());
        assert!(m.is_locked());
        assert!(!m.try_acquire(), "a held mutex cannot be taken again");
        m.release();
        assert!(!m.is_locked());
        assert!(m.try_acquire());
        m.release();
    }

    #[test]
    fn barrier_releases_on_last_arrival_and_resets() {
        let b = SimBarrier::new(3);
        for round in 0..3u64 {
            assert_eq!(b.arrive(100 + round), None);
            assert_eq!(b.arrive(500 + round), None);
            // max(100, 500, 300) + barrier cost 100, every generation.
            assert_eq!(b.arrive(300 + round), Some(600 + round));
        }
    }

    #[test]
    fn xorshift_deterministic_and_bounded() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }
}
