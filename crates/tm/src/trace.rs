//! Unified diagnostic tracing for the TM engine.
//!
//! One process-wide set of levels, all off until [`enable`] is called,
//! controls every diagnostic stream. The binaries set it once from
//! `--trace` / `TM_TRACE`, a comma-separated list of levels
//! ([`TraceLevel::parse_list`]):
//!
//! * `conflicts` — every HTM/hybrid conflict-resolution event (who
//!   aborted or stalled for whom, and on which line),
//! * `overflows` — L1 overflow events (a line falling out of the
//!   tracked cache into the overflow signature),
//! * `sighits` — hybrid signature hits during commit-time scans
//!   (including false positives, which is the point of tracing them),
//! * `verify` — reports from the [`crate::verify`] sanitizer,
//! * `faults` — injected [`crate::fault`] events and watchdog trips,
//! * `all` (or `1`) — everything.
//!
//! Example: `TM_TRACE=conflicts,sighits cargo run -p bench --bin table6`.
//! Output goes to stderr so it never mixes with table output.

use std::sync::atomic::{AtomicU8, Ordering};

/// One diagnostic stream that can be toggled with [`enable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Conflict-resolution events (aborts, stalls, dooms).
    Conflicts,
    /// L1 overflow events (line spills into the overflow signature).
    Overflows,
    /// Hybrid signature hits during commit-time scans.
    SigHits,
    /// Reports from the `tm::verify` sanitizer.
    Verify,
    /// Injected spurious events from the [`crate::fault`] layer and
    /// watchdog escalations — tagged distinctly from real conflicts so
    /// abort-attribution traces never blame an innocent address for an
    /// injected abort.
    Faults,
}

impl TraceLevel {
    /// Every level.
    pub const ALL: [TraceLevel; 5] = [
        TraceLevel::Conflicts,
        TraceLevel::Overflows,
        TraceLevel::SigHits,
        TraceLevel::Verify,
        TraceLevel::Faults,
    ];

    /// Parse a comma-separated level list: `conflicts`, `overflows`,
    /// `sighits`, `verify`, `faults`, or `all` (also `1`).
    ///
    /// # Errors
    ///
    /// Names the first part that is not a level.
    pub fn parse_list(s: &str) -> Result<Vec<TraceLevel>, String> {
        let mut levels = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            levels.extend_from_slice(match part {
                "conflicts" | "conflict" => &[TraceLevel::Conflicts],
                "overflows" | "overflow" => &[TraceLevel::Overflows],
                "sighits" | "sighit" => &[TraceLevel::SigHits],
                "verify" => &[TraceLevel::Verify],
                "faults" | "fault" => &[TraceLevel::Faults],
                "all" | "1" => &TraceLevel::ALL,
                _ => {
                    return Err(format!(
                        "unknown level {part:?} (expected conflicts, overflows, sighits, verify, faults, all)"
                    ))
                }
            });
        }
        Ok(levels)
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The stderr tag prefix for this level.
    pub fn tag(self) -> &'static str {
        match self {
            TraceLevel::Conflicts => "tm:conflict",
            TraceLevel::Overflows => "tm:overflow",
            TraceLevel::SigHits => "tm:sighit",
            TraceLevel::Verify => "tm:verify",
            TraceLevel::Faults => "tm:fault",
        }
    }
}

// Relaxed throughout: the mask publishes no other data.
static MASK: AtomicU8 = AtomicU8::new(0);

/// Turn on exactly `levels` (and off every other) for the whole process.
pub fn enable(levels: &[TraceLevel]) {
    MASK.store(levels.iter().fold(0, |m, l| m | l.bit()), Ordering::Relaxed);
}

/// Whether `level` is enabled.
///
/// Call sites guard their formatting behind this so tracing costs one
/// branch when disabled.
#[inline]
pub fn enabled(level: TraceLevel) -> bool {
    MASK.load(Ordering::Relaxed) & level.bit() != 0
}

/// Emit one tagged line to stderr if `level` is enabled.
pub fn emit(level: TraceLevel, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("[{}] {}", level.tag(), args);
    }
}

/// Convenience wrapper around [`emit`]: `trace!(TraceLevel::Conflicts, "...", ..)`.
#[macro_export]
macro_rules! trace {
    ($level:expr, $($fmt:tt)*) => {
        $crate::trace::emit($level, format_args!($($fmt)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Nothing in the test binary enables a level.
    #[test]
    fn disabled_by_default() {
        assert!(!enabled(TraceLevel::Conflicts));
        assert!(!enabled(TraceLevel::Verify));
        // emit with disabled level is a no-op (must not panic).
        emit(TraceLevel::SigHits, format_args!("dropped"));
    }

    #[test]
    fn level_lists_parse() {
        assert_eq!(
            TraceLevel::parse_list("conflicts, sighits"),
            Ok(vec![TraceLevel::Conflicts, TraceLevel::SigHits])
        );
        assert_eq!(TraceLevel::parse_list("all"), Ok(TraceLevel::ALL.to_vec()));
        assert_eq!(TraceLevel::parse_list(""), Ok(vec![]));
        assert!(TraceLevel::parse_list("conflicts,bogus")
            .unwrap_err()
            .contains("\"bogus\""));
    }

    #[test]
    fn tags_are_distinct() {
        let tags = TraceLevel::ALL.map(TraceLevel::tag);
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
