//! Process-wide host counters from `getrusage(RUSAGE_SELF)`, through a
//! std-only FFI declaration (the build is offline, so no `libc` crate).
//!
//! `RUSAGE_SELF` sums every thread of the process, including threads
//! that have already exited, which is what a simulation phase needs: its
//! logical processors are short-lived OS threads. The switch counts in
//! `/proc/self/status` cover only the main thread, so they cannot stand
//! in for this.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads getrusage with the Linux struct layout");

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

/// One reading of the process's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in KiB.
    pub maxrss_kb: u64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // Linux layout (guarded by the `compile_error!` above), and
        // `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
            maxrss_kb: raw.ru_maxrss as u64,
            vcsw: raw.ru_nvcsw as u64,
            ivcsw: raw.ru_nivcsw as u64,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The counters accumulated since `earlier` (peak RSS is kept as
    /// read now: it is a high-water mark, not a counter).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            maxrss_kb: self.maxrss_kb,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_see_other_threads() {
        let before = Usage::now();
        // A thread that blocks once makes at least one voluntary switch;
        // RUSAGE_SELF must count it after the thread has exited.
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(5)))
            .join()
            .expect("sleeper thread");
        let d = Usage::now().since(&before);
        assert!(d.vcsw >= 1, "{d:?}");
        assert!(d.maxrss_kb > 0);
    }
}
