//! Stackful fibers for the logical threads of a run, and the crate's
//! anonymous-mapping FFI.
//!
//! Under [`crate::sched`]'s strict dispatch exactly one logical thread
//! runs at any instant, so giving each one its own OS thread buys
//! nothing but a futex round trip and a host context switch per turn
//! handoff. [`crate::TmRuntime::run`] instead runs every logical thread
//! as a [`Fiber`] on the calling OS thread: [`Fiber::resume`] switches
//! onto the fiber's stack, and [`suspend`] switches back to whoever
//! resumed it. A switch saves and restores the SysV callee-saved
//! registers plus MXCSR and the x87 control word, so each fiber keeps
//! its own integer and float state exactly as a thread does.
//!
//! Fiber stacks are fresh anonymous mappings ([`Mapping`]) with a
//! `PROT_NONE` guard page below, so an overflow dies by `SIGSEGV`
//! instead of writing over a neighbour. The same helper backs the
//! simulated heap's chunks ([`Words`], whose only user is
//! [`crate::heap`]): the kernel hands out zero pages on first touch, so
//! untouched words cost neither a memset nor resident memory.
//!
//! The context switch is x86_64 SysV assembly and the mapping constants
//! are Linux's; other targets fail to compile with a message naming the
//! missing pieces.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "tm::fiber supports x86_64 Linux only: port the `stamp_tm_fiber_switch` / \
     `stamp_tm_fiber_start` assembly and the mmap constants to this target"
);

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};

/// Host page size on x86_64 Linux.
const PAGE: usize = 4096;

/// Usable stack per fiber: what std gives a spawned thread by default.
const STACK_BYTES: usize = 2 << 20;

/// Initial MXCSR (all exceptions masked, round to nearest) and x87
/// control word (extended precision, all exceptions masked): the SysV
/// ABI's process-start values, which every new thread also starts with.
const INITIAL_MXCSR: u64 = 0x1F80;
const INITIAL_X87_CW: u64 = 0x037F;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// A private anonymous mapping of fresh zero pages, unmapped on drop.
/// Only touched pages become resident (`MAP_NORESERVE`). Neither `Send`
/// nor `Sync` (it holds a raw pointer): its users, a fiber's stack and a
/// heap chunk, stay on the OS thread of the run that made them.
pub(crate) struct Mapping {
    base: NonNull<u8>,
    len: usize,
}

impl Mapping {
    /// Map `len` bytes (rounded up to whole pages), readable and
    /// writable except for the lowest `guard` bytes, which are
    /// `PROT_NONE`.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the mapping or the protection change.
    pub(crate) fn new(len: usize, guard: usize) -> Mapping {
        let len = len.next_multiple_of(PAGE);
        assert!(
            guard.is_multiple_of(PAGE) && guard < len,
            "bad guard size {guard}"
        );
        // SAFETY: an anonymous private mapping at a kernel-chosen
        // address aliases no existing memory; failure is checked below.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of {len} bytes failed: {}",
            std::io::Error::last_os_error()
        );
        let map = Mapping {
            base: NonNull::new(base.cast()).expect("mmap returned null"),
            len,
        };
        if guard > 0 {
            // SAFETY: `[base, base + guard)` lies inside the mapping just
            // created, which nothing references yet.
            let rc = unsafe { mprotect(base, guard, PROT_NONE) };
            assert!(
                rc == 0,
                "mprotect of a guard page failed: {}",
                std::io::Error::last_os_error()
            );
        }
        map
    }

    /// First byte of the mapping.
    fn base(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// One past the last byte of the mapping (page-aligned).
    fn end(&self) -> *mut u8 {
        // SAFETY: `len` is the mapping's length, so this is its one-past-
        // the-end address.
        unsafe { self.base().add(self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` describe exactly the mapping `new`
        // created, and every borrow of its contents ended with `self`.
        // munmap fails only on arguments like these being invalid, and
        // a destructor has no one to report to, so the result is unused.
        unsafe { munmap(self.base().cast(), self.len) };
    }
}

/// A fixed-length table of zero-initialized `Cell<u64>`s on fresh
/// anonymous pages: no memset up front, and entries never touched never
/// become resident. It stores the simulated heap's chunks, which a run
/// fills from the bottom up; the lock table, whose hashed indices would
/// touch nearly every page, keeps a sparse map instead
/// ([`crate::locks`]). `!Sync`, like the cells it hands out.
pub(crate) struct Words {
    map: Mapping,
    len: usize,
    _cells: PhantomData<Cell<u64>>,
}

impl Words {
    /// `len` words, all zero.
    pub(crate) fn zeroed(len: usize) -> Words {
        let bytes = len
            .checked_mul(std::mem::size_of::<u64>())
            .expect("table size overflows");
        Words {
            map: Mapping::new(bytes.max(1), 0),
            len,
            _cells: PhantomData,
        }
    }
}

impl Deref for Words {
    type Target = [Cell<u64>];

    fn deref(&self) -> &[Cell<u64>] {
        // SAFETY: the mapping is page-aligned (so 8-byte aligned), at
        // least `len * 8` bytes long, readable and writable, and starts
        // zero-filled; all-zero bits are a valid `Cell<u64>`. It lives
        // as long as `self`, and all mutation goes through the cells,
        // which `Words` being `!Sync` keeps on one OS thread.
        unsafe { std::slice::from_raw_parts(self.map.base().cast::<Cell<u64>>(), self.len) }
    }
}

// The context switch. `stamp_tm_fiber_switch(save, load)` pushes the
// callee-saved registers and the float control state onto the current
// stack, stores the stack pointer to `*save`, loads `load` as the new
// stack pointer, and pops the same layout from there. Frame layout, from
// the saved stack pointer up: MXCSR (4 bytes) and x87 control word
// (2 bytes, padded to 8), r15, r14, r13, r12, rbx, rbp, return address.
//
// `stamp_tm_fiber_start` is where a fresh fiber's first switch returns
// to: it calls the entry function in r12 with the argument in r13. It
// carries no unwind info, so a backtrace taken inside a fiber ends
// cleanly there, and the entry function never returns.
std::arch::global_asm!(
    ".pushsection .text.stamp_tm_fiber,\"ax\",@progbits",
    ".p2align 4",
    ".globl stamp_tm_fiber_switch",
    ".hidden stamp_tm_fiber_switch",
    ".type stamp_tm_fiber_switch,@function",
    "stamp_tm_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size stamp_tm_fiber_switch, . - stamp_tm_fiber_switch",
    "",
    ".p2align 4",
    ".globl stamp_tm_fiber_start",
    ".hidden stamp_tm_fiber_start",
    ".type stamp_tm_fiber_start,@function",
    "stamp_tm_fiber_start:",
    "mov rdi, r13",
    "call r12",
    "ud2",
    ".size stamp_tm_fiber_start, . - stamp_tm_fiber_start",
    ".popsection",
);

extern "C" {
    fn stamp_tm_fiber_switch(save: *mut *mut u8, load: *mut u8);
    fn stamp_tm_fiber_start();
}

/// The two stack pointers of a fiber (its own while it is suspended,
/// its resumer's while it runs), and whether it is being unwound.
struct Regs {
    fiber_sp: *mut u8,
    caller_sp: *mut u8,
    /// Set by `Drop`: the next return from [`suspend`] unwinds instead.
    unwind: bool,
}

/// The panic payload that unwinds a fiber dropped while suspended.
struct Unwound;

/// Heap-pinned fiber state shared by [`Fiber`] and the code running on
/// the fiber's stack. Both sides access it only through raw pointers,
/// and never at the same time: control passes between them only at a
/// switch.
struct Context<F> {
    regs: Regs,
    /// The body, until the fiber first runs.
    body: Option<F>,
    /// Set when the body has returned (`Ok`) or panicked (`Err`),
    /// until `resume` hands it out.
    outcome: Option<std::thread::Result<()>>,
    finished: bool,
}

thread_local! {
    /// The registers of the fiber running on this OS thread, or null
    /// outside any fiber.
    static CURRENT: Cell<*mut Regs> = const { Cell::new(ptr::null_mut()) };
}

/// A body running on its own stack, switched to and from on the
/// current OS thread. `!Send`: its stack may hold borrows of the
/// creating thread's frames.
pub(crate) struct Fiber<F: FnOnce()> {
    ctx: NonNull<Context<F>>,
    /// Held so the stack stays mapped for as long as the fiber can run.
    _stack: Mapping,
    _not_send: PhantomData<*mut ()>,
}

impl<F: FnOnce()> Fiber<F> {
    /// A suspended fiber that will run `body` on a fresh 2 MiB stack
    /// when first resumed.
    pub(crate) fn new(body: F) -> Fiber<F> {
        let stack = Mapping::new(STACK_BYTES + PAGE, PAGE);
        let ctx = NonNull::from(Box::leak(Box::new(Context {
            regs: Regs {
                fiber_sp: ptr::null_mut(),
                caller_sp: ptr::null_mut(),
                unwind: false,
            },
            body: Some(body),
            outcome: None,
            finished: false,
        })));
        // The frame the first switch pops (see the assembly): float
        // control state, r15, r14, r13 = argument, r12 = entry, rbx,
        // rbp = 0 (ends frame-pointer walks), return address. Two spare
        // words above it leave the stack 16-byte aligned at the call
        // in `stamp_tm_fiber_start`.
        let entry: unsafe extern "C" fn(*mut Context<F>) -> ! = fiber_main::<F>;
        let frame: [u64; 8] = [
            INITIAL_MXCSR | (INITIAL_X87_CW << 32),
            0,
            0,
            ctx.as_ptr() as u64,
            entry as *const () as u64,
            0,
            0,
            stamp_tm_fiber_start as *const () as u64,
        ];
        // SAFETY: the stack is at least one usable page, page-aligned at
        // the top, and nothing else references it; the frame occupies 64
        // of the top 80 bytes.
        let sp = unsafe {
            let sp = stack.end().sub(80);
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            sp
        };
        // SAFETY: `ctx` was just leaked from a box and is not shared yet.
        unsafe { (*ctx.as_ptr()).regs.fiber_sp = sp };
        Fiber {
            ctx,
            _stack: stack,
            _not_send: PhantomData,
        }
    }

    /// Run the fiber until it calls [`suspend`] (returns `None`) or its
    /// body finishes (returns `Some` with the body's outcome; a panic is
    /// caught on the fiber and handed back here as `Err`).
    ///
    /// # Panics
    ///
    /// If the body already finished.
    pub(crate) fn resume(&mut self) -> Option<std::thread::Result<()>> {
        let ctx = self.ctx.as_ptr();
        // SAFETY: `ctx` is live for as long as `self`, and the fiber side
        // touches it only while running, which it is not.
        assert!(!unsafe { (*ctx).finished }, "resumed a finished fiber");
        // SAFETY: as above; `regs` stays pinned on the heap.
        let regs = unsafe { ptr::addr_of_mut!((*ctx).regs) };
        let outer = CURRENT.replace(regs);
        // SAFETY: `fiber_sp` is the stack pointer the fiber saved when it
        // last switched away (or the initial frame `new` built), on a
        // stack `self` keeps mapped. The fiber switches back to
        // `caller_sp` before this call returns, and everything the body
        // borrows outlives `self` (a `Fiber<F>` cannot outlive `F`).
        unsafe { stamp_tm_fiber_switch(ptr::addr_of_mut!((*regs).caller_sp), (*regs).fiber_sp) };
        CURRENT.set(outer);
        // SAFETY: the fiber is suspended or finished again.
        unsafe { (*ctx).outcome.take() }
    }
}

/// Switch from the running fiber back to whoever resumed it; returns
/// when the fiber is resumed again.
///
/// # Panics
///
/// If called outside a fiber. Unwinds the fiber's stack, without
/// running the panic hook, if the fiber was dropped while suspended
/// here.
pub(crate) fn suspend() {
    let regs = CURRENT.get();
    assert!(!regs.is_null(), "fiber::suspend called outside a fiber");
    // SAFETY: `regs` belongs to the fiber running on this OS thread,
    // whose resumer saved `caller_sp` and is waiting inside `resume`.
    // When this fiber runs again, `resume` has set CURRENT back to it.
    let unwind = unsafe {
        stamp_tm_fiber_switch(ptr::addr_of_mut!((*regs).fiber_sp), (*regs).caller_sp);
        (*regs).unwind
    };
    if unwind {
        std::panic::resume_unwind(Box::new(Unwound));
    }
}

/// First Rust frame on a fiber's stack: run the body, record its
/// outcome, and switch away for good.
///
/// # Safety
///
/// Only `stamp_tm_fiber_start` calls this, on a fresh fiber's stack,
/// with the context of the `Fiber` whose `resume` switched to it.
unsafe extern "C" fn fiber_main<F: FnOnce()>(ctx: *mut Context<F>) -> ! {
    // SAFETY: `ctx` is the context `Fiber::new` passed in r13; the
    // `Fiber` keeps it live and is inside `resume`, so no one else
    // touches it until the switch below. The body's borrows outlive
    // the `Fiber`, and the fiber only ever runs inside `resume` — never
    // after the `Fiber` is dropped.
    let body = unsafe { (*ctx).body.take() }.expect("fiber started twice");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    // SAFETY: as above.
    unsafe {
        (*ctx).outcome = Some(outcome);
        (*ctx).finished = true;
        let regs = ptr::addr_of_mut!((*ctx).regs);
        stamp_tm_fiber_switch(ptr::addr_of_mut!((*regs).fiber_sp), (*regs).caller_sp);
    }
    unreachable!("a finished fiber was resumed")
}

impl<F: FnOnce()> Drop for Fiber<F> {
    fn drop(&mut self) {
        let ctx = self.ctx.as_ptr();
        // SAFETY: the fiber is not running, so `ctx` is ours to read.
        let (started, finished) = unsafe { ((*ctx).body.is_none(), (*ctx).finished) };
        if started && !finished {
            // A fiber dropped mid-body never runs its body again, but it
            // is unwound, as a joined thread would be: its destructors
            // run, so nothing it lent out (say, to a scoped thread)
            // outlives the frames it borrowed from before its stack is
            // unmapped. Every `suspend` from here on unwinds.
            // SAFETY: as above.
            unsafe { (*ctx).regs.unwind = true };
            while self.resume().is_none() {}
        }
        // SAFETY: the context was leaked from a box in `new`, and the
        // fiber has finished or never started.
        drop(unsafe { Box::from_raw(ctx) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Resume every unfinished fiber in turn until all have finished.
    fn round_robin<F: FnOnce()>(fibers: &mut [Fiber<F>]) {
        let mut live = vec![true; fibers.len()];
        while live.contains(&true) {
            for (fiber, live) in fibers.iter_mut().zip(&mut live) {
                if *live {
                    if let Some(outcome) = fiber.resume() {
                        outcome.expect("fiber body panicked");
                        *live = false;
                    }
                }
            }
        }
    }

    /// Integer and float work whose intermediate state must survive a
    /// switch after every step.
    fn churn(seed: u64, steps: u64, yield_each_step: bool) -> (u64, f64) {
        let (mut h, mut x) = (seed, seed as f64 * 0.5);
        for i in 0..steps {
            h = h.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = x * 1.000_1 + (h % 1000) as f64 / 7.0;
            if yield_each_step {
                suspend();
            }
        }
        (h, x)
    }

    #[test]
    fn integer_and_float_state_survives_switches_among_16_fibers() {
        const STEPS: u64 = 4000;
        let results = RefCell::new(vec![None; 16]);
        let mut fibers: Vec<_> = (0..16u64)
            .map(|t| {
                let results = &results;
                Fiber::new(move || {
                    let r = churn(t + 1, STEPS, true);
                    results.borrow_mut()[t as usize] = Some(r);
                })
            })
            .collect();
        round_robin(&mut fibers);
        drop(fibers);
        for (t, r) in results.into_inner().into_iter().enumerate() {
            assert_eq!(r, Some(churn(t as u64 + 1, STEPS, false)), "fiber {t}");
        }
    }

    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: `stmxcsr` stores the 4-byte MXCSR to valid memory.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
        v
    }

    fn set_mxcsr(v: u32) {
        // SAFETY: `ldmxcsr` loads MXCSR from valid memory; the values
        // used below only change the rounding mode, with every exception
        // still masked.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack)) };
    }

    #[test]
    fn float_control_state_is_per_fiber() {
        const ROUND_TOWARD_ZERO: u32 = 0x6000;
        let outer = mxcsr();
        let mut fiber = Fiber::new(|| {
            assert_eq!(mxcsr(), INITIAL_MXCSR as u32);
            set_mxcsr(INITIAL_MXCSR as u32 | ROUND_TOWARD_ZERO);
            suspend();
            assert_eq!(mxcsr(), INITIAL_MXCSR as u32 | ROUND_TOWARD_ZERO);
        });
        assert!(fiber.resume().is_none());
        assert_eq!(mxcsr(), outer, "the fiber's rounding mode leaked out");
        fiber.resume().unwrap().unwrap();
        assert_eq!(mxcsr(), outer);
    }

    #[test]
    fn panic_inside_a_fiber_is_handed_to_the_resumer() {
        let mut fiber = Fiber::new(|| {
            suspend();
            panic!("boom on a fiber");
        });
        assert!(fiber.resume().is_none());
        let payload = fiber.resume().unwrap().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on a fiber"));
    }

    #[test]
    fn dropping_an_unfinished_fiber_runs_its_destructors() {
        struct Flag(Rc<Cell<u32>>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let dropped = Rc::new(Cell::new(0));
        let flag = Flag(dropped.clone());
        drop(Fiber::new(move || drop(flag)));
        assert_eq!(
            dropped.get(),
            1,
            "an unstarted fiber's body was not dropped"
        );
        let flag = Flag(dropped.clone());
        let mut suspended = Fiber::new(move || {
            let _held = flag;
            suspend();
            unreachable!("a dropped fiber ran on");
        });
        assert!(suspended.resume().is_none());
        drop(suspended);
        assert_eq!(
            dropped.get(),
            2,
            "a suspended fiber's frames were not unwound"
        );
    }

    /// Set in the child process that `stack_overflow_dies_on_the_guard_page`
    /// starts.
    const OVERFLOW_CHILD: &str = "STAMP_FIBER_OVERFLOW_CHILD";

    /// Recurse in ~1 KiB frames until a frame lies at or below `floor`.
    #[inline(never)]
    fn recurse_below(floor: usize) -> u64 {
        let frame = std::hint::black_box([7u64; 128]);
        if frame.as_ptr() as usize <= floor {
            return frame[0];
        }
        recurse_below(floor).wrapping_add(frame[1])
    }

    #[test]
    fn stack_overflow_dies_on_the_guard_page() {
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            // Map writable memory right below the fiber's stack and
            // recurse down to the middle of it: an overflow the guard
            // page failed to stop would write there and return instead
            // of faulting.
            const BELOW: usize = 16 * PAGE;
            const MAP_FIXED_NOREPLACE: c_int = 0x10_0000;
            let floor = Cell::new(0);
            let mut fiber = Fiber::new(|| {
                std::hint::black_box(recurse_below(floor.get()));
            });
            let below = fiber._stack.base() as usize - BELOW;
            // SAFETY: MAP_FIXED_NOREPLACE maps only if the range is free,
            // so no existing memory is replaced. If it is taken, the
            // overflow runs into whatever is there, which serves too.
            unsafe {
                mmap(
                    below as *mut c_void,
                    BELOW,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE,
                    -1,
                    0,
                )
            };
            floor.set(below + BELOW / 2);
            let _ = fiber.resume();
            eprintln!("the overflow went past the guard page");
            std::process::exit(0);
        }
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "fiber::tests::stack_overflow_dies_on_the_guard_page",
                "--test-threads=1",
                "--nocapture",
            ])
            .env(OVERFLOW_CHILD, "1")
            .output()
            .unwrap();
        // SIGSEGV: the guard page stopped the fiber. Anything else (a
        // clean exit, an abort, a panic) means the overflow went unseen.
        assert_eq!(out.status.signal(), Some(11), "child exited with {out:?}");
    }
}
