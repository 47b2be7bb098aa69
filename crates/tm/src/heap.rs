//! The transactional heap.
//!
//! [`TmHeap`] is a flat, append-only simulated address space of 64-bit
//! words. All transactional state of an application lives here; data
//! structures link to each other through word addresses instead of native
//! pointers. This mirrors how the original C STAMP code accesses shared
//! memory through word-granularity read/write barriers, and it gives every
//! location a stable simulated address so the engine can model word- and
//! line-granularity conflict detection, cache capacity, and signatures
//! exactly as the paper describes.
//!
//! Storage is chunked: chunks of `2^20` words (8 MiB of simulated memory)
//! are mapped on demand behind a bump pointer, so allocation is legal
//! inside transactions (aborted transactions leak their allocations, like
//! the original STAMP `TM_MALLOC` on systems without transactional
//! allocators — the arena is reclaimed when the heap is dropped).
//!
//! A heap belongs to the OS thread that made it: its words are
//! `Cell<u64>`s, so `TmHeap` is neither `Send` nor `Sync`, and the logical
//! threads of a run, fibers on that one OS thread, interleave only at
//! scheduler calls (see [`crate::runtime`]). Sharing one with another OS
//! thread does not compile:
//!
//! ```compile_fail,E0277
//! let heap = tm::TmHeap::new();
//! std::thread::scope(|s| {
//!     s.spawn(|| heap.alloc_words(1));
//! });
//! ```

use std::cell::{Cell, RefCell};

use crate::addr::{WordAddr, WORDS_PER_LINE};
use crate::fiber::Words;

/// log2 of the chunk size in words.
const CHUNK_BITS: u32 = 20;
/// Words per storage chunk.
const CHUNK_WORDS: u64 = 1 << CHUNK_BITS;
/// Maximum number of chunks (2^12 chunks * 8 MiB = 32 GiB simulated).
const MAX_CHUNKS: usize = 1 << 12;

/// A value that can live in a transactional word.
///
/// Implementations must round-trip through 64 bits losslessly. All integer
/// primitives, `bool`, and both float widths are supported; transactional
/// data structures store arena indices (plain `u64`) rather than pointers.
pub trait TmValue: Copy + 'static {
    /// Encode the value into a 64-bit word.
    fn to_bits(self) -> u64;
    /// Decode a value previously encoded with [`TmValue::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_tm_value_int {
    ($($t:ty),*) => {
        $(impl TmValue for $t {
            #[inline]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $t }
        })*
    };
}

impl_tm_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl TmValue for bool {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

impl TmValue for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl TmValue for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl TmValue for WordAddr {
    #[inline]
    fn to_bits(self) -> u64 {
        self.0
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        WordAddr(bits)
    }
}

/// The simulated transactional address space.
///
/// See the [module documentation](self) for the storage model.
/// `raw_load`/`raw_store` are intended for single-threaded setup and
/// verification phases, while transactional and costed accesses go
/// through [`crate::txn::Txn`] and [`crate::runtime::ThreadCtx`].
pub struct TmHeap {
    /// Chunk base pointers, null until mapped; index `addr >> CHUNK_BITS`.
    chunks: Box<[Cell<*const Cell<u64>>]>,
    /// Bump allocator (in words).
    next: Cell<u64>,
    /// Owning storage for the chunks, for deallocation on drop. Each is
    /// fresh zero pages, so a chunk costs only the pages its
    /// allocations touch.
    owned: RefCell<Vec<Words>>,
}

impl Default for TmHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl TmHeap {
    /// Create an empty heap. Line 0 is reserved so that
    /// [`WordAddr::NULL`] never aliases an allocation.
    pub fn new() -> Self {
        let heap = TmHeap {
            chunks: (0..MAX_CHUNKS)
                .map(|_| Cell::new(std::ptr::null()))
                .collect(),
            next: Cell::new(WORDS_PER_LINE), // skip line 0
            owned: RefCell::new(Vec::new()),
        };
        heap.ensure_chunk(0);
        heap
    }

    /// Total words allocated so far (including the reserved line).
    pub fn allocated_words(&self) -> u64 {
        self.next.get()
    }

    fn ensure_chunk(&self, chunk_idx: usize) {
        assert!(chunk_idx < MAX_CHUNKS, "simulated heap exhausted");
        if self.chunks[chunk_idx].get().is_null() {
            let chunk = Words::zeroed(CHUNK_WORDS as usize);
            self.chunks[chunk_idx].set(chunk.as_ptr());
            self.owned.borrow_mut().push(chunk);
        }
    }

    /// Bump `words` words starting at the next multiple of `align`,
    /// mapping every chunk the range touches.
    fn bump(&self, words: u64, align: u64) -> WordAddr {
        assert!(words > 0, "zero-sized allocation");
        let start = self.next.get().next_multiple_of(align);
        let end = start + words;
        self.next.set(end);
        for c in (start >> CHUNK_BITS)..=((end - 1) >> CHUNK_BITS) {
            self.ensure_chunk(c as usize);
        }
        WordAddr(start)
    }

    /// Allocate `words` contiguous words, zero-initialized.
    ///
    /// Allocations never straddle a chunk boundary gap — chunks are
    /// contiguous in the simulated address space, so any range is valid.
    ///
    /// # Panics
    ///
    /// Panics if the simulated address space (32 GiB) is exhausted or
    /// `words` is 0.
    pub fn alloc_words(&self, words: u64) -> WordAddr {
        self.bump(words, 1)
    }

    /// Allocate `words` words aligned to (and padded out to) whole cache
    /// lines, so the allocation shares its lines with nothing else.
    ///
    /// labyrinth uses this to pad each maze grid point to a full line, as
    /// the paper requires for correctness of early release (§III-B5).
    ///
    /// # Panics
    ///
    /// As [`TmHeap::alloc_words`].
    pub fn alloc_words_line_padded(&self, words: u64) -> WordAddr {
        self.bump(words.next_multiple_of(WORDS_PER_LINE), WORDS_PER_LINE)
    }

    /// Allocate a typed cell initialized to `init`.
    pub fn alloc_cell<T: TmValue>(&self, init: T) -> TCell<T> {
        let addr = self.alloc_words(1);
        self.raw_store(addr, init.to_bits());
        TCell {
            addr,
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocate a typed array of `len` elements, all initialized to `init`.
    pub fn alloc_array<T: TmValue>(&self, len: u64, init: T) -> TArray<T> {
        assert!(len > 0, "zero-length transactional array");
        let base = self.alloc_words(len);
        let bits = init.to_bits();
        if bits != 0 {
            for i in 0..len {
                self.raw_store(base.offset(i), bits);
            }
        }
        TArray {
            base,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn slot(&self, addr: WordAddr) -> &Cell<u64> {
        debug_assert!(
            self.is_mapped(addr),
            "access to unallocated simulated address {addr}"
        );
        let chunk_idx = (addr.0 >> CHUNK_BITS) as usize;
        let offset = (addr.0 & (CHUNK_WORDS - 1)) as usize;
        let ptr = self.chunks[chunk_idx].get();
        assert!(!ptr.is_null(), "access to unmapped simulated chunk");
        // SAFETY: `ptr` points to the start of a live table of
        // CHUNK_WORDS cells owned by `self.owned`, which is never
        // shrunk or freed before the heap drops, and `offset < CHUNK_WORDS`.
        unsafe { &*ptr.add(offset) }
    }

    /// Whether `addr` refers to an allocated word. The reserved null
    /// line is unmapped. Transactional accesses check this so that a
    /// doomed (zombie) transaction that computed a garbage address
    /// aborts instead of crashing.
    #[inline]
    pub fn is_mapped(&self, addr: WordAddr) -> bool {
        addr.0 >= WORDS_PER_LINE && addr.0 < self.next.get()
    }

    /// Load a word without any instrumentation or cost accounting.
    ///
    /// Intended for setup and verification phases outside the measured
    /// region; during a run, use transactional reads or costed context
    /// loads instead.
    #[inline]
    pub fn raw_load(&self, addr: WordAddr) -> u64 {
        self.slot(addr).get()
    }

    /// Store a word without any instrumentation or cost accounting.
    #[inline]
    pub fn raw_store(&self, addr: WordAddr, value: u64) {
        self.slot(addr).set(value)
    }

    /// Typed uninstrumented load of a cell.
    #[inline]
    pub fn load_cell<T: TmValue>(&self, cell: &TCell<T>) -> T {
        T::from_bits(self.raw_load(cell.addr))
    }

    /// Typed uninstrumented store to a cell.
    #[inline]
    pub fn store_cell<T: TmValue>(&self, cell: &TCell<T>, value: T) {
        self.raw_store(cell.addr, value.to_bits())
    }

    /// Typed uninstrumented load of an array element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn load_elem<T: TmValue>(&self, arr: &TArray<T>, idx: u64) -> T {
        T::from_bits(self.raw_load(arr.addr_of(idx)))
    }

    /// Typed uninstrumented store to an array element.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn store_elem<T: TmValue>(&self, arr: &TArray<T>, idx: u64, value: T) {
        self.raw_store(arr.addr_of(idx), value.to_bits())
    }
}

impl std::fmt::Debug for TmHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmHeap")
            .field("allocated_words", &self.allocated_words())
            .finish()
    }
}

/// A typed handle to a single transactional word.
///
/// `TCell` is a plain (copyable) address; the data lives in the heap. Read
/// and write it through a [`crate::txn::Txn`] inside transactions, or
/// through [`TmHeap::load_cell`]/[`TmHeap::store_cell`] during setup.
pub struct TCell<T> {
    addr: WordAddr,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> TCell<T> {
    /// Reinterpret a raw word address as a typed cell.
    ///
    /// The caller asserts that `addr` was allocated to hold a `T`.
    pub fn from_addr(addr: WordAddr) -> Self {
        TCell {
            addr,
            _marker: std::marker::PhantomData,
        }
    }

    /// The simulated address of this cell.
    #[inline]
    pub fn addr(&self) -> WordAddr {
        self.addr
    }
}

impl<T> Clone for TCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TCell<T> {}

impl<T> std::fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TCell({})", self.addr)
    }
}

/// A typed handle to a contiguous transactional array.
pub struct TArray<T> {
    base: WordAddr,
    len: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> TArray<T> {
    /// Reinterpret a raw address range as a typed array.
    pub fn from_raw(base: WordAddr, len: u64) -> Self {
        TArray {
            base,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty (never true for heap allocations).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First word of the array.
    #[inline]
    pub fn base(&self) -> WordAddr {
        self.base
    }

    /// Address of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn addr_of(&self, idx: u64) -> WordAddr {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        self.base.offset(idx)
    }

    /// The cell view of element `idx`.
    #[inline]
    pub fn cell(&self, idx: u64) -> TCell<T> {
        TCell::from_addr(self.addr_of(idx))
    }
}

impl<T> Clone for TArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TArray<T> {}

impl<T> std::fmt::Debug for TArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TArray({}, len={})", self.base, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_skips_reserved_line() {
        let heap = TmHeap::new();
        let a = heap.alloc_words(1);
        assert!(a.0 >= WORDS_PER_LINE);
    }

    #[test]
    fn raw_roundtrip() {
        let heap = TmHeap::new();
        let a = heap.alloc_words(4);
        heap.raw_store(a, 42);
        heap.raw_store(a.offset(3), u64::MAX);
        assert_eq!(heap.raw_load(a), 42);
        assert_eq!(heap.raw_load(a.offset(1)), 0);
        assert_eq!(heap.raw_load(a.offset(3)), u64::MAX);
    }

    #[test]
    fn typed_cell_roundtrip() {
        let heap = TmHeap::new();
        let c = heap.alloc_cell(-7i64);
        assert_eq!(heap.load_cell(&c), -7);
        heap.store_cell(&c, 9);
        assert_eq!(heap.load_cell(&c), 9);

        let f = heap.alloc_cell(3.25f64);
        assert_eq!(heap.load_cell(&f), 3.25);

        let b = heap.alloc_cell(true);
        assert!(heap.load_cell(&b));
    }

    #[test]
    fn typed_array_roundtrip() {
        let heap = TmHeap::new();
        let arr = heap.alloc_array::<u32>(10, 5);
        for i in 0..10 {
            assert_eq!(heap.load_elem(&arr, i), 5);
        }
        heap.store_elem(&arr, 9, 77);
        assert_eq!(heap.load_elem(&arr, 9), 77);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_checked() {
        let heap = TmHeap::new();
        let arr = heap.alloc_array::<u32>(3, 0);
        let _ = arr.addr_of(3);
    }

    #[test]
    fn line_padded_alloc_is_aligned_and_exclusive() {
        let heap = TmHeap::new();
        let a = heap.alloc_words_line_padded(1);
        let b = heap.alloc_words_line_padded(5);
        assert_eq!(a.0 % WORDS_PER_LINE, 0);
        assert_eq!(b.0 % WORDS_PER_LINE, 0);
        // b starts at least 1 full line after a.
        assert!(b.0 >= a.0 + WORDS_PER_LINE);
        assert_ne!(a.line(), b.line());
        // 5 words pad to 2 lines.
        let c = heap.alloc_words(1);
        assert!(c.0 >= b.0 + 2 * WORDS_PER_LINE);
    }

    #[test]
    fn chunk_boundary_allocation() {
        let heap = TmHeap::new();
        // Exhaust most of the first chunk, then allocate across the boundary.
        let big = heap.alloc_words(CHUNK_WORDS - 16);
        let cross = heap.alloc_words(64);
        heap.raw_store(cross.offset(63), 123);
        assert_eq!(heap.raw_load(cross.offset(63)), 123);
        heap.raw_store(big, 1);
        assert_eq!(heap.raw_load(big), 1);
    }

    #[test]
    fn float_bits_roundtrip() {
        assert_eq!(f64::from_bits(TmValue::to_bits(-0.5f64)), -0.5);
        assert_eq!(f32::from_bits(TmValue::to_bits(1.5f32) as u32), 1.5);
        assert_eq!(i32::from_bits(TmValue::to_bits(-3i32)), -3);
    }

    #[test]
    #[should_panic(expected = "zero-sized allocation")]
    fn zero_word_line_padded_alloc_panics() {
        TmHeap::new().alloc_words_line_padded(0);
    }
}
