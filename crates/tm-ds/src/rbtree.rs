//! A red-black tree map — the counterpart of STAMP's `lib/rbtree.c`
//! (itself derived from the TL2 distribution). vacation builds its four
//! reservation tables from these; intruder's reassembly dictionary is
//! one too.
//!
//! Classic CLRS formulation with a NIL sentinel and parent pointers.
//! Node layout: `[key, value, parent, left, right, color]`.

use tm::txn::TxResult;
use tm::WordAddr;

use crate::mem::Mem;

const KEY: u64 = 0;
const VALUE: u64 = 1;
const PARENT: u64 = 2;
const LEFT: u64 = 3;
const RIGHT: u64 = 4;
const COLOR: u64 = 5;
const NODE_WORDS: u64 = 6;

const RED: u64 = 0;
const BLACK: u64 = 1;

/// A transactional ordered map from word keys to word values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmRbTree {
    /// Cell holding the root node address.
    root: WordAddr,
    /// The NIL sentinel node (black; fields self-referential).
    nil: WordAddr,
}

impl TmRbTree {
    /// Create an empty tree.
    ///
    /// The NIL sentinel and the root cell are line-padded: deletions
    /// write the sentinel's parent field (CLRS fixup), and sharing its
    /// line with the root cell — which every search reads — would
    /// create pathological false conflicts under line-granularity
    /// conflict detection.
    pub fn create<M: Mem>(m: &mut M) -> TxResult<TmRbTree> {
        let nil = m.alloc_padded(NODE_WORDS);
        m.init(nil.offset(COLOR), BLACK)?;
        m.init(nil.offset(PARENT), nil.0)?;
        m.init(nil.offset(LEFT), nil.0)?;
        m.init(nil.offset(RIGHT), nil.0)?;
        let root = m.alloc_padded(1);
        m.init(root, nil.0)?;
        Ok(TmRbTree { root, nil })
    }

    #[inline]
    fn is_nil(&self, node: WordAddr) -> bool {
        node == self.nil
    }

    fn node(&self, raw: u64) -> WordAddr {
        WordAddr(raw)
    }

    /// Look up `key`.
    pub fn get<M: Mem>(&self, m: &mut M, key: u64) -> TxResult<Option<u64>> {
        let mut x = self.node(m.read(self.root)?);
        while !self.is_nil(x) {
            let k = m.read(x.offset(KEY))?;
            if key == k {
                return Ok(Some(m.read(x.offset(VALUE))?));
            }
            x = self.node(m.read(x.offset(if key < k { LEFT } else { RIGHT }))?);
        }
        Ok(None)
    }

    /// Whether `key` is present.
    pub fn contains<M: Mem>(&self, m: &mut M, key: u64) -> TxResult<bool> {
        Ok(self.get(m, key)?.is_some())
    }

    /// Overwrite the value under an existing `key`; returns false if the
    /// key is absent.
    pub fn update<M: Mem>(&self, m: &mut M, key: u64, value: u64) -> TxResult<bool> {
        let mut x = self.node(m.read(self.root)?);
        while !self.is_nil(x) {
            let k = m.read(x.offset(KEY))?;
            if key == k {
                m.write(x.offset(VALUE), value)?;
                return Ok(true);
            }
            x = self.node(m.read(x.offset(if key < k { LEFT } else { RIGHT }))?);
        }
        Ok(false)
    }

    /// Smallest key ≥ `key`, with its value (a lower-bound probe —
    /// vacation uses this to pick reservation records).
    pub fn find_ge<M: Mem>(&self, m: &mut M, key: u64) -> TxResult<Option<(u64, u64)>> {
        let mut x = self.node(m.read(self.root)?);
        let mut best: Option<(u64, u64)> = None;
        while !self.is_nil(x) {
            let k = m.read(x.offset(KEY))?;
            if k == key {
                return Ok(Some((k, m.read(x.offset(VALUE))?)));
            }
            if k > key {
                best = Some((k, m.read(x.offset(VALUE))?));
                x = self.node(m.read(x.offset(LEFT))?);
            } else {
                x = self.node(m.read(x.offset(RIGHT))?);
            }
        }
        Ok(best)
    }

    fn rotate_left<M: Mem>(&self, m: &mut M, x: WordAddr) -> TxResult<()> {
        let y = self.node(m.read(x.offset(RIGHT))?);
        let yl = self.node(m.read(y.offset(LEFT))?);
        m.write(x.offset(RIGHT), yl.0)?;
        if !self.is_nil(yl) {
            m.write(yl.offset(PARENT), x.0)?;
        }
        let xp = self.node(m.read(x.offset(PARENT))?);
        m.write(y.offset(PARENT), xp.0)?;
        if self.is_nil(xp) {
            m.write(self.root, y.0)?;
        } else if self.node(m.read(xp.offset(LEFT))?) == x {
            m.write(xp.offset(LEFT), y.0)?;
        } else {
            m.write(xp.offset(RIGHT), y.0)?;
        }
        m.write(y.offset(LEFT), x.0)?;
        m.write(x.offset(PARENT), y.0)?;
        Ok(())
    }

    fn rotate_right<M: Mem>(&self, m: &mut M, x: WordAddr) -> TxResult<()> {
        let y = self.node(m.read(x.offset(LEFT))?);
        let yr = self.node(m.read(y.offset(RIGHT))?);
        m.write(x.offset(LEFT), yr.0)?;
        if !self.is_nil(yr) {
            m.write(yr.offset(PARENT), x.0)?;
        }
        let xp = self.node(m.read(x.offset(PARENT))?);
        m.write(y.offset(PARENT), xp.0)?;
        if self.is_nil(xp) {
            m.write(self.root, y.0)?;
        } else if self.node(m.read(xp.offset(RIGHT))?) == x {
            m.write(xp.offset(RIGHT), y.0)?;
        } else {
            m.write(xp.offset(LEFT), y.0)?;
        }
        m.write(y.offset(RIGHT), x.0)?;
        m.write(x.offset(PARENT), y.0)?;
        Ok(())
    }

    /// Insert `(key, value)`; returns false if the key already exists
    /// (the tree is unchanged).
    pub fn insert<M: Mem>(&self, m: &mut M, key: u64, value: u64) -> TxResult<bool> {
        let mut y = self.nil;
        let mut x = self.node(m.read(self.root)?);
        while !self.is_nil(x) {
            y = x;
            let k = m.read(x.offset(KEY))?;
            if key == k {
                return Ok(false);
            }
            x = self.node(m.read(x.offset(if key < k { LEFT } else { RIGHT }))?);
        }
        self.link_new(m, y, key, value)?;
        Ok(true)
    }

    /// Insert `(key, value)` where `key` is larger than every key in the
    /// tree, given the current maximum node (`None` when the tree is
    /// empty); returns the new node, which is the new maximum.
    ///
    /// The new node becomes the hint's right child, which is exactly
    /// where [`insert`](Self::insert)'s search would stop, so a chain of
    /// `insert_max` calls makes the allocations and writes of the same
    /// `insert` calls, without their root-to-leaf walks. A setup-time
    /// helper for bulk loads in ascending key order.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not above the hint's key, if the hint has a
    /// right child, or if the hint is `None` and the tree is not empty.
    pub fn insert_max<M: Mem>(
        &self,
        m: &mut M,
        max_hint: Option<WordAddr>,
        key: u64,
        value: u64,
    ) -> TxResult<WordAddr> {
        let parent = match max_hint {
            Some(h) => {
                let k = m.read(h.offset(KEY))?;
                assert!(
                    key > k,
                    "insert_max: key {key} is not above the maximum {k}"
                );
                assert!(
                    self.is_nil(self.node(m.read(h.offset(RIGHT))?)),
                    "insert_max: hint (key {k}) is not the maximum node"
                );
                h
            }
            None => {
                assert!(
                    self.is_nil(self.node(m.read(self.root)?)),
                    "insert_max: no hint given for a non-empty tree"
                );
                self.nil
            }
        };
        self.link_new(m, parent, key, value)
    }

    /// Allocate a node for `(key, value)`, link it under `parent` (the
    /// NIL sentinel for an empty tree) on the side its key belongs, and
    /// rebalance. Returns the new node.
    fn link_new<M: Mem>(
        &self,
        m: &mut M,
        parent: WordAddr,
        key: u64,
        value: u64,
    ) -> TxResult<WordAddr> {
        let z = m.alloc_padded(NODE_WORDS);
        m.init(z.offset(KEY), key)?;
        m.init(z.offset(VALUE), value)?;
        m.init(z.offset(LEFT), self.nil.0)?;
        m.init(z.offset(RIGHT), self.nil.0)?;
        m.init(z.offset(COLOR), RED)?;
        m.init(z.offset(PARENT), parent.0)?;
        if self.is_nil(parent) {
            m.write(self.root, z.0)?;
        } else if key < m.read(parent.offset(KEY))? {
            m.write(parent.offset(LEFT), z.0)?;
        } else {
            m.write(parent.offset(RIGHT), z.0)?;
        }
        self.insert_fixup(m, z)?;
        Ok(z)
    }

    fn insert_fixup<M: Mem>(&self, m: &mut M, mut z: WordAddr) -> TxResult<()> {
        loop {
            let zp = self.node(m.read(z.offset(PARENT))?);
            if self.is_nil(zp) || m.read(zp.offset(COLOR))? == BLACK {
                break;
            }
            let zpp = self.node(m.read(zp.offset(PARENT))?);
            if zp == self.node(m.read(zpp.offset(LEFT))?) {
                let uncle = self.node(m.read(zpp.offset(RIGHT))?);
                if m.read(uncle.offset(COLOR))? == RED && !self.is_nil(uncle) {
                    m.write(zp.offset(COLOR), BLACK)?;
                    m.write(uncle.offset(COLOR), BLACK)?;
                    m.write(zpp.offset(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == self.node(m.read(zp.offset(RIGHT))?) {
                        z = zp;
                        self.rotate_left(m, z)?;
                    }
                    let zp = self.node(m.read(z.offset(PARENT))?);
                    let zpp = self.node(m.read(zp.offset(PARENT))?);
                    m.write(zp.offset(COLOR), BLACK)?;
                    m.write(zpp.offset(COLOR), RED)?;
                    self.rotate_right(m, zpp)?;
                }
            } else {
                let uncle = self.node(m.read(zpp.offset(LEFT))?);
                if m.read(uncle.offset(COLOR))? == RED && !self.is_nil(uncle) {
                    m.write(zp.offset(COLOR), BLACK)?;
                    m.write(uncle.offset(COLOR), BLACK)?;
                    m.write(zpp.offset(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == self.node(m.read(zp.offset(LEFT))?) {
                        z = zp;
                        self.rotate_right(m, z)?;
                    }
                    let zp = self.node(m.read(z.offset(PARENT))?);
                    let zpp = self.node(m.read(zp.offset(PARENT))?);
                    m.write(zp.offset(COLOR), BLACK)?;
                    m.write(zpp.offset(COLOR), RED)?;
                    self.rotate_left(m, zpp)?;
                }
            }
        }
        let root = self.node(m.read(self.root)?);
        m.write(root.offset(COLOR), BLACK)?;
        Ok(())
    }

    fn minimum<M: Mem>(&self, m: &mut M, mut x: WordAddr) -> TxResult<WordAddr> {
        loop {
            let l = self.node(m.read(x.offset(LEFT))?);
            if self.is_nil(l) {
                return Ok(x);
            }
            x = l;
        }
    }

    fn transplant<M: Mem>(&self, m: &mut M, u: WordAddr, v: WordAddr) -> TxResult<()> {
        let up = self.node(m.read(u.offset(PARENT))?);
        if self.is_nil(up) {
            m.write(self.root, v.0)?;
        } else if u == self.node(m.read(up.offset(LEFT))?) {
            m.write(up.offset(LEFT), v.0)?;
        } else {
            m.write(up.offset(RIGHT), v.0)?;
        }
        m.write(v.offset(PARENT), up.0)?;
        Ok(())
    }

    /// Remove `key`; returns its value if it was present.
    pub fn remove<M: Mem>(&self, m: &mut M, key: u64) -> TxResult<Option<u64>> {
        // Find the node.
        let mut z = self.node(m.read(self.root)?);
        while !self.is_nil(z) {
            let k = m.read(z.offset(KEY))?;
            if key == k {
                break;
            }
            z = self.node(m.read(z.offset(if key < k { LEFT } else { RIGHT }))?);
        }
        if self.is_nil(z) {
            return Ok(None);
        }
        let removed_value = m.read(z.offset(VALUE))?;

        let mut y = z;
        let mut y_color = m.read(y.offset(COLOR))?;
        let x;
        let zl = self.node(m.read(z.offset(LEFT))?);
        let zr = self.node(m.read(z.offset(RIGHT))?);
        if self.is_nil(zl) {
            x = zr;
            self.transplant(m, z, zr)?;
        } else if self.is_nil(zr) {
            x = zl;
            self.transplant(m, z, zl)?;
        } else {
            y = self.minimum(m, zr)?;
            y_color = m.read(y.offset(COLOR))?;
            x = self.node(m.read(y.offset(RIGHT))?);
            if self.node(m.read(y.offset(PARENT))?) == z {
                // x may be NIL; record its (possibly fictitious) parent.
                m.write(x.offset(PARENT), y.0)?;
            } else {
                self.transplant(m, y, x)?;
                let zr = self.node(m.read(z.offset(RIGHT))?);
                m.write(y.offset(RIGHT), zr.0)?;
                m.write(zr.offset(PARENT), y.0)?;
            }
            self.transplant(m, z, y)?;
            let zl = self.node(m.read(z.offset(LEFT))?);
            m.write(y.offset(LEFT), zl.0)?;
            m.write(zl.offset(PARENT), y.0)?;
            let zc = m.read(z.offset(COLOR))?;
            m.write(y.offset(COLOR), zc)?;
        }
        if y_color == BLACK {
            self.delete_fixup(m, x)?;
        }
        // Restore the NIL sentinel's invariants (CLRS temporarily uses
        // nil.parent during fixup).
        m.write(self.nil.offset(PARENT), self.nil.0)?;
        m.write(self.nil.offset(COLOR), BLACK)?;
        Ok(Some(removed_value))
    }

    fn delete_fixup<M: Mem>(&self, m: &mut M, mut x: WordAddr) -> TxResult<()> {
        loop {
            let root = self.node(m.read(self.root)?);
            if x == root || m.read(x.offset(COLOR))? == RED {
                break;
            }
            let xp = self.node(m.read(x.offset(PARENT))?);
            if x == self.node(m.read(xp.offset(LEFT))?) {
                let mut w = self.node(m.read(xp.offset(RIGHT))?);
                if m.read(w.offset(COLOR))? == RED {
                    m.write(w.offset(COLOR), BLACK)?;
                    m.write(xp.offset(COLOR), RED)?;
                    self.rotate_left(m, xp)?;
                    w = self.node(m.read(xp.offset(RIGHT))?);
                }
                let wl = self.node(m.read(w.offset(LEFT))?);
                let wr = self.node(m.read(w.offset(RIGHT))?);
                let wl_black = m.read(wl.offset(COLOR))? == BLACK;
                let wr_black = m.read(wr.offset(COLOR))? == BLACK;
                if wl_black && wr_black {
                    m.write(w.offset(COLOR), RED)?;
                    x = xp;
                } else {
                    if wr_black {
                        m.write(wl.offset(COLOR), BLACK)?;
                        m.write(w.offset(COLOR), RED)?;
                        self.rotate_right(m, w)?;
                        w = self.node(m.read(xp.offset(RIGHT))?);
                    }
                    let xpc = m.read(xp.offset(COLOR))?;
                    m.write(w.offset(COLOR), xpc)?;
                    m.write(xp.offset(COLOR), BLACK)?;
                    let wr = self.node(m.read(w.offset(RIGHT))?);
                    m.write(wr.offset(COLOR), BLACK)?;
                    self.rotate_left(m, xp)?;
                    x = self.node(m.read(self.root)?);
                }
            } else {
                let mut w = self.node(m.read(xp.offset(LEFT))?);
                if m.read(w.offset(COLOR))? == RED {
                    m.write(w.offset(COLOR), BLACK)?;
                    m.write(xp.offset(COLOR), RED)?;
                    self.rotate_right(m, xp)?;
                    w = self.node(m.read(xp.offset(LEFT))?);
                }
                let wl = self.node(m.read(w.offset(LEFT))?);
                let wr = self.node(m.read(w.offset(RIGHT))?);
                let wl_black = m.read(wl.offset(COLOR))? == BLACK;
                let wr_black = m.read(wr.offset(COLOR))? == BLACK;
                if wl_black && wr_black {
                    m.write(w.offset(COLOR), RED)?;
                    x = xp;
                } else {
                    if wl_black {
                        m.write(wr.offset(COLOR), BLACK)?;
                        m.write(w.offset(COLOR), RED)?;
                        self.rotate_left(m, w)?;
                        w = self.node(m.read(xp.offset(LEFT))?);
                    }
                    let xpc = m.read(xp.offset(COLOR))?;
                    m.write(w.offset(COLOR), xpc)?;
                    m.write(xp.offset(COLOR), BLACK)?;
                    let wl = self.node(m.read(w.offset(LEFT))?);
                    m.write(wl.offset(COLOR), BLACK)?;
                    self.rotate_right(m, xp)?;
                    x = self.node(m.read(self.root)?);
                }
            }
        }
        m.write(x.offset(COLOR), BLACK)?;
        Ok(())
    }

    /// In-order `(key, value)` pairs (setup/verification helper;
    /// iterative, no recursion).
    pub fn to_vec<M: Mem>(&self, m: &mut M) -> TxResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut x = self.node(m.read(self.root)?);
        while !self.is_nil(x) || !stack.is_empty() {
            while !self.is_nil(x) {
                stack.push(x);
                x = self.node(m.read(x.offset(LEFT))?);
            }
            let n = stack.pop().expect("loop invariant");
            out.push((m.read(n.offset(KEY))?, m.read(n.offset(VALUE))?));
            x = self.node(m.read(n.offset(RIGHT))?);
        }
        Ok(out)
    }

    /// Number of entries (setup/verification helper).
    pub fn count<M: Mem>(&self, m: &mut M) -> TxResult<u64> {
        Ok(self.to_vec(m)?.len() as u64)
    }

    /// Verify the red-black invariants (test/verification helper):
    /// BST order, no red node with a red child, and equal black heights.
    /// Returns the tree's black height.
    pub fn check_invariants<M: Mem>(&self, m: &mut M) -> TxResult<u64> {
        let root = self.node(m.read(self.root)?);
        if self.is_nil(root) {
            return Ok(1);
        }
        assert_eq!(m.read(root.offset(COLOR))?, BLACK, "root must be black");
        self.check_node(m, root, None, None)
    }

    fn check_node<M: Mem>(
        &self,
        m: &mut M,
        x: WordAddr,
        lo: Option<u64>,
        hi: Option<u64>,
    ) -> TxResult<u64> {
        if self.is_nil(x) {
            return Ok(1);
        }
        let k = m.read(x.offset(KEY))?;
        if let Some(lo) = lo {
            assert!(k > lo, "BST order violated: {k} <= {lo}");
        }
        if let Some(hi) = hi {
            assert!(k < hi, "BST order violated: {k} >= {hi}");
        }
        let color = m.read(x.offset(COLOR))?;
        let l = self.node(m.read(x.offset(LEFT))?);
        let r = self.node(m.read(x.offset(RIGHT))?);
        if color == RED {
            for child in [l, r] {
                if !self.is_nil(child) {
                    assert_eq!(
                        m.read(child.offset(COLOR))?,
                        BLACK,
                        "red node {k} has a red child"
                    );
                }
            }
        }
        let lh = self.check_node(m, l, lo, Some(k))?;
        let rh = self.check_node(m, r, Some(k), hi)?;
        assert_eq!(lh, rh, "black height mismatch at key {k}");
        Ok(lh + u64::from(color == BLACK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::SetupMem;
    use tm::TmHeap;

    fn fresh() -> (TmHeap, TmRbTree) {
        let heap = TmHeap::new();
        let tree = {
            let mut m = SetupMem::new(&heap);
            TmRbTree::create(&mut m).unwrap()
        };
        (heap, tree)
    }

    #[test]
    fn insert_get_ordered() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        let keys = [50u64, 30, 70, 20, 40, 60, 80, 10, 90, 45, 55];
        for &k in &keys {
            assert!(t.insert(&mut m, k, k * 2).unwrap());
            t.check_invariants(&mut m).unwrap();
        }
        assert!(!t.insert(&mut m, 50, 0).unwrap());
        for &k in &keys {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(k * 2));
        }
        assert_eq!(t.get(&mut m, 99).unwrap(), None);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let inorder: Vec<u64> = t.to_vec(&mut m).unwrap().iter().map(|&(k, _)| k).collect();
        assert_eq!(inorder, sorted);
    }

    #[test]
    fn ascending_and_descending_inserts_stay_balanced() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        for k in 0..256u64 {
            t.insert(&mut m, k, k).unwrap();
        }
        for k in (256..512u64).rev() {
            t.insert(&mut m, k, k).unwrap();
        }
        let bh = t.check_invariants(&mut m).unwrap();
        // A balanced tree of 512 nodes has black height around
        // log2(512)/2 + 1; anything <= 10 rules out degeneration.
        assert!((2..=10).contains(&bh), "black height {bh}");
        assert_eq!(t.count(&mut m).unwrap(), 512);
    }

    #[test]
    fn remove_all_permutations_of_small_sets() {
        // Exhaustively delete in many orders to exercise all fixup cases.
        let orders: [&[u64]; 6] = [
            &[1, 2, 3, 4, 5, 6, 7],
            &[7, 6, 5, 4, 3, 2, 1],
            &[4, 2, 6, 1, 3, 5, 7],
            &[1, 7, 2, 6, 3, 5, 4],
            &[5, 3, 7, 1, 4, 6, 2],
            &[2, 4, 6, 1, 3, 5, 7],
        ];
        for order in orders {
            let (heap, t) = fresh();
            let mut m = SetupMem::new(&heap);
            for k in 1..=7u64 {
                t.insert(&mut m, k, k + 100).unwrap();
            }
            for (i, &k) in order.iter().enumerate() {
                assert_eq!(
                    t.remove(&mut m, k).unwrap(),
                    Some(k + 100),
                    "order {order:?}"
                );
                assert_eq!(t.remove(&mut m, k).unwrap(), None);
                t.check_invariants(&mut m).unwrap();
                assert_eq!(t.count(&mut m).unwrap(), (7 - i - 1) as u64);
            }
        }
    }

    #[test]
    fn randomized_against_btreemap() {
        use std::collections::BTreeMap;
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        let mut reference = BTreeMap::new();
        let mut rng = 0x1234_5678_9abc_def0u64;
        for step in 0..3000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 200;
            match rng % 4 {
                0 | 1 => {
                    let inserted = t.insert(&mut m, key, step).unwrap();
                    assert_eq!(
                        inserted,
                        !reference.contains_key(&key),
                        "insert disagreement at step {step}"
                    );
                    if inserted {
                        reference.insert(key, step);
                    }
                }
                2 => {
                    assert_eq!(t.remove(&mut m, key).unwrap(), reference.remove(&key));
                }
                _ => {
                    assert_eq!(t.get(&mut m, key).unwrap(), reference.get(&key).copied());
                }
            }
            if step % 250 == 0 {
                t.check_invariants(&mut m).unwrap();
            }
        }
        t.check_invariants(&mut m).unwrap();
        let ours = t.to_vec(&mut m).unwrap();
        let theirs: Vec<(u64, u64)> = reference.into_iter().collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    #[should_panic(expected = "not above the maximum")]
    fn insert_max_rejects_a_key_below_the_maximum() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        let max = t.insert_max(&mut m, None, 10, 0).unwrap();
        let max = t.insert_max(&mut m, Some(max), 20, 0).unwrap();
        let _ = t.insert_max(&mut m, Some(max), 15, 0);
    }

    #[test]
    #[should_panic(expected = "no hint given for a non-empty tree")]
    fn insert_max_rejects_a_missing_hint_on_a_non_empty_tree() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        t.insert(&mut m, 10, 0).unwrap();
        let _ = t.insert_max(&mut m, None, 20, 0);
    }

    #[test]
    #[should_panic(expected = "is not the maximum node")]
    fn insert_max_rejects_a_hint_with_a_right_child() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        let mut max = None;
        for k in [10, 20, 30] {
            max = Some(t.insert_max(&mut m, max, k, 0).unwrap());
        }
        // 20 is the root after the rebalance, with 30 as its right child.
        let root = WordAddr(m.read(t.root).unwrap());
        assert_eq!(m.read(root.offset(KEY)).unwrap(), 20);
        let _ = t.insert_max(&mut m, Some(root), 40, 0);
    }

    #[test]
    fn find_ge_bounds() {
        let (heap, t) = fresh();
        let mut m = SetupMem::new(&heap);
        for k in [10u64, 20, 30, 40] {
            t.insert(&mut m, k, k).unwrap();
        }
        assert_eq!(t.find_ge(&mut m, 5).unwrap(), Some((10, 10)));
        assert_eq!(t.find_ge(&mut m, 10).unwrap(), Some((10, 10)));
        assert_eq!(t.find_ge(&mut m, 11).unwrap(), Some((20, 20)));
        assert_eq!(t.find_ge(&mut m, 40).unwrap(), Some((40, 40)));
        assert_eq!(t.find_ge(&mut m, 41).unwrap(), None);
    }

    #[test]
    fn concurrent_inserts_and_removes() {
        use tm::{SystemKind, TmConfig, TmRuntime};
        for sys in [
            SystemKind::LazyStm,
            SystemKind::EagerStm,
            SystemKind::LazyHtm,
        ] {
            let rt = TmRuntime::new(TmConfig::new(sys, 4).quantum(200));
            let t = {
                let mut m = SetupMem::new(rt.heap());
                let t = TmRbTree::create(&mut m).unwrap();
                // Pre-populate evens.
                for k in (0..200u64).step_by(2) {
                    t.insert(&mut m, k, k).unwrap();
                }
                t
            };
            rt.run(|ctx| {
                let tid = ctx.tid() as u64;
                // Each thread inserts its own odd residue class and
                // removes one even class.
                for i in 0..25u64 {
                    let k = 1 + 8 * i + 2 * tid; // odd, disjoint per tid
                    ctx.atomic(|txn| t.insert(txn, k, k).map(|_| ()));
                }
                for i in 0..12u64 {
                    let k = 8 * i + 2 * tid; // even, disjoint per tid
                    ctx.atomic(|txn| t.remove(txn, k).map(|_| ()));
                }
            });
            let mut m = SetupMem::new(rt.heap());
            t.check_invariants(&mut m).unwrap();
            // evens: started 100, removed 4*12=48 distinct → 52 left;
            // odds: inserted 4*25 = 100 distinct.
            assert_eq!(t.count(&mut m).unwrap(), 152, "under {sys}");
        }
    }
}
