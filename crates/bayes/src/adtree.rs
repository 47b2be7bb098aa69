//! The ADtree of Moore & Lee ("Cached sufficient statistics for
//! efficient machine learning with large datasets", JAIR 1998) — the
//! data structure STAMP's bayes uses for probability estimates
//! (§III-B1, reference \[28\] of the paper).
//!
//! An ADtree caches the counts of every conjunctive query over binary
//! variables. Two standard sparsity optimizations keep it small:
//!
//! * **MCV pruning** — each vary node materializes only the child for
//!   the *least* common value; counts under the most common value are
//!   recovered by subtraction;
//! * **leaf lists** — subtrees covering fewer than `leaf_thresh`
//!   records store the record indices instead of expanding.
//!
//! The tree lives in the transactional heap and is built once at setup.
//! Queries inside transactions chase pointers across many scattered
//! cache lines — the access pattern behind bayes' large HTM read sets —
//! while the STMs/hybrids read it through the barrier-elided
//! [`tm_ds::PrivateMem`] view (the structure is immutable), which is
//! why the paper's bayes has hundreds of read-set lines but only ~24
//! explicit read barriers.
//!
//! Heap layout:
//!
//! * AD node: `[count, kind, start_attr, payload_ptr, payload_len]`
//!   where `kind` 0 = internal (payload = vary array), 1 = leaf list
//!   (payload = record indices);
//! * vary entry (one per attribute `start_attr..vars`):
//!   `[mcv, child_non_mcv]` — the MCV child is never materialized.

use tm::txn::TxResult;
use tm::WordAddr;
use tm_ds::Mem;

const N_COUNT: u64 = 0;
const N_KIND: u64 = 1;
const N_START: u64 = 2;
const N_PAYLOAD: u64 = 3;
const N_LEN: u64 = 4;
const NODE_WORDS: u64 = 5;

const KIND_INTERNAL: u64 = 0;
const KIND_LEAF: u64 = 1;

const V_MCV: u64 = 0;
const V_CHILD: u64 = 1;
const VARY_WORDS: u64 = 2;

/// A heap-resident ADtree over binary variables.
#[derive(Debug, Clone, Copy)]
pub struct AdTree {
    root: WordAddr,
    /// Record array base (one u64 per record, bit `i` = variable `i`).
    records: WordAddr,
    vars: u32,
}

impl AdTree {
    /// Build the tree over `records` (setup-time; the returned tree is
    /// immutable). `leaf_thresh` controls the leaf-list optimization
    /// (STAMP's adtree uses a comparable cutoff).
    pub fn build<M: Mem>(
        m: &mut M,
        records: &[u64],
        vars: u32,
        leaf_thresh: usize,
    ) -> TxResult<AdTree> {
        assert!(vars <= 64 && vars > 0);
        let rec_base = m.alloc(records.len().max(1) as u64);
        for (i, &r) in records.iter().enumerate() {
            m.init(rec_base.offset(i as u64), r)?;
        }
        let all: Vec<u32> = (0..records.len() as u32).collect();
        let root = Self::make_node(m, records, rec_base, &all, 0, vars, leaf_thresh.max(1))?;
        Ok(AdTree {
            root,
            records: rec_base,
            vars,
        })
    }

    #[allow(clippy::only_used_in_recursion)]
    fn make_node<M: Mem>(
        m: &mut M,
        records: &[u64],
        rec_base: WordAddr,
        subset: &[u32],
        start_attr: u32,
        vars: u32,
        leaf_thresh: usize,
    ) -> TxResult<WordAddr> {
        // Line-padded, like every malloc'd node in the suite: each AD
        // node, vary array, and leaf list gets its own cache line(s),
        // so a query's read set counts one-plus lines per node visited
        // (the geometry behind the paper's 452-line bayes read sets).
        let node = m.alloc_padded(NODE_WORDS);
        m.init(node.offset(N_COUNT), subset.len() as u64)?;
        m.init(node.offset(N_START), start_attr as u64)?;
        if subset.len() < leaf_thresh || start_attr >= vars {
            // Leaf list.
            m.init(node.offset(N_KIND), KIND_LEAF)?;
            let list = m.alloc_padded(subset.len().max(1) as u64);
            for (i, &rid) in subset.iter().enumerate() {
                m.init(list.offset(i as u64), rid as u64)?;
            }
            m.init(node.offset(N_PAYLOAD), list.0)?;
            m.init(node.offset(N_LEN), subset.len() as u64)?;
            return Ok(node);
        }
        m.init(node.offset(N_KIND), KIND_INTERNAL)?;
        let n_vary = (vars - start_attr) as u64;
        let vary = m.alloc_padded(n_vary * VARY_WORDS);
        m.init(node.offset(N_PAYLOAD), vary.0)?;
        m.init(node.offset(N_LEN), n_vary)?;
        for attr in start_attr..vars {
            let mut zeros = Vec::new();
            let mut ones = Vec::new();
            for &rid in subset {
                if records[rid as usize] >> attr & 1 == 1 {
                    ones.push(rid);
                } else {
                    zeros.push(rid);
                }
            }
            let (mcv, minority) = if ones.len() >= zeros.len() {
                (1u64, zeros)
            } else {
                (0u64, ones)
            };
            let slot = vary.offset((attr - start_attr) as u64 * VARY_WORDS);
            m.init(slot.offset(V_MCV), mcv)?;
            if minority.is_empty() {
                m.init(slot.offset(V_CHILD), 0)?;
            } else {
                let child =
                    Self::make_node(m, records, rec_base, &minority, attr + 1, vars, leaf_thresh)?;
                m.init(slot.offset(V_CHILD), child.0)?;
            }
        }
        Ok(node)
    }

    /// Number of variables.
    pub fn vars(&self) -> u32 {
        self.vars
    }

    /// Count the records matching every `(variable, value)` condition.
    ///
    /// Conditions must be sorted by variable and free of duplicates
    /// (the builder's vary arrays are keyed that way).
    pub fn count<M: Mem>(&self, m: &mut M, conds: &[(u32, u64)]) -> TxResult<u64> {
        debug_assert!(conds.windows(2).all(|w| w[0].0 < w[1].0));
        self.count_node(m, self.root, conds)
    }

    fn count_node<M: Mem>(&self, m: &mut M, node: WordAddr, conds: &[(u32, u64)]) -> TxResult<u64> {
        if node.is_null() {
            return Ok(0);
        }
        m.work(30);
        if conds.is_empty() {
            return m.read(node.offset(N_COUNT));
        }
        if m.read(node.offset(N_KIND))? == KIND_LEAF {
            // Scan the leaf list against all remaining conditions.
            let list = WordAddr(m.read(node.offset(N_PAYLOAD))?);
            let len = m.read(node.offset(N_LEN))?;
            let mut n = 0;
            for i in 0..len {
                let rid = m.read(list.offset(i))?;
                let rec = m.read(self.records.offset(rid))?;
                m.work(2 + conds.len() as u64);
                if conds.iter().all(|&(a, v)| (rec >> a) & 1 == v) {
                    n += 1;
                }
            }
            return Ok(n);
        }
        let start = m.read(node.offset(N_START))? as u32;
        let (attr, value) = conds[0];
        debug_assert!(attr >= start, "conditions must be sorted past start_attr");
        let vary = WordAddr(m.read(node.offset(N_PAYLOAD))?);
        let slot = vary.offset((attr - start) as u64 * VARY_WORDS);
        let mcv = m.read(slot.offset(V_MCV))?;
        let child = WordAddr(m.read(slot.offset(V_CHILD))?);
        if value != mcv {
            // The minority child is materialized.
            self.count_node(m, child, &conds[1..])
        } else {
            // MCV: count by subtraction.
            let total = self.count_node(m, node, &conds[1..])?;
            let minority = self.count_node(m, child, &conds[1..])?;
            Ok(total - minority)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_ds::SetupMem;

    /// Reference count by brute-force scan.
    fn scan(records: &[u64], conds: &[(u32, u64)]) -> u64 {
        records
            .iter()
            .filter(|&&r| conds.iter().all(|&(a, v)| (r >> a) & 1 == v))
            .count() as u64
    }

    fn sample_records(n: usize, vars: u32, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 17) & ((1u64 << vars) - 1)
            })
            .collect()
    }

    #[test]
    fn counts_match_brute_force() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let records = sample_records(500, 8, 42);
        let tree = AdTree::build(&mut m, &records, 8, 8).unwrap();
        // All single and pair conditions.
        for a in 0..8u32 {
            for va in 0..2u64 {
                assert_eq!(
                    tree.count(&mut m, &[(a, va)]).unwrap(),
                    scan(&records, &[(a, va)]),
                    "single ({a},{va})"
                );
                for b in (a + 1)..8 {
                    for vb in 0..2u64 {
                        let conds = [(a, va), (b, vb)];
                        assert_eq!(
                            tree.count(&mut m, &conds).unwrap(),
                            scan(&records, &conds),
                            "pair {conds:?}"
                        );
                    }
                }
            }
        }
        // Empty query = all records.
        assert_eq!(tree.count(&mut m, &[]).unwrap(), 500);
    }

    #[test]
    fn deep_conjunctions() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let records = sample_records(300, 12, 7);
        let tree = AdTree::build(&mut m, &records, 12, 4).unwrap();
        let conds = [(0u32, 1u64), (3, 0), (5, 1), (9, 0), (11, 1)];
        assert_eq!(tree.count(&mut m, &conds).unwrap(), scan(&records, &conds));
    }

    #[test]
    fn degenerate_inputs() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        // All-identical records.
        let records = vec![0b1010u64; 64];
        let tree = AdTree::build(&mut m, &records, 4, 2).unwrap();
        assert_eq!(tree.count(&mut m, &[(1, 1), (3, 1)]).unwrap(), 64);
        assert_eq!(tree.count(&mut m, &[(0, 1)]).unwrap(), 0);
        // Single record.
        let one = vec![0b11u64];
        let t1 = AdTree::build(&mut m, &one, 2, 16).unwrap();
        assert_eq!(t1.count(&mut m, &[(0, 1), (1, 1)]).unwrap(), 1);
    }

    #[test]
    fn leaf_threshold_extremes_agree() {
        let heap = tm::TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let records = sample_records(200, 10, 99);
        let expanded = AdTree::build(&mut m, &records, 10, 1).unwrap();
        let listy = AdTree::build(&mut m, &records, 10, 1_000_000).unwrap();
        for conds in [
            vec![(2u32, 1u64)],
            vec![(1, 0), (6, 1)],
            vec![(0, 1), (4, 0), (8, 1)],
        ] {
            let want = scan(&records, &conds);
            assert_eq!(expanded.count(&mut m, &conds).unwrap(), want);
            assert_eq!(listy.count(&mut m, &conds).unwrap(), want);
        }
    }
}
