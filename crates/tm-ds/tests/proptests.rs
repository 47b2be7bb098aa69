//! Property-based tests: each transactional data structure must behave
//! exactly like its `std` reference under arbitrary operation sequences,
//! and the red-black invariants must hold at every step.

use proptest::prelude::*;
use tm::TmHeap;
use tm_ds::{Mem, SetupMem, TmBitmap, TmHashtable, TmList, TmPQueue, TmQueue, TmRbTree, TmVector};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_ops(max_key: u64) -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..max_key, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0..max_key).prop_map(MapOp::Remove),
            (0..max_key).prop_map(MapOp::Get),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbtree_matches_btreemap(ops in map_ops(64)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let tree = TmRbTree::create(&mut m).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let inserted = tree.insert(&mut m, k, v).unwrap();
                    prop_assert_eq!(inserted, !reference.contains_key(&k));
                    if inserted { reference.insert(k, v); }
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&mut m, k).unwrap(), reference.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(&mut m, k).unwrap(), reference.get(&k).copied());
                }
            }
        }
        tree.check_invariants(&mut m).unwrap();
        let ours = tree.to_vec(&mut m).unwrap();
        let theirs: Vec<(u64, u64)> = reference.into_iter().collect();
        prop_assert_eq!(ours, theirs);
    }

    /// A chain of `insert_max` over strictly ascending keys, with
    /// unrelated allocations in between, leaves the heap the same
    /// `insert` calls leave.
    #[test]
    fn rbtree_insert_max_matches_insert(
        steps in prop::collection::vec(
            (1u64..1000, any::<u64>(), prop::option::of((any::<bool>(), 1u64..20))),
            1..200,
        )
    ) {
        let heap = TmHeap::new();
        let reference = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let mut r = SetupMem::new(&reference);
        let tree = TmRbTree::create(&mut m).unwrap();
        let ref_tree = TmRbTree::create(&mut r).unwrap();
        let mut key = 0;
        let mut max = None;
        for (gap, value, noise) in steps {
            key += gap;
            max = Some(tree.insert_max(&mut m, max, key, value).unwrap());
            prop_assert!(ref_tree.insert(&mut r, key, value).unwrap());
            if let Some((padded, words)) = noise {
                for mem in [&mut m, &mut r] {
                    if padded { mem.alloc_padded(words); } else { mem.alloc(words); }
                }
            }
        }
        tree.check_invariants(&mut m).unwrap();
        prop_assert_eq!(heap.allocated_words(), reference.allocated_words());
        for a in tm::WORDS_PER_LINE..heap.allocated_words() {
            let a = tm::WordAddr(a);
            prop_assert_eq!(heap.raw_load(a), reference.raw_load(a));
        }
    }

    #[test]
    fn list_matches_btreemap(ops in map_ops(32)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let list = TmList::create(&mut m).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let inserted = list.insert(&mut m, k, v).unwrap();
                    prop_assert_eq!(inserted, !reference.contains_key(&k));
                    if inserted { reference.insert(k, v); }
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(list.remove(&mut m, k).unwrap(), reference.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(list.find(&mut m, k).unwrap(), reference.get(&k).copied());
                }
            }
            prop_assert_eq!(list.len(&mut m).unwrap(), reference.len() as u64);
        }
        let theirs: Vec<(u64, u64)> = reference.into_iter().collect();
        prop_assert_eq!(list.to_vec(&mut m).unwrap(), theirs);
    }

    #[test]
    fn hashtable_matches_hashmap(ops in map_ops(48)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let table = TmHashtable::create(&mut m, 8).unwrap();
        let mut reference = std::collections::HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let inserted = table.insert(&mut m, k, v).unwrap();
                    prop_assert_eq!(inserted, !reference.contains_key(&k));
                    if inserted { reference.insert(k, v); }
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(table.remove(&mut m, k).unwrap(), reference.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(table.get(&mut m, k).unwrap(), reference.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(table.count(&mut m).unwrap(), reference.len() as u64);
    }

    #[test]
    fn queue_matches_vecdeque(ops in prop::collection::vec(prop::option::of(any::<u64>()), 1..200)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let q = TmQueue::create(&mut m).unwrap();
        let mut reference = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.push_back(&mut m, v).unwrap();
                    reference.push_back(v);
                }
                None => {
                    prop_assert_eq!(q.pop_front(&mut m).unwrap(), reference.pop_front());
                }
            }
            prop_assert_eq!(q.len(&mut m).unwrap(), reference.len() as u64);
        }
    }

    #[test]
    fn pqueue_matches_binaryheap(ops in prop::collection::vec(prop::option::of(any::<u64>()), 1..200)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let q = TmPQueue::create(&mut m, 2).unwrap();
        let mut reference = std::collections::BinaryHeap::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.push(&mut m, v).unwrap();
                    reference.push(std::cmp::Reverse(v));
                }
                None => {
                    prop_assert_eq!(
                        q.pop(&mut m).unwrap(),
                        reference.pop().map(|std::cmp::Reverse(v)| v)
                    );
                }
            }
        }
    }

    #[test]
    fn vector_matches_vec(ops in prop::collection::vec(prop::option::of(any::<u64>()), 1..200)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let v = TmVector::create(&mut m, 1).unwrap();
        let mut reference = Vec::new();
        for op in ops {
            match op {
                Some(x) => {
                    v.push(&mut m, x).unwrap();
                    reference.push(x);
                }
                None => {
                    prop_assert_eq!(v.pop(&mut m).unwrap(), reference.pop());
                }
            }
        }
        prop_assert_eq!(v.to_vec(&mut m).unwrap(), reference);
    }

    #[test]
    fn bitmap_matches_hashset(bits in prop::collection::vec((0u64..256, any::<bool>()), 1..200)) {
        let heap = TmHeap::new();
        let mut m = SetupMem::new(&heap);
        let b = TmBitmap::create(&mut m, 256).unwrap();
        let mut reference = std::collections::HashSet::new();
        for (bit, set) in bits {
            if set {
                prop_assert_eq!(b.set(&mut m, bit).unwrap(), !reference.insert(bit));
            } else {
                prop_assert_eq!(b.clear(&mut m, bit).unwrap(), reference.remove(&bit));
            }
        }
        for bit in 0..256 {
            prop_assert_eq!(b.test(&mut m, bit).unwrap(), reference.contains(&bit));
        }
        prop_assert_eq!(b.count_set(&mut m).unwrap(), reference.len() as u64);
    }
}
