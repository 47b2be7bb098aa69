//! Criterion microbenchmarks of the transactional data structures
//! (host wall clock, single-threaded, lazy STM under the apps'
//! deterministic scheduler vs uninstrumented setup access).

use criterion::{criterion_group, criterion_main, Criterion};
use tm::{SystemKind, TmConfig, TmRuntime};
use tm_ds::{SetupMem, TmHashtable, TmRbTree};

fn bench_rbtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbtree_insert_1k");
    group.bench_function("setup_mem", |b| {
        b.iter(|| {
            let heap = tm::TmHeap::new();
            let mut m = SetupMem::new(&heap);
            let t = TmRbTree::create(&mut m).unwrap();
            for k in 0..1000u64 {
                t.insert(&mut m, k.wrapping_mul(2654435761) % 4096, k)
                    .unwrap();
            }
        })
    });
    group.bench_function("lazy_stm_txn", |b| {
        b.iter(|| {
            let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 1));
            let t = {
                let mut m = SetupMem::new(rt.heap());
                TmRbTree::create(&mut m).unwrap()
            };
            rt.run(|ctx| {
                for k in 0..1000u64 {
                    ctx.atomic(|txn| {
                        t.insert(txn, k.wrapping_mul(2654435761) % 4096, k)
                            .map(|_| ())
                    });
                }
            });
        })
    });
    group.finish();
}

fn bench_hashtable(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashtable_insert_get_1k");
    group.bench_function("lazy_stm_txn", |b| {
        b.iter(|| {
            let rt = TmRuntime::new(TmConfig::new(SystemKind::LazyStm, 1));
            let t = {
                let mut m = SetupMem::new(rt.heap());
                TmHashtable::create(&mut m, 1024).unwrap()
            };
            rt.run(|ctx| {
                for k in 0..1000u64 {
                    ctx.atomic(|txn| t.insert(txn, k, k).map(|_| ()));
                }
                for k in 0..1000u64 {
                    let v = ctx.atomic(|txn| t.get(txn, k));
                    assert_eq!(v, Some(k));
                }
            });
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_rbtree, bench_hashtable
}
criterion_main!(benches);
