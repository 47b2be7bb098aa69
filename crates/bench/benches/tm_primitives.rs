//! Criterion microbenchmarks of the TM engine's primitives: transaction
//! throughput per system (host wall clock — these measure the *engine*,
//! not the modeled machine). Every runtime here runs under the same
//! deterministic scheduler as the apps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tm::{SystemKind, TmConfig, TmRuntime};

fn bench_counter_txns(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_txn");
    for sys in SystemKind::ALL_TM {
        group.bench_with_input(BenchmarkId::from_parameter(sys.label()), &sys, |b, &sys| {
            // Single thread: barrier, commit and clock-publish overhead
            // with no handoffs or aborts.
            let rt = TmRuntime::new(TmConfig::new(sys, 1));
            let cell = rt.heap().alloc_cell(0u64);
            b.iter(|| {
                rt.run(|ctx| {
                    for _ in 0..1000 {
                        ctx.atomic(|txn| {
                            let v = txn.read(&cell)?;
                            txn.write(&cell, v + 1)
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

fn bench_read_heavy_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("read64_txn");
    for sys in [
        SystemKind::LazyStm,
        SystemKind::EagerStm,
        SystemKind::LazyHtm,
        SystemKind::LazyHybrid,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(sys.label()), &sys, |b, &sys| {
            let rt = TmRuntime::new(TmConfig::new(sys, 1));
            let arr = rt.heap().alloc_array::<u64>(64, 1);
            b.iter(|| {
                rt.run(|ctx| {
                    for _ in 0..200 {
                        let sum = ctx.atomic(|txn| {
                            let mut s = 0u64;
                            for i in 0..64 {
                                s += txn.read_idx(&arr, i)?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, 64);
                    }
                });
            });
        });
    }
    group.finish();
}

fn bench_signature(c: &mut Criterion) {
    use tm::LineAddr;
    let sig = tm::signature::Signature::new(2048);
    for i in 0..128 {
        sig.insert(LineAddr(i * 7));
    }
    c.bench_function("signature_probe", |b| {
        b.iter(|| {
            let mut hits = 0;
            for i in 0..1024u64 {
                if sig.maybe_contains(LineAddr(std::hint::black_box(i))) {
                    hits += 1;
                }
            }
            hits
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_counter_txns, bench_read_heavy_txn, bench_signature
}
criterion_main!(benches);
