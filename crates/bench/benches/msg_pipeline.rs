//! The message-path crypto pipeline: end-to-end admission → block
//! production → block validation through the real APIs, without a
//! signature cache on one thread versus the memoized/cached/batch-verified
//! pipeline on four, at 1k and 10k messages.
//!
//! The deterministic guard on SHA-256 compression work lives in
//! `tests/msg_pipeline_guard.rs`; this bench reports wall-clock.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hc_bench::msg_pipeline::{end_to_end, pipeline_end_to_end_with_stats, workload};
use hc_chain::Mempool;
use hc_state::{SealedMessage, SigCache};

fn bench_msg_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("msg_pipeline");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);

    for n in [1_000usize, 10_000] {
        let msgs = workload(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("uncached_end_to_end", n),
            &msgs,
            |b, msgs| b.iter(|| end_to_end(msgs, None, 1)),
        );
        group.bench_with_input(
            BenchmarkId::new("pipeline_end_to_end", n),
            &msgs,
            |b, msgs| b.iter(|| pipeline_end_to_end_with_stats(msgs, 4)),
        );
        // Admission alone: where the cache is populated and CIDs sealed.
        group.bench_with_input(
            BenchmarkId::new("pipeline_admission", n),
            &msgs,
            |b, msgs| {
                b.iter(|| {
                    let cache = SigCache::new(msgs.len());
                    let mut pool = Mempool::new().with_sig_cache(cache.clone());
                    for m in msgs {
                        pool.push_sealed(SealedMessage::new(m.clone()));
                    }
                    pool.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_msg_pipeline);
criterion_main!(benches);
