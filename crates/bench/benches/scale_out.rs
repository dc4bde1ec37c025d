//! F13 benchmark: wall-clock cost of the elastic scale-out ramp (static
//! vs elastic on the same seed) and of the 10× mempool overload burst.
//!
//! The acceptance gates — ≥2× sustained throughput with elasticity,
//! balance parity, and the mempool byte bound holding under the burst —
//! live in `tests/scale_out_guard.rs`; this bench reports wall-clock for
//! the same scenarios.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_bench::scale_out::{overload_burst, scale_out};
use hc_sim::experiments::E13Params;

fn bench_scale_out(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_out");
    group.sample_size(10);
    let params = E13Params::quick();
    group.bench_function("ramp_static_vs_elastic", |b| {
        b.iter(|| scale_out(&params).speedup)
    });
    group.bench_function("overload_burst_10x", |b| {
        b.iter(|| overload_burst(10).high_water_bytes)
    });
    group.finish();
}

criterion_group!(benches, bench_scale_out);
criterion_main!(benches);
