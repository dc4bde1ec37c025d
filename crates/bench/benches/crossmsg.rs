//! F3 benchmark (plus E8): raw cross-message protocol cost — the full
//! top-down and bottom-up pipelines, and the collateral lifecycle.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use hc_sim::experiments::{e10_cross_ratio, e8_collateral, E10Params, E8Params};
use hc_sim::TopologyBuilder;
use hc_workload::ClosedBatch;

fn bench_crossmsg(c: &mut Criterion) {
    let mut group = c.benchmark_group("f3_crossmsg");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("mixed_cross_traffic", |b| {
        b.iter(|| {
            let mut topo = TopologyBuilder::new().users_per_subnet(2).flat(2).unwrap();
            let subnets = topo.all_subnets();
            ClosedBatch {
                msgs_per_subnet: 30,
                cross_ratio: 0.5,
                ..ClosedBatch::default()
            }
            .run(&mut topo.rt, &subnets, &topo.users)
            .unwrap()
        })
    });
    group.bench_function("e8_collateral_lifecycle", |b| {
        b.iter(|| e8_collateral::e8_run(&E8Params::default()).unwrap())
    });
    group.bench_function("e10_cross_ratio_point", |b| {
        b.iter(|| {
            e10_cross_ratio::e10_run(&E10Params {
                cross_ratios: vec![0.25],
                subnets: 2,
                msgs_per_subnet: 60,
                seed: 31,
            })
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crossmsg);
criterion_main!(benches);
