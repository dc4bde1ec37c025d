//! Geo placement benchmark: wall-clock cost of driving a placed
//! hierarchy through a settle → region-disaster → heal → re-settle
//! cycle, across placement policies and disaster scenarios.
//!
//! Each iteration builds E14's two-parent, two-child hierarchy on its
//! three-region geography, funds a deep user, injects the scenario as a
//! region-scoped fault window, rides the window out (crash, blackhole,
//! deterministic rejoin and catch-up), and settles one more transfer —
//! so the measured region covers region-rule evaluation in the network
//! hot path plus the full recovery machinery.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_core::{PlacementPolicy, SyncMode};
use hc_net::{FaultKind, FaultPlan, FaultRule};
use hc_sim::experiments::e14_geo::GeoWorld;
use hc_sim::metrics::ride_out;
use hc_types::TokenAmount;

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

fn disaster_cycle(placement: PlacementPolicy, outage: bool) {
    let mut w = GeoWorld::build(placement, 0xE14, 5, SyncMode::Snapshot).unwrap();
    w.rt.cross_transfer(&w.alice, &w.bob, whole(40)).unwrap();
    w.rt.run_until_quiescent(20_000).unwrap();

    let now = w.rt.now_ms();
    let heal_ms = now + 5_400;
    if outage {
        let region = w.rt.region_of_subnet(&w.c1).unwrap_or("us-east").to_owned();
        let outage = FaultKind::RegionOutage { region };
        w.rt.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(now + 400, heal_ms, outage)],
        });
    }
    ride_out(&mut w.rt, heal_ms).unwrap();

    w.rt.cross_transfer(&w.alice, &w.bob, whole(2)).unwrap();
    w.rt.run_until_quiescent(20_000).unwrap();
    assert_eq!(w.rt.balance(&w.bob), whole(42));
}

fn bench_geo(c: &mut Criterion) {
    let mut group = c.benchmark_group("geo");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    let placements = [
        ("co_located", PlacementPolicy::FollowParent),
        ("geo_spread", PlacementPolicy::RoundRobin),
    ];
    for (name, placement) in placements {
        for outage in [false, true] {
            let scenario = if outage { "outage" } else { "calm" };
            group.bench_with_input(BenchmarkId::new(name, scenario), &outage, |b, &outage| {
                b.iter(|| disaster_cycle(placement, outage))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_geo);
criterion_main!(benches);
