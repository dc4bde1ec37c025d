//! Geo placement benchmark: wall-clock cost of driving a placed
//! hierarchy through a settle → region-disaster → heal → re-settle
//! cycle, across placement policies and disaster scenarios.
//!
//! Each iteration builds a root + parent + child hierarchy on the E14
//! three-region geography, funds a deep user, injects the scenario as a
//! region-scoped fault window, rides the window out (crash, blackhole,
//! deterministic rejoin and catch-up), and settles one more transfer —
//! so the measured region covers region-rule evaluation in the network
//! hot path plus the full recovery machinery.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_actors::sa::SaConfig;
use hc_core::{HierarchyRuntime, PlacementPolicy, RuntimeConfig, SyncMode};
use hc_net::{FaultKind, FaultPlan, FaultRule};
use hc_sim::experiments::e14_geo::geography;
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

fn disaster_cycle(placement: PlacementPolicy, outage: bool) {
    let mut config = RuntimeConfig {
        seed: 0xE14,
        placement,
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    config.net.regions = geography();
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000)).unwrap();
    let v = rt.create_user(&root, whole(100)).unwrap();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let parent = rt
        .spawn_subnet(&alice, sa.clone(), whole(10), &[(v, whole(5))])
        .unwrap();
    let u = rt.create_user(&parent, TokenAmount::ZERO).unwrap();
    let w = rt.create_user(&parent, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &u, whole(100)).unwrap();
    rt.cross_transfer(&alice, &w, whole(50)).unwrap();
    rt.run_until_quiescent(20_000).unwrap();
    let child = rt
        .spawn_subnet(&u, sa, whole(10), &[(w, whole(5))])
        .unwrap();
    let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(40)).unwrap();
    rt.run_until_quiescent(20_000).unwrap();

    let now = rt.now_ms();
    let heal_ms = now + 5_400;
    if outage {
        let region = rt.region_of_subnet(&child).unwrap_or("us-east").to_owned();
        let outage = FaultKind::RegionOutage { region };
        rt.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(now + 400, heal_ms, outage)],
        });
    }
    let mut guard = 0u64;
    while rt.now_ms() < heal_ms
        || rt.is_crashed(&child)
        || rt.is_catching_up(&child)
        || rt.is_crashed(&parent)
        || rt.is_catching_up(&parent)
    {
        rt.step().unwrap();
        guard += 1;
        assert!(guard < 200_000, "the fault window must close");
    }
    rt.run_until_quiescent(30_000).unwrap();

    rt.cross_transfer(&alice, &bob, whole(2)).unwrap();
    rt.run_until_quiescent(20_000).unwrap();
    assert_eq!(rt.balance(&bob), whole(42));
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
