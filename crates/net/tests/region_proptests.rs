//! Property-based tests of the geo-aware region model: determinism of
//! the latency-matrix schedules under a seed, and bit-identity of the
//! uniform map with the region-less network.

use proptest::prelude::*;

use hc_net::{
    FaultKind, FaultPlan, FaultRule, NetConfig, Network, PartitionPolicy, RegionLink, RegionMap,
};

/// One of each region-scoped rule between regions `a` and `b`, with a
/// `Drop` or hold-until-heal partition.
fn region_rules(a: &str, b: &str, windows: [(u64, u64); 3], hold: bool) -> Vec<FaultRule> {
    let [outage, partition, degrade] = windows;
    vec![
        FaultRule::new(
            outage.0,
            outage.1,
            FaultKind::RegionOutage { region: b.into() },
        ),
        FaultRule::new(
            partition.0,
            partition.1,
            FaultKind::RegionPartition {
                name: "x".into(),
                a: a.into(),
                b: b.into(),
                policy: if hold {
                    PartitionPolicy::HoldUntilHeal
                } else {
                    PartitionPolicy::Drop
                },
            },
        ),
        FaultRule::new(
            degrade.0,
            degrade.1,
            FaultKind::RegionDegrade {
                from: a.into(),
                to: b.into(),
                extra_delay_ms: 80,
                loss_rate: 0.2,
            },
        ),
    ]
}

/// Polls every subscriber at stepped horizons so the comparison captures
/// the *schedule* (who got what, when), not just the final multiset.
fn drain_stepped(net: &Network<u32>, subs: &[hc_net::SubscriberId]) -> Vec<(u64, usize, Vec<u32>)> {
    let mut out = Vec::new();
    for step in 0..40u64 {
        let now = step * 250;
        for (i, sub) in subs.iter().enumerate() {
            let got = net.poll(*sub, now);
            if !got.is_empty() {
                out.push((now, i, got));
            }
        }
    }
    for (i, sub) in subs.iter().enumerate() {
        let got = net.poll(*sub, u64::MAX);
        if !got.is_empty() {
            out.push((u64::MAX, i, got));
        }
    }
    out
}

proptest! {
    /// Same seed + same geography ⇒ bit-identical delivery schedules and
    /// counters, with links, outages, partitions, and degrades all live.
    #[test]
    fn same_seed_same_geography_is_bit_identical(
        seed in 0u64..1_000,
        extra_delay in 0u64..200,
        region_jitter in 0u64..100,
        loss_pct in 0u32..60,
        factor in 100u32..300,
        publishes in prop::collection::vec((0u64..5_000, 0u32..1_000), 1..30),
    ) {
        let run = || {
            let mut regions = RegionMap::named(&["us", "eu", "ap"]);
            regions.set_link("us", "eu", RegionLink {
                extra_delay_ms: extra_delay,
                jitter_ms: region_jitter,
                loss_rate: f64::from(loss_pct) / 100.0,
                delay_factor_pct: factor,
            });
            regions.set_link_symmetric("us", "ap", RegionLink {
                extra_delay_ms: extra_delay * 2,
                ..RegionLink::IDENTITY
            });
            let net: Network<u32> = Network::new(
                NetConfig { jitter_ms: 30, drop_rate: 0.1, regions, ..NetConfig::default() },
                seed,
            );
            let a = net.subscribe("t");
            let b = net.subscribe("t");
            let c = net.subscribe("t");
            net.place_in_region(a, "us");
            net.place_in_region(b, "eu");
            net.place_in_region(c, "ap");
            // A held us → eu delivery then faces the degrade's loss draw,
            // an eu → ap one the outage: holds that may never be scheduled.
            let mut rules = region_rules("us", "eu", [(0, 0), (1_000, 3_000), (500, 2_500)], true);
            rules.extend(region_rules("eu", "ap", [(2_000, 2_600), (1_000, 3_000), (0, 0)], true));
            net.extend_faults(FaultPlan { rules });
            for (i, (at, p)) in publishes.iter().enumerate() {
                net.publish("t", *p, *at, Some([a, b][i % 2]));
            }
            let schedule = drain_stepped(&net, &[a, b, c]);
            (schedule, net.stats())
        };
        let first = run();
        prop_assert_eq!(&first, &run());
        // A hold is counted only for a delivery that was scheduled.
        let stats = first.1;
        prop_assert!(stats.partition_held + stats.region_held <= stats.scheduled);
    }

    /// `RegionMap::uniform()` — and any placed map without a non-identity
    /// link — is bit-identical to the region-less default: same schedule,
    /// same counters, no extra draws from either RNG stream.
    #[test]
    fn uniform_map_is_bit_identical_to_default(
        seed in 0u64..1_000,
        publishes in prop::collection::vec((0u64..5_000, 0u32..1_000), 1..30),
        placed in any::<bool>(),
    ) {
        let run = |regions: Option<RegionMap>| {
            let placed_map = regions.is_some();
            let net: Network<u32> = Network::new(
                NetConfig {
                    jitter_ms: 40,
                    drop_rate: 0.25,
                    regions: regions.unwrap_or_default(),
                    ..NetConfig::default()
                },
                seed,
            );
            let a = net.subscribe("t");
            let b = net.subscribe("t");
            if placed_map {
                net.place_in_region(a, "us");
                net.place_in_region(b, "eu");
            }
            for (at, p) in &publishes {
                net.publish("t", *p, *at, Some(a));
            }
            (drain_stepped(&net, &[a, b]), net.stats())
        };
        let map = if placed {
            Some(RegionMap::named(&["us", "eu"]))
        } else {
            Some(RegionMap::uniform())
        };
        prop_assert_eq!(run(None), run(map));
    }

    /// Region disaster rules naming regions the map never declared are
    /// inert: they resolve to nothing and leave the base stream identical
    /// even though the fault plan is non-empty.
    #[test]
    fn unresolvable_region_rules_are_inert(
        seed in 0u64..1_000,
        publishes in prop::collection::vec((0u64..5_000, 0u32..1_000), 1..30),
    ) {
        let run = |faults: FaultPlan| {
            let net: Network<u32> = Network::new(
                NetConfig { jitter_ms: 40, drop_rate: 0.25, faults, ..NetConfig::default() },
                seed,
            );
            let a = net.subscribe("t");
            for (at, p) in &publishes {
                net.publish("t", *p, *at, None);
            }
            (drain_stepped(&net, &[a]), net.stats().delivered, net.stats().dropped)
        };
        let inert = FaultPlan {
            rules: region_rules("lemuria", "atlantis", [(0, u64::MAX); 3], false),
        };
        prop_assert_eq!(run(FaultPlan::none()), run(inert));
    }

    /// A region outage is a clean window: traffic published after heal
    /// always flows, whatever the outage bounds, and every blackholed
    /// delivery is accounted in `region_dropped`.
    #[test]
    fn region_outage_heals_cleanly(
        window in (500u64..2_000, 2_000u64..3_500),
        publishes in prop::collection::vec((0u64..4_000, 0u32..1_000), 1..30),
        seed in 0u64..1_000,
    ) {
        let (from_ms, heal_ms) = window;
        let regions = RegionMap::named(&["us", "ap"]);
        let net: Network<u32> = Network::new(
            NetConfig { jitter_ms: 0, drop_rate: 0.0, regions, ..NetConfig::default() },
            seed,
        );
        let a = net.subscribe("t");
        let b = net.subscribe("t");
        net.place_in_region(a, "us");
        net.place_in_region(b, "ap");
        net.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(from_ms, heal_ms, FaultKind::RegionOutage { region: "ap".into() })],
        });
        for (at, p) in &publishes {
            net.publish("t", *p, *at, Some(a));
        }
        let mut got = net.poll(b, u64::MAX);
        got.sort_unstable();
        let mut want: Vec<u32> = publishes
            .iter()
            .filter(|(at, _)| *at < from_ms || *at >= heal_ms)
            .map(|(_, p)| *p)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let blackholed = publishes
            .iter()
            .filter(|(at, _)| *at >= from_ms && *at < heal_ms)
            .count() as u64;
        let stats = net.stats();
        prop_assert_eq!(stats.region_dropped, blackholed);
        // a's own copy never leaves "us": it is always scheduled.
        prop_assert_eq!(stats.scheduled, publishes.len() as u64 * 2 - blackholed);
        prop_assert_eq!(stats.attempts, stats.outcomes());
        prop_assert_eq!(stats.attempts, publishes.len() as u64 * 2);
    }
}
