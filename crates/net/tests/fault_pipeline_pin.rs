//! The publish pipeline's draw order, pinned.
//!
//! One seeded network under a plan holding every network-executed
//! [`FaultKind`] with overlapping windows, region links with loss and
//! jitter, base loss and jitter, an offline stretch and ~200 publishes
//! from every kind of origin. The literals below were recorded from the
//! last commit that still had a second, five-argument publish and a plan
//! of eight per-kind vectors (the rules are listed here in that plan's
//! vector order): equal counters and an equal `(subscriber, deliver_at,
//! payload)` multiset mean both RNG streams are drawn draw-for-draw as
//! they were. Only `partition_held` and `region_held` differ, by design —
//! that commit also counted holds of deliveries a later gate dropped, and
//! counted a delivery held by both a named and a region partition twice.

use hc_net::{
    FaultKind, FaultPlan, FaultRule, NetConfig, NetStats, Network, PartitionPolicy, RegionLink,
    RegionMap, SubscriberId,
};
use hc_types::Cid;

#[test]
fn every_network_fault_kind_draws_in_the_recorded_order() {
    let mut regions = RegionMap::named(&["us", "eu", "ap"]);
    regions.set_link(
        "us",
        "eu",
        RegionLink {
            extra_delay_ms: 70,
            jitter_ms: 25,
            loss_rate: 0.1,
            delay_factor_pct: 180,
        },
    );
    regions.set_link_symmetric(
        "eu",
        "ap",
        RegionLink {
            extra_delay_ms: 120,
            jitter_ms: 10,
            ..RegionLink::IDENTITY
        },
    );
    let net: Network<u32> = Network::new(
        NetConfig {
            base_delay_ms: 40,
            jitter_ms: 30,
            drop_rate: 0.05,
            regions,
            ..NetConfig::default()
        },
        0x5eed,
    );
    let subs: Vec<SubscriberId> = (0..6).map(|_| net.subscribe("t")).collect();
    net.join(subs[0], "u");
    net.join(subs[3], "u");
    net.join(subs[5], "u");
    for (i, region) in ["us", "us", "eu", "eu", "ap", "ap"].iter().enumerate() {
        net.place_in_region(subs[i], region);
    }
    let degrade = |from_ms, until_ms, from: &str, to: &str, extra_delay_ms, loss_rate| {
        let (from, to) = (from.into(), to.into());
        FaultRule::new(
            from_ms,
            until_ms,
            FaultKind::RegionDegrade {
                from,
                to,
                extra_delay_ms,
                loss_rate,
            },
        )
    };
    net.extend_faults(FaultPlan {
        rules: vec![
            FaultRule::new(
                1_000,
                3_000,
                FaultKind::Partition {
                    name: "island".into(),
                    topics: Vec::new(),
                    subscribers: vec![subs[1], subs[2]],
                    policy: PartitionPolicy::HoldUntilHeal,
                },
            ),
            FaultRule::new(
                2_500,
                4_000,
                FaultKind::Partition {
                    name: "blackout-u".into(),
                    topics: vec!["u".into()],
                    subscribers: Vec::new(),
                    policy: PartitionPolicy::Drop,
                },
            ),
            FaultRule::new(
                500,
                6_000,
                FaultKind::Loss {
                    topic: Some("t".into()),
                    from: None,
                    to: Some(subs[4]),
                    rate: 0.3,
                },
            ),
            FaultRule::new(
                2_000,
                7_000,
                FaultKind::Loss {
                    topic: None,
                    from: Some(subs[0]),
                    to: None,
                    rate: 0.2,
                },
            ),
            FaultRule::new(
                1_500,
                8_000,
                FaultKind::Duplicate {
                    topic: None,
                    rate: 0.4,
                    max_copies: 3,
                    spread_ms: 200,
                },
            ),
            FaultRule::new(
                0,
                5_000,
                FaultKind::Reorder {
                    topic: Some("t".into()),
                    rate: 0.5,
                    max_extra_delay_ms: 600,
                },
            ),
            FaultRule::new(
                3_000,
                9_000,
                FaultKind::Reorder {
                    topic: None,
                    rate: 0.9,
                    max_extra_delay_ms: 50,
                },
            ),
            FaultRule::new(
                4_000,
                5_500,
                FaultKind::RegionOutage {
                    region: "ap".into(),
                },
            ),
            FaultRule::new(
                2_000,
                4_500,
                FaultKind::RegionPartition {
                    name: "atlantic".into(),
                    a: "us".into(),
                    b: "eu".into(),
                    policy: PartitionPolicy::HoldUntilHeal,
                },
            ),
            FaultRule::new(
                6_000,
                7_500,
                FaultKind::RegionPartition {
                    name: "pacific".into(),
                    a: "ap".into(),
                    b: "us".into(),
                    policy: PartitionPolicy::Drop,
                },
            ),
            degrade(500, 6_500, "us", "eu", 90, 0.15),
            degrade(3_000, 8_500, "us", "eu", 15, 0.0),
            degrade(0, 10_000, "eu", "ap", 33, 0.25),
        ],
    });

    let mut seen: Vec<(u64, u64, u32)> = Vec::new();
    let mut drain = |net: &Network<u32>, horizon: u64| {
        while let Some(t) = net.next_delivery_ms().filter(|t| *t <= horizon) {
            for sub in &subs {
                for p in net.poll(*sub, t) {
                    seen.push((sub.raw(), t, p));
                }
            }
        }
    };
    for i in 0..200u32 {
        let at = u64::from(i) * 50;
        if i == 70 {
            net.set_offline(subs[3], true);
            net.clear_inbox(subs[3]);
        }
        if i == 110 {
            net.set_offline(subs[3], false);
        }
        let origin = match i % 7 {
            6 => None,
            k => Some(subs[k as usize % subs.len()]),
        };
        let topic = if i % 5 == 4 { "u" } else { "t" };
        net.publish(topic, i, at, origin);
        if i % 40 == 39 {
            drain(&net, at);
        }
    }
    drain(&net, u64::MAX);
    seen.sort_unstable();
    let mut bytes = Vec::new();
    for (s, t, p) in &seen {
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes.extend_from_slice(&t.to_le_bytes());
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    assert_eq!(net.pending_deliveries(), 0);
    assert_eq!(seen.len(), 1057);
    assert_eq!((seen[0], seen[1056]), ((0, 162, 2), (5, 10181, 199)));
    assert_eq!(
        format!("{:?}", Cid::digest(&bytes)),
        "Cid(3905cc4dd29973a4f518744fe97c35ea4b805a3d14dcdcf99ca3607587b7ce7c)"
    );
    let stats = net.stats();
    assert_eq!(
        stats,
        NetStats {
            published: 200,
            attempts: 1080,
            scheduled: 779,
            dropped: 53,
            delivered: 747,
            duplicated: 323,
            redelivered: 310,
            reordered: 450,
            partition_dropped: 16,
            targeted_dropped: 31,
            offline_dropped: 40,
            offline_cleared: 45,
            region_dropped: 115,
            region_lost: 46,
            // Recorded: 90 and 51 — holds of deliveries never scheduled
            // and double holds included.
            partition_held: 63,
            region_held: 41,
        }
    );
    assert!(stats.partition_held + stats.region_held <= stats.scheduled);
}
