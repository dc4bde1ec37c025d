//! Property-based tests of the pub-sub network and content resolution.

use proptest::prelude::*;

use hc_actors::{CrossMsg, HcAddress, MsgGroup};
use hc_net::{
    ContentCache, FaultKind, FaultPlan, FaultRule, NetConfig, NetStats, Network, PartitionPolicy,
    RegionLink, RegionMap, Resolver, SubscriberId, Window,
};
use hc_types::{Address, CanonicalDecode, CanonicalEncode, SubnetId, TokenAmount};

fn group(id: u64, n: u64) -> (hc_types::Cid, Vec<CrossMsg>) {
    let msgs: Vec<CrossMsg> = (0..n.max(1))
        .map(|i| {
            CrossMsg::transfer(
                HcAddress::new(
                    SubnetId::root().child(Address::new(200 + id)),
                    Address::new(100 + i),
                ),
                HcAddress::new(SubnetId::root(), Address::new(300 + i)),
                TokenAmount::from_atto(u128::from(id) * 1_000 + u128::from(i) + 1),
            )
        })
        .collect();
    (MsgGroup::seal(msgs.clone()).cid(), msgs)
}

/// The [`NetStats`] identities: every candidate delivery is scheduled or
/// in exactly one drop class; everything scheduled is polled, cleared or
/// still `pending`; and a hold is counted once, for a scheduled delivery.
fn assert_ledgers_close(stats: &NetStats, pending: u64) {
    assert_eq!(stats.attempts, stats.outcomes(), "{stats:?}");
    assert_eq!(
        stats.scheduled + stats.duplicated,
        stats.delivered + stats.redelivered + stats.offline_cleared + pending,
        "{stats:?}"
    );
    assert!(
        stats.partition_held + stats.region_held <= stats.scheduled,
        "{stats:?}"
    );
}

/// Rates a hostile plan may carry: not a number, negative, above one.
const RATES: [f64; 8] = [f64::NAN, -1.0, 0.0, 0.3, 0.7, 1.0, 7.5, f64::INFINITY];

/// Region names a rule may carry; the map never declares the last.
const REGIONS: [&str; 4] = ["us", "eu", "ap", "atlantis"];

/// `(kind, from_ms, until_ms, rate, x, y)` — raw material for one rule.
type RuleSpec = (u8, u64, u64, usize, usize, usize);

fn rule_specs(max: usize) -> impl Strategy<Value = Vec<RuleSpec>> {
    let spec = (
        0u8..8,
        0u64..3_000,
        0u64..3_000,
        0usize..RATES.len(),
        0usize..60,
        0usize..60,
    );
    prop::collection::vec(spec, 0..max)
}

/// Any rule at all: every kind, windows that are empty, inverted or never
/// close, every rate in [`RATES`], subscribers that may not exist, regions
/// that may not be declared.
fn rule((kind, from_ms, until_ms, rate, x, y): RuleSpec) -> FaultRule {
    let rate = RATES[rate];
    let topic = [None, Some("t".to_owned()), Some("u".to_owned())][x % 3].clone();
    let sub = |i: usize| SubscriberId::from_raw((i % 5) as u64);
    let opt_sub = |i: usize| (i % 6 < 5).then(|| sub(i));
    let policy = [PartitionPolicy::Drop, PartitionPolicy::HoldUntilHeal][y % 2];
    let region = |i: usize| REGIONS[i % 4].to_owned();
    let kind = match kind {
        0 => FaultKind::Partition {
            name: "p".into(),
            topics: topic.into_iter().collect(),
            subscribers: (0..y % 4).map(|i| sub(x + i)).collect(),
            policy,
        },
        1 => FaultKind::Loss {
            topic,
            from: opt_sub(x / 3),
            to: opt_sub(y),
            rate,
        },
        2 => FaultKind::Duplicate {
            topic,
            rate,
            max_copies: (y % 4) as u32,
            spread_ms: (y as u64 % 3) * 150,
        },
        3 => FaultKind::Reorder {
            topic,
            rate,
            max_extra_delay_ms: (y as u64 % 3) * 400,
        },
        4 => FaultKind::RegionPartition {
            name: "r".into(),
            a: region(x),
            b: region(x / 4),
            policy,
        },
        5 => FaultKind::RegionDegrade {
            from: region(x),
            to: region(x / 4),
            extra_delay_ms: y as u64 * 10,
            loss_rate: rate,
        },
        6 => FaultKind::RegionOutage { region: region(x) },
        _ => FaultKind::Crash {
            subnet: SubnetId::root(),
        },
    };
    let until_ms = if y % 7 == 0 { u64::MAX } else { until_ms };
    FaultRule {
        window: Window::new(from_ms, until_ms),
        kind,
    }
}

/// `(at_ms, payload, origin, on topic "u")`, all before virtual time 3 000.
type PublishSpec = (u64, u32, usize, bool);

fn publish_specs() -> impl Strategy<Value = Vec<PublishSpec>> {
    prop::collection::vec((0u64..3_000, 0u32..1_000, 0usize..6, any::<bool>()), 1..40)
}

/// Runs `publishes` through a four-subscriber, three-region network with
/// lossy, jittery links and base loss under `boot` (the configured plan)
/// extended by `later`, draining fully. Returns the counters and the
/// exact `(subscriber, deliver_at, payload)` schedule.
fn run_plan(
    seed: u64,
    boot: FaultPlan,
    later: FaultPlan,
    publishes: &[PublishSpec],
) -> (NetStats, Vec<(u64, u64, u32)>) {
    let mut regions = RegionMap::named(&REGIONS[..3]);
    let link = RegionLink {
        extra_delay_ms: 60,
        jitter_ms: 15,
        loss_rate: 0.1,
        delay_factor_pct: 150,
    };
    regions.set_link_symmetric("us", "eu", link);
    let net: Network<u32> = Network::new(
        NetConfig {
            drop_rate: 0.1,
            faults: boot,
            regions,
            ..NetConfig::default()
        },
        seed,
    );
    let subs: Vec<SubscriberId> = (0..4).map(|_| net.subscribe("t")).collect();
    net.join(subs[1], "u");
    net.join(subs[3], "u");
    for (sub, region) in subs.iter().zip(["us", "eu", "ap", "us"]) {
        net.place_in_region(*sub, region);
    }
    net.extend_faults(later);
    for &(at_ms, payload, origin, on_u) in publishes {
        // Origin 4 was never subscribed; 5 is unknown.
        let origin = (origin < 5).then(|| SubscriberId::from_raw(origin as u64));
        net.publish(if on_u { "u" } else { "t" }, payload, at_ms, origin);
    }
    let mut seen = Vec::new();
    while let Some(at_ms) = net.next_delivery_ms() {
        for sub in &subs {
            let polled = net.poll(*sub, at_ms);
            seen.extend(polled.into_iter().map(|p| (sub.raw(), at_ms, p)));
        }
    }
    (net.stats(), seen)
}

fn plan_of(specs: &[RuleSpec]) -> FaultPlan {
    FaultPlan {
        rules: specs.iter().copied().map(rule).collect(),
    }
}

proptest! {
    /// Without loss, every published message is delivered to every other
    /// subscriber exactly once, after at least the base delay.
    #[test]
    fn lossless_delivery_is_exactly_once(
        subscribers in 1usize..6,
        publishes in prop::collection::vec((0u64..10_000, 0u32..1_000), 1..30),
        base_delay in 1u64..200,
        jitter in 0u64..100,
    ) {
        let net: Network<u32> = Network::new(
            NetConfig {
                base_delay_ms: base_delay,
                jitter_ms: jitter,
                drop_rate: 0.0,
                ..NetConfig::default()
            },
            99,
        );
        let subs: Vec<_> = (0..subscribers).map(|_| net.subscribe("t")).collect();
        for (at, payload) in &publishes {
            net.publish("t", *payload, *at, None);
        }
        let horizon = 10_000 + base_delay + jitter + 1;
        let mut expected: Vec<u32> = publishes.iter().map(|(_, p)| *p).collect();
        expected.sort_unstable();
        for sub in subs {
            // Nothing arrives before the base delay of the earliest publish.
            let earliest = publishes.iter().map(|(at, _)| *at).min().unwrap();
            if base_delay > 0 {
                prop_assert!(net.poll(sub, earliest + base_delay - 1).len() <= publishes.len());
            }
            let mut got = net.poll(sub, horizon);
            // Plus anything already polled above.
            got.extend(net.poll(sub, horizon));
            let mut all = got;
            all.sort_unstable();
            // Between the two polls everything must have arrived once.
            prop_assert_eq!(all.len(), expected.len());
        }
    }

    /// The content cache never stores content under the wrong CID,
    /// whatever insertion order is attempted: a CID it does not hold yet
    /// is only taken with the content that hashes to it, and a CID it
    /// already holds is settled before anything is looked at — the insert
    /// reports the CID as held and the resident, verified group stays.
    #[test]
    fn cache_is_poison_proof(inserts in prop::collection::vec((0u64..6, 0u64..6, 1u64..4), 1..30)) {
        let mut cache = ContentCache::new();
        for (claimed_id, actual_id, n) in inserts {
            let (claimed_cid, _) = group(claimed_id, n);
            let (_, actual_msgs) = group(actual_id, n);
            let held = cache.contains(&claimed_cid);
            let accepted = cache.insert(claimed_cid, actual_msgs.clone());
            prop_assert_eq!(accepted, held || claimed_id == actual_id);
            if let Some(stored) = cache.get(&claimed_cid) {
                prop_assert_eq!(stored.cid(), claimed_cid);
                prop_assert_eq!(MsgGroup::seal(stored.to_vec()).cid(), claimed_cid);
            }
        }
    }

    /// A group altered on its way — a flipped bit, two messages swapped,
    /// one dropped, one appended — is never cached under the CID it claims,
    /// whether it arrives by direct insert, push or resolve.
    #[test]
    fn an_altered_group_is_never_cached_under_the_claimed_cid(
        id in 0u64..6,
        n in 2u64..5,
        kind in 0u8..4,
        at in any::<prop::sample::Index>(),
    ) {
        let (cid, msgs) = group(id, n);
        let mut altered = msgs.clone();
        match kind {
            0 => {
                let mut bytes = msgs.canonical_bytes();
                let i = at.index(bytes.len());
                bytes[i] ^= 1 << (i % 8);
                match Vec::<CrossMsg>::decode(&bytes) {
                    Ok(decoded) => altered = decoded,
                    Err(_) => return Ok(()), // never becomes messages at all
                }
            }
            1 => altered.swap(0, 1 + at.index(msgs.len() - 1)),
            2 => {
                altered.remove(at.index(msgs.len()));
            }
            _ => altered.push(group(id + 10, 1).1.remove(0)),
        }
        prop_assert_ne!(&altered, &msgs);

        let mut cache = ContentCache::new();
        prop_assert!(!cache.insert(cid, altered.clone()));
        prop_assert!(cache.is_empty());

        // The node pulled `cid`, so it takes a reply as well as a push.
        let mut r = Resolver::new();
        prop_assert!(r.lookup_or_pull(cid, "t").is_err());
        r.handle(hc_net::ResolutionMsg::Push { cid, msgs: altered.clone() }, |_| None);
        r.handle(hc_net::ResolutionMsg::Resolve { cid, msgs: altered }, |_| None);
        prop_assert_eq!(r.stats().rejected, 2);
        prop_assert!(r.cache().is_empty());
        prop_assert_eq!(r.pending_pulls(), 1);
    }

    /// Under duplication and reordering faults, every delivered payload
    /// was actually published (no fabrication), originals arrive exactly
    /// once in `delivered`, and the stats ledger reconciles.
    #[test]
    fn faulty_delivery_never_fabricates_messages(
        publishes in prop::collection::vec((0u64..5_000, 0u32..1_000), 1..30),
        dup_pct in 0u32..101,
        reorder_pct in 0u32..101,
        max_copies in 1u32..4,
        seed in 0u64..1_000,
    ) {
        let faults = FaultPlan {
            rules: vec![
                FaultRule {
                    window: Window::new(0, u64::MAX),
                    kind: FaultKind::Duplicate {
                        topic: None,
                        rate: f64::from(dup_pct) / 100.0,
                        max_copies,
                        spread_ms: 300,
                    },
                },
                FaultRule {
                    window: Window::new(0, u64::MAX),
                    kind: FaultKind::Reorder {
                        topic: None,
                        rate: f64::from(reorder_pct) / 100.0,
                        max_extra_delay_ms: 500,
                    },
                },
            ],
        };
        let net: Network<u32> = Network::new(
            NetConfig { drop_rate: 0.0, faults, ..NetConfig::default() },
            seed,
        );
        let sub = net.subscribe("t");
        for (at, payload) in &publishes {
            net.publish("t", *payload, *at, None);
        }
        let got = net.poll(sub, u64::MAX);
        let stats = net.stats();
        // Every delivered payload was published.
        let published: Vec<u32> = publishes.iter().map(|(_, p)| *p).collect();
        for p in &got {
            prop_assert!(published.contains(p));
        }
        // Originals arrive exactly once in `delivered`; copies are
        // accounted separately and never double-count.
        prop_assert_eq!(stats.delivered, publishes.len() as u64);
        prop_assert_eq!(stats.redelivered, stats.duplicated);
        prop_assert_eq!(got.len() as u64, stats.delivered + stats.redelivered);
        prop_assert!(stats.duplicated <= publishes.len() as u64 * u64::from(max_copies));
        // The full ledger reconciles: every candidate delivery landed in
        // exactly one bucket (scheduled or one of the drop classes), and
        // after the full drain everything scheduled was polled.
        prop_assert_eq!(net.pending_deliveries(), 0);
        assert_ledgers_close(&stats, 0);
    }

    /// Redelivery through the resolver is idempotent: however many times
    /// a push/resolve for the same CID arrives, the cache holds exactly
    /// one validated copy per CID.
    #[test]
    fn dedup_by_cid_makes_redelivery_idempotent(
        deliveries in prop::collection::vec((0u64..6, 1u64..4, 1usize..5), 1..25),
    ) {
        let mut r = Resolver::new();
        let mut distinct = std::collections::BTreeSet::new();
        for (id, n, copies) in deliveries {
            let (cid, msgs) = group(id, n);
            distinct.insert(cid);
            for _ in 0..copies {
                r.handle(hc_net::ResolutionMsg::Push { cid, msgs: msgs.clone() }, |_| None);
            }
            prop_assert_eq!(&**r.cache().get(&cid).unwrap(), msgs.as_slice());
        }
        prop_assert_eq!(r.cache().len(), distinct.len());
        prop_assert_eq!(r.stats().rejected, 0);
    }

    /// A healed `HoldUntilHeal` partition eventually delivers all queued
    /// traffic: nothing is lost, it just waits for the heal time.
    #[test]
    fn healed_partition_delivers_all_queued_traffic(
        publishes in prop::collection::vec((0u64..2_000, 0u32..1_000), 1..30),
        heal_ms in 2_000u64..10_000,
        seed in 0u64..1_000,
    ) {
        let faults = FaultPlan {
            rules: vec![FaultRule {
                window: Window::new(0, heal_ms),
                kind: FaultKind::Partition {
                    name: "hold".into(),
                    topics: vec!["t".into()],
                    subscribers: Vec::new(),
                    policy: PartitionPolicy::HoldUntilHeal,
                },
            }],
        };
        let net: Network<u32> = Network::new(
            NetConfig { drop_rate: 0.0, faults, ..NetConfig::default() },
            seed,
        );
        let sub = net.subscribe("t");
        for (at, payload) in &publishes {
            net.publish("t", *payload, *at, None);
        }
        // While partitioned, nothing crosses.
        prop_assert!(net.poll(sub, heal_ms - 1).is_empty());
        // Once healed, every queued message arrives.
        let mut got = net.poll(sub, u64::MAX);
        got.sort_unstable();
        let mut want: Vec<u32> = publishes.iter().map(|(_, p)| *p).collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let stats = net.stats();
        prop_assert_eq!(stats.partition_held, publishes.len() as u64);
        prop_assert_eq!(stats.delivered, publishes.len() as u64);
    }

    /// A `Drop` partition severs everything inside its window and lets
    /// everything outside it through.
    #[test]
    fn drop_partition_severs_exactly_its_window(
        publishes in prop::collection::vec((0u64..4_000, 0u32..1_000), 1..30),
        window in (500u64..2_000, 2_000u64..3_500),
    ) {
        let (from_ms, heal_ms) = window;
        let faults = FaultPlan {
            rules: vec![FaultRule {
                window: Window::new(from_ms, heal_ms),
                kind: FaultKind::Partition {
                    name: "window".into(),
                    topics: vec!["t".into()],
                    subscribers: Vec::new(),
                    policy: PartitionPolicy::Drop,
                },
            }],
        };
        let net: Network<u32> = Network::new(
            NetConfig { drop_rate: 0.0, faults, ..NetConfig::default() },
            7,
        );
        let sub = net.subscribe("t");
        for (at, payload) in &publishes {
            net.publish("t", *payload, *at, None);
        }
        let mut got = net.poll(sub, u64::MAX);
        got.sort_unstable();
        let mut want: Vec<u32> = publishes
            .iter()
            .filter(|(at, _)| *at < from_ms || *at >= heal_ms)
            .map(|(_, p)| *p)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        let severed = publishes.len() - publishes
            .iter()
            .filter(|(at, _)| *at < from_ms || *at >= heal_ms)
            .count();
        prop_assert_eq!(net.stats().partition_dropped, severed as u64);
    }

    /// Pull → resolve round trips always converge for any partition of
    /// content between two resolvers.
    #[test]
    fn pull_resolve_always_converges(ids in prop::collection::vec(0u64..20, 1..10)) {
        let mut source = Resolver::new();
        let mut dest = Resolver::new();
        // The source serves the groups its registry holds.
        let mut registry = std::collections::BTreeMap::new();
        let mut want = Vec::new();
        for id in &ids {
            let (cid, msgs) = group(*id, 2);
            registry.insert(cid, MsgGroup::seal(msgs.clone()));
            want.push((cid, msgs));
        }
        for (cid, msgs) in &want {
            match dest.lookup_or_pull(*cid, "dest/topic") {
                Ok(got) => prop_assert_eq!(&*got, msgs.as_slice()),
                Err(pull) => {
                    let (topic, resolve) = source.handle(pull, |c| registry.get(c)).expect("source has content");
                    prop_assert_eq!(topic.as_str(), "dest/topic");
                    // The pull is registered by the miss, so the reply is
                    // taken; a second copy after the use is not.
                    dest.handle(resolve.clone(), |_| None);
                    let got = dest.lookup_or_pull(*cid, "dest/topic")
                        .expect("resolved content is cached");
                    prop_assert_eq!(&*got, msgs.as_slice());
                    dest.handle(resolve, |_| None);
                }
            }
            // Content is held only until it is used.
            prop_assert!(dest.cache().is_empty());
        }
        prop_assert_eq!(dest.pending_pulls(), 0);
        prop_assert_eq!(dest.stats().cache_hits, ids.len() as u64);
    }

    /// No plan, however hostile, panics the network or opens a ledger.
    #[test]
    fn arbitrary_plans_never_panic_and_the_ledgers_close(
        seed in 0u64..1_000,
        specs in rule_specs(12),
        publishes in publish_specs(),
    ) {
        let (stats, seen) = run_plan(seed, plan_of(&specs), FaultPlan::none(), &publishes);
        assert_ledgers_close(&stats, 0);
        prop_assert_eq!(seen.len() as u64, stats.delivered + stats.redelivered);
    }

    /// A plan is its rule list: merging `b` into `a` — at boot or into the
    /// live network — is the plan of `a.rules ++ b.rules`.
    #[test]
    fn merge_is_concatenation(
        seed in 0u64..1_000,
        a in rule_specs(6),
        b in rule_specs(6),
        publishes in publish_specs(),
    ) {
        let mut merged = plan_of(&a);
        merged.merge(plan_of(&b));
        let both: Vec<RuleSpec> = a.iter().chain(&b).copied().collect();
        // (Compared as text: a NaN rate is not equal to itself.)
        prop_assert_eq!(format!("{merged:?}"), format!("{:?}", plan_of(&both)));
        let whole = run_plan(seed, merged, FaultPlan::none(), &publishes);
        prop_assert_eq!(&whole, &run_plan(seed, plan_of(&a), plan_of(&b), &publishes));
        prop_assert_eq!(&whole, &run_plan(seed, FaultPlan::none(), plan_of(&both), &publishes));
    }

    /// Rules are independent: one whose window no publish falls in can be
    /// removed — from anywhere in the list — without moving a counter, a
    /// delivery time or a draw of either RNG stream.
    #[test]
    fn a_rule_no_publish_falls_in_can_be_removed(
        seed in 0u64..1_000,
        specs in rule_specs(10),
        idle in (0u8..8, 0usize..RATES.len(), 0usize..60, 1usize..60),
        at in any::<prop::sample::Index>(),
        inverted in any::<bool>(),
        publishes in publish_specs(),
    ) {
        // Every publish is before 3 000 ms.
        let (kind, rate, x, y) = idle;
        let (from_ms, until_ms) = if inverted { (2_000, 1_000) } else { (3_000, 9_000) };
        let mut idle = rule((kind, from_ms, until_ms, rate, x, y));
        idle.window.until_ms = until_ms;
        let without = plan_of(&specs);
        let mut with = without.clone();
        with.rules.insert(at.index(specs.len() + 1), idle);
        prop_assert_eq!(
            run_plan(seed, with, FaultPlan::none(), &publishes),
            run_plan(seed, without, FaultPlan::none(), &publishes)
        );
    }
}
