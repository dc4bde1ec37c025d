//! Property-based tests of the pub-sub network and content resolution.

use proptest::prelude::*;

use hc_actors::{CrossMsg, HcAddress, MsgGroup};
use hc_net::{
    ContentCache, DupRule, FaultPlan, NetConfig, Network, Partition, PartitionPolicy, ReorderRule,
    Resolver,
};
use hc_types::merkle::merkle_root;
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
    (merkle_root(&msgs), msgs)
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
                prop_assert_eq!(merkle_root(stored), claimed_cid);
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

        let mut r = Resolver::new();
        r.handle(hc_net::ResolutionMsg::Push { cid, msgs: altered.clone() });
        r.handle(hc_net::ResolutionMsg::Resolve { cid, msgs: altered });
        prop_assert_eq!(r.stats().rejected, 2);
        prop_assert!(r.cache().is_empty());
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
            duplications: vec![DupRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: None,
                rate: f64::from(dup_pct) / 100.0,
                max_copies,
                spread_ms: 300,
            }],
            reorders: vec![ReorderRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: None,
                rate: f64::from(reorder_pct) / 100.0,
                max_extra_delay_ms: 500,
            }],
            ..FaultPlan::none()
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
        // exactly one bucket (scheduled or one of the drop classes) ...
        prop_assert_eq!(
            stats.attempts,
            stats.scheduled
                + stats.dropped
                + stats.partition_dropped
                + stats.targeted_dropped
                + stats.offline_dropped
                + stats.region_dropped
                + stats.region_lost
        );
        // ... and after the full drain, everything scheduled was polled.
        prop_assert_eq!(net.pending_deliveries(), 0);
        prop_assert_eq!(
            stats.scheduled + stats.duplicated,
            stats.delivered + stats.redelivered + stats.offline_cleared
        );
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
                r.handle(hc_net::ResolutionMsg::Push { cid, msgs: msgs.clone() });
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
            partitions: vec![Partition {
                name: "hold".into(),
                from_ms: 0,
                heal_ms,
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::HoldUntilHeal,
            }],
            ..FaultPlan::none()
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
            partitions: vec![Partition {
                name: "window".into(),
                from_ms,
                heal_ms,
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            }],
            ..FaultPlan::none()
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
        let mut want = Vec::new();
        for id in &ids {
            let (cid, msgs) = group(*id, 2);
            source.seed(MsgGroup::seal(msgs.clone()));
            want.push((cid, msgs));
        }
        for (cid, msgs) in &want {
            match dest.lookup_or_pull(*cid, "dest/topic") {
                Ok(got) => prop_assert_eq!(&*got, msgs.as_slice()),
                Err(pull) => {
                    let (topic, resolve) = source.handle(pull).expect("source has content");
                    prop_assert_eq!(topic.as_str(), "dest/topic");
                    dest.handle(resolve);
                    let got = dest.lookup_or_pull(*cid, "dest/topic")
                        .expect("resolved content is cached");
                    prop_assert_eq!(&*got, msgs.as_slice());
                }
            }
        }
    }
}
