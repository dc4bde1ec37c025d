//! Geo chaos: region-scoped disasters over placed hierarchies.
//!
//! The PR-5 chaos suite crashed individual subnets; these schedules fail
//! whole *regions* — every placed member crashed and blackholed at once,
//! healed on a schedule, with the rejoin order resolved parent-first —
//! and assert the same two invariants:
//!
//! * **Safety** — catch-up re-validates and re-executes every missed
//!   block (a state-root mismatch aborts the replay), so
//!   `catch_ups_completed == region_crashes` *is* the exact-root
//!   reconvergence proof; once quiescent the supply audits hold and the
//!   faulty run's final state roots equal the undisturbed run's.
//! * **Eventual liveness** — after the heal every cross-net message is
//!   applied exactly once (exact balances), no pull is silently
//!   abandoned, and the network ledger accounts for every message a
//!   region rule dropped or held.

use hc_actors::sa::SaConfig;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, PlacementPolicy, RuntimeConfig, RuntimeError,
    SyncMode, UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule};
use hc_sim::experiments::e14_geo::geography;
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Root + two parents + one child each, placed by `placement` on the E14
/// three-region geography.
struct GeoWorld {
    rt: HierarchyRuntime,
    alice: UserHandle,
    /// User in `c1`.
    bob: UserHandle,
    /// User in `c2`.
    carol: UserHandle,
    p1: SubnetId,
    c1: SubnetId,
}

fn build(
    placement: PlacementPolicy,
    seed: u64,
    checkpoint_period: u64,
    sync_mode: SyncMode,
) -> Result<GeoWorld, RuntimeError> {
    let mut config = RuntimeConfig {
        seed,
        placement,
        sync_mode,
        ..RuntimeConfig::default()
    };
    config.net.regions = geography();
    let sa = SaConfig {
        checkpoint_period,
        ..SaConfig::default()
    };
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000))?;
    let v1 = rt.create_user(&root, whole(100))?;
    let v2 = rt.create_user(&root, whole(100))?;

    // Boot order fixes the round-robin slots: root, p1, c1, p2, c2 →
    // us-east, eu-west, ap-south, us-east, eu-west under geo-spread.
    let p1 = rt.spawn_subnet(&alice, sa.clone(), whole(10), &[(v1, whole(5))])?;
    let u1 = rt.create_user(&p1, TokenAmount::ZERO)?;
    let w1 = rt.create_user(&p1, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &u1, whole(100))?;
    rt.cross_transfer(&alice, &w1, whole(50))?;
    rt.run_until_quiescent(20_000)?;
    let c1 = rt.spawn_subnet(&u1, sa.clone(), whole(10), &[(w1, whole(5))])?;

    let p2 = rt.spawn_subnet(&alice, sa.clone(), whole(10), &[(v2, whole(5))])?;
    let u2 = rt.create_user(&p2, TokenAmount::ZERO)?;
    let w2 = rt.create_user(&p2, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &u2, whole(100))?;
    rt.cross_transfer(&alice, &w2, whole(50))?;
    rt.run_until_quiescent(20_000)?;
    let c2 = rt.spawn_subnet(&u2, sa, whole(10), &[(w2, whole(5))])?;

    let bob = rt.create_user(&c1, TokenAmount::ZERO)?;
    let carol = rt.create_user(&c2, TokenAmount::ZERO)?;
    rt.run_until_quiescent(20_000)?;
    Ok(GeoWorld {
        rt,
        alice,
        bob,
        carol,
        p1,
        c1,
    })
}

/// Steps until `heal_ms` has passed and nobody is crashed or catching
/// up, then drains to quiescence.
fn ride_out(rt: &mut HierarchyRuntime, heal_ms: u64) {
    let mut guard = 0u64;
    let crashed_or_syncing = |rt: &HierarchyRuntime| {
        let subnets: Vec<SubnetId> = rt.subnets().cloned().collect();
        subnets
            .iter()
            .any(|s| rt.is_crashed(s) || rt.is_catching_up(s))
    };
    while rt.now_ms() < heal_ms || crashed_or_syncing(rt) {
        rt.step().unwrap();
        guard += 1;
        assert!(guard < 200_000, "the fault window must close");
    }
    rt.run_until_quiescent(30_000).unwrap();
}

/// Per-subnet final state root (the cross-run comparison key).
fn state_root(rt: &HierarchyRuntime, subnet: &SubnetId) -> hc_types::Cid {
    rt.node(subnet)
        .unwrap()
        .chain()
        .iter()
        .last()
        .unwrap()
        .header
        .state_root
}

fn assert_ledger_reconciles(rt: &HierarchyRuntime) {
    let net = rt.net_stats();
    assert_eq!(
        net.attempts,
        net.scheduled
            + net.dropped
            + net.partition_dropped
            + net.targeted_dropped
            + net.offline_dropped
            + net.region_dropped
            + net.region_lost,
        "every attempted delivery must be scheduled or accounted to a drop class: {net:?}"
    );
}

fn assert_no_abandons(rt: &HierarchyRuntime) {
    for subnet in rt.subnets().cloned().collect::<Vec<_>>() {
        assert_eq!(
            rt.node(&subnet).unwrap().resolver().stats().pulls_abandoned,
            0,
            "{subnet}: no pull may be silently lost under the default budget"
        );
    }
}

/// The headline twin-run: a whole-region outage under loss, duplication,
/// and reordering changes nothing observable — the co-located hierarchy
/// (root skipped, both parents and both children crashed, children's
/// rejoins deferred behind their parents) reconverges to the exact state
/// roots and balances of the undisturbed run of the same seed.
#[test]
fn region_outage_under_faulty_network_reconverges_to_undisturbed_roots() {
    // Long checkpoint period: checkpoint cadence would otherwise differ
    // between the runs (the outage stalls the children's epochs) and
    // legitimately diverge the parents' SCA state.
    let run = |disaster: bool| {
        let mut w = build(
            PlacementPolicy::FollowParent,
            0xE0,
            10_000,
            SyncMode::Replay,
        )
        .unwrap();
        w.rt.cross_transfer(&w.alice, &w.bob, whole(40)).unwrap();
        w.rt.cross_transfer(&w.alice, &w.carol, whole(30)).unwrap();
        w.rt.run_until_quiescent(20_000).unwrap();

        // Top-down value in flight when the region goes dark.
        w.rt.cross_transfer(&w.alice, &w.bob, whole(5)).unwrap();
        w.rt.cross_transfer(&w.alice, &w.carol, whole(3)).unwrap();
        let now = w.rt.now_ms();
        let heal_ms = now + 7_400;
        if disaster {
            let region = w.rt.region_of_subnet(&w.c1).unwrap().to_owned();
            w.rt.extend_faults(FaultPlan {
                rules: vec![
                    FaultRule::new(now + 400, heal_ms, FaultKind::RegionOutage { region }),
                    FaultRule::new(
                        now,
                        now + 9_000,
                        FaultKind::Loss {
                            topic: Some(w.c1.topic()),
                            from: None,
                            to: None,
                            rate: 0.35,
                        },
                    ),
                    FaultRule::new(
                        now,
                        now + 9_000,
                        FaultKind::Duplicate {
                            topic: None,
                            rate: 0.5,
                            max_copies: 2,
                            spread_ms: 400,
                        },
                    ),
                    FaultRule::new(
                        now,
                        now + 9_000,
                        FaultKind::Reorder {
                            topic: None,
                            rate: 0.5,
                            max_extra_delay_ms: 900,
                        },
                    ),
                ],
            });
        }
        ride_out(&mut w.rt, heal_ms);

        audit_escrow(&w.rt).unwrap();
        audit_quiescent(&w.rt).unwrap();
        assert_ledger_reconciles(&w.rt);
        assert_no_abandons(&w.rt);
        let roots: Vec<hc_types::Cid> = [SubnetId::root(), w.p1.clone(), w.c1.clone()]
            .iter()
            .map(|s| state_root(&w.rt, s))
            .collect();
        (
            roots,
            w.rt.balance(&w.bob),
            w.rt.balance(&w.carol),
            w.rt.chaos_stats(),
        )
    };

    let (roots_clean, bob_clean, carol_clean, chaos_clean) = run(false);
    let (roots_hit, bob_hit, carol_hit, chaos_hit) = run(true);

    assert_eq!(chaos_clean.region_outages, 0);
    assert_eq!(chaos_hit.region_outages, 1);
    // Co-located: both children and (once their children are down) both
    // parents crash; the root is skipped — it is never crashed.
    assert_eq!(chaos_hit.region_crashes, 4);
    assert_eq!(chaos_hit.region_crash_skips, 1);
    assert_eq!(chaos_hit.region_heals, 1);
    // Exact-root reconvergence: every region-crashed node re-validated
    // and re-executed its missed blocks.
    assert_eq!(chaos_hit.catch_ups_completed, chaos_hit.region_crashes);
    assert_eq!(bob_clean, whole(45));
    assert_eq!(bob_hit, whole(45));
    assert_eq!(carol_clean, whole(33));
    assert_eq!(carol_hit, whole(33));
    assert_eq!(
        roots_hit, roots_clean,
        "the disaster run must reconverge to the undisturbed state roots"
    );
}

/// One geo chaos schedule: a geo-spread hierarchy hit by two overlapping
/// region outages — the child's region first, then the region holding
/// its parent — under lossy gossip, healing through snapshot state-sync
/// with the child's rejoin deferred behind the still-recovering parent.
fn run_geo_schedule(seed: u64) -> (u64, String) {
    let mut w = build(
        PlacementPolicy::RoundRobin,
        0xE14_000 + seed,
        5,
        SyncMode::Snapshot,
    )
    .unwrap();
    w.rt.cross_transfer(&w.alice, &w.bob, whole(40)).unwrap();
    w.rt.cross_transfer(&w.alice, &w.carol, whole(30)).unwrap();
    w.rt.run_until_quiescent(20_000).unwrap();

    // Bottom-up and top-down value in flight across the disasters.
    for _ in 0..7 {
        w.rt.cross_transfer(&w.bob, &w.alice, whole(1)).unwrap();
    }
    w.rt.cross_transfer(&w.alice, &w.carol, whole(3)).unwrap();

    // Geo-spread slots: c1 → ap-south, p1 and c2 → eu-west. The ap-south
    // outage downs c1; once it is dark the eu-west outage finds p1
    // without live descendants and crashes it too (plus c2). ap-south
    // heals first, so c1's rejoin is deferred until p1 caught up.
    let now = w.rt.now_ms();
    let c1_region = w.rt.region_of_subnet(&w.c1).unwrap().to_owned();
    let p1_region = w.rt.region_of_subnet(&w.p1).unwrap().to_owned();
    assert_ne!(c1_region, p1_region, "geo-spread must separate c1 from p1");
    let heal_ms = now + 6_500;
    w.rt.extend_faults(FaultPlan {
        rules: vec![
            FaultRule::new(
                now + 300,
                now + 6_300,
                FaultKind::RegionOutage { region: c1_region },
            ),
            FaultRule::new(
                now + 500,
                heal_ms,
                FaultKind::RegionOutage { region: p1_region },
            ),
            FaultRule::new(
                now,
                heal_ms,
                FaultKind::Loss {
                    topic: Some(w.p1.topic()),
                    from: None,
                    to: None,
                    rate: 0.25,
                },
            ),
        ],
    });
    ride_out(&mut w.rt, heal_ms);

    // Post-heal traffic proves the healed hierarchy still settles.
    w.rt.cross_transfer(&w.alice, &w.bob, whole(2)).unwrap();
    w.rt.cross_transfer(&w.bob, &w.alice, whole(1)).unwrap();
    w.rt.run_until_quiescent(20_000).unwrap();

    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
    assert_eq!(w.rt.balance(&w.bob), whole(40 - 7 + 2 - 1), "seed {seed}");
    assert_eq!(w.rt.balance(&w.carol), whole(33), "seed {seed}");
    let chaos = w.rt.chaos_stats();
    assert_eq!(chaos.region_outages, 2, "seed {seed}");
    assert_eq!(chaos.region_heals, 2, "seed {seed}");
    assert_eq!(chaos.region_crashes, 3, "seed {seed}: c1, p1, c2");
    assert_eq!(
        chaos.catch_ups_completed, chaos.region_crashes,
        "seed {seed}: every region-crashed node must reconverge exactly"
    );
    assert!(
        chaos.region_heals_deferred >= 1,
        "seed {seed}: c1's rejoin must wait for p1 at least once"
    );
    assert_ledger_reconciles(&w.rt);
    assert_no_abandons(&w.rt);
    (chaos.checkpoints_resubmitted, fingerprint(&w.rt))
}

/// Everything a schedule decides, in one digest: each subnet's head epoch,
/// head block and state root, the crash/catch-up counters and the full
/// network ledger.
fn fingerprint(rt: &HierarchyRuntime) -> String {
    use std::fmt::Write;
    let mut text = String::new();
    for subnet in rt.subnets() {
        let head = rt.node(subnet).unwrap().chain().iter().last().unwrap();
        let header = &head.header;
        writeln!(
            text,
            "{subnet} {:?} {:?} {:?}",
            header.epoch,
            head.cid(),
            header.state_root
        )
        .unwrap();
    }
    write!(text, "{:?}\n{:?}", rt.chaos_stats(), rt.net_stats()).unwrap();
    format!("{:?}", hc_types::Cid::digest(text.as_bytes()))
}

/// Three schedules of the sweep land on the heads, state roots,
/// `ChaosStats` and `NetStats` recorded from the last commit that kept
/// region outages in a vector (and a runtime schedule) of their own.
#[test]
fn geo_schedules_reproduce_the_recorded_fingerprints() {
    let recorded = [
        "1c7e33f116752518ccaeb55733d8f8e92757b82eda79ea80065ea7660b3d3939",
        "e56e282bca8fedbc67c255ee209f129cb4f6b86f35fc591afdba92a72a0a4ad2",
        "14c19e8256f5e16e062a8ba9661ce5cdef11e676fa05befab676b03b2c0542f9",
    ];
    for (seed, digest) in recorded.iter().enumerate() {
        let (_, fingerprint) = run_geo_schedule(seed as u64);
        assert_eq!(fingerprint, format!("Cid({digest})"), "seed {seed}");
    }
}

/// The tier-1 sweep: ten seeded overlapping-outage schedules. Across the
/// sweep, at least one schedule must exercise the lost-checkpoint repair
/// (a bottom-up checkpoint stranded in the crashed parent's pending
/// queue, resubmitted after catch-up).
#[test]
fn geo_chaos_sweep_preserves_safety_and_liveness() {
    let resubmitted: u64 = (0..10).map(|seed| run_geo_schedule(seed).0).sum();
    assert!(
        resubmitted >= 1,
        "the sweep must exercise checkpoint resubmission at least once"
    );
}

/// The long nightly sweep (run with `--ignored`): fifty seeds.
#[test]
#[ignore = "long sweep; run explicitly or in the nightly CI job"]
fn geo_chaos_sweep_long() {
    for seed in 0..50 {
        run_geo_schedule(seed);
    }
}
