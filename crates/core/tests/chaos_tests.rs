//! Chaos tests: live node crash–rejoin and randomized fault schedules.
//!
//! Two invariants are asserted across every schedule:
//!
//! * **Safety** — no finalized divergence: a caught-up node holds the
//!   exact chain its peers finalized (catch-up re-validates and
//!   re-executes every block, so a mismatched state root aborts the
//!   replay), and the hierarchy-wide supply audits (the firewall
//!   property) hold once quiescent.
//! * **Eventual liveness** — after every fault window closes, each
//!   cross-net message is applied exactly once (exact balances), every
//!   node reconverges, and no pull request is silently lost
//!   (`pulls_abandoned == 0` under an unbounded retry budget).

mod common;

use common::{subnet_fingerprint, SubnetFingerprint};
use hc_actors::sa::SaConfig;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, RuntimeConfig, SyncMode, UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule, PartitionPolicy, RetryPolicy};
use hc_types::{ChainEpoch, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// A runtime with a funded root user and a spawned child subnet.
struct Chaosworld {
    rt: HierarchyRuntime,
    alice: UserHandle,
    child: SubnetId,
}

fn build(config: RuntimeConfig, sa_config: SaConfig) -> Chaosworld {
    let mut rt = HierarchyRuntime::new(config);
    let alice = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();
    let validator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let child = rt
        .spawn_subnet(&alice, sa_config, whole(10), &[(validator, whole(5))])
        .unwrap();
    Chaosworld { rt, alice, child }
}

#[test]
fn crash_refuses_root_and_parents_with_live_children() {
    let mut w = build(RuntimeConfig::default(), SaConfig::default());
    // The rootnet anchors the hierarchy.
    assert!(w.rt.crash_node(&SubnetId::root()).is_err());

    // Spawn a grandchild under the child; now the child has a live
    // descendant and refuses to crash.
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(200)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    let v = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &v, whole(100)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    let grandchild =
        w.rt.spawn_subnet(&bob, SaConfig::default(), whole(10), &[(v, whole(5))])
            .unwrap();
    assert!(w.rt.crash_node(&w.child).is_err());

    // The leaf grandchild can crash; crashing it twice cannot.
    w.rt.crash_node(&grandchild).unwrap();
    assert!(w.rt.is_crashed(&grandchild));
    assert!(w.rt.crash_node(&grandchild).is_err());
    assert!(w.rt.rejoin_node(&grandchild).is_ok());
}

#[test]
fn crash_halts_production_and_rejoin_catches_up() {
    let mut w = build(RuntimeConfig::default(), SaConfig::default());
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    let blocks_before = w.rt.node(&w.child).unwrap().chain().len();
    assert!(blocks_before > 0);
    // By determinism the child as it stands now *is* its never-crashed
    // twin at this point of the run.
    let twin = subnet_fingerprint(&w.rt, &w.child);

    w.rt.crash_node(&w.child).unwrap();
    assert!(w.rt.is_crashed(&w.child));
    assert!(w.rt.node(&w.child).is_none());

    // The hierarchy keeps running without the crashed subnet; a transfer
    // into it queues at the parent SCA.
    w.rt.cross_transfer(&w.alice, &bob, whole(12)).unwrap();
    for _ in 0..6 {
        w.rt.step().unwrap();
    }
    assert!(w.rt.is_crashed(&w.child), "nothing auto-rejoins");

    w.rt.rejoin_node(&w.child).unwrap();
    assert!(w.rt.is_catching_up(&w.child));
    while w.rt.is_catching_up(&w.child) {
        w.rt.step().unwrap();
    }
    // A replayed block does to a node exactly what the live block did:
    // the rebuilt node matches the twin in head, state root, every
    // counter, every cursor — only its block schedule restarts.
    let rejoined = subnet_fingerprint(&w.rt, &w.child);
    assert_eq!(
        rejoined,
        SubnetFingerprint {
            next_block_at_ms: rejoined.next_block_at_ms,
            ..twin
        },
        "replay rejoin must rebuild the never-crashed twin's bookkeeping"
    );
    let produced = w.rt.run_until_quiescent(4_000).unwrap();
    assert!(produced < 4_000, "crash–rejoin flow must converge");

    assert!(!w.rt.is_catching_up(&w.child));
    let stats = w.rt.chaos_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.rejoins, 1);
    assert_eq!(stats.catch_ups_completed, 1);
    assert_eq!(stats.blocks_caught_up as usize, blocks_before);
    assert!(stats.block_pulls >= 1);
    assert!(stats.block_batches >= 1);

    // The queued transfer landed exactly once after reconvergence.
    assert_eq!(w.rt.balance(&bob), whole(42));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// The F9 headline: a run whose child crashes mid-epoch and rejoins
/// reconverges to the *same* state roots as the uninterrupted run of the
/// same seed. Checkpointing is disabled (huge period) so the state
/// commitment contains no wall-clock-coupled checkpoint CIDs; the crashed
/// run produces different block timestamps, but the state itself must be
/// bit-identical.
#[test]
fn crash_rejoin_reconverges_to_uninterrupted_state_root() {
    let sa = SaConfig {
        checkpoint_period: 10_000,
        ..SaConfig::default()
    };
    let run = |crash: bool| {
        let mut w = build(RuntimeConfig::default(), sa.clone());
        let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();

        w.rt.cross_transfer(&w.alice, &bob, whole(5)).unwrap();
        if crash {
            let now = w.rt.now_ms();
            let crash = FaultKind::Crash {
                subnet: w.child.clone(),
            };
            w.rt.extend_faults(FaultPlan {
                rules: vec![FaultRule::new(now + 500, now + 7_000, crash)],
            });
        }
        w.rt.run_until_quiescent(4_000).unwrap();
        audit_quiescent(&w.rt).unwrap();

        let child_root =
            w.rt.node(&w.child)
                .unwrap()
                .chain()
                .iter()
                .last()
                .unwrap()
                .header
                .state_root;
        let root_root =
            w.rt.node(&SubnetId::root())
                .unwrap()
                .chain()
                .iter()
                .last()
                .unwrap()
                .header
                .state_root;
        (
            child_root,
            root_root,
            w.rt.balance(&bob),
            w.rt.chaos_stats(),
        )
    };

    let (child_a, root_a, bob_a, chaos_a) = run(false);
    let (child_b, root_b, bob_b, chaos_b) = run(true);
    assert_eq!(chaos_a.crashes, 0);
    assert_eq!(chaos_b.crashes, 1);
    assert_eq!(chaos_b.catch_ups_completed, 1);
    assert!(chaos_b.blocks_caught_up > 0);
    assert_eq!(bob_a, whole(25));
    assert_eq!(bob_b, whole(25));
    assert_eq!(
        child_b, child_a,
        "crashed run must reconverge to the uninterrupted child state root"
    );
    assert_eq!(
        root_b, root_a,
        "the rootnet state must be unaffected by the child's outage"
    );
}

#[test]
fn crash_rejoin_under_faulty_network_still_reconverges() {
    let mut w = build(RuntimeConfig::default(), SaConfig::default());
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    let carol =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();

    // Bottom-up value in flight plus a crash window, under loss,
    // duplication, and reordering scoped to the child's topic.
    w.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
    let now = w.rt.now_ms();
    let topic = w.child.topic();
    w.rt.extend_faults(FaultPlan {
        rules: vec![
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Loss {
                    topic: Some(topic.clone()),
                    from: None,
                    to: None,
                    rate: 0.35,
                },
            ),
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Duplicate {
                    topic: None,
                    rate: 0.5,
                    max_copies: 2,
                    spread_ms: 400,
                },
            ),
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Reorder {
                    topic: None,
                    rate: 0.5,
                    max_extra_delay_ms: 900,
                },
            ),
            FaultRule::new(
                now + 1_200,
                now + 6_500,
                FaultKind::Crash {
                    subnet: w.child.clone(),
                },
            ),
        ],
    });

    let produced = w.rt.run_until_quiescent(6_000).unwrap();
    assert!(produced < 6_000, "faulty crash–rejoin flow must converge");

    assert_eq!(w.rt.balance(&bob), whole(42));
    assert_eq!(w.rt.balance(&carol), whole(8));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
    let stats = w.rt.chaos_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.catch_ups_completed, 1);
    // Nothing was silently abandoned under the unbounded default budget.
    for subnet in w.rt.subnets().cloned().collect::<Vec<_>>() {
        assert_eq!(
            w.rt.node(&subnet)
                .unwrap()
                .resolver()
                .stats()
                .pulls_abandoned,
            0
        );
    }
}

/// A bounded retry budget under total blackout degrades gracefully: the
/// pull is abandoned after its budget, counted, and the runtime keeps
/// stepping — the request is reported, never silently lost.
#[test]
fn retry_budget_exhaustion_is_reported_not_lost() {
    let config = RuntimeConfig {
        push_enabled: false,
        certificates_enabled: false,
        retry: RetryPolicy {
            base_timeout_ms: 200,
            backoff: 2,
            max_timeout_ms: 1_600,
            max_attempts: 3,
            jitter_pct: 0,
        },
        ..RuntimeConfig::default()
    };
    let mut w = build(config, SaConfig::default());
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    let carol =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();

    // Permanently sever the child's topic, then send value bottom-up: the
    // root can never resolve the checkpoint's message content.
    w.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            0,
            u64::MAX,
            FaultKind::Partition {
                name: "blackout".into(),
                topics: vec![w.child.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        )],
    });
    w.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    for _ in 0..120 {
        w.rt.step().unwrap();
    }

    let root_stats = w.rt.node(&SubnetId::root()).unwrap().resolver().stats();
    assert_eq!(root_stats.pulls_abandoned, 1, "abandoned exactly once");
    assert!(root_stats.pulls_retried >= 2);
    // The value is escrowed, not lost: the supply audits still hold even
    // though the transfer cannot complete.
    assert_eq!(w.rt.balance(&carol), TokenAmount::ZERO);
    audit_escrow(&w.rt).unwrap();
}

/// Runs one randomized fault schedule end to end and asserts both chaos
/// invariants. All randomness is derived arithmetically from `seed`, so
/// every schedule is reproducible. `mode` picks how a crashed node
/// bootstraps back: full replay, or snapshot state-sync when a
/// checkpoint anchor is available.
fn run_chaos_schedule_with(seed: u64, mode: SyncMode) -> String {
    let config = RuntimeConfig {
        seed: 1_000 + seed,
        sync_mode: mode,
        ..RuntimeConfig::default()
    };
    let mut w = build(config, SaConfig::default());
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    let carol =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();

    // In-flight work in both directions while the faults bite.
    w.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();

    let now = w.rt.now_ms();
    let topic = w.child.topic();
    let heal = now + 9_000 + (seed % 5) * 1_200;
    let mut plan = FaultPlan {
        rules: vec![
            FaultRule::new(
                now,
                heal,
                FaultKind::Loss {
                    topic: Some(topic.clone()),
                    from: None,
                    to: None,
                    rate: (seed % 8) as f64 * 0.05,
                },
            ),
            FaultRule::new(
                now,
                heal,
                FaultKind::Duplicate {
                    topic: None,
                    rate: (seed % 4) as f64 * 0.2,
                    max_copies: 1 + (seed % 3) as u32,
                    spread_ms: 300,
                },
            ),
            FaultRule::new(
                now,
                heal,
                FaultKind::Reorder {
                    topic: None,
                    rate: (seed % 5) as f64 * 0.2,
                    max_extra_delay_ms: 200 + (seed % 7) * 150,
                },
            ),
        ],
    };
    // Every third schedule severs the child behind a healing partition.
    if seed.is_multiple_of(3) {
        plan.rules.push(FaultRule::new(
            now + 1_000,
            now + 4_000 + (seed % 4) * 800,
            FaultKind::Partition {
                name: format!("chaos-{seed}"),
                topics: vec![topic],
                subscribers: Vec::new(),
                policy: if seed.is_multiple_of(2) {
                    PartitionPolicy::Drop
                } else {
                    PartitionPolicy::HoldUntilHeal
                },
            },
        ));
    }
    // Every other schedule crashes the child mid-epoch and rejoins it
    // while the other faults are still active.
    let crash = seed.is_multiple_of(2);
    if crash {
        plan.rules.push(FaultRule::new(
            now + 700 + (seed % 3) * 400,
            now + 4_500 + (seed % 4) * 1_000,
            FaultKind::Crash {
                subnet: w.child.clone(),
            },
        ));
    }
    w.rt.extend_faults(plan);

    let produced = w.rt.run_until_quiescent(6_000).unwrap();
    assert!(produced < 6_000, "schedule {seed}: must reconverge");

    // Eventual liveness: every cross-msg applied exactly once.
    assert_eq!(w.rt.balance(&bob), whole(42), "schedule {seed}");
    assert_eq!(w.rt.balance(&carol), whole(8), "schedule {seed}");
    // Safety: escrow coverage, per-edge backing, global conservation.
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
    // Graceful degradation only, never silent loss.
    for subnet in w.rt.subnets().cloned().collect::<Vec<_>>() {
        let stats = w.rt.node(&subnet).unwrap().resolver().stats();
        assert_eq!(stats.pulls_abandoned, 0, "schedule {seed}: {subnet}");
    }
    let chaos = w.rt.chaos_stats();
    if crash {
        assert_eq!(chaos.crashes, 1, "schedule {seed}");
        assert_eq!(chaos.rejoins, 1, "schedule {seed}");
        assert_eq!(chaos.catch_ups_completed, 1, "schedule {seed}");
        match mode {
            // A snapshot rejoin replays only the post-anchor suffix —
            // legitimately zero blocks when the node crashed right at a
            // cut. Crashing before the first cut falls back to replay;
            // either way the rejoin resolves exactly one way.
            SyncMode::Snapshot => assert_eq!(
                chaos.snapshot_installs + chaos.snapshot_fallbacks,
                1,
                "schedule {seed}"
            ),
            SyncMode::Replay => {
                assert_eq!(chaos.snapshot_installs, 0, "schedule {seed}");
                assert!(chaos.blocks_caught_up > 0, "schedule {seed}");
            }
        }
    } else {
        assert_eq!(chaos.crashes, 0, "schedule {seed}");
    }
    fingerprint(&w.rt)
}

/// Everything a schedule decides, in one digest: the per-subnet
/// fingerprint the twin-run suites compare on, the crash/catch-up counters
/// and the full network ledger.
fn fingerprint(rt: &HierarchyRuntime) -> String {
    let (subnets, chaos, net) = (common::fingerprint(rt), rt.chaos_stats(), rt.net_stats());
    let text = format!("{subnets:?}\n{chaos:?}\n{net:?}");
    format!("{:?}", hc_types::Cid::digest(text.as_bytes()))
}

/// Three schedules of the sweep, in both sync modes, land on the heads,
/// state roots, `ChaosStats` and `NetStats` recorded from the last commit
/// that kept the fault plan as eight per-kind vectors and the runtime's
/// node faults as two: the one rule list and the one publish pipeline draw
/// both RNG streams exactly as before. (No delivery is held in these
/// schedules, so the hold counters are part of the digest too.)
#[test]
fn chaos_schedules_reproduce_the_recorded_fingerprints() {
    let recorded = [
        (
            SyncMode::Replay,
            0,
            "7778f297aaaaada0e94f1993e03c808aba0404377b1ca2cb32fcedf96812ef12",
        ),
        (
            SyncMode::Replay,
            3,
            "e72f6a4021bc571040152a47281a71bdb7cddc9bd29cdf6464e04339a819f7c0",
        ),
        (
            SyncMode::Replay,
            4,
            "715475cebd08cd9baf9c75b695c401758ab256e61f9bdd2fe0439046254e2635",
        ),
        (
            SyncMode::Snapshot,
            0,
            "3d9730ef6896f8db7f593c4e978e85273f92bbf4e3d394b23deb66fd021dd6c4",
        ),
        (
            SyncMode::Snapshot,
            3,
            "e72f6a4021bc571040152a47281a71bdb7cddc9bd29cdf6464e04339a819f7c0",
        ),
        (
            SyncMode::Snapshot,
            4,
            "21a45e186884b71342b9ae2e1966fcfec28b16a5ee9080bf261663678fa089b7",
        ),
    ];
    for (mode, seed, digest) in recorded {
        assert_eq!(
            run_chaos_schedule_with(seed, mode),
            format!("Cid({digest})"),
            "{mode:?} schedule {seed}"
        );
    }
}

fn run_chaos_schedule(seed: u64) {
    run_chaos_schedule_with(seed, SyncMode::Replay);
}

/// The CI sweep: 50 seeded fault schedules, every one upholding safety
/// and eventual liveness.
#[test]
fn chaos_sweep_preserves_safety_and_liveness() {
    for seed in 0..50 {
        run_chaos_schedule(seed);
    }
}

/// The CI snapshot sweep: the same seeded schedules with crashed nodes
/// bootstrapping over snapshot state-sync instead of full replay.
#[test]
fn chaos_sweep_snapshot_mode_preserves_safety_and_liveness() {
    for seed in 0..25 {
        run_chaos_schedule_with(seed, SyncMode::Snapshot);
    }
}

/// The nightly sweep: 200 further replay schedules plus 100 snapshot-mode
/// ones. Run with `cargo test -p hc-core --test chaos_tests -- --ignored`.
#[test]
#[ignore = "long sweep; exercised nightly via --ignored"]
fn chaos_sweep_long() {
    for seed in 50..250 {
        run_chaos_schedule(seed);
    }
    for seed in 25..125 {
        run_chaos_schedule_with(seed, SyncMode::Snapshot);
    }
}

/// The F10 safety headline: a node that bootstraps *through* an active
/// fault window — losing and double-receiving snapshot chunks while it
/// assembles the closure and replays the suffix — reconverges to the
/// exact state roots of the uninterrupted run. Unlike F9, checkpointing
/// stays enabled (the snapshot needs an anchor); the roots are compared
/// at a pinned epoch after reconvergence but before the next cut, where
/// the state holds no wall-clock-coupled checkpoint CIDs that would
/// legitimately differ between the two runs.
#[test]
fn mid_fault_snapshot_bootstrap_matches_uninterrupted_run() {
    let sa = SaConfig {
        checkpoint_period: 30,
        ..SaConfig::default()
    };
    let run = |crash: bool| {
        let config = RuntimeConfig {
            sync_mode: SyncMode::Snapshot,
            ..RuntimeConfig::default()
        };
        let mut w = build(config, sa.clone());
        let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();
        while w.rt.node(&w.child).unwrap().chain().head_epoch() < ChainEpoch::new(32) {
            w.rt.step().unwrap();
        }
        // Settle the cut-at-30 checkpoint fully before the fault window:
        // both runs enter it from the same committed hierarchy state.
        w.rt.run_until_quiescent(2_000).unwrap();
        assert!(w.rt.checkpoint_anchor(&w.child).is_some(), "cut at 30");

        // The same fault window in both runs; only the crash differs.
        let now = w.rt.now_ms();
        let mut plan = FaultPlan {
            rules: vec![
                FaultRule::new(
                    now,
                    now + 6_000,
                    FaultKind::Loss {
                        topic: Some(w.child.topic()),
                        from: None,
                        to: None,
                        rate: 0.3,
                    },
                ),
                FaultRule::new(
                    now,
                    now + 6_000,
                    FaultKind::Duplicate {
                        topic: None,
                        rate: 0.4,
                        max_copies: 2,
                        spread_ms: 300,
                    },
                ),
            ],
        };
        if crash {
            plan.rules.push(FaultRule::new(
                now + 300,
                now + 2_500,
                FaultKind::Crash {
                    subnet: w.child.clone(),
                },
            ));
        }
        w.rt.extend_faults(plan);
        w.rt.cross_transfer(&w.alice, &bob, whole(5)).unwrap();
        let produced = w.rt.run_until_quiescent(6_000).unwrap();
        assert!(produced < 6_000, "mid-fault bootstrap must reconverge");
        audit_escrow(&w.rt).unwrap();
        audit_quiescent(&w.rt).unwrap();
        assert_eq!(w.rt.balance(&bob), whole(25));

        let head = w.rt.node(&w.child).unwrap().chain().head_epoch();
        assert!(head < ChainEpoch::new(56), "settled well before epoch 56");
        while w.rt.node(&w.child).unwrap().chain().head_epoch() < ChainEpoch::new(56) {
            w.rt.step().unwrap();
        }
        let child_root =
            w.rt.node(&w.child)
                .unwrap()
                .chain()
                .iter()
                .find(|b| b.header.epoch == ChainEpoch::new(56))
                .unwrap()
                .header
                .state_root;
        let root_root =
            w.rt.node(&SubnetId::root())
                .unwrap()
                .chain()
                .iter()
                .last()
                .unwrap()
                .header
                .state_root;
        (child_root, root_root, w.rt.chaos_stats())
    };

    let (child_a, root_a, chaos_a) = run(false);
    let (child_b, root_b, chaos_b) = run(true);
    assert_eq!(chaos_a.crashes, 0);
    assert_eq!(chaos_a.snapshot_installs, 0);
    assert_eq!(chaos_b.crashes, 1);
    assert_eq!(
        chaos_b.snapshot_installs, 1,
        "the bootstrap must actually run over the snapshot path"
    );
    assert_eq!(chaos_b.snapshot_fallbacks, 0);
    assert!(
        chaos_b.blobs_synced >= 2,
        "closure fetched over the network"
    );
    assert!(
        chaos_b.blocks_caught_up > 0 && chaos_b.blocks_caught_up <= 8,
        "only the short post-anchor suffix replays, got {}",
        chaos_b.blocks_caught_up
    );
    assert_eq!(
        child_b, child_a,
        "mid-fault bootstrap must land on the uninterrupted child state root"
    );
    assert_eq!(
        root_b, root_a,
        "the rootnet state must be unaffected by the child's outage"
    );
}
