//! Workspace-level integration tests through the `hierarchical-consensus`
//! facade: large mixed scenarios exercising every subsystem together.

use hc_workload::ClosedBatch;
use hierarchical_consensus::core::StepReport;
use hierarchical_consensus::prelude::*;
use hierarchical_consensus::sim::TopologyBuilder;
use hierarchical_consensus::types::CanonicalEncode;

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Head CID, head epoch and committed state root per subnet, after the
/// runtime's invariant check (which re-hashes each head in a debug build).
fn heads(rt: &HierarchyRuntime) -> Vec<(SubnetId, Cid, ChainEpoch, Cid)> {
    rt.check_invariants().unwrap();
    rt.subnets()
        .map(|s| {
            let node = rt.node(s).unwrap();
            let head = node.chain().head();
            let state_root = node.chain().get(&head).unwrap().header.state_root;
            (s.clone(), head, node.chain().head_epoch(), state_root)
        })
        .collect()
}

#[test]
fn prelude_covers_the_full_flow() {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let alice = rt.create_user(&SubnetId::root(), whole(1_000)).unwrap();
    let validator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(validator, whole(5))],
        )
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();
    assert_eq!(rt.balance(&bob), whole(20));
    audit_quiescent(&rt)
        .map_err(RuntimeError::Execution)
        .unwrap();
}

/// A "week in the life" scenario: three branches, nested subnets, heavy
/// mixed traffic, one atomic swap, one compromise + slash, one subnet kill
/// with fund recovery — all audits green at the end.
#[test]
fn grand_tour() {
    let mut topo = TopologyBuilder::new()
        .users_per_subnet(3)
        .tree(3, 1)
        .unwrap();

    // Phase 1: mixed local + cross traffic.
    let subnets = topo.all_subnets();
    let report = ClosedBatch {
        msgs_per_subnet: 120,
        cross_ratio: 0.3,
        ..ClosedBatch::default()
    }
    .run(&mut topo.rt, &subnets, &topo.users)
    .unwrap();
    assert_eq!(report.failed, 0, "no message may fail under honest load");
    assert!(report.cross_applied > 0);
    hierarchical_consensus::core::audit_quiescent(&topo.rt).unwrap();

    // Phase 2: atomic swap between the first two subnets.
    let (s1, s2) = (topo.subnets[0].clone(), topo.subnets[1].clone());
    let a = topo.users[&s1][0].clone();
    let b = topo.users[&s2][0].clone();
    for (u, val) in [(&a, &b"alpha"[..]), (&b, &b"beta!"[..])] {
        topo.rt
            .execute(
                u,
                u.addr,
                TokenAmount::ZERO,
                Method::PutData {
                    key: b"x".as_slice().into(),
                    data: val.into(),
                },
            )
            .unwrap();
    }
    let outcome = AtomicOrchestrator::run(
        &mut topo.rt,
        &[
            AtomicParty::honest(a.clone(), b"x"),
            AtomicParty::honest(b.clone(), b"x"),
        ],
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        200_000,
    )
    .unwrap();
    assert_eq!(
        outcome.status,
        hierarchical_consensus::actors::AtomicExecStatus::Committed
    );

    // Phase 3: the third subnet goes rogue; the firewall bounds it and a
    // fraud proof slashes it.
    let s3 = topo.subnets[2].clone();
    let supply_before = topo
        .rt
        .node(&SubnetId::root())
        .unwrap()
        .state()
        .sca()
        .subnet(&s3)
        .unwrap()
        .circ_supply;
    let attack = topo
        .rt
        .forge_withdrawal(&s3, Address::new(666), whole(1_000_000))
        .unwrap();
    assert_eq!(attack.extracted, TokenAmount::ZERO);
    assert_eq!(attack.bound, supply_before);

    let proof = topo.rt.forge_equivocation(&s3).unwrap();
    let banker = topo.banker.clone();
    topo.rt
        .execute(
            &banker,
            Address::SCA,
            TokenAmount::ZERO,
            Method::ReportFraud {
                subnet: s3.clone(),
                proof: Box::new(proof),
            },
        )
        .unwrap();
    assert_eq!(
        topo.rt
            .node(&SubnetId::root())
            .unwrap()
            .state()
            .sca()
            .subnet(&s3)
            .unwrap()
            .status,
        hierarchical_consensus::actors::SubnetStatus::Inactive
    );

    // Phase 4: snapshot + kill the slashed subnet; an insider recovers.
    let insider = topo.users[&s3][0].clone();
    let insider_balance = topo.rt.balance(&insider);
    let tree = topo.rt.save_snapshot(&banker, &s3).unwrap();
    // Reactivate long enough? No — snapshots persist on Inactive subnets;
    // now kill it (its validator is the spawn creator at the root, the
    // banker).
    let sa = s3.actor().unwrap();
    let val_addr = topo
        .rt
        .node(&SubnetId::root())
        .unwrap()
        .state()
        .sa(sa)
        .unwrap()
        .validators()[0]
        .addr;
    assert_eq!(val_addr, banker.addr);
    topo.rt
        .execute(&banker, sa, TokenAmount::ZERO, Method::KillSubnet)
        .unwrap();

    let claimant = topo.rt.create_claimant(&insider).unwrap();
    let proof = tree.prove(insider.addr).unwrap();
    topo.rt
        .execute(
            &claimant,
            Address::SCA,
            TokenAmount::ZERO,
            Method::RecoverFunds {
                subnet: s3.clone(),
                proof: proof.into(),
            },
        )
        .unwrap();
    assert_eq!(topo.rt.balance(&claimant), insider_balance);

    // Everything still checks, checkpoint chains included; the killed and
    // compromised subnet's edge may only fall below its live supply.
    topo.rt.check_invariants().unwrap();
}

/// Byzantine traffic storm: repeated forged checkpoints interleaved with
/// honest traffic never break conservation or stall honest progress.
#[test]
fn attack_storm_does_not_stall_honest_traffic() {
    let mut topo = TopologyBuilder::new().users_per_subnet(2).flat(2).unwrap();
    let victim = topo.subnets[0].clone();
    let honest_subnet = topo.subnets[1].clone();
    let honest_user = topo.users[&honest_subnet][0].clone();
    let root_user = topo.users[&SubnetId::root()][0].clone();

    for round in 0..5u64 {
        topo.rt
            .forge_withdrawal(&victim, Address::new(666), whole(10_000))
            .unwrap();
        topo.rt
            .cross_transfer(&honest_user, &root_user, whole(1 + round))
            .unwrap();
        topo.rt.run_until_quiescent(100_000).unwrap();
    }
    // Honest transfers all arrived.
    assert_eq!(
        topo.rt.balance(&root_user),
        whole(1_000) + whole(1 + 2 + 3 + 4 + 5)
    );
    hierarchical_consensus::core::audit_quiescent(&topo.rt).unwrap();
}

/// Four levels deep: value travels to the leaf and back, checkpoints nest
/// through every level, chains verify at every edge.
#[test]
fn four_level_round_trip() {
    let mut topo = TopologyBuilder::new().users_per_subnet(1).deep(4).unwrap();
    let leaf = topo.subnets[3].clone();
    assert_eq!(leaf.depth(), 4);
    let root_user = topo.users[&SubnetId::root()][0].clone();
    let leaf_user = topo.users[&leaf][0].clone();

    let before = topo.rt.balance(&leaf_user);
    topo.rt
        .cross_transfer(&root_user, &leaf_user, whole(9))
        .unwrap();
    topo.rt.run_until_quiescent(200_000).unwrap();
    assert_eq!(topo.rt.balance(&leaf_user), before + whole(9));

    let root_before = topo.rt.balance(&root_user);
    topo.rt
        .cross_transfer(&leaf_user, &root_user, whole(4))
        .unwrap();
    let blocks = topo.rt.run_until_quiescent(300_000).unwrap();
    assert!(blocks < 300_000);
    assert_eq!(topo.rt.balance(&root_user), root_before + whole(4));

    hierarchical_consensus::core::audit_quiescent(&topo.rt).unwrap();
}

/// A chaos drill through the facade: the leaf of a three-level hierarchy
/// crashes mid-epoch under loss/duplication/reordering, rejoins, and
/// catches back up — every in-flight transfer applied exactly once.
#[test]
fn leaf_crash_rejoin_in_deep_topology() {
    use hierarchical_consensus::net::{FaultKind, FaultPlan, FaultRule};

    let mut topo = TopologyBuilder::new().users_per_subnet(1).deep(3).unwrap();
    let leaf = topo.subnets[2].clone();
    assert_eq!(leaf.depth(), 3);
    let root_user = topo.users[&SubnetId::root()][0].clone();
    let leaf_user = topo.users[&leaf][0].clone();
    let before = topo.rt.balance(&leaf_user);

    topo.rt
        .cross_transfer(&root_user, &leaf_user, whole(9))
        .unwrap();
    let now = topo.rt.now_ms();
    topo.rt.extend_faults(FaultPlan {
        rules: vec![
            FaultRule::new(
                now,
                now + 20_000,
                FaultKind::Loss {
                    topic: Some(leaf.topic()),
                    from: None,
                    to: None,
                    rate: 0.3,
                },
            ),
            FaultRule::new(
                now,
                now + 20_000,
                FaultKind::Duplicate {
                    topic: None,
                    rate: 0.4,
                    max_copies: 2,
                    spread_ms: 300,
                },
            ),
            FaultRule::new(
                now,
                now + 20_000,
                FaultKind::Reorder {
                    topic: None,
                    rate: 0.4,
                    max_extra_delay_ms: 600,
                },
            ),
            FaultRule::new(
                now + 1_500,
                now + 8_000,
                FaultKind::Crash {
                    subnet: leaf.clone(),
                },
            ),
        ],
    });

    let blocks = topo.rt.run_until_quiescent(300_000).unwrap();
    assert!(blocks < 300_000, "chaos drill must reconverge");
    assert_eq!(topo.rt.balance(&leaf_user), before + whole(9));
    let chaos = topo.rt.chaos_stats();
    assert_eq!(chaos.crashes, 1);
    assert_eq!(chaos.catch_ups_completed, 1);
    hierarchical_consensus::core::audit_quiescent(&topo.rt).unwrap();
}

/// Every live node's chain holds exactly one decoded block, its head
/// (DESIGN.md §18): rejoin and recovery hold history in wire form too.
fn head_only_decoded(rt: &HierarchyRuntime) {
    for subnet in rt.subnets() {
        let decoded = rt.node(subnet).unwrap().chain().decoded_len();
        assert_eq!(decoded, 1, "{subnet} holds {decoded} decoded blocks");
    }
}

/// Tier-1 smoke over the three ways a block reaches a node: a journaled
/// tree carries cross-net traffic (live commit), a leaf crashes and
/// snapshot-rejoins (skip under the anchor, manifest install, suffix
/// re-execution), then the whole runtime is dropped and recovered with
/// fast-forward (the same three again, from the journal). The recovered
/// hierarchy must equal a twin driven by the same calls that never lost
/// its runtime — and stay equal under further traffic. It also pins the
/// journal's shape (DESIGN.md §11): two logs on the device, one sync a wave.
#[test]
fn durable_snapshot_rejoin_then_recover_matches_the_live_twin() {
    use hc_store::Persistence;
    use hierarchical_consensus::core::{PersistenceConfig, SyncMode};
    use hierarchical_consensus::net::NetConfig;
    use hierarchical_consensus::sim::FlatTopology;
    use std::sync::Arc;

    let config = |device: &hc_store::InMemoryDevice| RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::on_device(Arc::new(device.clone())),
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let drive = |device: &hc_store::InMemoryDevice| -> FlatTopology {
        let mut topo = TopologyBuilder::new()
            .runtime_config(config(device))
            .users_per_subnet(1)
            .checkpoint_period(5)
            .tree(2, 2)
            .unwrap();
        let (leaf, cousin) = (topo.subnets[5].clone(), topo.subnets[2].clone());
        assert_eq!(leaf.depth(), 2);
        let root_user = topo.users[&SubnetId::root()][0].clone();
        let leaf_user = topo.users[&leaf][0].clone();
        let cousin_user = topo.users[&cousin][0].clone();
        let before = topo.rt.balance(&leaf_user);

        topo.rt
            .cross_transfer(&cousin_user, &leaf_user, whole(3))
            .unwrap();
        topo.rt
            .cross_transfer(&leaf_user, &root_user, whole(2))
            .unwrap();
        topo.rt.run_until_quiescent(100_000).unwrap();
        assert!(topo.rt.checkpoint_anchor(&leaf).is_some());

        topo.rt.crash_node(&leaf).unwrap();
        topo.rt
            .cross_transfer(&root_user, &leaf_user, whole(9))
            .unwrap();
        topo.rt.run_blocks(4).unwrap();
        topo.rt.rejoin_node(&leaf).unwrap();
        let blocks = topo.rt.run_until_quiescent(100_000).unwrap();
        assert!(blocks < 100_000, "snapshot rejoin must reconverge");
        assert_eq!(topo.rt.chaos_stats().snapshot_installs, 1);
        assert_eq!(topo.rt.balance(&leaf_user), before + whole(3 + 9 - 2));
        head_only_decoded(&topo.rt);
        topo
    };
    let device = hc_store::InMemoryDevice::new();
    let crashed = drive(&device);
    let (leaf, root) = (crashed.subnets[5].clone(), SubnetId::root());
    let (leaf_user, root_user) = (
        crashed.users[&leaf][0].clone(),
        crashed.users[&root][0].clone(),
    );
    drop(crashed); // the whole-runtime crash
    let mut recovered = HierarchyRuntime::recover(config(&device));
    head_only_decoded(&recovered);
    let mut twin = drive(&hc_store::InMemoryDevice::new()).rt;
    assert_eq!(
        heads(&recovered),
        heads(&twin),
        "recovery diverged from the twin"
    );

    for rt in [&mut recovered, &mut twin] {
        rt.cross_transfer(&leaf_user, &root_user, whole(1)).unwrap();
        rt.run_until_quiescent(100_000).unwrap();
    }
    assert_eq!(
        heads(&recovered),
        heads(&twin),
        "diverged under further load"
    );
    hierarchical_consensus::core::audit_quiescent(&recovered).unwrap();

    // One journal: crash, rejoin and recovery left the device holding the
    // control log and the blob log, nothing per subnet; and a wave that
    // cuts no checkpoint (so the blob log is idle) syncs at most once,
    // however many subnets commit in it.
    let strays: Vec<String> = device
        .streams()
        .into_iter()
        .filter(|s| !s.starts_with("control/") && !s.starts_with("blobs/"))
        .collect();
    assert_eq!(strays, Vec::<String>::new());
    let cuts = |rt: &HierarchyRuntime| -> u64 {
        let cut = |s| rt.node(s).unwrap().stats().checkpoints_cut;
        rt.subnets().map(cut).sum()
    };
    let mut widest_quiet_wave = 0;
    for _ in 0..20 {
        let (syncs, cut) = (device.sync_count(), cuts(&recovered));
        let wave = recovered.step_wave().unwrap();
        if cuts(&recovered) == cut {
            let synced = device.sync_count() - syncs;
            assert!(
                synced <= 1,
                "a wave of {} synced {synced} times",
                wave.len()
            );
            widest_quiet_wave = widest_quiet_wave.max(wave.len());
        }
    }
    assert!(widest_quiet_wave >= 2, "no shared wave was observed");
}

/// Growth guard: a subnet that sends bottom-up messages in every
/// checkpoint window must not pay more per window as its chain gets longer.
/// The raw messages behind every cut group are registry content — an
/// append-only log beside the SCA chunk, not inside it — so both the bytes
/// the child hashes per window and the SCA chunk's encoded size stay flat
/// while the cross-net history grows.
///
/// Every window here sends three messages to one destination, so each cut
/// appends one group to the log. The log's rightmost leaf holds up to
/// eight groups and is re-hashed whole by the cut that appends to it, so
/// the per-window cost is a bounded sawtooth with a period of eight cuts;
/// the last window (18) sits at the same point of it as the second.
#[test]
fn per_window_state_hashing_does_not_grow_with_cross_net_history() {
    const WINDOWS: usize = 18;
    const PERIOD: u64 = 5;

    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000)).unwrap();
    let validator = rt.create_user(&root, whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(
            &alice,
            SaConfig {
                checkpoint_period: PERIOD,
                ..SaConfig::default()
            },
            whole(10),
            &[(validator, whole(5))],
        )
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(1_000)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();

    let mut hashed: Vec<u64> = Vec::with_capacity(WINDOWS);
    let mut sca_len: Vec<u64> = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        // Start right after a cut, so the three sends (one block each)
        // land in one window and are cut as one group.
        while !rt
            .node(&subnet)
            .unwrap()
            .chain()
            .head_epoch()
            .is_multiple_of(PERIOD)
        {
            rt.tick_subnet(&subnet).unwrap();
        }
        let before = rt
            .node(&subnet)
            .unwrap()
            .state()
            .commit_stats()
            .bytes_hashed;
        for _ in 0..3 {
            rt.cross_transfer(&bob, &alice, whole(1)).unwrap();
        }
        rt.run_until_quiescent(10_000).unwrap();
        let child = rt.node(&subnet).unwrap().state();
        hashed.push(child.commit_stats().bytes_hashed - before);
        sca_len.push(child.sca().canonical_bytes().len() as u64);
    }
    assert_eq!(rt.balance(&bob), whole(1_000 - 3 * WINDOWS as u64));

    let flat = |series: &[u64], what: &str| {
        let (second, last) = (series[1], series[WINDOWS - 1]);
        assert!(
            last * 4 <= second * 5,
            "{what} grows with chain length: window 2 = {second}, window {WINDOWS} = {last} ({series:?})"
        );
    };
    flat(&hashed, "bytes hashed per window");
    flat(&sca_len, "SCA chunk size");
}

/// Growth guard for the open checkpoint window: a child that sends one
/// cross-net message in every block hashes no more state in the block that
/// fills its window than in the first block after the cut. The state root
/// commits to the window through the digest the SCA carries, which absorbs
/// each message once, when it is queued; before that, every block
/// re-encoded and re-hashed the whole window, so a block's cost grew with
/// the messages already waiting in it. The blocks compared both append
/// nothing to the content registry (the cut's re-hash of the registry's
/// rightmost path is bounded by
/// `per_window_state_hashing_does_not_grow_with_cross_net_history`), and
/// `SLACK` is less than one message's 81-byte encoding: hashing a single
/// queued message again fails the guard.
#[test]
fn window_hashing_does_not_grow_as_the_window_fills() {
    const PERIOD: u64 = 20;
    const WINDOWS: u64 = 3;
    const SLACK: u64 = 64;

    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000)).unwrap();
    let validator = rt.create_user(&root, whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(
            &alice,
            SaConfig {
                checkpoint_period: PERIOD,
                ..SaConfig::default()
            },
            whole(10),
            &[(validator, whole(5))],
        )
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(1_000)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();

    // One message per block, from the first block of a window on, for
    // `WINDOWS` whole windows: bytes hashed by the child per block epoch.
    let child = |rt: &HierarchyRuntime| {
        let node = rt.node(&subnet).unwrap();
        (
            node.chain().head_epoch().value(),
            node.state().commit_stats().bytes_hashed,
        )
    };
    while !child(&rt).0.is_multiple_of(PERIOD) {
        rt.tick_subnet(&subnet).unwrap();
    }
    let start = child(&rt).0;
    let mut hashed = std::collections::BTreeMap::new();
    while child(&rt).0 < start + WINDOWS * PERIOD {
        let before = child(&rt).1;
        rt.cross_transfer(&bob, &alice, whole(1)).unwrap();
        let (epoch, after) = child(&rt);
        hashed.insert(epoch, after - before);
    }

    // Block `start + k·PERIOD` cuts the window the blocks before it filled
    // (implicit messages run first) and then queues its own message; the
    // next block is the first of the window without a cut, and block
    // `start + (k+1)·PERIOD - 1` fills the window.
    for k in 0..WINDOWS {
        let cut = start + k * PERIOD;
        let (first, last) = (hashed[&(cut + 1)], hashed[&(cut + PERIOD - 1)]);
        assert!(
            last <= first + SLACK,
            "window {k}: the block filling the window hashed {last} bytes, the first \
             block after its cut {first} ({hashed:?})"
        );
    }
}

/// Tier-1 determinism fingerprint: `parallelism` sizes the fan-outs — wave
/// members, signature batches, execution lanes — and selects nothing. A
/// tree(2, 2) under local and cross-net traffic converging on one hot
/// account commits the same blocks, with the same receipts' gas and
/// events, to the same state roots at one, two and three workers.
#[test]
fn every_worker_count_commits_the_same_chain() {
    // Stepped by waves only: `run_until_quiescent` picks a block-granular
    // or a wave-granular loop from `parallelism`, and the two stop at
    // different blocks.
    fn settle(rt: &mut HierarchyRuntime, trail: &mut Vec<StepReport>) {
        for _ in 0..100_000 {
            if rt.all_quiescent() {
                return;
            }
            trail.extend(rt.step_wave().unwrap());
        }
        panic!("hierarchy did not settle");
    }

    let run = |parallelism: usize| {
        let mut rt = HierarchyRuntime::new(RuntimeConfig {
            parallelism,
            ..RuntimeConfig::default()
        });
        let mut trail = Vec::new();
        let banker = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();

        // Two children, two grandchildren under each; every subnet gets
        // four funded users, the first of which spawns the level below.
        let mut users: Vec<UserHandle> = Vec::new();
        let mut parents = vec![banker.clone()];
        for _level in 0..2 {
            let mut spawned = Vec::new();
            for creator in &parents {
                for _ in 0..2 {
                    let validator = (creator.clone(), whole(5));
                    let subnet = rt
                        .spawn_subnet(creator, SaConfig::default(), whole(10), &[validator])
                        .unwrap();
                    for _ in 0..4 {
                        let user = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
                        rt.cross_transfer(&banker, &user, whole(100)).unwrap();
                        users.push(user);
                    }
                    spawned.push(users[users.len() - 4].clone());
                }
            }
            settle(&mut rt, &mut trail);
            parents = spawned;
        }
        assert_eq!(rt.subnets().count(), 7);

        // Load, queued lazily so the waves below commit it: everyone pays
        // the hot account — its neighbours locally (one conflict lane),
        // everyone else across the tree — and the others pay a local peer
        // as well (two disjoint pairs per subnet: two lanes).
        let hot = users.last().unwrap().clone();
        for (i, user) in users.iter().enumerate() {
            if user.subnet == hot.subnet {
                if user.addr != hot.addr {
                    rt.submit(user, hot.addr, whole(2), Method::Send).unwrap();
                }
            } else {
                rt.cross_transfer_lazy(user, &hot, whole(1)).unwrap();
                let peer = &users[i ^ 1];
                rt.submit(user, peer.addr, whole(1), Method::Send).unwrap();
            }
        }
        settle(&mut rt, &mut trail);
        assert_eq!(rt.balance(&hot), whole(100 + 3 * 2 + 20));
        audit_quiescent(&rt).unwrap();

        let stats: Vec<_> = rt.subnets().map(|s| rt.node(s).unwrap().stats()).collect();
        (heads(&rt), stats, trail, rt.drain_events(), rt.now_ms())
    };

    let one = run(1);
    assert!(
        one.2.iter().any(|block| block.msgs > 3),
        "some block must carry enough messages to schedule lanes"
    );
    for parallelism in [2, 3] {
        assert_eq!(run(parallelism), one, "diverged at {parallelism} workers");
    }
}
