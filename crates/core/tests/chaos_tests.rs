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

use common::{subnet_fingerprint, whole, Cursors, Harness, SubnetFingerprint};
use hc_actors::sa::SaConfig;
use hc_chain::{Block, BlockHeader};
use hc_core::{
    audit_quiescent, ChaosStats, HierarchyRuntime, PlacementPolicy, RuntimeConfig, SyncMode,
};
use hc_net::{
    FaultKind, FaultPlan, FaultRule, PartitionPolicy, RegionMap, ResolutionMsg, RetryPolicy,
};
use hc_state::Method;
use hc_types::{CanonicalEncode, ChainEpoch, Cid, Keypair, SubnetId, TokenAmount};

#[test]
fn crash_refuses_root_and_parents_with_live_children() {
    let mut h = Harness::setup();
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    // The rootnet anchors the hierarchy.
    assert!(h.rt.crash_node(&SubnetId::root()).is_err());

    // Spawn a grandchild under the child; now the child has a live
    // descendant and refuses to crash.
    let bob = h.user(&child);
    h.fund(&bob, 200);
    let grandchild = h.spawn(&bob, SaConfig::default());
    assert!(h.rt.crash_node(&child).is_err());

    // The leaf grandchild can crash; crashing it twice cannot.
    h.rt.crash_node(&grandchild).unwrap();
    assert!(h.rt.is_crashed(&grandchild));
    assert!(h.rt.crash_node(&grandchild).is_err());
    assert!(h.rt.rejoin_node(&grandchild).is_ok());
}

#[test]
fn crash_halts_production_and_rejoin_catches_up() {
    let mut h = Harness::setup();
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&child);
    h.fund(&bob, 30);
    let blocks_before = h.rt.node(&child).unwrap().chain().len();
    assert!(blocks_before > 0);
    // By determinism the child as it stands now *is* its never-crashed
    // twin at this point of the run.
    let twin = subnet_fingerprint(&h.rt, &child);

    h.rt.crash_node(&child).unwrap();
    assert!(h.rt.is_crashed(&child));
    assert!(h.rt.node(&child).is_none());

    // The hierarchy keeps running without the crashed subnet; a transfer
    // into it waits in the subnet's record for the rebuilt node.
    h.rt.cross_transfer(&h.alice, &bob, whole(12)).unwrap();
    for _ in 0..6 {
        h.rt.step().unwrap();
    }
    assert!(h.rt.is_crashed(&child), "nothing auto-rejoins");

    h.rt.rejoin_node(&child).unwrap();
    assert!(h.rt.is_catching_up(&child));
    while h.rt.is_catching_up(&child) {
        h.rt.step().unwrap();
    }
    // A replayed block does to a node exactly what the live block did:
    // the rebuilt node matches the twin in head, state root, every
    // counter, every cursor — only its block schedule restarts, and the
    // transfer committed while it was down waits in its pool.
    let rejoined = subnet_fingerprint(&h.rt, &child);
    assert_eq!(
        rejoined,
        SubnetFingerprint {
            next_block_at_ms: rejoined.next_block_at_ms,
            cursors: Cursors {
                pending_top_down: 1,
                ..twin.cursors
            },
            ..twin
        },
        "replay rejoin must rebuild the never-crashed twin's bookkeeping"
    );
    let produced = h.settle();
    assert!(produced < 4_000, "crash–rejoin flow must converge");

    assert!(!h.rt.is_catching_up(&child));
    let stats = h.rt.chaos_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.rejoins, 1);
    assert_eq!(stats.catch_ups_completed, 1);
    assert_eq!(stats.blocks_caught_up as usize, blocks_before);
    assert!(stats.block_pulls >= 1);
    assert!(stats.block_batches >= 1);

    // The queued transfer landed exactly once after reconvergence.
    assert_eq!(h.rt.balance(&bob), whole(42));
}

/// Regression: a node that crashes while it is still catching up hands its
/// next restart the whole chain its peers hold, not its partial replay, and
/// no catch-up runs for it while it is down. Two crash windows on one leaf,
/// the second opening as the first closes (the leaf goes down again in the
/// step that rejoins it), and the same through direct calls; in both sync
/// modes the leaf catches up to the chain it held when it first went down,
/// every block from epoch 1, and does so again after one more crash once
/// it is live; the hierarchy settles with exact balances.
#[test]
fn a_node_crashed_while_catching_up_rejoins_whole() {
    // The leaf's chain: its length, and the block at every epoch from 1.
    let chain_of = |rt: &HierarchyRuntime, subnet: &SubnetId| {
        let chain = rt.node(subnet).unwrap().chain();
        let blocks: Vec<(ChainEpoch, Cid)> =
            chain.iter().map(|b| (b.header.epoch, b.cid())).collect();
        (chain.len(), blocks)
    };
    for mode in [SyncMode::Replay, SyncMode::Snapshot] {
        for windows in [true, false] {
            let config = RuntimeConfig {
                sync_mode: mode,
                ..RuntimeConfig::default()
            };
            let mut h = Harness::with(config, 1_000_000);
            let sa = SaConfig {
                checkpoint_period: 5,
                ..SaConfig::default()
            };
            let child = h.spawn(&h.alice.clone(), sa);
            let (bob, carol) = (h.user(&child), h.user(&child));
            h.fund(&bob, 30);
            for _ in 0..10 {
                h.rt.execute(&bob, carol.addr, whole(1), Method::Send)
                    .unwrap();
            }
            assert!(
                h.rt.checkpoint_anchor(&child).is_some(),
                "a cut to sync from"
            );
            let twin = subnet_fingerprint(&h.rt, &child);
            let twin_chain = chain_of(&h.rt, &child);
            assert_eq!(twin_chain.1[0].0, ChainEpoch::new(1));

            if windows {
                let now = h.rt.now_ms();
                let crash = || FaultKind::Crash {
                    subnet: child.clone(),
                };
                h.rt.extend_faults(FaultPlan {
                    rules: vec![
                        FaultRule::new(now, now + 2_000, crash()),
                        FaultRule::new(now + 2_000, now + 4_000, crash()),
                    ],
                });
            } else {
                h.rt.crash_node(&child).unwrap();
                h.rt.rejoin_node(&child).unwrap();
                for _ in 0..3 {
                    h.rt.step().unwrap();
                }
                assert!(h.rt.is_catching_up(&child), "{mode:?}: still behind");
                h.rt.crash_node(&child).unwrap();
                assert!(!h.rt.is_catching_up(&child), "{mode:?}: down, not syncing");
                h.rt.rejoin_node(&child).unwrap();
            }
            for _ in 0..2_000 {
                if h.rt.chaos_stats().catch_ups_completed > 0 {
                    break;
                }
                h.rt.step().unwrap();
            }
            let stats = h.rt.chaos_stats();
            let snapshot = u64::from(mode == SyncMode::Snapshot);
            assert_eq!(
                (stats.crashes, stats.rejoins, stats.catch_ups_completed),
                (2, 2, 1),
                "{mode:?}, windows {windows}"
            );
            assert_eq!(stats.snapshot_installs, snapshot, "{mode:?}");
            let caught_up = subnet_fingerprint(&h.rt, &child);
            assert_eq!(
                (caught_up.head, caught_up.head_epoch, caught_up.state_root),
                (twin.head, twin.head_epoch, twin.state_root),
                "{mode:?}, windows {windows}: the leaf holds its peers' whole chain"
            );
            assert_eq!(
                chain_of(&h.rt, &child),
                twin_chain,
                "{mode:?}, windows {windows}"
            );

            // Live again, the leaf alone holds its chain: one more crash
            // hands all of it to the next restart.
            h.rt.crash_node(&child).unwrap();
            h.rt.rejoin_node(&child).unwrap();
            for _ in 0..2_000 {
                if !h.rt.is_catching_up(&child) {
                    break;
                }
                h.rt.step().unwrap();
            }
            let stats = h.rt.chaos_stats();
            assert_eq!(
                (stats.crashes, stats.rejoins, stats.catch_ups_completed),
                (3, 3, 2),
                "{mode:?}, windows {windows}"
            );
            assert_eq!(stats.snapshot_installs, 2 * snapshot, "{mode:?}");
            assert_eq!(
                chain_of(&h.rt, &child),
                twin_chain,
                "{mode:?}, windows {windows}"
            );

            h.rt.cross_transfer(&h.alice, &bob, whole(12)).unwrap();
            h.settle();
            assert_eq!(h.rt.balance(&bob), whole(32), "{mode:?}");
            assert_eq!(h.rt.balance(&carol), whole(10), "{mode:?}");
            audit_quiescent(&h.rt).unwrap();
        }
    }
}

/// Regression: a claimant registered on a non-root parent outside any
/// block must be re-installed by a replay catch-up. The key written on the
/// parent's account is in the next block's state root, so a rejoin that
/// re-executes from genesis without it diverges from the headers.
#[test]
fn claimant_on_a_non_root_parent_survives_a_replay_rejoin() {
    let mut h = Harness::setup();
    let a = h.spawn(&h.alice.clone(), SaConfig::default());
    let creator = h.user(&a);
    h.fund(&creator, 100);

    // Spawn a child under `a`, give it a user, kill it, and register the
    // user's claimant on `a`.
    let grandchild =
        h.rt.spawn_subnet(
            &creator,
            SaConfig::default(),
            whole(10),
            &[(creator.clone(), whole(5))],
        )
        .unwrap();
    let insider = h.user(&grandchild);
    let sa = grandchild.actor().unwrap();
    h.rt.execute(&creator, sa, TokenAmount::ZERO, Method::KillSubnet)
        .unwrap();
    let claimant = h.rt.create_claimant(&insider).unwrap();
    assert_eq!(claimant.subnet, a);
    h.rt.retire_subnet(&grandchild).unwrap();
    // A block on `a` commits the claimant's account to a state root.
    h.rt.execute(&creator, claimant.addr, whole(1), Method::Send)
        .unwrap();
    h.settle();
    // By determinism `a` as it stands now is its never-crashed twin.
    let twin = subnet_fingerprint(&h.rt, &a);

    h.rt.crash_node(&a).unwrap();
    h.rt.rejoin_node(&a).unwrap();
    for _ in 0..400 {
        if !h.rt.is_catching_up(&a) {
            break;
        }
        h.rt.step().unwrap();
    }
    assert!(!h.rt.is_catching_up(&a), "replay catch-up must complete");
    assert_eq!(h.rt.chaos_stats().catch_ups_completed, 1);
    let rejoined = subnet_fingerprint(&h.rt, &a);
    assert_eq!(
        rejoined,
        SubnetFingerprint {
            next_block_at_ms: rejoined.next_block_at_ms,
            ..twin
        },
        "the rejoined parent must match its never-crashed twin"
    );
    assert_eq!(h.rt.balance(&claimant), whole(1));
    audit_quiescent(&h.rt).unwrap();
}

/// A rejoined node verifies every message exactly once, itself: each
/// signed message of the blocks it replays, each message its carried-over
/// pool holds (no verdict of the dead node's crosses over), and each
/// message admitted after the rejoin (the pool reads the new node's cache,
/// and production reads the verdict admission left on the message). With
/// a cache wired, a full verification is a miss, so misses count them.
#[test]
fn every_message_is_verified_once_after_a_rejoin() {
    let mut h = Harness::setup();
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let (bob, carol) = (h.user(&child), h.user(&child));
    h.fund(&bob, 30);
    for _ in 0..2 {
        h.rt.submit(&bob, carol.addr, whole(1), Method::Send)
            .unwrap();
    }
    h.settle();
    let signed_in_chain = |rt: &HierarchyRuntime| -> u64 {
        let chain = rt.node(&child).unwrap().chain();
        chain.iter().map(|b| b.signed_msgs.len() as u64).sum()
    };
    let replayed = signed_in_chain(&h.rt);
    assert_eq!(replayed, 2);

    // Three messages pending at the crash travel with the replicated pool.
    const CARRIED: u64 = 3;
    for _ in 0..CARRIED {
        h.rt.submit(&bob, carol.addr, whole(1), Method::Send)
            .unwrap();
    }
    h.rt.crash_node(&child).unwrap();
    h.rt.rejoin_node(&child).unwrap();
    for _ in 0..400 {
        if !h.rt.is_catching_up(&child) {
            break;
        }
        h.rt.step().unwrap();
    }
    assert!(
        !h.rt.is_catching_up(&child),
        "replay catch-up must complete"
    );
    let caught_up = h.rt.node(&child).unwrap().sig_cache_stats();
    assert_eq!(
        (caught_up.hits, caught_up.misses),
        (0, replayed),
        "a replayed block arrives cold: one verification per message"
    );

    const FRESH: u64 = 4;
    for _ in 0..FRESH {
        h.rt.submit(&bob, carol.addr, whole(1), Method::Send)
            .unwrap();
    }
    h.settle();
    assert_eq!(signed_in_chain(&h.rt), replayed + CARRIED + FRESH);
    assert_eq!(h.rt.balance(&carol), whole(2 + CARRIED + FRESH));
    let stats = h.rt.node(&child).unwrap().sig_cache_stats();
    assert_eq!(
        stats.misses,
        replayed + CARRIED + FRESH,
        "every message is verified exactly once on the new node: {stats:?}"
    );
    assert_eq!(stats.hits, FRESH, "production reads the admission verdicts");
}

/// A sender's next nonce is what its node would accept, so a submit to a
/// crashed subnet signs nothing: once the node rejoins, the sender's next
/// message is at its account nonce, not one past a message that never
/// reached a pool.
#[test]
fn a_refused_submit_to_a_crashed_subnet_strands_nothing() {
    let mut h = Harness::setup();
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let (bob, carol) = (h.user(&child), h.user(&child));
    h.fund(&bob, 30);
    h.rt.execute(&bob, carol.addr, whole(1), Method::Send)
        .unwrap();

    h.rt.crash_node(&child).unwrap();
    assert!(h
        .rt
        .submit(&bob, carol.addr, whole(1), Method::Send)
        .is_err());
    h.rt.rejoin_node(&child).unwrap();
    while h.rt.is_catching_up(&child) {
        h.rt.step().unwrap();
    }
    h.settle();

    h.rt.execute(&bob, carol.addr, whole(2), Method::Send)
        .unwrap();
    assert_eq!(h.rt.balance(&carol), whole(3));
}

/// A rejoining node inherits its peers' pool, floors included, and
/// replays history from genesis. A sender submitting while the replay is
/// still behind its peers' head signs past that head: the replayed
/// account nonces must not pull the inherited floors back down.
#[test]
fn a_sender_submitting_mid_catch_up_signs_past_its_peers_head() {
    let config = RuntimeConfig {
        sync_mode: SyncMode::Replay,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let (bob, carol) = (h.user(&child), h.user(&child));
    h.fund(&bob, 40);
    for _ in 0..30 {
        h.rt.execute(&bob, carol.addr, whole(1), Method::Send)
            .unwrap();
    }
    let peers_blocks = h.rt.node(&child).unwrap().chain().len();

    h.rt.crash_node(&child).unwrap();
    h.rt.rejoin_node(&child).unwrap();
    while h.rt.node(&child).unwrap().chain().len() * 2 < peers_blocks {
        h.rt.step().unwrap();
    }
    assert!(h.rt.is_catching_up(&child), "the replay is still behind");

    h.rt.submit(&bob, carol.addr, whole(5), Method::Send)
        .unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&carol), whole(35));
}

/// What an attacker makes of a genuine block, given the key of the child's
/// one validator (its real proposer).
type Forgery = fn(&Block, &Keypair) -> Block;

/// Crashes a settled child, rejoins it in replay mode, and — when `forge`
/// is given — injects a `BlockBatch` carrying `forge` of the child's
/// epoch-1 block before the first genuine batch can arrive. Returns the
/// child's fingerprint once its catch-up is done, and the chaos counters.
/// The child is spawned as `Harness::spawn` does, keeping its validator's
/// handle for the forger.
fn catch_up_after_injecting(forge: Option<Forgery>) -> (SubnetFingerprint, ChaosStats) {
    let mut h = Harness::setup();
    let validator = h.rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let child =
        h.rt.spawn_subnet(
            &h.alice.clone(),
            SaConfig::default(),
            whole(10),
            &[(validator.clone(), whole(5))],
        )
        .unwrap();
    h.check_state();
    let bob = h.user(&child);
    h.fund(&bob, 30);
    let chain = h.rt.node(&child).unwrap().chain();
    let first = chain.get_by_epoch(ChainEpoch::new(1)).unwrap().clone();

    h.rt.crash_node(&child).unwrap();
    h.rt.rejoin_node(&child).unwrap();
    if let Some(forge) = forge {
        let blocks = vec![forge(&first, &validator.key).canonical_bytes()];
        let subnet = child.clone();
        h.rt.inject_gossip(&child.topic(), ResolutionMsg::BlockBatch { subnet, blocks });
    }
    for _ in 0..400 {
        if !h.rt.is_catching_up(&child) {
            break;
        }
        h.rt.step().unwrap();
    }
    assert!(!h.rt.is_catching_up(&child), "catch-up must complete");
    h.check_state();
    (subnet_fingerprint(&h.rt, &child), h.rt.chaos_stats())
}

/// A forged block in a catch-up batch is dropped before it changes
/// anything — no consensus draw burned, no state touched — and counted; the
/// node keeps pulling and catches up to exactly the twin that never saw it.
fn forged_block_is_dropped(forge: Forgery) {
    let (twin, twin_stats) = catch_up_after_injecting(None);
    let (caught_up, stats) = catch_up_after_injecting(Some(forge));
    assert_eq!(twin_stats.blocks_rejected, 0);
    assert_eq!(
        stats.blocks_rejected, 1,
        "the forged block reached the node first"
    );
    assert_eq!(stats.blocks_caught_up, twin_stats.blocks_caught_up);
    assert_eq!(
        caught_up,
        SubnetFingerprint {
            next_block_at_ms: caught_up.next_block_at_ms,
            ..twin
        },
        "the forged block left a trace on the caught-up node"
    );
}

/// A key outside the validator set, standing in for an attacker.
fn attacker() -> Keypair {
    Keypair::from_seed([0xa7; 32])
}

#[test]
fn a_block_resealed_by_a_non_validator_is_dropped_from_a_catch_up_batch() {
    forged_block_is_dropped(|block, _| {
        let header = BlockHeader {
            proposer: attacker().public(),
            ..block.header.clone()
        };
        let (signed, implicit) = (block.signed_msgs.clone(), block.implicit_msgs.clone());
        Block::seal(header, signed, implicit, &attacker())
    });
}

#[test]
fn a_block_signed_by_someone_other_than_its_proposer_is_dropped_from_a_catch_up_batch() {
    forged_block_is_dropped(|block, _| {
        let (signed, implicit) = (block.signed_msgs.clone(), block.implicit_msgs.clone());
        Block::seal(block.header.clone(), signed, implicit, &attacker())
    });
}

/// The one forgery that passes `validate_block`: the child's real proposer
/// re-seals the block under a lying state root, so the node executes it and
/// refuses it at the root check — and must put its tree back whole.
#[test]
fn a_block_with_a_lying_state_root_is_dropped_from_a_catch_up_batch() {
    forged_block_is_dropped(|block, proposer| {
        let header = BlockHeader {
            state_root: Cid::digest(b"lies"),
            ..block.header.clone()
        };
        let (signed, implicit) = (block.signed_msgs.clone(), block.implicit_msgs.clone());
        Block::seal(header, signed, implicit, proposer)
    });
}

/// A catching-up node's sync replies leave from its own region: the peers
/// the runtime stands in for sit there. The leaf is placed in region "b",
/// and a cut severs "b" from the root's region "a" across the whole rejoin;
/// the leaf's pulls and their batches never leave "b", so it catches up
/// inside the window.
#[test]
fn catch_up_replies_leave_from_the_rejoining_nodes_region() {
    let mut config = RuntimeConfig {
        placement: PlacementPolicy::RoundRobin,
        ..RuntimeConfig::default()
    };
    config.net.regions = RegionMap::named(&["a", "b"]);
    let mut h = Harness::with(config, 1_000_000);
    let leaf = h.spawn(&h.alice.clone(), SaConfig::default());
    assert_eq!(h.rt.region_of_subnet(&leaf), Some("b"));
    let bob = h.user(&leaf);
    h.fund(&bob, 30);

    h.rt.crash_node(&leaf).unwrap();
    let now = h.rt.now_ms();
    let heal_ms = now + 30_000;
    let cut = FaultKind::RegionPartition {
        name: "cut".into(),
        a: "a".into(),
        b: "b".into(),
        policy: PartitionPolicy::Drop,
    };
    h.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(now, heal_ms, cut)],
    });
    h.rt.rejoin_node(&leaf).unwrap();
    while h.rt.is_catching_up(&leaf) && h.rt.now_ms() < heal_ms {
        h.rt.step().unwrap();
    }
    let stats = h.rt.chaos_stats();
    assert_eq!(
        stats.catch_ups_completed, 1,
        "stalled behind the cut: {stats:?}"
    );
    assert!(stats.blocks_caught_up > 0);
    h.settle();
    assert_eq!(h.rt.balance(&bob), whole(30));
}

/// A catching-up node serves pulls for content its history already cut:
/// the content registry is canonical state, and the node's one inbox loop
/// serves a pull from it, mid catch-up as when live; the group never
/// enters the cache. Under snapshot sync the group is cut at the anchor,
/// so it arrives with the installed state; under replay it is back once
/// the catch-up has re-executed the block that cut it.
#[test]
fn a_catching_up_node_serves_pulls_from_its_registry() {
    for sync_mode in [SyncMode::Snapshot, SyncMode::Replay] {
        let config = RuntimeConfig {
            sync_mode,
            ..RuntimeConfig::default()
        };
        let mut h = Harness::with(config, 1_000_000);
        let sa = SaConfig {
            checkpoint_period: 20,
            ..SaConfig::default()
        };
        let child = h.spawn(&h.alice.clone(), sa);
        let bob = h.user(&child);
        let carol = h.user(&SubnetId::root());
        h.fund(&bob, 30);
        h.release(&bob, &carol, 5);
        let history = h.rt.verify_checkpoint_chain(&child).unwrap();
        let (group, cut_at) = history
            .iter()
            .find_map(|c| {
                let meta = c.checkpoint.cross_msgs.first()?;
                Some((meta.msgs_cid, c.checkpoint.epoch))
            })
            .expect("the release was cut");
        // Leave a suffix of several batches past the anchor.
        let (anchor, _) = h.rt.checkpoint_anchor(&child).unwrap();
        while h.rt.node(&child).unwrap().chain().head_epoch() < anchor + 15 {
            h.rt.step().unwrap();
        }

        h.rt.crash_node(&child).unwrap();
        h.rt.rejoin_node(&child).unwrap();
        match sync_mode {
            SyncMode::Snapshot => {
                while h.rt.chaos_stats().snapshot_installs == 0 {
                    h.rt.step().unwrap();
                }
            }
            SyncMode::Replay => {
                while h.rt.node(&child).unwrap().chain().head_epoch() < cut_at {
                    h.rt.step().unwrap();
                }
            }
        }
        assert!(h
            .rt
            .node(&child)
            .unwrap()
            .state()
            .resolve_content(&group)
            .is_some());
        let pull = ResolutionMsg::Pull {
            cid: group,
            reply_topic: SubnetId::root().topic(),
        };
        h.rt.inject_gossip(&child.topic(), pull);
        let resolver = |h: &Harness| h.rt.node(&child).unwrap().resolver().stats();
        while resolver(&h).pulls_served == 0 && h.rt.is_catching_up(&child) {
            h.rt.step().unwrap();
        }
        let mode = format!("{sync_mode:?}");
        assert_eq!(resolver(&h).pulls_served, 1, "{mode}: {:?}", resolver(&h));
        assert_eq!(resolver(&h).pulls_missed, 0, "{mode}");
        assert!(
            h.rt.node(&child).unwrap().resolver().cache().is_empty(),
            "{mode}"
        );
        assert!(
            h.rt.is_catching_up(&child),
            "{mode}: served before catch-up completed"
        );
        assert_eq!(h.rt.chaos_stats().catch_ups_completed, 0, "{mode}");
        h.settle();
        assert_eq!(h.rt.chaos_stats().catch_ups_completed, 1, "{mode}");
    }
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
        let mut h = Harness::setup();
        let child = h.spawn(&h.alice.clone(), sa.clone());
        let bob = h.user(&child);
        h.fund(&bob, 20);

        h.rt.cross_transfer(&h.alice, &bob, whole(5)).unwrap();
        if crash {
            let now = h.rt.now_ms();
            let crash = FaultKind::Crash {
                subnet: child.clone(),
            };
            h.rt.extend_faults(FaultPlan {
                rules: vec![FaultRule::new(now + 500, now + 7_000, crash)],
            });
        }
        h.settle();

        let child_root =
            h.rt.node(&child)
                .unwrap()
                .chain()
                .iter()
                .last()
                .unwrap()
                .header
                .state_root;
        let root_root =
            h.rt.node(&SubnetId::root())
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
            h.rt.balance(&bob),
            h.rt.chaos_stats(),
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
    let mut h = Harness::setup();
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&child);
    let carol = h.user(&SubnetId::root());
    h.fund(&bob, 30);

    // Bottom-up value in flight plus a crash window, under loss,
    // duplication, and reordering scoped to the child's topic.
    h.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    h.rt.cross_transfer(&h.alice, &bob, whole(20)).unwrap();
    let now = h.rt.now_ms();
    let topic = child.topic();
    h.rt.extend_faults(FaultPlan {
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
                    subnet: child.clone(),
                },
            ),
        ],
    });

    let produced = h.settle();
    assert!(produced < 6_000, "faulty crash–rejoin flow must converge");

    assert_eq!(h.rt.balance(&bob), whole(42));
    assert_eq!(h.rt.balance(&carol), whole(8));
    let stats = h.rt.chaos_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.catch_ups_completed, 1);
    // Nothing was silently abandoned under the unbounded default budget.
    for subnet in h.rt.subnets().cloned().collect::<Vec<_>>() {
        assert_eq!(
            h.rt.node(&subnet)
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
        retry: RetryPolicy {
            base_timeout_ms: 200,
            backoff: 2,
            max_timeout_ms: 1_600,
            max_attempts: 3,
        },
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&child);
    let carol = h.user(&SubnetId::root());
    h.fund(&bob, 30);

    // Permanently sever the child's topic, then send value bottom-up: the
    // root can never resolve the checkpoint's message content.
    h.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            0,
            u64::MAX,
            FaultKind::Partition {
                name: "blackout".into(),
                topics: vec![child.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        )],
    });
    h.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    for _ in 0..120 {
        h.rt.step().unwrap();
    }

    let root_stats = h.rt.node(&SubnetId::root()).unwrap().resolver().stats();
    assert_eq!(root_stats.pulls_abandoned, 1, "abandoned exactly once");
    assert!(root_stats.pulls_retried >= 2);
    // The value is escrowed, not lost: the supply audits still hold even
    // though the transfer cannot complete.
    assert_eq!(h.rt.balance(&carol), TokenAmount::ZERO);
    h.check_state();
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
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&child);
    let carol = h.user(&SubnetId::root());
    h.fund(&bob, 30);

    // In-flight work in both directions while the faults bite.
    h.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    h.rt.cross_transfer(&h.alice, &bob, whole(20)).unwrap();

    let now = h.rt.now_ms();
    let topic = child.topic();
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
                subnet: child.clone(),
            },
        ));
    }
    h.rt.extend_faults(plan);

    let produced = h.settle();
    assert!(produced < 6_000, "schedule {seed}: must reconverge");

    // Eventual liveness: every cross-msg applied exactly once.
    assert_eq!(h.rt.balance(&bob), whole(42), "schedule {seed}");
    assert_eq!(h.rt.balance(&carol), whole(8), "schedule {seed}");
    // Graceful degradation only, never silent loss.
    for subnet in h.rt.subnets().cloned().collect::<Vec<_>>() {
        let stats = h.rt.node(&subnet).unwrap().resolver().stats();
        assert_eq!(stats.pulls_abandoned, 0, "schedule {seed}: {subnet}");
    }
    let chaos = h.rt.chaos_stats();
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
    fingerprint(&h.rt)
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
/// schedules, so the hold counters are part of the digest too.) The
/// digests were re-recorded when the SCA's state-root leaf began to commit
/// to its checkpoint window through a digest: every head, state root and
/// checkpoint CID moved, every other byte of the fingerprint text did not.
/// They were re-recorded again when `ChaosStats` gained `blocks_rejected`:
/// the text gained `, blocks_rejected: 0` and no other byte; and when
/// `checkpoints_resubmitted` was renamed `checkpoints_held`: the text's
/// `checkpoints_resubmitted: 0` became `checkpoints_held: 0` and no other
/// byte moved. They were re-recorded again when a block's payload root and
/// a cross-message group's digest each became one SHA-256 pass instead of
/// a Merkle root: every head, state-root and checkpoint CID of the text
/// moved (the checkpoints carry group digests, the state roots commit to
/// them), every other byte did not. They were re-recorded again when the
/// Subnet Actor began to log its signer sets: the root's head and state
/// root moved (the SA lives in the root's state), every other byte of the
/// text — the child's heads, roots and checkpoint CIDs included — did not.
/// They were re-recorded again when blocks began to install the accounts
/// clients create, the minted total joined the state, and a payload root
/// began to absorb each message's CID and signature: heads, state roots
/// and checkpoint CIDs moved, every other byte of the text did not. They
/// were re-recorded again when the account HAMT's leaves dropped their
/// entries' length prefixes and an account's storage and locks became one
/// optional section: heads, state roots and checkpoint CIDs moved, every
/// other byte of the text did not.
#[test]
fn chaos_schedules_reproduce_the_recorded_fingerprints() {
    let recorded = [
        (
            SyncMode::Replay,
            0,
            "a31ff52e0ea07197e698f3c82aa52f3b8788ddfe3585ab9ec9003b44ce48ca04",
        ),
        (
            SyncMode::Replay,
            3,
            "91431a44f8590f11f3ec300bcad23b1110cf44f3fb94cddbf0ed585f66ddbbd5",
        ),
        (
            SyncMode::Replay,
            4,
            "c05db3c3d4db9e01214e688f410536cf90636c823e60724f70697dc73c77eb03",
        ),
        (
            SyncMode::Snapshot,
            0,
            "4b90ab9b9594805ceeb20a6bcf671716cfb9c37008a8eaa2abf89b36134d7260",
        ),
        (
            SyncMode::Snapshot,
            3,
            "91431a44f8590f11f3ec300bcad23b1110cf44f3fb94cddbf0ed585f66ddbbd5",
        ),
        (
            SyncMode::Snapshot,
            4,
            "53bdd3ec340fdeaf1aa9cd89a13d1ca40bc71828456fb1bb9d641b4daf584bd4",
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
        let mut h = Harness::with(config, 1_000_000);
        let child = h.spawn(&h.alice.clone(), sa.clone());
        let bob = h.user(&child);
        h.fund(&bob, 20);
        while h.rt.node(&child).unwrap().chain().head_epoch() < ChainEpoch::new(32) {
            h.rt.step().unwrap();
        }
        // Settle the cut-at-30 checkpoint fully before the fault window:
        // both runs enter it from the same committed hierarchy state.
        h.settle();
        assert!(h.rt.checkpoint_anchor(&child).is_some(), "cut at 30");

        // The same fault window in both runs; only the crash differs.
        let now = h.rt.now_ms();
        let mut plan = FaultPlan {
            rules: vec![
                FaultRule::new(
                    now,
                    now + 6_000,
                    FaultKind::Loss {
                        topic: Some(child.topic()),
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
                    subnet: child.clone(),
                },
            ));
        }
        h.rt.extend_faults(plan);
        h.rt.cross_transfer(&h.alice, &bob, whole(5)).unwrap();
        let produced = h.settle();
        assert!(produced < 6_000, "mid-fault bootstrap must reconverge");
        assert_eq!(h.rt.balance(&bob), whole(25));

        let head = h.rt.node(&child).unwrap().chain().head_epoch();
        assert!(head < ChainEpoch::new(56), "settled well before epoch 56");
        while h.rt.node(&child).unwrap().chain().head_epoch() < ChainEpoch::new(56) {
            h.rt.step().unwrap();
        }
        let child_root =
            h.rt.node(&child)
                .unwrap()
                .chain()
                .iter()
                .find(|b| b.header.epoch == ChainEpoch::new(56))
                .unwrap()
                .header
                .state_root;
        let root_root =
            h.rt.node(&SubnetId::root())
                .unwrap()
                .chain()
                .iter()
                .last()
                .unwrap()
                .header
                .state_root;
        (child_root, root_root, h.rt.chaos_stats())
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
