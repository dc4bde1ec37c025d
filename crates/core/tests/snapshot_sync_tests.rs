//! Snapshot state-sync: O(state) bootstrap for rejoining and recovering
//! nodes, plus the recovery-path regression suite riding along.
//!
//! The trust argument under test: a snapshot-syncing node accepts chunk
//! blobs only into a CID-verified staging store, installs the assembled
//! tree only when its root matches the consensus-committed block header
//! at the checkpoint anchor, and then replays the post-anchor suffix
//! through full validation — so a bootstrapped node is byte-identical to
//! one that re-executed all of history, at O(state + suffix) cost.

mod common;

use std::sync::Arc;

use common::{stats_since, subnet_fingerprint, SubnetFingerprint};
use hc_actors::sa::SaConfig;
use hc_core::persist::DurableOptions;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode,
    UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule, NetConfig, PartitionPolicy, RetryPolicy};
use hc_state::ChunkManifest;
use hc_store::{InMemoryDevice, WalOptions};
use hc_types::{ChainEpoch, Cid, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Serialises this binary's tests: one of them differences the
/// process-wide SHA-256 block counter, which any test hashing on another
/// harness thread would perturb.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A runtime with a funded root user and a spawned child subnet.
struct World {
    rt: HierarchyRuntime,
    alice: UserHandle,
    child: SubnetId,
}

fn build(config: RuntimeConfig, sa_config: SaConfig) -> World {
    let mut rt = HierarchyRuntime::new(config);
    let alice = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();
    let validator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let child = rt
        .spawn_subnet(&alice, sa_config, whole(10), &[(validator, whole(5))])
        .unwrap();
    World { rt, alice, child }
}

/// Steps the hierarchy until `subnet`'s chain head reaches `epoch`.
fn drive_to_epoch(rt: &mut HierarchyRuntime, subnet: &SubnetId, epoch: u64) {
    while rt.node(subnet).unwrap().chain().head_epoch() < ChainEpoch::new(epoch) {
        rt.step().unwrap();
    }
}

/// The committed state root of `subnet` at exactly `epoch`.
fn state_root_at(rt: &HierarchyRuntime, subnet: &SubnetId, epoch: u64) -> Cid {
    rt.node(subnet)
        .unwrap()
        .chain()
        .iter()
        .find(|b| b.header.epoch == ChainEpoch::new(epoch))
        .unwrap_or_else(|| panic!("{subnet} has no block at epoch {epoch}"))
        .header
        .state_root
}

/// The happy path end to end: a crashed node rejoins in snapshot mode,
/// assembles the checkpoint-anchored manifest closure over the network,
/// installs it, and replays only the post-anchor suffix.
#[test]
fn snapshot_rejoin_installs_verified_state_and_replays_only_suffix() {
    let _serial = serial();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(RuntimeConfig::default(), sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    // Sample the counters exactly at the anchor block (cut included).
    drive_to_epoch(&mut w.rt, &w.child, 5);
    let stats_at_anchor = w.rt.node(&w.child).unwrap().stats();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 7);

    let (anchor_epoch, _) = w.rt.checkpoint_anchor(&w.child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));
    let blocks_before = w.rt.node(&w.child).unwrap().chain().len();
    // By determinism the child as it stands now *is* its never-crashed
    // twin at this point of the run.
    let twin = subnet_fingerprint(&w.rt, &w.child);

    w.rt.crash_node(&w.child).unwrap();
    // A transfer queued while the subnet is dark lands after catch-up.
    w.rt.cross_transfer(&w.alice, &bob, whole(12)).unwrap();
    for _ in 0..6 {
        w.rt.step().unwrap();
    }
    w.rt.rejoin_node_with(&w.child, SyncMode::Snapshot).unwrap();
    assert!(w.rt.is_catching_up(&w.child));
    while w.rt.is_catching_up(&w.child) {
        w.rt.step().unwrap();
    }
    // The bootstrapped node matches the twin in head, state root and
    // every cursor; its counters cover exactly the re-executed suffix
    // (the covered prefix is skipped, not counted), and its block
    // schedule restarts.
    let rejoined = subnet_fingerprint(&w.rt, &w.child);
    assert_eq!(
        rejoined,
        SubnetFingerprint {
            stats: stats_since(twin.stats, stats_at_anchor),
            next_block_at_ms: rejoined.next_block_at_ms,
            ..twin
        },
        "snapshot rejoin must rebuild the never-crashed twin's bookkeeping"
    );
    let produced = w.rt.run_until_quiescent(4_000).unwrap();
    assert!(produced < 4_000, "snapshot bootstrap must converge");
    assert!(!w.rt.is_catching_up(&w.child));

    let stats = w.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert!(stats.blob_pulls >= 1, "chunks crossed the network");
    assert!(stats.blob_batches >= 1);
    assert!(stats.blobs_synced >= 2, "manifest plus at least one chunk");
    assert_eq!(stats.catch_ups_completed, 1);
    // Only the post-anchor suffix was re-executed.
    assert_eq!(stats.blocks_caught_up as usize, blocks_before - 5);

    assert_eq!(w.rt.balance(&bob), whole(42));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// Bootstrap exactness: with the same seed and crash schedule, a
/// snapshot-mode rejoin reconverges to byte-identical state roots as a
/// full-replay rejoin — the snapshot changes the cost, never the state.
#[test]
fn snapshot_rejoin_state_matches_replay_rejoin() {
    let _serial = serial();
    let run = |mode: SyncMode| {
        let sa = SaConfig {
            checkpoint_period: 20,
            ..SaConfig::default()
        };
        let config = RuntimeConfig {
            sync_mode: mode,
            ..RuntimeConfig::default()
        };
        let mut w = build(config, sa);
        let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&w.alice, &bob, whole(20)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();
        drive_to_epoch(&mut w.rt, &w.child, 22);
        assert!(w.rt.checkpoint_anchor(&w.child).is_some());

        let now = w.rt.now_ms();
        let crash = FaultKind::Crash {
            subnet: w.child.clone(),
        };
        w.rt.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(now + 300, now + 2_500, crash)],
        });
        w.rt.cross_transfer(&w.alice, &bob, whole(5)).unwrap();
        w.rt.run_until_quiescent(4_000).unwrap();
        audit_quiescent(&w.rt).unwrap();

        // Compare at a fixed epoch past reconvergence but before the next
        // checkpoint cut (whose proof CID embeds post-rejoin timestamps).
        let head = w.rt.node(&w.child).unwrap().chain().head_epoch();
        assert!(head < ChainEpoch::new(36), "quiescent before epoch 36");
        drive_to_epoch(&mut w.rt, &w.child, 36);
        (
            state_root_at(&w.rt, &w.child, 36),
            w.rt.balance(&bob),
            w.rt.chaos_stats(),
        )
    };

    let (root_replay, bob_replay, stats_replay) = run(SyncMode::Replay);
    let (root_snap, bob_snap, stats_snap) = run(SyncMode::Snapshot);
    assert_eq!(stats_replay.snapshot_installs, 0);
    assert_eq!(stats_snap.snapshot_installs, 1);
    assert!(
        stats_snap.blocks_caught_up < stats_replay.blocks_caught_up,
        "snapshot mode must replay strictly fewer blocks ({} vs {})",
        stats_snap.blocks_caught_up,
        stats_replay.blocks_caught_up
    );
    assert_eq!(bob_replay, whole(25));
    assert_eq!(bob_snap, whole(25));
    assert_eq!(
        root_snap, root_replay,
        "snapshot bootstrap must land on the exact replay state"
    );
}

/// Satellite 1 regression: the catch-up retry budget is per batch, not
/// shared across the whole catch-up. A blackout far longer than the
/// bounded budget must degrade into cool-down/re-arm cycles — never into
/// permanently abandoning the batches behind it — and catch-up completes
/// normally once the partition heals.
#[test]
fn per_batch_retry_budget_survives_long_blackout() {
    let _serial = serial();
    let config = RuntimeConfig {
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
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    let blocks_before = w.rt.node(&w.child).unwrap().chain().len();

    // Crash, then black out the child's topic for far longer than the
    // 3-attempt budget (200+400+800 ms) and rejoin mid-blackout.
    w.rt.crash_node(&w.child).unwrap();
    let now = w.rt.now_ms();
    let heal = now + 9_000;
    w.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            now,
            heal,
            FaultKind::Partition {
                name: "blackout".into(),
                topics: vec![w.child.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        )],
    });
    w.rt.rejoin_node(&w.child).unwrap();
    while w.rt.now_ms() < heal + 1_000 {
        w.rt.step().unwrap();
    }
    w.rt.run_until_quiescent(4_000).unwrap();

    let stats = w.rt.chaos_stats();
    assert!(
        stats.pull_budget_rearms >= 1,
        "the blackout must exhaust and re-arm the per-batch budget: {stats:?}"
    );
    assert_eq!(stats.catch_ups_completed, 1, "heal must complete catch-up");
    assert_eq!(stats.blocks_caught_up as usize, blocks_before);
    assert!(!w.rt.is_catching_up(&w.child));

    // Liveness after the heal: new cross-net work still lands.
    w.rt.cross_transfer(&w.alice, &bob, whole(12)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert_eq!(w.rt.balance(&bob), whole(42));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// Satellite 3 regression, around `keep_manifests == 1`: a snapshot
/// persist right after a checkpoint cut evicts the anchored manifest from
/// the recency window — the GC sweep that eviction triggers must still
/// pin the anchor (it is the bootstrap entry point), or the next
/// snapshot rejoin finds its closure half-pruned.
#[test]
fn gc_keep_window_pins_newest_checkpoint_anchor() {
    let _serial = serial();
    let device = InMemoryDevice::new();
    let config = RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device),
            wal: WalOptions::default(),
            keep_manifests: 1,
        }),
        ..RuntimeConfig::default()
    };
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(config, sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 6);
    let (anchor_epoch, anchor_manifest) = w.rt.checkpoint_anchor(&w.child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));

    // Mutate state past the cut, then persist a snapshot: its manifest
    // displaces the anchored one from the size-1 window and triggers GC.
    let carol = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.submit(&bob, carol.addr, whole(3), hc_state::Method::Send)
        .unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert!(
        w.rt.node(&w.child).unwrap().chain().head_epoch() < ChainEpoch::new(10),
        "the next cut would re-anchor and mask the regression"
    );
    w.rt.save_snapshot(&w.alice, &w.child).unwrap();

    // The anchored manifest closure must have survived the sweep intact.
    let store = w.rt.cid_store();
    let blob = store
        .get(&anchor_manifest)
        .expect("anchored manifest pruned by the keep-window sweep");
    let manifest = ChunkManifest::decode(&blob).unwrap();
    assert_eq!(
        manifest.missing_chunks(store),
        Vec::new(),
        "anchored closure lost chunks to the keep-window sweep"
    );

    // End to end: a snapshot rejoin still bootstraps from that anchor.
    w.rt.crash_node(&w.child).unwrap();
    w.rt.rejoin_node_with(&w.child, SyncMode::Snapshot).unwrap();
    w.rt.run_until_quiescent(4_000).unwrap();
    let stats = w.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert_eq!(w.rt.balance(&carol), whole(3));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

/// Recovery in snapshot mode fast-forwards an eligible subnet to its
/// newest checkpoint anchor — appending the skipped prefix without
/// re-execution, installing the anchored manifest, verifying it against
/// the committed header — and lands on the same world as full replay,
/// at a fraction of the hash work.
#[test]
fn recover_snapshot_mode_matches_full_replay_and_hashes_less() {
    let _serial = serial();
    let device = InMemoryDevice::new();
    let config = |mode: SyncMode| RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device.clone()),
            wal: WalOptions::default(),
            keep_manifests: 0,
        }),
        sync_mode: mode,
        ..RuntimeConfig::default()
    };
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut w = build(config(SyncMode::Replay), sa);
    let bob = w.rt.create_user(&w.child, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&w.alice, &bob, whole(30)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    drive_to_epoch(&mut w.rt, &w.child, 12);
    w.rt.cross_transfer(&w.alice, &bob, whole(7)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert!(w.rt.checkpoint_anchor(&w.child).is_some());

    let fingerprint = |rt: &HierarchyRuntime| {
        let mut out = Vec::new();
        for subnet in rt.subnets().cloned().collect::<Vec<_>>() {
            let chain = rt.node(&subnet).unwrap().chain();
            out.push((subnet, chain.len(), chain.head(), chain.head_epoch()));
        }
        out
    };
    let expected = fingerprint(&w.rt);
    let expected_bob = w.rt.balance(&bob);
    let alice = w.alice.clone();
    let child = w.child.clone();
    drop(w);

    let before = hc_types::crypto::sha256_block_count();
    let rt_replay = HierarchyRuntime::recover(config(SyncMode::Replay));
    let replay_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_replay), expected);
    assert_eq!(rt_replay.balance(&bob), expected_bob);
    drop(rt_replay);

    let before = hc_types::crypto::sha256_block_count();
    let mut rt_snap = HierarchyRuntime::recover(config(SyncMode::Snapshot));
    let snapshot_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_snap), expected, "fast-forward diverged");
    assert_eq!(rt_snap.balance(&bob), expected_bob);
    assert!(
        snapshot_cost < replay_cost,
        "fast-forward must hash less than full replay ({snapshot_cost} vs {replay_cost})"
    );

    // The fast-forwarded world keeps working: new cross-net value lands.
    rt_snap.cross_transfer(&alice, &bob, whole(5)).unwrap();
    rt_snap.run_until_quiescent(2_000).unwrap();
    assert_eq!(rt_snap.balance(&bob), expected_bob + whole(5));
    audit_escrow(&rt_snap).unwrap();
    audit_quiescent(&rt_snap).unwrap();
    let _ = child;
}
