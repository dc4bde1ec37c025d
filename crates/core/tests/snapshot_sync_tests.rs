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

use common::{stats_since, subnet_fingerprint, whole, Cursors, Harness, SubnetFingerprint};
use hc_actors::sa::SaConfig;
use hc_core::persist::{DurableOptions, CONTROL_LOG};
use hc_core::{
    audit_quiescent, ControlRecord, HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode,
    UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule, NetConfig, PartitionPolicy, RetryPolicy};
use hc_state::{ChunkManifest, Method};
use hc_store::{InMemoryDevice, Wal, WalOptions};
use hc_types::{CanonicalDecode, ChainEpoch, Cid, SubnetId};

/// Serialises this binary's tests: one of them differences the
/// process-wide SHA-256 block counter, which any test hashing on another
/// harness thread would perturb.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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
        .header_at(ChainEpoch::new(epoch))
        .unwrap_or_else(|| panic!("{subnet} has no block at epoch {epoch}"))
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
    let config = RuntimeConfig {
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    h.rt.cross_transfer(&h.alice, &bob, whole(30)).unwrap();
    // Sample the counters exactly at the anchor block (cut included).
    drive_to_epoch(&mut h.rt, &child, 5);
    let stats_at_anchor = h.rt.node(&child).unwrap().stats();
    h.settle();
    drive_to_epoch(&mut h.rt, &child, 7);

    let (anchor_epoch, _) = h.rt.checkpoint_anchor(&child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));
    let blocks_before = h.rt.node(&child).unwrap().chain().len();
    // By determinism the child as it stands now *is* its never-crashed
    // twin at this point of the run.
    let twin = subnet_fingerprint(&h.rt, &child);

    h.rt.crash_node(&child).unwrap();
    // A transfer queued while the subnet is dark lands after catch-up.
    h.rt.cross_transfer(&h.alice, &bob, whole(12)).unwrap();
    for _ in 0..6 {
        h.rt.step().unwrap();
    }
    h.rt.rejoin_node(&child).unwrap();
    assert!(h.rt.is_catching_up(&child));
    while h.rt.is_catching_up(&child) {
        h.rt.step().unwrap();
    }
    // The bootstrapped node matches the twin in head, state root and
    // every cursor; its counters cover exactly the re-executed suffix
    // (the covered prefix is skipped, not counted), its block schedule
    // restarts, and the transfer committed while it was dark waits in
    // its pool.
    let rejoined = subnet_fingerprint(&h.rt, &child);
    let chain = h.rt.node(&child).unwrap().chain();
    assert_eq!(
        chain.len(),
        blocks_before,
        "the chain holds the covered prefix"
    );
    let first = chain.get_by_epoch(ChainEpoch::new(1));
    assert_eq!(first.map(|b| b.header.epoch), Some(ChainEpoch::new(1)));
    assert_eq!(
        rejoined,
        SubnetFingerprint {
            stats: stats_since(twin.stats, stats_at_anchor),
            next_block_at_ms: rejoined.next_block_at_ms,
            cursors: Cursors {
                pending_top_down: 1,
                ..twin.cursors
            },
            ..twin
        },
        "snapshot rejoin must rebuild the never-crashed twin's bookkeeping"
    );
    let produced = h.settle();
    assert!(produced < 4_000, "snapshot bootstrap must converge");
    assert!(!h.rt.is_catching_up(&child));

    let stats = h.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert!(stats.blob_pulls >= 1, "chunks crossed the network");
    assert!(stats.blob_batches >= 1);
    assert!(stats.blobs_synced >= 2, "manifest plus at least one chunk");
    assert_eq!(stats.catch_ups_completed, 1);
    // Only the post-anchor suffix was re-executed.
    assert_eq!(stats.blocks_caught_up as usize, blocks_before - 5);

    assert_eq!(h.rt.balance(&bob), whole(42));
}

/// A snapshot rejoin holds its history as its peers do: the covered
/// prefix keeps the compressed bytes it arrived in, the replayed suffix
/// compresses to the same bytes, and only the head stays decoded.
#[test]
fn a_snapshot_rejoin_holds_the_peers_bytes() {
    let _serial = serial();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let config = RuntimeConfig {
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    h.rt.cross_transfer(&h.alice, &bob, whole(30)).unwrap();
    h.settle();
    drive_to_epoch(&mut h.rt, &child, 7);
    // What the crash leaves its peers.
    let peers = h.rt.node(&child).unwrap().chain().clone().into_history();

    h.rt.crash_node(&child).unwrap();
    h.rt.rejoin_node(&child).unwrap();
    while h.rt.is_catching_up(&child) {
        h.rt.step().unwrap();
    }
    assert_eq!(h.rt.chaos_stats().snapshot_installs, 1);
    let chain = h.rt.node(&child).unwrap().chain();
    assert_eq!(chain.decoded_len(), 1);
    let held = chain.clone().into_history();
    let prefix: Vec<_> = held.iter().take(peers.len()).collect();
    assert_eq!(prefix, peers.iter().collect::<Vec<_>>());
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
        let mut h = Harness::with(config, 1_000_000);
        let child = h.spawn(&h.alice.clone(), sa);
        let bob = h.user(&child);
        h.fund(&bob, 20);
        drive_to_epoch(&mut h.rt, &child, 22);
        assert!(h.rt.checkpoint_anchor(&child).is_some());

        let now = h.rt.now_ms();
        let crash = FaultKind::Crash {
            subnet: child.clone(),
        };
        h.rt.extend_faults(FaultPlan {
            rules: vec![FaultRule::new(now + 300, now + 2_500, crash)],
        });
        h.fund(&bob, 5);

        // Compare at a fixed epoch past reconvergence but before the next
        // checkpoint cut (whose proof CID embeds post-rejoin timestamps).
        let head = h.rt.node(&child).unwrap().chain().head_epoch();
        assert!(head < ChainEpoch::new(36), "quiescent before epoch 36");
        drive_to_epoch(&mut h.rt, &child, 36);
        (
            state_root_at(&h.rt, &child, 36),
            h.rt.balance(&bob),
            h.rt.chaos_stats(),
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

/// A parent that snapshot-rejoins strands no top-down value (root → p →
/// c): a transfer p commits while c is down, before the checkpoint p
/// later installs from, reaches c once both are back. p's snapshot holds
/// state only, so the transfer must already have left p when p committed
/// it — under either sync mode.
#[test]
fn a_snapshot_rejoined_parent_strands_no_top_down_transfer() {
    let _serial = serial();
    for mode in [SyncMode::Replay, SyncMode::Snapshot] {
        let sa = SaConfig {
            checkpoint_period: 5,
            ..SaConfig::default()
        };
        let config = RuntimeConfig {
            sync_mode: mode,
            ..RuntimeConfig::default()
        };
        let mut h = Harness::with(config, 1_000_000);
        let p = h.spawn(&h.alice.clone(), sa.clone());
        let creator = h.user(&p);
        h.fund(&creator, 100);
        let c = h.spawn(&creator, sa);
        let carol = h.user(&c);

        h.rt.crash_node(&c).unwrap();
        h.rt.cross_transfer(&h.alice, &carol, whole(5)).unwrap();
        while h.child_info(&c).circ_supply < whole(5) {
            h.rt.step().unwrap();
        }
        let committed_at = h.rt.node(&p).unwrap().chain().head_epoch();
        while h
            .rt
            .checkpoint_anchor(&p)
            .is_none_or(|(at, _)| at <= committed_at)
        {
            h.rt.step().unwrap();
        }

        let installs = h.rt.chaos_stats().snapshot_installs;
        h.rt.crash_node(&p).unwrap();
        h.rt.rejoin_node(&p).unwrap();
        while h.rt.is_catching_up(&p) {
            h.rt.step().unwrap();
        }
        let installed = h.rt.chaos_stats().snapshot_installs - installs;
        assert_eq!(installed, u64::from(mode == SyncMode::Snapshot), "{mode:?}");
        h.rt.rejoin_node(&c).unwrap();
        h.rt.run_until_quiescent(200_000).unwrap();
        assert_eq!(
            (h.rt.balance(&carol), audit_quiescent(&h.rt)),
            (whole(5), Ok(())),
            "{mode:?}"
        );
    }
}

/// A snapshot-mode recovery strands no bottom-up transfer whose checkpoint
/// waited at the parent when the journal stopped: the fast-forward skips
/// the block that cut it, so the cut reaches the parent from its journaled
/// anchor, as it does from a replayed cut.
#[test]
fn a_snapshot_recovery_strands_no_pending_checkpoint() {
    let _serial = serial();
    let device = InMemoryDevice::new();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut h = Harness::with(durable(&device, SyncMode::Snapshot), 1_000_000);
    let root = SubnetId::root();
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    let carol = h.user(&root);
    h.fund(&bob, 30);
    h.rt.cross_transfer(&bob, &carol, whole(3)).unwrap();
    while h.rt.node(&root).unwrap().pending_checkpoints().is_empty() {
        h.rt.step().unwrap();
    }
    drop(h);

    let mut rt = HierarchyRuntime::recover(durable(&device, SyncMode::Snapshot));
    rt.run_until_quiescent(10_000).unwrap();
    assert_eq!(rt.balance(&carol), whole(3));
    audit_quiescent(&rt).unwrap();
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
        },
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&child);
    h.fund(&bob, 30);
    let blocks_before = h.rt.node(&child).unwrap().chain().len();

    // Crash, then black out the child's topic for far longer than the
    // 3-attempt budget (200+400+800 ms) and rejoin mid-blackout.
    h.rt.crash_node(&child).unwrap();
    let now = h.rt.now_ms();
    let heal = now + 9_000;
    h.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            now,
            heal,
            FaultKind::Partition {
                name: "blackout".into(),
                topics: vec![child.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        )],
    });
    h.rt.rejoin_node(&child).unwrap();
    while h.rt.now_ms() < heal + 1_000 {
        h.rt.step().unwrap();
    }
    h.settle();

    let stats = h.rt.chaos_stats();
    assert!(
        stats.pull_budget_rearms >= 1,
        "the blackout must exhaust and re-arm the per-batch budget: {stats:?}"
    );
    assert_eq!(stats.catch_ups_completed, 1, "heal must complete catch-up");
    assert_eq!(stats.blocks_caught_up as usize, blocks_before);
    assert!(!h.rt.is_catching_up(&child));

    // Liveness after the heal: new cross-net work still lands.
    h.fund(&bob, 12);
    assert_eq!(h.rt.balance(&bob), whole(42));
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
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    h.fund(&bob, 30);
    drive_to_epoch(&mut h.rt, &child, 6);
    let (anchor_epoch, anchor_manifest) = h.rt.checkpoint_anchor(&child).expect("cut at epoch 5");
    assert_eq!(anchor_epoch, ChainEpoch::new(5));

    // Mutate state past the cut, then persist a snapshot: its manifest
    // displaces the anchored one from the size-1 window and triggers GC.
    let carol = h.user(&child);
    h.rt.submit(&bob, carol.addr, whole(3), hc_state::Method::Send)
        .unwrap();
    h.settle();
    assert!(
        h.rt.node(&child).unwrap().chain().head_epoch() < ChainEpoch::new(10),
        "the next cut would re-anchor and mask the regression"
    );
    h.rt.save_snapshot(&h.alice, &child).unwrap();

    // The anchored manifest closure must have survived the sweep intact.
    let store = h.rt.cid_store();
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
    h.rt.crash_node(&child).unwrap();
    h.rt.rejoin_node(&child).unwrap();
    h.settle();
    let stats = h.rt.chaos_stats();
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert_eq!(h.rt.balance(&carol), whole(3));
}

/// Recovery in snapshot mode fast-forwards an eligible subnet to its
/// newest checkpoint anchor — appending the skipped prefix without
/// re-execution, installing the anchored manifest, verifying it against
/// the committed header — and lands on the same world as full replay,
/// at a fraction of the hash work. A sender whose message the skipped
/// prefix holds signs on from its account nonce.
#[test]
fn recover_snapshot_mode_matches_full_replay_and_hashes_less() {
    let _serial = serial();
    let device = InMemoryDevice::new();
    let config = |mode: SyncMode| durable(&device, mode);
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut h = Harness::with(config(SyncMode::Replay), 1_000_000);
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    let carol = h.user(&child);
    h.fund(&bob, 30);
    let sent = h.rt.execute(&bob, carol.addr, whole(1), Method::Send);
    assert!(sent.is_ok(), "{sent:?}");
    let sent_at = h.rt.node(&child).unwrap().chain().head_epoch();
    drive_to_epoch(&mut h.rt, &child, 12);
    h.fund(&bob, 7);
    let (anchor_epoch, _) = h.rt.checkpoint_anchor(&child).unwrap();
    assert!(
        sent_at <= anchor_epoch,
        "bob's message is in the skipped prefix"
    );

    let fingerprint = |rt: &HierarchyRuntime| {
        let mut out = Vec::new();
        for subnet in rt.subnets().cloned().collect::<Vec<_>>() {
            let chain = rt.node(&subnet).unwrap().chain();
            out.push((subnet, chain.len(), chain.head(), chain.head_epoch()));
        }
        out
    };
    let expected = fingerprint(&h.rt);
    let expected_bob = h.rt.balance(&bob);
    let alice = h.alice.clone();
    drop(h);

    let before = hc_types::crypto::sha256_block_count();
    let rt_replay = HierarchyRuntime::recover(config(SyncMode::Replay));
    let replay_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_replay), expected);
    assert_eq!(rt_replay.balance(&bob), expected_bob);
    drop(rt_replay);

    let before = hc_types::crypto::sha256_block_count();
    let rt_snap = HierarchyRuntime::recover(config(SyncMode::Snapshot));
    let snapshot_cost = hc_types::crypto::sha256_block_count() - before;
    assert_eq!(fingerprint(&rt_snap), expected, "fast-forward diverged");
    assert_eq!(rt_snap.balance(&bob), expected_bob);
    assert!(
        snapshot_cost < replay_cost,
        "fast-forward must hash less than full replay ({snapshot_cost} vs {replay_cost})"
    );

    // The fast-forwarded world keeps working: new cross-net value lands,
    // and bob signs his next message at his account nonce.
    let mut h = Harness { rt: rt_snap, alice };
    h.fund(&bob, 5);
    assert_eq!(h.rt.balance(&bob), expected_bob + whole(5));
    let sent = h.rt.execute(&bob, carol.addr, whole(1), Method::Send);
    assert!(sent.is_ok(), "bob lost the place: {sent:?}");
}

/// Writes a snapshot-mode journal in which the child cuts checkpoints at
/// epochs 5 and 10 — bob, a child user, sends himself a message before
/// the first cut — then rewrites its control log without the child's
/// block at `lost_epoch`. Recovery fast-forwards the child towards its
/// epoch-10 anchor, and its replay stops at the gap. Returns the rewritten
/// device, the child, bob, and a `SyncMode::Replay` recovery of a fork of
/// it.
fn journal_short_of_the_anchor(
    lost_epoch: u64,
) -> (InMemoryDevice, SubnetId, UserHandle, HierarchyRuntime) {
    let device = InMemoryDevice::new();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut h = Harness::with(durable(&device, SyncMode::Snapshot), 1_000_000);
    let child = h.spawn(&h.alice.clone(), sa);
    let bob = h.user(&child);
    h.fund(&bob, 30);
    let sent = h.rt.execute(&bob, bob.addr, whole(1), Method::Send);
    assert!(sent.is_ok(), "{sent:?}");
    let sent_at = h.rt.node(&child).unwrap().chain().head_epoch();
    assert!(
        sent_at <= ChainEpoch::new(5),
        "bob's message precedes the first cut"
    );
    drive_to_epoch(&mut h.rt, &child, 12);
    h.fund(&bob, 7);
    let (anchor_epoch, _) = h.rt.checkpoint_anchor(&child).unwrap();
    assert_eq!(anchor_epoch, ChainEpoch::new(10));
    drop(h);

    let (mut control, records) =
        Wal::open(Arc::new(device.clone()), CONTROL_LOG, WalOptions::default());
    let lost = records.iter().position(|bytes| {
        matches!(ControlRecord::decode(bytes), Ok(ControlRecord::Block(b))
            if b.header.subnet == child && b.header.epoch == ChainEpoch::new(lost_epoch))
    });
    let lost = lost.expect("the child's block is journaled");
    control.truncate_after(lost);
    for bytes in &records[lost + 1..] {
        control.append(bytes);
    }
    drop(control);
    let replayed = HierarchyRuntime::recover(durable(&device.fork(), SyncMode::Replay));
    (device, child, bob, replayed)
}

/// A durable config on `device` in `mode`, with a jitter- and loss-free
/// network.
fn durable(device: &InMemoryDevice, mode: SyncMode) -> RuntimeConfig {
    RuntimeConfig {
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
    }
}

/// Recovers `device` in snapshot mode, checks every other subnet already
/// equals `replayed` and the child is catching up, steps until it is done,
/// and returns the world with the child's fingerprint.
fn recover_and_catch_up(
    device: &InMemoryDevice,
    child: &SubnetId,
    replayed: &HierarchyRuntime,
) -> (HierarchyRuntime, SubnetFingerprint) {
    let mut rt = HierarchyRuntime::recover(durable(device, SyncMode::Snapshot));
    assert!(rt.is_catching_up(child), "the child restarts from genesis");
    for subnet in rt.subnets().filter(|s| *s != child) {
        assert_eq!(
            subnet_fingerprint(&rt, subnet),
            subnet_fingerprint(replayed, subnet)
        );
    }
    for _ in 0..400 {
        if !rt.is_catching_up(child) {
            break;
        }
        rt.step().unwrap();
    }
    assert!(!rt.is_catching_up(child), "the catch-up must complete");
    rt.check_invariants().unwrap();
    let caught_up = subnet_fingerprint(&rt, child);
    (rt, caught_up)
}

/// A recovery fast-forward whose replay stops short of its anchor falls
/// back for that node alone: the child restarts from genesis and catches
/// up, in replay mode (no anchor was reached), against the blocks the
/// journal kept — and lands on the world a full-replay recovery of the
/// same journal rebuilds.
#[test]
fn a_fast_forward_short_of_its_anchor_catches_up_from_the_journal() {
    let _serial = serial();
    let (device, child, _, replayed) = journal_short_of_the_anchor(3);
    let (rt, caught_up) = recover_and_catch_up(&device, &child, &replayed);
    let stats = rt.chaos_stats();
    assert_eq!(stats.snapshot_fallbacks, 1);
    assert_eq!(stats.snapshot_installs, 0);
    assert_eq!(stats.blocks_caught_up, 2, "epochs 1 and 2 survived the gap");
    let expected = subnet_fingerprint(&replayed, &child);
    assert_eq!(expected.head_epoch, ChainEpoch::new(2));
    assert_eq!(
        caught_up,
        SubnetFingerprint {
            next_block_at_ms: caught_up.next_block_at_ms,
            ..expected
        }
    );
}

/// The same fallback past an older anchor: the replay reached the epoch-5
/// cut before the gap, and that anchor's closure, which only the blob log
/// still holds, is hydrated and snapshot-synced — only epoch 6 re-executes.
/// Bob, whose message the installed prefix holds, signs on from the
/// account nonce.
#[test]
fn a_fast_forward_short_of_its_anchor_snapshot_syncs_from_an_older_one() {
    let _serial = serial();
    let (device, child, bob, replayed) = journal_short_of_the_anchor(7);
    let (mut rt, caught_up) = recover_and_catch_up(&device, &child, &replayed);
    let stats = rt.chaos_stats();
    assert_eq!(stats.snapshot_fallbacks, 0);
    assert_eq!(stats.snapshot_installs, 1);
    assert_eq!(stats.blocks_caught_up, 1, "only the post-anchor epoch 6");
    let expected = subnet_fingerprint(&replayed, &child);
    assert_eq!(expected.head_epoch, ChainEpoch::new(6));
    // The covered prefix is installed, not re-executed, so its counters
    // are not the replayed node's.
    assert_eq!(
        caught_up,
        SubnetFingerprint {
            stats: caught_up.stats,
            next_block_at_ms: caught_up.next_block_at_ms,
            ..expected
        }
    );
    let sent = rt.execute(&bob, bob.addr, whole(1), Method::Send);
    assert!(sent.is_ok(), "bob lost the place: {sent:?}");
}
