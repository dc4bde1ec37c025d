//! Durable persistence and crash recovery, end to end.
//!
//! The invariant under test: *whatever* prefix of the journal survives a
//! crash, [`HierarchyRuntime::recover`] lands on a valid prefix of the
//! pre-crash history — every recovered chain is a block-for-block prefix of
//! the original, every recomputed state root matches the corresponding
//! block header — and a runtime recovered at a quiescent point is
//! bit-identical to one that never crashed, including everything it does
//! *afterwards*.
//!
//! Network jitter and loss are disabled throughout: recovery replays
//! journaled blocks without replaying gossip, so equality of the two worlds
//! requires message delays to be load-independent (the same restriction the
//! wave-determinism suite operates under).

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{fingerprint, whole, Harness};
use hc_core::persist::{DurableOptions, CONTROL_LOG};
use hc_core::{
    ControlRecord, HierarchyRuntime, PersistenceConfig, PlacementPolicy, RuntimeConfig, StepReport,
    UserHandle,
};
use hc_net::{NetConfig, RegionMap};
use hc_store::crash::{corrupt_byte, truncate_stream, RecordingDevice};
use hc_store::frame::{scan_frames, FRAME_HEADER_LEN};
use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, Wal, WalOptions};
use hc_types::{CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId, TokenAmount};

fn durable_config(device: Arc<dyn Persistence>) -> RuntimeConfig {
    RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::on_device(device),
        ..RuntimeConfig::default()
    }
}

/// A harness world under load, with the handles a workload needs to keep
/// driving it after recovery.
struct World {
    h: Harness,
    subnets: Vec<SubnetId>,
    pairs: Vec<(UserHandle, UserHandle)>,
}

/// Loads the same small hierarchy for every caller: `children` subnets off
/// the root, two funded users in each, intra-subnet and sibling-to-sibling
/// cross-net traffic, and a saved snapshot of the first subnet. Ends
/// quiescent.
fn loaded(config: RuntimeConfig, children: usize) -> World {
    let mut h = Harness::with(config, 1_000_000);
    let mut subnets = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..children {
        let subnet = h.spawn(&h.alice.clone(), hc_actors::sa::SaConfig::default());
        let (a, b) = (h.user(&subnet), h.user(&subnet));
        h.rt.cross_transfer(&h.alice, &a, whole(50)).unwrap();
        h.rt.cross_transfer(&h.alice, &b, whole(50)).unwrap();
        subnets.push(subnet);
        pairs.push((a, b));
    }
    h.settle();

    for (i, (a, b)) in pairs.iter().enumerate() {
        h.rt.submit(a, b.addr, whole(3), hc_state::Method::Send)
            .unwrap();
        let (next_a, _) = &pairs[(i + 1) % pairs.len()];
        h.rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
    }
    h.settle();
    h.rt.save_snapshot(&h.alice, &subnets[0]).unwrap();
    h.settle();
    World { h, subnets, pairs }
}

/// Identical continuation traffic for the crashed-and-recovered world and
/// the never-crashed control: new users, new transfers, another snapshot.
fn continue_world(world: &mut World) {
    let h = &mut world.h;
    let carol = h.user(&world.subnets[0]);
    h.rt.cross_transfer(&h.alice, &carol, whole(25)).unwrap();
    for (a, b) in &world.pairs {
        h.rt.submit(b, a.addr, whole(1), hc_state::Method::Send)
            .unwrap();
    }
    h.settle();
    h.rt.save_snapshot(&h.alice, &world.subnets[0]).unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&carol), whole(25));
}

/// One block of history: (block CID, epoch, state root).
type BlockRecord = (Cid, ChainEpoch, Cid);

/// Per-subnet chain history, oldest → newest, read header by header.
fn chain_history(rt: &HierarchyRuntime) -> Vec<(SubnetId, Vec<BlockRecord>)> {
    rt.subnets()
        .map(|s| {
            let chain = rt.node(s).unwrap().chain();
            let blocks = (0..=chain.head_epoch().value())
                .filter_map(|e| chain.header_at(ChainEpoch::new(e)))
                .map(|h| (h.cid(), h.epoch, h.state_root))
                .collect();
            (s.clone(), blocks)
        })
        .collect()
}

#[test]
fn recovery_at_quiescence_is_bit_identical_and_stays_identical() {
    let device = InMemoryDevice::new();
    let crashed = loaded(durable_config(Arc::new(device.clone())), 3);
    let expected = fingerprint(&crashed.h.rt);
    assert!(
        expected.iter().any(|f| !f.checkpoints.is_empty()),
        "workload must exercise the checkpoint flow"
    );
    let expected_now = crashed.h.rt.now_ms();
    let mut recovered = recover(crashed, durable_config(Arc::new(device)));
    assert_eq!(
        fingerprint(&recovered.h.rt),
        expected,
        "recovered world differs from the one that crashed"
    );
    assert_eq!(recovered.h.rt.now_ms(), expected_now);

    // A control world that never crashes, driven by the same calls.
    let mut control = loaded(durable_config(Arc::new(InMemoryDevice::new())), 3);
    assert_eq!(fingerprint(&control.h.rt), expected);

    // The recovered world must stay bit-identical under further load.
    continue_world(&mut recovered);
    continue_world(&mut control);
    assert_eq!(
        fingerprint(&recovered.h.rt),
        fingerprint(&control.h.rt),
        "recovered world diverged from the never-crashed control under load"
    );
    assert_eq!(recovered.h.rt.now_ms(), control.h.rt.now_ms());
}

/// Placement is not journaled: recovery re-derives it by booting the root
/// and replaying every subnet boot in order. A round-robin world over two
/// regions comes back with every subnet in the region it lived in, on the
/// same heads.
#[test]
fn a_round_robin_world_recovers_in_its_live_regions() {
    let device = InMemoryDevice::new();
    let config = || {
        let mut config = durable_config(Arc::new(device.clone()));
        config.net.regions = RegionMap::named(&["us", "eu"]);
        config.placement = PlacementPolicy::RoundRobin;
        config
    };
    let regions = |rt: &HierarchyRuntime| -> Vec<(SubnetId, Option<String>)> {
        rt.subnets()
            .map(|s| (s.clone(), rt.region_of_subnet(s).map(str::to_owned)))
            .collect()
    };
    let crashed = loaded(config(), 1);
    let live = regions(&crashed.h.rt);
    let placed: Vec<_> = live.iter().map(|(_, r)| r.as_deref()).collect();
    assert_eq!(placed, [Some("us"), Some("eu")], "root, then the child");
    let heads = fingerprint(&crashed.h.rt);

    let recovered = recover(crashed, config());
    assert_eq!(regions(&recovered.h.rt), live);
    assert_eq!(fingerprint(&recovered.h.rt), heads);
}

/// Drops `crashed`'s runtime — the crash — and recovers it from the journal
/// `config` names, keeping the handles.
fn recover(crashed: World, config: RuntimeConfig) -> World {
    let World { h, subnets, pairs } = crashed;
    let Harness { rt, alice } = h;
    drop(rt);
    let h = Harness {
        rt: HierarchyRuntime::recover(config),
        alice,
    };
    h.check_state();
    World { h, subnets, pairs }
}

#[test]
fn replay_has_no_outward_effects_until_recovery_returns() {
    let control_log_bytes = |device: &InMemoryDevice| -> u64 {
        let streams = device.streams();
        let control = streams.iter().filter(|s| s.starts_with("control/"));
        control.map(|s| device.len(s)).sum()
    };
    let device = InMemoryDevice::new();
    let mut crashed = loaded(durable_config(Arc::new(device.clone())), 3);
    // The live run did all three outward things the replay must not redo.
    assert!(crashed.h.rt.net_stats().published > 0);
    assert!(!crashed.h.rt.drain_events().is_empty());
    let journaled = control_log_bytes(&device);
    assert!(journaled > 0);
    let expected = fingerprint(&crashed.h.rt);

    let World { mut h, pairs, .. } = recover(crashed, durable_config(Arc::new(device.clone())));
    assert_eq!(
        fingerprint(&h.rt),
        expected,
        "the replay re-ran every block"
    );
    assert_eq!(control_log_bytes(&device), journaled, "replay re-journaled");
    assert_eq!(h.rt.drain_events(), vec![], "replay re-queued events");
    assert_eq!(h.rt.net_stats().published, 0, "replay re-sent gossip");

    // Recovery returned: the same runtime is outward again.
    h.release(&pairs[0].0, &h.alice.clone(), 1);
    assert!(control_log_bytes(&device) > journaled);
    assert!(!h.rt.drain_events().is_empty());
    assert!(h.rt.net_stats().published > 0);
}

#[test]
fn recovery_survives_wave_parallel_continuation() {
    // Crash, recover, then drain the continuation with wave-parallel
    // execution: the recovered world must match a never-crashed world
    // drained sequentially.
    let device = InMemoryDevice::new();
    let config = RuntimeConfig {
        parallelism: 4,
        ..durable_config(Arc::new(device.clone()))
    };
    let crashed = loaded(config.clone(), 4);
    let mut recovered = recover(crashed, config);
    let mut control = loaded(
        RuntimeConfig {
            parallelism: 1,
            ..durable_config(Arc::new(InMemoryDevice::new()))
        },
        4,
    );

    // Queue the identical continuation in both worlds, then drain the
    // recovered one with waves and the control sequentially. The load is
    // symmetric across siblings (like the wave-determinism suite) so both
    // drains quiesce on the same tick boundary.
    for world in [&mut recovered, &mut control] {
        for (i, (a, b)) in world.pairs.iter().enumerate() {
            let rt = &mut world.h.rt;
            rt.submit(a, b.addr, whole(2), hc_state::Method::Send)
                .unwrap();
            let (next_a, _) = &world.pairs[(i + 1) % world.pairs.len()];
            rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
        }
    }
    recovered.h.settle();
    control.h.settle();
    assert_eq!(
        fingerprint(&recovered.h.rt),
        fingerprint(&control.h.rt),
        "wave-parallel continuation after recovery diverged"
    );
}

/// Checks that every chain of the recovered `rt` is a block-for-block
/// prefix of the pre-crash `history` and that each head state root
/// reproduces from the recovered chunks. Returns the blocks recovered.
fn assert_valid_prefix(
    rt: &HierarchyRuntime,
    history: &[(SubnetId, Vec<BlockRecord>)],
    cut: &str,
) -> usize {
    let mut recovered_blocks = 0usize;
    for (subnet, blocks) in chain_history(rt) {
        let original = &history
            .iter()
            .find(|(s, _)| *s == subnet)
            .expect("recovered subnet existed before the crash")
            .1;
        assert!(
            blocks.len() <= original.len(),
            "{subnet}: recovered past the pre-crash head at {cut}"
        );
        assert_eq!(
            blocks,
            original[..blocks.len()],
            "{subnet}: recovered chain is not a prefix at {cut}"
        );
        recovered_blocks += blocks.len();
        // The head state root must reproduce from the recovered chunks.
        if let Some(node) = rt.node(&subnet) {
            if !node.chain().is_empty() {
                assert_eq!(
                    node.state().recompute_root(),
                    blocks.last().unwrap().2,
                    "{subnet}: head state root mismatch at {cut}"
                );
            }
        }
    }
    recovered_blocks
}

/// Whatever survived a crash, the recovered world keeps working: new
/// accounts, a transfer between them, quiescence.
fn assert_keeps_working(rt: &mut HierarchyRuntime) {
    let root = SubnetId::root();
    let user = rt.create_user(&root, whole(10)).unwrap();
    let peer = rt.create_user(&root, whole(0)).unwrap();
    rt.submit(&user, peer.addr, whole(4), hc_state::Method::Send)
        .unwrap();
    rt.run_until_quiescent(200_000).unwrap();
    assert_eq!(rt.balance(&peer), whole(4));
}

#[test]
fn any_crash_point_recovers_a_valid_prefix() {
    // The crash-injection sweep: truncate the device at many different
    // byte offsets (tail-first across streams, like a real torn tail) and
    // verify that recovery always lands on a block-for-block prefix of the
    // pre-crash history with bit-identical recomputed state roots.
    let device = InMemoryDevice::new();
    let world = loaded(durable_config(Arc::new(device.clone())), 2);
    let history = chain_history(&world.h.rt);
    let full: Vec<(SubnetId, usize)> = history
        .iter()
        .map(|(s, blocks)| (s.clone(), blocks.len()))
        .collect();
    drop(world);

    let mut shortest = usize::MAX;
    for cut_permille in [0u64, 77, 200, 333, 450, 600, 750, 875, 950, 1000] {
        let fork: Arc<dyn Persistence> = Arc::new(device.fork());
        let streams = fork.streams();
        let total: u64 = streams.iter().map(|s| fork.len(s)).sum();
        let cut = total * cut_permille / 1000;
        let mut to_drop = total - cut;
        for s in streams.iter().rev() {
            let len = fork.len(s);
            let dropped = to_drop.min(len);
            truncate_stream(&fork, s, len - dropped);
            to_drop -= dropped;
            if to_drop == 0 {
                break;
            }
        }

        let mut rt = HierarchyRuntime::recover(durable_config(fork));
        let recovered_blocks = assert_valid_prefix(&rt, &history, &format!("cut {cut_permille}"));
        shortest = shortest.min(recovered_blocks);

        assert_keeps_working(&mut rt);

        if cut_permille == 1000 {
            // An untouched device recovers everything.
            let recovered: usize = full
                .iter()
                .map(|(s, n)| {
                    // +1: the post-recovery probe above grew each chain.
                    let now = rt.node(s).map_or(0, |node| node.chain().len());
                    assert!(now >= *n, "{s}: full device lost blocks");
                    *n
                })
                .sum();
            assert_eq!(recovered_blocks, recovered);
        }
    }
    assert!(
        shortest < full.iter().map(|(_, n)| n).sum::<usize>(),
        "the sweep must include cuts that actually lose history"
    );

    // Bit rot: one flipped byte anywhere in the journal. Recovery returns,
    // on a valid prefix that keeps working — never a panic, never a block
    // that was not committed.
    for stream in device
        .streams()
        .iter()
        .filter(|s| s.starts_with("control/"))
    {
        let len = device.len(stream);
        for offset in (0..len).step_by((len / 61 + 1) as usize) {
            let fork: Arc<dyn Persistence> = Arc::new(device.fork());
            corrupt_byte(&fork, stream, offset);
            let mut rt = HierarchyRuntime::recover(durable_config(fork.clone()));
            let flip = format!("flip at {stream}:{offset}");
            assert_valid_prefix(&rt, &history, &flip);
            assert_keeps_working(&mut rt);
        }
    }
}

/// The records `stream` holds past byte `from`, each with the offset its
/// frame ends at.
fn records_past(device: &InMemoryDevice, stream: &str, from: u64) -> Vec<(u64, ControlRecord)> {
    let bytes = device.read(stream);
    let mut end = from;
    let frames = scan_frames(&bytes[from as usize..]).payloads;
    let decode = |payload: &Vec<u8>| {
        end += (FRAME_HEADER_LEN + payload.len()) as u64;
        (end, ControlRecord::decode(payload).unwrap())
    };
    frames.iter().map(decode).collect()
}

/// Queues one intra-subnet transfer per sibling and steps wave by wave
/// until a wave of at least two members has run; returns that wave's
/// reports and what `probe` read just before it.
fn run_a_shared_wave<T>(world: &mut World, probe: impl Fn() -> T) -> (Vec<StepReport>, T) {
    let rt = &mut world.h.rt;
    for (a, b) in &world.pairs {
        rt.submit(a, b.addr, whole(1), hc_state::Method::Send)
            .unwrap();
    }
    loop {
        let before = probe();
        let reports = rt.step_wave().unwrap();
        if reports.len() >= 2 {
            return (reports, before);
        }
    }
}

#[test]
fn crashes_between_a_deferred_record_and_its_barrier_recover_a_valid_prefix() {
    // Every record — set-up, block, anchor — is written at once but synced
    // only by the barrier at the end of its wave. Cut the journal everywhere
    // between what the last barrier made durable and what has merely been
    // written: a process crash keeps every frame, a power loss may keep any
    // prefix of the unsynced ones — recovery must land on a valid prefix
    // each time, and the barrier must keep a wave at one sync.
    //
    // There is no "durable block without its commit record" case any more:
    // the block *is* the record, so the two cannot come apart.
    let device = InMemoryDevice::new();
    let mut world = loaded(durable_config(Arc::new(device.clone())), 3);
    let root = SubnetId::root();
    let control = "control/00000000.seg";

    // The world ended on a step, so everything journaled is synced.
    let durable_len = device.len(control);
    let syncs = device.sync_count();
    let users: Vec<UserHandle> = (0..5)
        .map(|_| world.h.rt.create_user(&root, whole(10)).unwrap())
        .collect();
    assert_eq!(
        (device.len(control), device.sync_count()),
        (durable_len, syncs),
        "an account is journaled with the block that installs it"
    );
    // A crash before that block loses the queued accounts, as it loses
    // the pool: no record depends on them.
    let history = chain_history(&world.h.rt);
    let total_blocks: usize = history.iter().map(|(_, b)| b.len()).sum();
    let mut rt = HierarchyRuntime::recover(durable_config(Arc::new(device.fork())));
    let blocks = assert_valid_prefix(&rt, &history, "before the install");
    assert_eq!(blocks, total_blocks, "every journaled block recovered");
    for (i, user) in users.iter().enumerate() {
        assert_eq!(rt.balance(user), whole(0), "user {i} was never installed");
    }
    assert_keeps_working(&mut rt);

    // One step: the barrier syncs the block, which installs the five
    // accounts on the root.
    world
        .h
        .rt
        .submit(&users[0], users[1].addr, whole(1), hc_state::Method::Send)
        .unwrap();
    world.h.rt.step().unwrap();
    assert!(
        device.sync_count() - syncs <= 3,
        "5 x create_user + one step cost {} syncs",
        device.sync_count() - syncs
    );

    // A wave of k siblings: k block records, one barrier. (First let the
    // root commit the accounts queued above.)
    while world.h.rt.step().unwrap().subnet != root {}
    let probe = || (device.len(control), device.sync_count());
    let (wave, (durable_len, syncs)) = run_a_shared_wave(&mut world, probe);
    assert_eq!(device.sync_count() - syncs, 1, "a wave syncs once");
    let history = chain_history(&world.h.rt);
    let block_ends: Vec<u64> = records_past(&device, control, durable_len)
        .into_iter()
        .filter_map(|(end, record)| matches!(record, ControlRecord::Block(_)).then_some(end))
        .collect();
    assert_eq!(block_ends.len(), wave.len(), "one block record per member");
    // Power lost after j of them — at the frame boundary, and (the j+1-th
    // torn inside its payload) a few bytes further: exactly the first j
    // members of the wave keep their block, a torn block is dropped whole.
    for j in 0..=wave.len() {
        let boundary = if j == 0 {
            durable_len
        } else {
            block_ends[j - 1]
        };
        let torn = (j < wave.len()).then_some(boundary + 40);
        for cut in std::iter::once(boundary).chain(torn) {
            let fork: Arc<dyn Persistence> = Arc::new(device.fork());
            truncate_stream(&fork, control, cut);
            let mut rt = HierarchyRuntime::recover(durable_config(fork));
            assert_valid_prefix(&rt, &history, &format!("wave cut {cut}"));
            for (i, member) in wave.iter().enumerate() {
                let head = rt.node(&member.subnet).unwrap().chain().head_epoch();
                let expected = if i < j {
                    member.epoch
                } else {
                    ChainEpoch::new(member.epoch.value() - 1)
                };
                assert_eq!(head, expected, "member {i} of the wave at cut {cut}");
            }
            assert_keeps_working(&mut rt);
        }
    }
}

/// A log torn between a block that cut a checkpoint and the cut's
/// `CheckpointAnchor` record still sends the checkpoint up: recovery hands a
/// re-executed cut up at its block, so the parent holds it pending and its
/// next block commits it.
#[test]
fn a_log_torn_before_a_cuts_anchor_still_hands_the_cut_up() {
    let device = InMemoryDevice::new();
    let mut world = loaded(durable_config(Arc::new(device.clone())), 2);
    let control = "control/00000000.seg";
    let from = device.len(control);
    // Step until a child's cut is journaled; `cut` is where its anchor's
    // frame starts, right after the block that cut it.
    let (cut, signed) = loop {
        world.h.rt.step().unwrap();
        let (mut start, mut previous) = (from, None);
        let mut anchor = None;
        for (end, record) in records_past(&device, control, from) {
            if let ControlRecord::CheckpointAnchor { signed, .. } = record {
                anchor = Some((start, signed, previous));
                break;
            }
            (start, previous) = (end, Some(record));
        }
        if let Some((start, signed, previous)) = anchor {
            let Some(ControlRecord::Block(block)) = previous else {
                panic!("an anchor follows the block that cut it");
            };
            assert_eq!(block.header.subnet, signed.checkpoint.source);
            break (start, signed);
        }
    };
    let child = signed.checkpoint.source.clone();
    let parent = child.parent().unwrap();

    let fork: Arc<dyn Persistence> = Arc::new(device.fork());
    truncate_stream(&fork, control, cut);
    let mut rt = HierarchyRuntime::recover(durable_config(fork));
    let pending = rt.node(&parent).unwrap().pending_checkpoints();
    assert!(
        pending.iter().any(|p| p.checkpoint == signed.checkpoint),
        "the torn cut is pending in the parent: {pending:?}"
    );
    rt.tick_subnet(&parent).unwrap();
    let node = rt.node(&parent).unwrap();
    let info = node.state().sca().subnet(&child).unwrap();
    assert_eq!(info.prev_checkpoint, signed.checkpoint.cid());
    assert!(node.pending_checkpoints().is_empty());
    assert_eq!(rt.check_invariants(), Ok(()));
}

#[test]
fn a_wave_that_straddles_a_segment_rollover_is_synced_whole() {
    // Segments far smaller than a block: every wave's records roll the
    // journal over, often more than once. After each wave returns nothing
    // it wrote may still be unsynced — in the segment it ended in or in any
    // it left behind — and the blob log is held to the same.
    let device = Arc::new(RecordingDevice::default());
    let config = || RuntimeConfig {
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: device.clone(),
            wal: WalOptions {
                segment_bytes: 256,
                fsync: FsyncPolicy::Always,
            },
            keep_manifests: 0,
        }),
        ..durable_config(device.clone())
    };
    let mut world = loaded(config(), 3);
    let segments = || device.streams().len();
    let (wave, before) = run_a_shared_wave(&mut world, segments);
    assert!(
        segments() >= before + wave.len(),
        "each member's block must have rolled the journal over"
    );
    assert_eq!(
        device.unsynced(),
        Vec::<String>::new(),
        "the barrier left part of the wave to a power loss"
    );
    let expected = fingerprint(&world.h.rt);
    drop(world);
    let rt = HierarchyRuntime::recover(config());
    assert_eq!(fingerprint(&rt), expected);
}

#[test]
fn a_subnet_respawned_after_its_boot_record_was_lost_recovers_cleanly() {
    // A power loss that takes the journal's tail takes a spawn with it: the
    // recovered world predates the child. Spawning again gives the Subnet
    // Actor the same address, hence the child the same `SubnetId` — and
    // nothing of the dead child's history may be left on the device for
    // the second life to trip over.
    let device = InMemoryDevice::new();
    let mut h = Harness::with(durable_config(Arc::new(device.clone())), 1_000);
    let alice = h.alice.clone();
    let validator = h.rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    // A root block installs both accounts, so the journal holds them.
    h.rt.step().unwrap();
    let records = |device: &InMemoryDevice| {
        let fork: Arc<dyn Persistence> = Arc::new(device.fork());
        Wal::open(fork, CONTROL_LOG, WalOptions::default()).1.len()
    };
    let before_spawn = records(&device);

    // The child's life: booted, funded, a few blocks of its own.
    let live = |rt: &mut HierarchyRuntime| {
        let sa = hc_actors::sa::SaConfig::default();
        let stake = [(validator.clone(), whole(5))];
        let child = rt.spawn_subnet(&alice, sa, whole(10), &stake).unwrap();
        let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
        rt.run_until_quiescent(200_000).unwrap();
        rt.submit(&bob, alice.addr, whole(1), hc_state::Method::Send)
            .unwrap();
        rt.run_blocks(8).unwrap();
        rt.run_until_quiescent(200_000).unwrap();
        child
    };
    let dead_child = live(&mut h.rt);
    assert!(h.rt.node(&dead_child).unwrap().chain().len() > 2);
    assert!(records(&device) > before_spawn);
    drop(h);

    // The power loss: the journal keeps only what preceded the spawn.
    let fork: Arc<dyn Persistence> = Arc::new(device.fork());
    let (mut control, _) = Wal::open(fork.clone(), CONTROL_LOG, WalOptions::default());
    control.truncate_after(before_spawn);
    drop(control);
    let mut rt = HierarchyRuntime::recover(durable_config(fork.clone()));
    assert!(rt.node(&dead_child).is_none(), "the spawn was lost");

    // The second history differs from the dead one before it re-spawns.
    rt.submit(&alice, validator.addr, whole(7), hc_state::Method::Send)
        .unwrap();
    rt.run_until_quiescent(200_000).unwrap();
    let child = live(&mut rt);
    assert_eq!(child, dead_child, "the re-spawned subnet reuses the id");
    let expected = fingerprint(&rt);
    drop(rt);

    let rt = HierarchyRuntime::recover(durable_config(fork));
    assert_eq!(
        fingerprint(&rt),
        expected,
        "the dead child's history leaked into the second life's recovery"
    );
}

#[test]
fn on_disk_backend_recovers_and_leaves_no_stray_files() {
    // Tmpdir hygiene: the on-disk backend writes only under its root, the
    // root lives under the system temp dir, and the test removes it.
    let mut root = std::env::temp_dir();
    root.push(format!("hc-persistence-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let config = || RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::on_disk_with_fsync(&root, FsyncPolicy::Always),
        ..RuntimeConfig::default()
    };
    let world = loaded(config(), 2);
    let expected = fingerprint(&world.h.rt);
    drop(world);

    let rt = HierarchyRuntime::recover(config());
    assert_eq!(fingerprint(&rt), expected, "on-disk recovery diverged");
    let device = rt.persistence_device().expect("durable runtime");
    for stream in device.streams() {
        assert!(
            !stream.contains(".."),
            "stream {stream:?} escapes the device root"
        );
    }
    drop(rt);

    std::fs::remove_dir_all(&root).expect("device root is removable");
    assert!(!root.exists());
}

#[test]
fn manifest_gc_prunes_dead_blobs_and_survives_recovery() {
    // keep_manifests caps the per-subnet snapshot history; blobs only
    // reachable from evicted manifests are pruned from the store and
    // compacted out of the blob log — and recovery replays the same sweeps.
    let device = InMemoryDevice::new();
    let config = || RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device.clone()),
            wal: WalOptions::default(),
            keep_manifests: 2,
        }),
        ..RuntimeConfig::default()
    };
    let mut world = loaded(config(), 2);
    // Drive enough checkpoint periods to evict manifests from the window.
    for round in 0..6 {
        for (a, b) in &world.pairs {
            let (from, to) = if round % 2 == 0 { (a, b) } else { (b, a) };
            world
                .h
                .rt
                .submit(from, to.addr, whole(1), hc_state::Method::Send)
                .unwrap();
        }
        world.h.settle();
    }
    let stats = world.h.rt.store_stats();
    assert!(
        stats.pruned_blobs > 0,
        "rotating snapshots past keep_manifests must prune: {stats:?}"
    );
    let expected = fingerprint(&world.h.rt);
    let expected_pruned = (stats.pruned_blobs, stats.pruned_bytes);
    drop(world);

    let rt = HierarchyRuntime::recover(config());
    assert_eq!(fingerprint(&rt), expected, "recovery after GC diverged");
    let stats = rt.store_stats();
    assert_eq!(
        (stats.pruned_blobs, stats.pruned_bytes),
        expected_pruned,
        "replay must reproduce the same GC sweeps"
    );
}

#[test]
fn manual_prune_reclaims_untracked_blobs() {
    let device = InMemoryDevice::new();
    let World { mut h, .. } = loaded(durable_config(Arc::new(device)), 1);
    // Park a blob in the shared store that no snapshot manifest references.
    h.rt.cid_store()
        .put(b"orphaned resolution payload".to_vec());
    let before = h.rt.store_stats();
    let (blobs, bytes) = h.rt.prune_blobs();
    assert!(blobs >= 1, "the orphaned blob must be reclaimed");
    assert!(bytes >= b"orphaned resolution payload".len() as u64);
    let after = h.rt.store_stats();
    assert_eq!(after.pruned_blobs, before.pruned_blobs + blobs);
    // The live snapshot manifests survive the sweep.
    h.settle();
}

/// Every block of `rt`'s subnets that this process has seen, by epoch:
/// `seen` gains what the chains hold now. A crashed node holds no chain,
/// so callers harvest before a crash and before the runtime is dropped. A
/// block seen twice is the same block.
fn harvest(rt: &HierarchyRuntime, seen: &mut BTreeMap<SubnetId, BTreeMap<u64, hc_chain::Block>>) {
    for subnet in rt.subnets() {
        let chain = seen.entry(subnet.clone()).or_default();
        for block in rt.node(subnet).unwrap().chain().iter() {
            let (epoch, cid) = (block.header.epoch.value(), block.cid());
            let kept = chain.entry(epoch).or_insert_with(|| block.into_owned());
            assert_eq!(kept.cid(), cid, "{subnet}: two blocks at epoch {epoch}");
        }
    }
}

/// State changes only through blocks: every block a run committed
/// re-executes, on a fresh genesis tree of its subnet and by the blocks
/// alone, to its header's state root. The run creates and adopts accounts
/// mid-run at the root and in children, lets the elastic controller split
/// a hot root and migrate its accounts, crashes and rejoins the split-off
/// child under each sync mode, and recovers the whole runtime from its
/// journal — at one worker and at four.
#[test]
fn every_block_re_executes_from_genesis_by_its_blocks_alone() {
    use hc_chain::{execute_block_with, ExecOptions};
    use hc_core::{ElasticController, SyncMode};

    for (parallelism, sync_mode) in [
        (1, SyncMode::Replay),
        (4, SyncMode::Snapshot),
        (1, SyncMode::Snapshot),
        (4, SyncMode::Replay),
    ] {
        let device: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        let mut config = RuntimeConfig {
            parallelism,
            sync_mode,
            ..durable_config(device)
        };
        config.engine_params.block_capacity = 4;
        let mut h = Harness::with(config.clone(), 100);
        let root = SubnetId::root();
        let mut seen = BTreeMap::new();

        // A hot root: the controller's first evaluation splits it, adopts
        // the hot sender in the new child and migrates half its balance.
        let a = h.rt.create_user(&root, whole(50)).unwrap();
        let b = h.rt.create_user(&root, whole(50)).unwrap();
        let mut ctrl = ElasticController::new(h.alice.clone());
        let head = |rt: &HierarchyRuntime| rt.node(&root).unwrap().chain().head_epoch();
        while head(&h.rt).value() < 9 {
            h.rt.step_wave().unwrap();
            ctrl.poll(&mut h.rt).unwrap();
        }
        for _ in 0..20 {
            h.rt.submit_with_fee(
                &a,
                b.addr,
                TokenAmount::from_atto(10),
                hc_state::Method::Send,
                1,
            )
            .unwrap();
        }
        while ctrl.stats().splits == 0 {
            h.rt.step_wave().unwrap();
            ctrl.poll(&mut h.rt).unwrap();
        }
        let child = ctrl.children().next().unwrap().clone();
        let migrated = |c: &ElasticController| c.stats().migrations_settled;
        while migrated(&ctrl) < ctrl.stats().migrations_started.max(1) {
            h.rt.step_wave().unwrap();
            ctrl.poll(&mut h.rt).unwrap();
        }
        h.settle();

        // Accounts created and adopted mid-run, at the root and in the child.
        let carol = h.user(&child);
        h.fund(&carol, 7);
        let dave = h.rt.create_user(&root, whole(3)).unwrap();
        let dave_in_child = h.rt.adopt_user(&child, dave.addr).unwrap();
        let carol_at_root = h.rt.create_claimant(&carol).unwrap();
        h.rt.cross_transfer(&dave, &dave_in_child, whole(1))
            .unwrap();
        h.rt.submit(
            &carol_at_root,
            dave.addr,
            TokenAmount::ZERO,
            hc_state::Method::Send,
        )
        .unwrap();
        h.settle();
        assert_eq!(h.rt.balance(&dave_in_child), whole(1));

        // A crash-rejoin of the child, under the run's sync mode.
        h.commit_checkpoint(&child);
        harvest(&h.rt, &mut seen);
        h.rt.crash_node(&child).unwrap();
        h.rt.run_blocks(6).unwrap();
        h.rt.rejoin_node(&child).unwrap();
        h.settle();
        let erin = h.user(&child);
        h.fund(&erin, 2);
        let chaos = h.rt.chaos_stats();
        let synced = match sync_mode {
            SyncMode::Snapshot => chaos.snapshot_installs,
            SyncMode::Replay => chaos.blocks_caught_up.min(1),
        };
        assert_eq!((chaos.catch_ups_completed, synced), (1, 1), "{chaos:?}");

        // The whole runtime recovers from its journal and runs on.
        harvest(&h.rt, &mut seen);
        drop(h);
        let mut rt = HierarchyRuntime::recover(config);
        let frank = rt.create_user(&root, whole(4)).unwrap();
        rt.submit(&frank, a.addr, whole(1), hc_state::Method::Send)
            .unwrap();
        rt.run_until_quiescent(200_000).unwrap();
        harvest(&rt, &mut seen);

        for (subnet, blocks) in &seen {
            let sca = match subnet.parent() {
                None => hc_actors::ScaConfig::default(),
                Some(parent) => {
                    let parent = rt.node(&parent).unwrap().state();
                    let sa = parent.sa(subnet.actor().unwrap()).unwrap();
                    hc_actors::ScaConfig {
                        checkpoint_period: sa.config().checkpoint_period,
                        ..hc_actors::ScaConfig::default()
                    }
                }
            };
            let mut tree = hc_state::StateTree::genesis(subnet.clone(), sca, []);
            let epochs: Vec<u64> = blocks.keys().copied().collect();
            let dense: Vec<u64> = (1..=epochs.len() as u64).collect();
            assert_eq!(epochs, dense, "{subnet}: every block from genesis was seen");
            let opts = ExecOptions {
                sig_cache: None,
                parallelism,
            };
            for block in blocks.values() {
                let epoch = block.header.epoch;
                execute_block_with(&mut tree, block, opts).unwrap_or_else(|e| {
                    panic!("{subnet} block {epoch} at parallelism {parallelism}: {e}")
                });
            }
            let node = rt.node(subnet).unwrap();
            assert_eq!(
                tree.recompute_root(),
                node.state().recompute_root(),
                "{subnet}"
            );
        }
        assert!(seen.len() >= 2, "the split made a child");
    }
}
