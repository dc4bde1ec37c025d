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

use std::sync::Arc;

use common::fingerprint;
use hc_core::persist::{DurableOptions, CONTROL_LOG};
use hc_core::{
    ControlRecord, HierarchyRuntime, PersistenceConfig, RuntimeConfig, StepReport, UserHandle,
};
use hc_net::NetConfig;
use hc_store::crash::{corrupt_byte, truncate_stream, RecordingDevice};
use hc_store::frame::{scan_frames, FRAME_HEADER_LEN};
use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, Wal, WalOptions};
use hc_types::{CanonicalDecode, ChainEpoch, Cid, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

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

/// The handles a workload needs to keep driving a world after recovery.
struct World {
    rt: HierarchyRuntime,
    alice: UserHandle,
    subnets: Vec<SubnetId>,
    pairs: Vec<(UserHandle, UserHandle)>,
}

/// Builds the same small hierarchy under load for every caller: `children`
/// subnets off the root, two funded users in each, intra-subnet and
/// sibling-to-sibling cross-net traffic, and a saved snapshot of the first
/// subnet. Ends quiescent.
fn build_world(config: RuntimeConfig, children: usize) -> World {
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000)).unwrap();

    let mut subnets = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..children {
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let subnet = rt
            .spawn_subnet(
                &alice,
                hc_actors::sa::SaConfig::default(),
                whole(10),
                &[(validator, whole(5))],
            )
            .unwrap();
        let a = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        let b = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &a, whole(50)).unwrap();
        rt.cross_transfer(&alice, &b, whole(50)).unwrap();
        subnets.push(subnet);
        pairs.push((a, b));
    }
    rt.run_until_quiescent(200_000).unwrap();

    for (i, (a, b)) in pairs.iter().enumerate() {
        rt.submit(a, b.addr, whole(3), hc_state::Method::Send)
            .unwrap();
        let (next_a, _) = &pairs[(i + 1) % pairs.len()];
        rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
    }
    rt.run_until_quiescent(200_000).unwrap();
    rt.save_snapshot(&alice, &subnets[0]).unwrap();
    rt.run_until_quiescent(200_000).unwrap();

    World {
        rt,
        alice,
        subnets,
        pairs,
    }
}

/// Identical continuation traffic for the crashed-and-recovered world and
/// the never-crashed control: new users, new transfers, another snapshot.
fn continue_world(world: &mut World) {
    let carol = world
        .rt
        .create_user(&world.subnets[0], TokenAmount::ZERO)
        .unwrap();
    world
        .rt
        .cross_transfer(&world.alice, &carol, whole(25))
        .unwrap();
    for (a, b) in &world.pairs {
        world
            .rt
            .submit(b, a.addr, whole(1), hc_state::Method::Send)
            .unwrap();
    }
    world.rt.run_until_quiescent(200_000).unwrap();
    world
        .rt
        .save_snapshot(&world.alice, &world.subnets[0])
        .unwrap();
    world.rt.run_until_quiescent(200_000).unwrap();
    assert_eq!(world.rt.balance(&carol), whole(25));
}

/// One block of history: (block CID, epoch, state root).
type BlockRecord = (Cid, ChainEpoch, Cid);

/// Per-subnet chain history, oldest → newest.
fn chain_history(rt: &HierarchyRuntime) -> Vec<(SubnetId, Vec<BlockRecord>)> {
    rt.subnets()
        .map(|s| {
            let node = rt.node(s).unwrap();
            let blocks = node
                .chain()
                .iter()
                .map(|b| (b.cid(), b.header.epoch, b.header.state_root))
                .collect();
            (s.clone(), blocks)
        })
        .collect()
}

#[test]
fn recovery_at_quiescence_is_bit_identical_and_stays_identical() {
    let device = InMemoryDevice::new();
    let crashed = build_world(durable_config(Arc::new(device.clone())), 3);
    let expected = fingerprint(&crashed.rt);
    assert!(
        expected.iter().any(|f| !f.checkpoints.is_empty()),
        "workload must exercise the checkpoint flow"
    );
    let expected_now = crashed.rt.now_ms();
    let World {
        alice,
        subnets,
        pairs,
        ..
    } = crashed; // the runtime is dropped here — the crash

    let mut recovered = World {
        rt: HierarchyRuntime::recover(durable_config(Arc::new(device))),
        alice,
        subnets,
        pairs,
    };
    assert_eq!(
        fingerprint(&recovered.rt),
        expected,
        "recovered world differs from the one that crashed"
    );
    assert_eq!(recovered.rt.now_ms(), expected_now);

    // A control world that never crashes, driven by the same calls.
    let mut control = build_world(durable_config(Arc::new(InMemoryDevice::new())), 3);
    assert_eq!(fingerprint(&control.rt), expected);

    // The recovered world must stay bit-identical under further load.
    continue_world(&mut recovered);
    continue_world(&mut control);
    assert_eq!(
        fingerprint(&recovered.rt),
        fingerprint(&control.rt),
        "recovered world diverged from the never-crashed control under load"
    );
    assert_eq!(recovered.rt.now_ms(), control.rt.now_ms());
    hc_core::audit_quiescent(&recovered.rt).unwrap();
}

#[test]
fn replay_has_no_outward_effects_until_recovery_returns() {
    let control_log_bytes = |device: &InMemoryDevice| -> u64 {
        let streams = device.streams();
        let control = streams.iter().filter(|s| s.starts_with("control/"));
        control.map(|s| device.len(s)).sum()
    };
    let device = InMemoryDevice::new();
    let mut crashed = build_world(durable_config(Arc::new(device.clone())), 3);
    // The live run did all three outward things the replay must not redo.
    assert!(crashed.rt.net_stats().published > 0);
    assert!(!crashed.rt.drain_events().is_empty());
    let journaled = control_log_bytes(&device);
    assert!(journaled > 0);
    let expected = fingerprint(&crashed.rt);
    let World { alice, pairs, .. } = crashed; // the runtime is dropped here

    let mut rt = HierarchyRuntime::recover(durable_config(Arc::new(device.clone())));
    assert_eq!(fingerprint(&rt), expected, "the replay re-ran every block");
    assert_eq!(control_log_bytes(&device), journaled, "replay re-journaled");
    assert_eq!(rt.drain_events(), vec![], "replay re-queued events");
    assert_eq!(rt.net_stats().published, 0, "replay re-sent gossip");

    // Recovery returned: the same runtime is outward again.
    rt.cross_transfer(&pairs[0].0, &alice, whole(1)).unwrap();
    rt.run_until_quiescent(200_000).unwrap();
    assert!(control_log_bytes(&device) > journaled);
    assert!(!rt.drain_events().is_empty());
    assert!(rt.net_stats().published > 0);
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
    let crashed = build_world(config.clone(), 4);
    let World {
        alice,
        subnets,
        pairs,
        ..
    } = crashed;

    let mut recovered = World {
        rt: HierarchyRuntime::recover(config),
        alice,
        subnets,
        pairs,
    };
    let mut control = build_world(
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
            world
                .rt
                .submit(a, b.addr, whole(2), hc_state::Method::Send)
                .unwrap();
            let (next_a, _) = &world.pairs[(i + 1) % world.pairs.len()];
            world.rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
        }
    }
    for _ in 0..200_000 {
        if recovered.rt.all_quiescent() {
            break;
        }
        recovered.rt.step_wave().unwrap();
    }
    control.rt.run_until_quiescent(200_000).unwrap();
    assert_eq!(
        fingerprint(&recovered.rt),
        fingerprint(&control.rt),
        "wave-parallel continuation after recovery diverged"
    );
}

/// Checks that every chain of the recovered `rt` is a block-for-block
/// prefix of the pre-crash `history` and — unless accounts installed
/// outside any block trail the head (`trailing_installs`) — that each head
/// state root reproduces from the recovered chunks. Returns the blocks
/// recovered.
fn assert_valid_prefix(
    rt: &HierarchyRuntime,
    history: &[(SubnetId, Vec<BlockRecord>)],
    trailing_installs: bool,
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
        if let Some(node) = rt.node(&subnet).filter(|_| !trailing_installs) {
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
    let world = build_world(durable_config(Arc::new(device.clone())), 2);
    let history = chain_history(&world.rt);
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
        let recovered_blocks =
            assert_valid_prefix(&rt, &history, false, &format!("cut {cut_permille}"));
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
            let trailing = installs_trail_a_head(&fork);
            let flip = format!("flip at {stream}:{offset}");
            assert_valid_prefix(&rt, &history, trailing, &flip);
            assert_keeps_working(&mut rt);
        }
    }
}

/// Does the journal `recover` left on `device` (cut back to the prefix it
/// applied) end, for some subnet, with accounts installed after that
/// subnet's last block? Its head's state root does not cover them yet.
fn installs_trail_a_head(device: &Arc<dyn Persistence>) -> bool {
    let (_, records) = Wal::open(device.clone(), CONTROL_LOG, WalOptions::default());
    let mut trailing = std::collections::BTreeSet::new();
    for bytes in records {
        match ControlRecord::decode(&bytes).unwrap() {
            ControlRecord::UserCreated { subnet, .. }
            | ControlRecord::UserAdopted { subnet, .. } => {
                trailing.insert(subnet);
            }
            ControlRecord::Block(block) => {
                trailing.remove(&block.header.subnet);
            }
            _ => {}
        }
    }
    !trailing.is_empty()
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
    for (a, b) in &world.pairs {
        world
            .rt
            .submit(a, b.addr, whole(1), hc_state::Method::Send)
            .unwrap();
    }
    loop {
        let before = probe();
        let reports = world.rt.step_wave().unwrap();
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
    let mut world = build_world(durable_config(Arc::new(device.clone())), 3);
    let root = SubnetId::root();
    let control = "control/00000000.seg";

    // The world ended on a step, so everything journaled is synced.
    let durable_len = device.len(control);
    let syncs = device.sync_count();
    let users: Vec<UserHandle> = (0..5)
        .map(|_| world.rt.create_user(&root, whole(10)).unwrap())
        .collect();
    assert_eq!(
        device.sync_count(),
        syncs,
        "set-up records wait for a barrier"
    );
    let written_len = device.len(control);
    assert!(written_len > durable_len, "the frames are written at once");
    let history = chain_history(&world.rt);
    let total_blocks: usize = history.iter().map(|(_, b)| b.len()).sum();

    let frame = (written_len - durable_len) / users.len() as u64;
    let cuts = [
        durable_len,             // power loss: no deferred record survived
        durable_len + 1,         // … torn inside the first
        durable_len + 2 * frame, // … exactly two survived
        written_len - 1,         // … torn inside the last
        written_len,             // process crash: all of them survived
    ];
    for cut in cuts {
        let fork: Arc<dyn Persistence> = Arc::new(device.fork());
        truncate_stream(&fork, control, cut);
        let mut rt = HierarchyRuntime::recover(durable_config(fork));
        // The users that survived are a prefix of the ones created.
        let survived = ((cut - durable_len) / frame) as usize;
        let blocks =
            assert_valid_prefix(&rt, &history, survived > 0, &format!("control cut {cut}"));
        assert_eq!(blocks, total_blocks, "no block depends on the cut records");
        for (i, user) in users.iter().enumerate() {
            let expected = if i < survived { whole(10) } else { whole(0) };
            assert_eq!(rt.balance(user), expected, "user {i} at control cut {cut}");
        }
        assert_keeps_working(&mut rt);
    }

    // One step: the barrier syncs the five set-up records and the block
    // together.
    world
        .rt
        .submit(&users[0], users[1].addr, whole(1), hc_state::Method::Send)
        .unwrap();
    world.rt.step().unwrap();
    assert!(
        device.sync_count() - syncs <= 3,
        "5 x create_user + one step cost {} syncs",
        device.sync_count() - syncs
    );

    // A wave of k siblings: k block records, one barrier. (First let the
    // root commit past the accounts installed above, so its head's state
    // root covers them.)
    while world.rt.step().unwrap().subnet != root {}
    let probe = || (device.len(control), device.sync_count());
    let (wave, (durable_len, syncs)) = run_a_shared_wave(&mut world, probe);
    assert_eq!(device.sync_count() - syncs, 1, "a wave syncs once");
    let history = chain_history(&world.rt);
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
            assert_valid_prefix(&rt, &history, false, &format!("wave cut {cut}"));
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
    let mut world = build_world(config(), 3);
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
    let expected = fingerprint(&world.rt);
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
    let mut rt = HierarchyRuntime::new(durable_config(Arc::new(device.clone())));
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000)).unwrap();
    let validator = rt.create_user(&root, whole(100)).unwrap();
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
    let dead_child = live(&mut rt);
    assert!(rt.node(&dead_child).unwrap().chain().len() > 2);
    assert!(records(&device) > before_spawn);
    drop(rt);

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
        persistence: PersistenceConfig::on_disk_with_fsync(&root, FsyncPolicy::EveryN(16)),
        ..RuntimeConfig::default()
    };
    let world = build_world(config(), 2);
    let expected = fingerprint(&world.rt);
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
    let mut world = build_world(config(), 2);
    // Drive enough checkpoint periods to evict manifests from the window.
    for round in 0..6 {
        for (a, b) in &world.pairs {
            let (from, to) = if round % 2 == 0 { (a, b) } else { (b, a) };
            world
                .rt
                .submit(from, to.addr, whole(1), hc_state::Method::Send)
                .unwrap();
        }
        world.rt.run_until_quiescent(200_000).unwrap();
    }
    let stats = world.rt.store_stats();
    assert!(
        stats.pruned_blobs > 0,
        "rotating snapshots past keep_manifests must prune: {stats:?}"
    );
    let expected = fingerprint(&world.rt);
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
    let mut world = build_world(durable_config(Arc::new(device)), 1);
    // Park a blob in the shared store that no snapshot manifest references.
    world
        .rt
        .cid_store()
        .put(b"orphaned resolution payload".to_vec());
    let before = world.rt.store_stats();
    let (blobs, bytes) = world.rt.prune_blobs();
    assert!(blobs >= 1, "the orphaned blob must be reclaimed");
    assert!(bytes >= b"orphaned resolution payload".len() as u64);
    let after = world.rt.store_stats();
    assert_eq!(after.pruned_blobs, before.pruned_blobs + blobs);
    // The live snapshot manifests survive the sweep.
    world.rt.run_until_quiescent(200_000).unwrap();
    hc_core::audit_quiescent(&world.rt).unwrap();
}
