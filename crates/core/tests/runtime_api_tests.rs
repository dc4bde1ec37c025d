//! API-surface tests of the runtime: per-subnet engine parameters, queue
//! pruning, tentative balances, error paths, and determinism guarantees.

mod common;

use std::sync::Arc;

use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_consensus::EngineParams;
use hc_core::{
    HierarchyRuntime, PersistenceConfig, PlacementPolicy, RuntimeConfig, RuntimeError, SyncMode,
    UserHandle,
};
use hc_net::{NetConfig, RegionMap};
use hc_state::Method;
use hc_store::InMemoryDevice;
use hc_types::{Address, Nonce, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

fn base() -> (HierarchyRuntime, UserHandle) {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let alice = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();
    (rt, alice)
}

#[test]
fn per_subnet_engine_parameters_take_effect() {
    let (mut rt, alice) = base();
    let v1 = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let v2 = rt.create_user(&SubnetId::root(), whole(100)).unwrap();

    // A fast 100 ms subnet and a slow 5 s subnet.
    let fast = rt
        .spawn_subnet_with_params(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(v1, whole(5))],
            EngineParams {
                block_time_ms: 100,
                ..EngineParams::default()
            },
        )
        .unwrap();
    let slow = rt
        .spawn_subnet_with_params(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(v2, whole(5))],
            EngineParams {
                block_time_ms: 5_000,
                ..EngineParams::default()
            },
        )
        .unwrap();

    rt.run_blocks(200).unwrap();
    let fast_blocks = rt.node(&fast).unwrap().stats().blocks;
    let slow_blocks = rt.node(&slow).unwrap().stats().blocks;
    assert!(
        fast_blocks > 10 * slow_blocks,
        "fast {fast_blocks} vs slow {slow_blocks}"
    );
    assert!((90.0..300.0).contains(&rt.node(&fast).unwrap().mean_block_interval_ms()));
}

#[test]
fn topdown_registry_is_pruned_after_sync() {
    let (mut rt, alice) = base();
    let v = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    for _ in 0..10 {
        rt.cross_transfer(&alice, &bob, whole(1)).unwrap();
    }
    rt.run_until_quiescent(10_000).unwrap();
    assert_eq!(rt.balance(&bob), whole(10));
    // After the child pulled and applied everything, the parent registry
    // holds nothing below the child's next nonce.
    let remaining = rt
        .node(&SubnetId::root())
        .unwrap()
        .state()
        .sca()
        .top_down_msgs(&subnet, Nonce::ZERO);
    assert!(
        remaining.is_empty(),
        "registry should be pruned, found {} msgs",
        remaining.len()
    );
}

#[test]
fn error_paths_are_descriptive() {
    let (mut rt, alice) = base();
    // Unknown subnet.
    let ghost = SubnetId::root().child(Address::new(404));
    assert!(matches!(
        rt.create_user(&ghost, TokenAmount::ZERO),
        Err(RuntimeError::UnknownSubnet(_))
    ));
    // Minting off-root is refused.
    let v = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])
        .unwrap();
    assert!(matches!(
        rt.create_user(&subnet, whole(1)),
        Err(RuntimeError::NonRootMint)
    ));
    // Unknown user.
    let stranger = UserHandle {
        subnet: SubnetId::root(),
        addr: Address::new(99_999),
    };
    assert!(matches!(
        rt.submit(&stranger, alice.addr, whole(1), hc_state::Method::Send),
        Err(RuntimeError::UnknownUser(_))
    ));
    // Under-collateralized spawn.
    let err = rt
        .spawn_subnet(&alice, SaConfig::default(), whole(1), &[])
        .unwrap_err();
    assert!(err.to_string().contains("collateral"), "{err}");
}

#[test]
fn mixed_block_times_still_converge_and_audit() {
    let (mut rt, alice) = base();
    let mut subnets = Vec::new();
    for (i, ms) in [100u64, 1_000, 3_000].iter().enumerate() {
        let v = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
        let s = rt
            .spawn_subnet_with_params(
                &alice,
                SaConfig {
                    consensus: if i == 0 {
                        ConsensusKind::Tendermint
                    } else {
                        ConsensusKind::RoundRobin
                    },
                    ..SaConfig::default()
                },
                whole(10),
                &[(v, whole(5))],
                EngineParams {
                    block_time_ms: *ms,
                    ..EngineParams::default()
                },
            )
            .unwrap();
        subnets.push(s);
    }
    // Cross transfers between the fastest and slowest subnets.
    let fast_user = rt.create_user(&subnets[0], TokenAmount::ZERO).unwrap();
    let slow_user = rt.create_user(&subnets[2], TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &fast_user, whole(50)).unwrap();
    rt.cross_transfer(&alice, &slow_user, whole(50)).unwrap();
    rt.run_until_quiescent(100_000).unwrap();
    rt.cross_transfer(&fast_user, &slow_user, whole(20))
        .unwrap();
    rt.cross_transfer(&slow_user, &fast_user, whole(10))
        .unwrap();
    let blocks = rt.run_until_quiescent(100_000).unwrap();
    assert!(blocks < 100_000);
    assert_eq!(rt.balance(&fast_user), whole(40));
    assert_eq!(rt.balance(&slow_user), whole(60));
    hc_core::audit_quiescent(&rt).unwrap();
}

/// Root plus three children under the default *jittered* network, loaded
/// with intra-subnet sends and sibling-to-sibling transfers that are still
/// queued when this returns — identical in every call, so twins differ
/// only in how the drain is stepped.
fn loaded_world(parallelism: usize) -> HierarchyRuntime {
    let mut rt = HierarchyRuntime::new(RuntimeConfig {
        parallelism,
        ..RuntimeConfig::default()
    });
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000)).unwrap();
    let mut pairs = Vec::new();
    for _ in 0..3 {
        let v = rt.create_user(&root, whole(100)).unwrap();
        let subnet = rt
            .spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])
            .unwrap();
        let a = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        let b = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &a, whole(50)).unwrap();
        rt.cross_transfer(&alice, &b, whole(50)).unwrap();
        pairs.push((a, b));
    }
    rt.run_until_quiescent(100_000).unwrap();
    for (i, (a, b)) in pairs.iter().enumerate() {
        rt.submit(a, b.addr, whole(3), Method::Send).unwrap();
        let (next_a, _) = &pairs[(i + 1) % pairs.len()];
        rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
    }
    rt
}

/// Drives `rt` to quiescence with `advance`, which returns how many blocks
/// it produced.
fn drain(rt: &mut HierarchyRuntime, mut advance: impl FnMut(&mut HierarchyRuntime) -> usize) {
    let mut blocks = 0;
    while !rt.all_quiescent() {
        blocks += advance(rt);
        assert!(blocks < 100_000, "drain did not quiesce");
    }
}

#[test]
fn a_step_is_a_tick_of_the_earliest_subnet_and_waves_ignore_the_worker_count() {
    // `step` and a hand-rolled loop over `tick_subnet` are the same wave
    // of one, so even the jittered network's shared RNG sees one order.
    let mut stepped = loaded_world(1);
    drain(&mut stepped, |rt| {
        rt.step().unwrap();
        1
    });
    let mut ticked = loaded_world(1);
    drain(&mut ticked, |rt| {
        let earliest = rt
            .subnets()
            .min_by_key(|s| (rt.node(s).unwrap().next_block_at_ms(), (*s).clone()))
            .unwrap()
            .clone();
        rt.tick_subnet(&earliest).unwrap();
        1
    });
    assert_eq!(common::fingerprint(&ticked), common::fingerprint(&stepped));
    assert_eq!(ticked.now_ms(), stepped.now_ms());
    assert_eq!(ticked.net_stats(), stepped.net_stats());
    assert!(
        common::fingerprint(&stepped)
            .iter()
            .any(|f| !f.checkpoints.is_empty()),
        "load must exercise the checkpoint flow"
    );

    // Waves publish in a different order than single steps do, but how
    // many workers run a wave never shows.
    let mut serial = loaded_world(1);
    drain(&mut serial, |rt| rt.step_wave().unwrap().len());
    let mut threaded = loaded_world(4);
    drain(&mut threaded, |rt| rt.step_wave().unwrap().len());
    assert_eq!(common::fingerprint(&threaded), common::fingerprint(&serial));
    assert_eq!(threaded.now_ms(), serial.now_ms());
    assert_eq!(threaded.net_stats(), serial.net_stats());
}

#[test]
fn execute_returns_the_awaited_receipt_whenever_and_however_it_lands() {
    // Four messages per block: top-down applies alone fill the child's
    // next blocks, so a user message waits for a later one.
    let mut rt = HierarchyRuntime::new(RuntimeConfig {
        engine_params: EngineParams {
            block_capacity: 4,
            ..EngineParams::default()
        },
        ..RuntimeConfig::default()
    });
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000)).unwrap();
    let v = rt.create_user(&root, whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    let carol = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(50)).unwrap();
    rt.cross_transfer(&alice, &carol, whole(50)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();

    // Backlog: twelve top-down transfers committed at the root, none yet
    // pulled by the child.
    for _ in 0..12 {
        rt.cross_transfer_lazy(&alice, &bob, whole(1)).unwrap();
    }
    while rt.node(&root).unwrap().mempool_len() > 0 {
        rt.tick_subnet(&root).unwrap();
    }
    let head_before = rt.node(&subnet).unwrap().chain().head_epoch();
    let key = b"k".to_vec();
    let put = Method::PutData {
        key: key.clone(),
        data: b"bob".to_vec(),
    };
    let receipt = rt.execute(&bob, bob.addr, TokenAmount::ZERO, put).unwrap();
    assert!(receipt.exit.is_ok());
    let waited = rt
        .node(&subnet)
        .unwrap()
        .chain()
        .head_epoch()
        .since(head_before);
    assert!(waited >= 2, "included in block {waited} after submission");
    assert_eq!(rt.balance(&bob), whole(50 + 12));

    // Interleaved callers each get their own message's receipt: gas is
    // priced by payload size, so the two receipts differ.
    let small = Method::PutData {
        key: key.clone(),
        data: vec![1],
    };
    let large = Method::PutData {
        key,
        data: vec![2; 64],
    };
    let r_bob = rt
        .execute(&bob, bob.addr, TokenAmount::ZERO, small)
        .unwrap();
    let r_carol = rt
        .execute(&carol, carol.addr, TokenAmount::ZERO, large)
        .unwrap();
    assert!(r_carol.gas_used > r_bob.gas_used);

    // A failed execution surfaces as an error carrying the exit text.
    let err = rt
        .execute(&carol, bob.addr, whole(1_000), Method::Send)
        .unwrap_err();
    let RuntimeError::Execution(why) = &err else {
        panic!("expected an execution error, got {err:?}");
    };
    assert!(why.contains("insufficient"), "{why}");
    // Nothing stays awaited: later blocks keep no receipt.
    assert_eq!(rt.balance(&carol), whole(50));
}

#[test]
fn a_retired_subnet_leaves_no_residue_in_any_owner() {
    let device = InMemoryDevice::new();
    let config = |device: &InMemoryDevice| RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            regions: RegionMap::named(&["us", "eu"]),
            ..NetConfig::default()
        },
        placement: PlacementPolicy::RoundRobin,
        persistence: PersistenceConfig::on_device(Arc::new(device.clone())),
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let sa = || SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut rt = HierarchyRuntime::new(config(&device));
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000)).unwrap();
    let doomed = rt
        .spawn_subnet(&alice, sa(), whole(10), &[(alice.clone(), whole(5))])
        .unwrap();
    let bob = rt.create_user(&doomed, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
    rt.run_blocks(30).unwrap();
    rt.run_until_quiescent(4_000).unwrap();

    // Every owner holds something of the subnet: a placement, an anchored
    // manifest the GC pins, a wallet.
    assert_eq!(rt.region_of_subnet(&doomed), Some("eu"));
    let (_, manifest) = rt.checkpoint_anchor(&doomed).expect("a checkpoint was cut");
    rt.prune_blobs();
    assert!(rt.cid_store().contains(&manifest));
    rt.submit(&bob, bob.addr, TokenAmount::ZERO, Method::Send)
        .unwrap();
    rt.run_until_quiescent(4_000).unwrap();

    rt.save_snapshot(&alice, &doomed).unwrap();
    let kill = Method::KillSubnet;
    rt.execute(&alice, doomed.actor().unwrap(), TokenAmount::ZERO, kill)
        .unwrap();
    rt.retire_subnet(&doomed).unwrap();

    assert_eq!(rt.region_of_subnet(&doomed), None);
    assert_eq!(rt.checkpoint_anchor(&doomed), None);
    assert!(!rt.is_crashed(&doomed) && !rt.is_catching_up(&doomed));
    assert!(matches!(
        rt.submit(&bob, bob.addr, TokenAmount::ZERO, Method::Send),
        Err(RuntimeError::UnknownUser(_))
    ));
    let (pruned, _) = rt.prune_blobs();
    assert!(pruned > 0 && !rt.cid_store().contains(&manifest));

    // A sibling spawned afterwards lives a full life on the same owners:
    // crash, snapshot-rejoin, and a whole-runtime recovery.
    let sibling = rt
        .spawn_subnet(&alice, sa(), whole(10), &[(alice.clone(), whole(5))])
        .unwrap();
    let carol = rt.create_user(&sibling, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &carol, whole(7)).unwrap();
    rt.run_blocks(30).unwrap();
    rt.run_until_quiescent(4_000).unwrap();
    assert!(rt.checkpoint_anchor(&sibling).is_some());
    rt.crash_node(&sibling).unwrap();
    rt.cross_transfer(&alice, &carol, whole(2)).unwrap();
    rt.run_blocks(4).unwrap();
    rt.rejoin_node(&sibling).unwrap();
    let blocks = rt.run_until_quiescent(100_000).unwrap();
    assert!(blocks < 100_000, "the sibling must reconverge");
    assert_eq!(rt.chaos_stats().snapshot_installs, 1);
    assert_eq!(rt.balance(&carol), whole(9));
    hc_core::audit_quiescent(&rt).unwrap();

    let heads = |rt: &HierarchyRuntime| -> Vec<_> {
        common::fingerprint(rt)
            .into_iter()
            .map(|f| (f.subnet, f.head, f.state_root))
            .collect()
    };
    let live = heads(&rt);
    drop(rt);
    let recovered = HierarchyRuntime::recover(config(&device));
    assert_eq!(heads(&recovered), live);
    assert!(recovered.node(&doomed).is_none());
    assert_eq!(recovered.balance(&carol), whole(9));
}
