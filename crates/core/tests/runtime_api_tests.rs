//! API-surface tests of the runtime: per-subnet engine parameters, queue
//! pruning, tentative balances, error paths, and determinism guarantees.

mod common;

use std::sync::Arc;

use common::{expect_exit, whole, Harness};
use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_consensus::EngineParams;
use hc_core::{
    HierarchyRuntime, PersistenceConfig, PlacementPolicy, RuntimeConfig, RuntimeError, SyncMode,
    UserHandle,
};
use hc_net::{NetConfig, RegionMap};
use hc_state::Method;
use hc_store::InMemoryDevice;
use hc_types::{Address, Keypair, Nonce, SubnetId, TokenAmount};

#[test]
fn per_subnet_engine_parameters_take_effect() {
    let mut h = Harness::setup();
    let (rt, alice) = (&mut h.rt, h.alice.clone());
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
fn topdown_messages_are_delivered_and_applied_in_order() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    for _ in 0..10 {
        h.rt.cross_transfer(&h.alice, &bob, whole(1)).unwrap();
    }
    h.settle();
    assert_eq!(h.rt.balance(&bob), whole(10));
    // Each message reached the child as its parent committed it, and the
    // child applied all ten: nothing waits in its pool.
    let pool = h.rt.node(&subnet).unwrap().cross_pool();
    assert_eq!(pool.pending_top_down(), 0);
    assert_eq!(pool.next_top_down_nonce(), Nonce::new(10));
}

#[test]
fn error_paths_are_descriptive() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    // Unknown subnet.
    let ghost = SubnetId::root().child(Address::new(404));
    assert!(matches!(
        h.rt.create_user(&ghost, TokenAmount::ZERO),
        Err(RuntimeError::UnknownSubnet(_))
    ));
    // Minting off-root is refused.
    let subnet = h.spawn(&alice, SaConfig::default());
    assert!(matches!(
        h.rt.create_user(&subnet, whole(1)),
        Err(RuntimeError::NonRootMint)
    ));
    // Under-collateralized spawn.
    let spawn =
        h.rt.spawn_subnet(&alice, SaConfig::default(), whole(1), &[]);
    expect_exit(spawn, "collateral");
}

#[test]
fn a_forged_handle_is_rejected_by_the_vm() {
    let mut h = Harness::setup();
    let root = SubnetId::root();
    let alice = h.alice.clone();
    let bob = h.user(&root);
    // The next root block installs both accounts.
    h.rt.step().unwrap();
    // Alice's address with another key: the node admits the message, and
    // its VM rejects it when a block carries it.
    let forged = UserHandle {
        key: Keypair::from_seed([0x4d; 32]),
        ..alice.clone()
    };
    let account_nonce = |h: &Harness| {
        let node = h.rt.node(&root).unwrap();
        node.state().accounts().get(alice.addr).unwrap().nonce
    };
    let nonce = account_nonce(&h);
    let before = (h.rt.balance(&alice), h.rt.balance(&bob));
    let forged_send = h.rt.execute(&forged, bob.addr, whole(1), Method::Send);
    expect_exit(forged_send, "signature key does not match account key");
    assert_eq!((h.rt.balance(&alice), h.rt.balance(&bob)), before);
    // A rejected message moves no floor: alice's own message is signed at
    // the same nonce, and lands.
    assert_eq!(account_nonce(&h), nonce);
    assert_eq!(h.rt.node(&root).unwrap().next_nonce(alice.addr), nonce);
    h.rt.execute(&alice, bob.addr, whole(1), Method::Send)
        .unwrap();
    assert_eq!(account_nonce(&h), nonce.next());
    assert_eq!(h.rt.balance(&bob), whole(1));
    h.check_state();
}

#[test]
fn a_handle_never_prints_its_secret() {
    let secret: [u8; 32] = std::array::from_fn(|i| 0x80 + 3 * i as u8);
    let handle = UserHandle {
        subnet: SubnetId::root(),
        addr: Address::new(100),
        key: Keypair::from_seed(secret),
    };
    let hex: String = secret.iter().map(|b| format!("{b:02x}")).collect();
    for shown in [format!("{handle:?}"), format!("{handle:#?}")] {
        assert!(shown.contains(&handle.key.public().to_string()), "{shown}");
        for leaked in [
            format!("{secret:?}"),
            format!("{:?}", &secret[..4]),
            hex.clone(),
            hex[..8].to_string(),
            hex.to_uppercase()[..8].to_string(),
        ] {
            assert!(!shown.contains(&leaked), "{shown} prints {leaked}");
        }
    }
}

#[test]
fn mixed_block_times_still_converge_and_audit() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let mut subnets = Vec::new();
    for (i, ms) in [100u64, 1_000, 3_000].iter().enumerate() {
        let v = h.rt.create_user(&SubnetId::root(), whole(100)).unwrap();
        let s =
            h.rt.spawn_subnet_with_params(
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
    let fast_user = h.user(&subnets[0]);
    let slow_user = h.user(&subnets[2]);
    h.rt.cross_transfer(&alice, &fast_user, whole(50)).unwrap();
    h.fund(&slow_user, 50);
    h.rt.cross_transfer(&fast_user, &slow_user, whole(20))
        .unwrap();
    h.rt.cross_transfer(&slow_user, &fast_user, whole(10))
        .unwrap();
    let blocks = h.settle();
    assert!(blocks < 100_000);
    assert_eq!(h.rt.balance(&fast_user), whole(40));
    assert_eq!(h.rt.balance(&slow_user), whole(60));
}

/// Root plus three children under the default *jittered* network, loaded
/// with intra-subnet sends and sibling-to-sibling transfers that are still
/// queued when this returns — identical in every call, so twins differ
/// only in how the drain is stepped.
fn loaded(parallelism: usize) -> HierarchyRuntime {
    let config = RuntimeConfig {
        parallelism,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let mut pairs = Vec::new();
    for _ in 0..3 {
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let (a, b) = (h.user(&subnet), h.user(&subnet));
        h.rt.cross_transfer(&h.alice, &a, whole(50)).unwrap();
        h.rt.cross_transfer(&h.alice, &b, whole(50)).unwrap();
        pairs.push((a, b));
    }
    h.settle();
    for (i, (a, b)) in pairs.iter().enumerate() {
        h.rt.submit(a, b.addr, whole(3), Method::Send).unwrap();
        let (next_a, _) = &pairs[(i + 1) % pairs.len()];
        h.rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
    }
    h.rt
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
    let mut stepped = loaded(1);
    drain(&mut stepped, |rt| {
        rt.step().unwrap();
        1
    });
    let mut ticked = loaded(1);
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
    let mut serial = loaded(1);
    drain(&mut serial, |rt| rt.step_wave().unwrap().len());
    let mut threaded = loaded(4);
    drain(&mut threaded, |rt| rt.step_wave().unwrap().len());
    assert_eq!(common::fingerprint(&threaded), common::fingerprint(&serial));
    assert_eq!(threaded.now_ms(), serial.now_ms());
    assert_eq!(threaded.net_stats(), serial.net_stats());
}

#[test]
fn execute_returns_the_awaited_receipt_whenever_and_however_it_lands() {
    // Four messages per block: top-down applies alone fill the child's
    // next blocks, so a user message waits for a later one.
    let config = RuntimeConfig {
        engine_params: EngineParams {
            block_capacity: 4,
            ..EngineParams::default()
        },
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let (root, alice) = (SubnetId::root(), h.alice.clone());
    let subnet = h.spawn(&alice, SaConfig::default());
    let (bob, carol) = (h.user(&subnet), h.user(&subnet));
    h.rt.cross_transfer(&alice, &bob, whole(50)).unwrap();
    h.fund(&carol, 50);

    // Backlog: twelve top-down transfers committed at the root, none yet
    // pulled by the child.
    for _ in 0..12 {
        h.rt.cross_transfer_lazy(&alice, &bob, whole(1)).unwrap();
    }
    while h.rt.node(&root).unwrap().mempool_len() > 0 {
        h.rt.tick_subnet(&root).unwrap();
    }
    let head_before = h.rt.node(&subnet).unwrap().chain().head_epoch();
    let key = b"k".to_vec();
    let put = Method::PutData {
        key: key.clone().into(),
        data: b"bob".as_slice().into(),
    };
    let receipt =
        h.rt.execute(&bob, bob.addr, TokenAmount::ZERO, put)
            .unwrap();
    assert!(receipt.exit.is_ok());
    let waited =
        h.rt.node(&subnet)
            .unwrap()
            .chain()
            .head_epoch()
            .since(head_before);
    assert!(waited >= 2, "included in block {waited} after submission");
    assert_eq!(h.rt.balance(&bob), whole(50 + 12));

    // Interleaved callers each get their own message's receipt: gas is
    // priced by payload size, so the two receipts differ.
    let small = Method::PutData {
        key: key.clone().into(),
        data: vec![1].into(),
    };
    let large = Method::PutData {
        key: key.into(),
        data: vec![2; 64].into(),
    };
    let r_bob =
        h.rt.execute(&bob, bob.addr, TokenAmount::ZERO, small)
            .unwrap();
    let r_carol =
        h.rt.execute(&carol, carol.addr, TokenAmount::ZERO, large)
            .unwrap();
    assert!(r_carol.gas_used > r_bob.gas_used);

    // A failed execution surfaces as an error carrying the exit text.
    let err =
        h.rt.execute(&carol, bob.addr, whole(1_000), Method::Send)
            .unwrap_err();
    let RuntimeError::Execution(why) = &err else {
        panic!("expected an execution error, got {err:?}");
    };
    assert!(why.contains("insufficient"), "{why}");
    // Nothing stays awaited: later blocks keep no receipt.
    assert_eq!(h.rt.balance(&carol), whole(50));
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
    let mut h = Harness::with(config(&device), 1_000);
    let alice = h.alice.clone();
    let stake = [(alice.clone(), whole(5))];
    let doomed = h.rt.spawn_subnet(&alice, sa(), whole(10), &stake).unwrap();
    let bob = h.user(&doomed);
    h.rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
    h.rt.run_blocks(30).unwrap();
    h.settle();

    // Every owner holds something of the subnet: a placement, an anchored
    // manifest the GC pins, a record.
    assert_eq!(h.rt.region_of_subnet(&doomed), Some("eu"));
    let (_, manifest) =
        h.rt.checkpoint_anchor(&doomed)
            .expect("a checkpoint was cut");
    h.rt.prune_blobs();
    assert!(h.rt.cid_store().contains(&manifest));
    h.rt.submit(&bob, bob.addr, TokenAmount::ZERO, Method::Send)
        .unwrap();
    h.settle();

    h.rt.save_snapshot(&alice, &doomed).unwrap();
    let kill = Method::KillSubnet;
    h.rt.execute(&alice, doomed.actor().unwrap(), TokenAmount::ZERO, kill)
        .unwrap();
    h.rt.retire_subnet(&doomed).unwrap();

    assert_eq!(h.rt.region_of_subnet(&doomed), None);
    assert_eq!(h.rt.checkpoint_anchor(&doomed), None);
    assert!(!h.rt.is_crashed(&doomed) && !h.rt.is_catching_up(&doomed));
    assert!(matches!(
        h.rt.submit(&bob, bob.addr, TokenAmount::ZERO, Method::Send),
        Err(RuntimeError::UnknownSubnet(_))
    ));
    let (pruned, _) = h.rt.prune_blobs();
    assert!(pruned > 0 && !h.rt.cid_store().contains(&manifest));

    // A sibling spawned afterwards lives a full life on the same owners:
    // crash, snapshot-rejoin, and a whole-runtime recovery.
    let sibling = h.rt.spawn_subnet(&alice, sa(), whole(10), &stake).unwrap();
    let carol = h.user(&sibling);
    h.rt.cross_transfer(&alice, &carol, whole(7)).unwrap();
    h.rt.run_blocks(30).unwrap();
    h.settle();
    assert!(h.rt.checkpoint_anchor(&sibling).is_some());
    h.rt.crash_node(&sibling).unwrap();
    h.rt.cross_transfer(&alice, &carol, whole(2)).unwrap();
    h.rt.run_blocks(4).unwrap();
    h.rt.rejoin_node(&sibling).unwrap();
    let blocks = h.settle();
    assert!(blocks < 100_000, "the sibling must reconverge");
    assert_eq!(h.rt.chaos_stats().snapshot_installs, 1);
    assert_eq!(h.rt.balance(&carol), whole(9));

    let heads = |rt: &HierarchyRuntime| -> Vec<_> {
        common::fingerprint(rt)
            .into_iter()
            .map(|f| (f.subnet, f.head, f.state_root))
            .collect()
    };
    let live = heads(&h.rt);
    drop(h);
    let recovered = HierarchyRuntime::recover(config(&device));
    assert_eq!(heads(&recovered), live);
    assert!(recovered.node(&doomed).is_none());
    assert_eq!(recovered.balance(&carol), whole(9));
}
