//! Unit-level coverage of the elastic scale-out machinery: account
//! adoption, subnet retirement guards, the manual merge path, pool
//! observability, the controller's split/merge policy, and durable
//! recovery of an adoption (in the block that installed it) and of the
//! `SubnetRetired` control record.

mod common;

use std::sync::Arc;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::{
    audit_quiescent, ElasticController, HierarchyRuntime, PersistenceConfig, PlacementPolicy,
    RuntimeConfig, RuntimeError, UserHandle,
};
use hc_net::{NetConfig, RegionMap};
use hc_state::Method;
use hc_store::InMemoryDevice;
use hc_types::{Address, SubnetId, TokenAmount};

/// Spawns a child that the root user operates: spawner and sole staker,
/// like the elastic controller's split.
fn spawn_operated(h: &mut Harness) -> SubnetId {
    let stake = [(h.alice.clone(), whole(5))];
    let child =
        h.rt.spawn_subnet(&h.alice, SaConfig::default(), whole(10), &stake)
            .unwrap();
    h.check_state();
    child
}

#[test]
fn adopt_user_preserves_identity_and_is_idempotent() {
    let mut h = Harness::with(RuntimeConfig::default(), 1_000);
    let (alice, child) = (h.alice.clone(), spawn_operated(&mut h));

    // Adoption installs the same logical account — same address, same
    // derived key — with no balance minted.
    let identity = |u: &UserHandle| (u.subnet.clone(), u.addr, u.key.public());
    let new_home = h.rt.adopt_user(&child, alice.addr).unwrap();
    assert_eq!(
        identity(&new_home),
        (child.clone(), alice.addr, alice.key.public())
    );
    assert_eq!(h.rt.balance(&new_home), TokenAmount::ZERO);
    let again = h.rt.adopt_user(&child, alice.addr).unwrap();
    assert_eq!(identity(&again), identity(&new_home));

    // The migration shape: fund the new home from the old one.
    h.rt.cross_transfer_lazy_with_fee(&alice, &new_home, whole(25), u64::MAX)
        .unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&new_home), whole(25));

    // The adopted account transacts at its new home under its own key.
    let bob = h.user(&child);
    h.rt.submit(&new_home, bob.addr, whole(5), Method::Send)
        .unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&bob), whole(5));
    assert_eq!(h.rt.balance(&new_home), whole(20));
}

#[test]
fn retire_subnet_enforces_lifecycle_guards() {
    // Two regions (no links, so latencies stay uniform) spread round-robin:
    // the child is placed, and retirement must forget the placement.
    let config = RuntimeConfig {
        net: NetConfig {
            regions: RegionMap::named(&["us", "eu"]),
            ..NetConfig::default()
        },
        placement: PlacementPolicy::RoundRobin,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000);
    let (alice, child) = (h.alice.clone(), spawn_operated(&mut h));
    assert_eq!(h.rt.region_of_subnet(&child), Some("eu"));
    let bob = h.user(&child);
    h.fund(&bob, 20);

    // Guards: the root never retires; a live child must be killed first.
    assert!(h.rt.retire_subnet(&SubnetId::root()).is_err());
    assert!(
        h.rt.retire_subnet(&child).is_err(),
        "retirement requires the SA to be killed on the parent"
    );

    // A crashed subnet is refused as crashed, and a rejoined one as
    // catching up — its node is out of the hierarchy, but the subnet is
    // not unknown. (Crashed while still alive: a killed subnet has no
    // validators left to catch up with.)
    h.rt.crash_node(&child).unwrap();
    assert!(matches!(
        h.rt.retire_subnet(&child),
        Err(RuntimeError::Retire(_))
    ));
    h.rt.rejoin_node(&child).unwrap();
    assert!(matches!(
        h.rt.retire_subnet(&child),
        Err(RuntimeError::Retire(_))
    ));
    h.settle();
    assert_eq!(h.rt.region_of_subnet(&child), Some("eu"));

    // The full manual merge path the controller automates: snapshot while
    // alive, kill, recover every leaf on the parent, then retire.
    h.commit_checkpoint(&child);
    let history = h.rt.verify_checkpoint_chain(&child).unwrap();
    assert!(!history.is_empty());
    let tree = h.rt.save_snapshot(&alice, &child).unwrap();
    h.rt.execute(
        &alice,
        child.actor().unwrap(),
        TokenAmount::ZERO,
        Method::KillSubnet,
    )
    .unwrap();
    let claimant = h.rt.create_claimant(&bob).unwrap();
    let proof = tree.prove(bob.addr).unwrap();
    h.rt.execute(
        &claimant,
        Address::SCA,
        TokenAmount::ZERO,
        Method::RecoverFunds {
            subnet: child.clone(),
            proof: proof.into(),
        },
    )
    .unwrap();
    assert_eq!(
        h.rt.balance(&claimant),
        whole(20),
        "the killed subnet's balance recovers on the parent"
    );

    h.rt.retire_subnet(&child).unwrap();
    assert!(h.rt.node(&child).is_none());
    assert!(!h.rt.subnets().any(|s| *s == child));
    assert_eq!(h.rt.region_of_subnet(&child), None);
    assert_eq!(
        h.rt.verify_checkpoint_chain(&child),
        Ok(history),
        "the checkpoint history stays where the parent committed it"
    );
    assert!(h.rt.retire_subnet(&child).is_err(), "retirement is final");
    h.settle();
}

/// A crashed child has no node, yet its parent is not a leaf: retiring
/// the parent would leave the child to rejoin under no chain at all.
#[test]
fn a_parent_with_a_crashed_child_is_not_retired() {
    let mut h = Harness::with(RuntimeConfig::default(), 1_000);
    let (alice, parent) = (h.alice.clone(), spawn_operated(&mut h));
    let creator = h.user(&parent);
    h.fund(&creator, 50);
    let child = h.spawn(&creator, SaConfig::default());
    h.rt.crash_node(&child).unwrap();
    h.rt.execute(
        &alice,
        parent.actor().unwrap(),
        TokenAmount::ZERO,
        Method::KillSubnet,
    )
    .unwrap();

    let refused = h.rt.retire_subnet(&parent);
    assert!(
        matches!(&refused, Err(RuntimeError::Retire(why)) if why.contains("child")),
        "{refused:?}"
    );
    assert!(h.rt.node(&parent).is_some());
    h.rt.rejoin_node(&child).unwrap();
    assert!(h.rt.is_catching_up(&child));
}

/// A crashed node's peers keep its pool: a cross-net send into a sibling
/// queued there still routes into the sibling, which is not settled — and
/// so not merged away — until the send has executed.
#[test]
fn a_crashed_siblings_pool_keeps_its_target_unsettled() {
    let mut h = Harness::with(RuntimeConfig::default(), 1_000);
    let alice = h.alice.clone();
    let target = h.spawn(&alice, SaConfig::default());
    let sibling = h.spawn(&alice, SaConfig::default());
    let (sender, receiver) = (h.user(&sibling), h.user(&target));
    h.fund(&sender, 50);
    assert!(h.rt.subnet_settled(&target));

    h.rt.cross_transfer_lazy(&sender, &receiver, whole(3))
        .unwrap();
    assert!(
        !h.rt.subnet_settled(&target),
        "the sibling's pool routes into it"
    );
    h.rt.crash_node(&sibling).unwrap();
    assert!(
        !h.rt.subnet_settled(&target),
        "the crashed sibling's peers still hold the send"
    );

    h.rt.rejoin_node(&sibling).unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&receiver), whole(3));
    assert!(h.rt.subnet_settled(&target));
}

#[test]
fn pool_stats_aggregate_admission_and_cross_backlogs() {
    let mut h = Harness::with(RuntimeConfig::default(), 1_000);
    let zero = h.rt.pool_stats();
    assert_eq!(zero.mempool_pending, 0);
    assert_eq!(zero.mempool_bytes, 0);
    assert_eq!(zero.mempool.admitted, 0);

    let alice = h.alice.clone();
    let bob = h.user(&SubnetId::root());
    for fee in 1..=3 {
        h.rt.submit_with_fee(&alice, bob.addr, whole(1), Method::Send, fee)
            .unwrap();
    }
    let queued = h.rt.pool_stats();
    assert_eq!(queued.mempool_pending, 3);
    assert!(queued.mempool_bytes > 0);
    assert_eq!(queued.mempool.admitted, 3);
    assert_eq!(
        h.rt.mempool_stats(),
        queued.mempool,
        "the mempool aggregate and the pool snapshot must agree"
    );

    // A bottom-up transfer is visible as cross-pool backlog while the
    // parent resolves the checkpoint's message content over the network
    // (top-down ingestion drains within a single wave, so only the
    // bottom-up gauge has an observable window at step granularity).
    let child = spawn_operated(&mut h);
    let carol = h.user(&child);
    h.fund(&carol, 5);
    assert_eq!(h.rt.balance(&carol), whole(5));

    let dave = h.user(&SubnetId::root());
    h.rt.cross_transfer(&carol, &dave, whole(2)).unwrap();
    let mut bottom_up_seen = 0u64;
    for _ in 0..400 {
        h.rt.step().unwrap();
        bottom_up_seen = bottom_up_seen.max(h.rt.pool_stats().pending_bottom_up);
        if h.rt.balance(&dave) == whole(2) {
            break;
        }
    }
    assert_eq!(h.rt.balance(&dave), whole(2));
    assert!(
        bottom_up_seen > 0,
        "the bottom-up backlog was never observed"
    );

    h.settle();
    let settled = h.rt.pool_stats();
    assert_eq!(settled.mempool_pending, 0);
    assert_eq!(settled.mempool_bytes, 0);
    assert_eq!(settled.pending_top_down, 0);
    assert_eq!(settled.pending_bottom_up, 0);
    assert!(settled.mempool.admitted >= 4, "counters are cumulative");
}

/// A root-only runtime at `block_capacity` whose root user is the
/// controller's operator, with two funded accounts, and the controller.
fn elastic_root(block_capacity: usize) -> (Harness, ElasticController, UserHandle, UserHandle) {
    let mut config = RuntimeConfig::default();
    config.engine_params.block_capacity = block_capacity;
    let mut h = Harness::with(config, 100);
    let a = h.rt.create_user(&SubnetId::root(), whole(50)).unwrap();
    let b = h.rt.create_user(&SubnetId::root(), whole(50)).unwrap();
    let controller = ElasticController::new(h.alice.clone());
    (h, controller, a, b)
}

/// Steps the root to epoch 9, submits `backlog` messages, and commits the
/// epoch-10 block — the first evaluation boundary — which serves
/// `block_capacity` of them. Returns the splits the evaluation made.
fn splits_at_first_evaluation(block_capacity: usize, backlog: usize) -> u64 {
    let (mut h, mut ctrl, a, b) = elastic_root(block_capacity);
    let rt = &mut h.rt;
    let head = |rt: &HierarchyRuntime| rt.node(&SubnetId::root()).unwrap().chain().head_epoch();
    while head(rt).value() < 9 {
        rt.step_wave().unwrap();
        ctrl.poll(rt).unwrap();
    }
    for _ in 0..backlog {
        rt.submit_with_fee(&a, b.addr, TokenAmount::from_atto(10), Method::Send, 1)
            .unwrap();
    }
    rt.step_wave().unwrap();
    assert_eq!(head(rt).value(), 10);
    ctrl.poll(rt).unwrap();
    assert_eq!(ctrl.stats().evals, 1);
    ctrl.stats().splits
}

/// The split threshold is derived, not set: four blocks' worth of the
/// runtime's `block_capacity` left pending after the boundary block.
#[test]
fn split_threshold_follows_block_capacity() {
    for capacity in [4, 8] {
        // The boundary block serves `capacity`, leaving `backlog - capacity`.
        let threshold = 4 * capacity;
        assert_eq!(
            splits_at_first_evaluation(capacity, threshold + capacity - 1),
            0,
            "one short of 4 x {capacity} pending must not split"
        );
        assert_eq!(
            splits_at_first_evaluation(capacity, threshold + capacity),
            1,
            "4 x {capacity} pending must split"
        );
    }
}

#[test]
fn controller_splits_on_backlog_and_merges_when_cold() {
    let (mut h, mut ctrl, a, b) = elastic_root(4);
    let rt = &mut h.rt;

    // Below the backlog threshold (4 x 4 pending) nothing happens, across
    // the first evaluation boundary.
    for _ in 0..4 {
        rt.submit_with_fee(&a, b.addr, TokenAmount::from_atto(10), Method::Send, 1)
            .unwrap();
    }
    for _ in 0..12 {
        rt.step_wave().unwrap();
        ctrl.poll(rt).unwrap();
    }
    assert!(ctrl.stats().evals >= 1);
    assert_eq!(ctrl.stats().splits, 0, "a served backlog must not split");

    // A burst far beyond the block capacity crosses the threshold.
    for i in 0..80 {
        let (from, to) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
        rt.submit_with_fee(from, to.addr, TokenAmount::from_atto(10), Method::Send, 1)
            .unwrap();
    }
    let mut waves = 0;
    while ctrl.stats().splits == 0 {
        rt.step_wave().unwrap();
        ctrl.poll(rt).unwrap();
        waves += 1;
        assert!(waves < 200, "the backlog must trigger a split");
    }
    // Routing flips only once the funding transfer lands at the child.
    while ctrl.home_of(a.addr, &SubnetId::root()) == SubnetId::root()
        || ctrl.home_of(b.addr, &SubnetId::root()) == SubnetId::root()
    {
        rt.step_wave().unwrap();
        ctrl.poll(rt).unwrap();
        waves += 1;
        assert!(waves < 400, "migrations must settle");
    }
    let home_of_a = ctrl.home_of(a.addr, &SubnetId::root());
    assert!(ctrl.children().any(|c| *c == home_of_a));
    let stats = ctrl.stats();
    assert!(stats.splits >= 1);
    assert!(stats.migrations_settled >= 2);

    // With no further traffic every child goes cold, merges away, and the
    // recovered balances land back on the root — conservation end to end.
    while ctrl.children().next().is_some() {
        rt.step_wave().unwrap();
        ctrl.poll(rt).unwrap();
        waves += 1;
        assert!(waves < 4_000, "cold children must merge away");
    }
    assert_eq!(ctrl.home_of(a.addr, &SubnetId::root()), SubnetId::root());
    assert!(ctrl.stats().merges >= 1);
    assert!(ctrl.stats().funds_recovered >= 2);
    h.settle();
    let total = h.rt.balance(&a) + h.rt.balance(&b);
    assert_eq!(total, whole(100), "splitting and merging conserve funds");
}

/// Durable recovery must replay adoption (the child block that installed
/// the account) and retirement (`SubnetRetired`): the recovered runtime
/// holds the adopted account — usable for fresh submissions — and has
/// fully forgotten the retired subnet.
#[test]
fn recovery_replays_adoption_and_retirement() {
    let device = Arc::new(InMemoryDevice::new());
    let durable = |device: Arc<InMemoryDevice>| RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence: PersistenceConfig::on_device(device),
        ..RuntimeConfig::default()
    };

    let mut h = Harness::with(durable(device.clone()), 1_000);
    let alice = h.alice.clone();
    let keeper = spawn_operated(&mut h);
    let doomed = spawn_operated(&mut h);

    // Adopt alice into the surviving child and fund the new home.
    let adopted = h.rt.adopt_user(&keeper, alice.addr).unwrap();
    h.rt.cross_transfer_lazy_with_fee(&alice, &adopted, whole(30), u64::MAX)
        .unwrap();
    h.settle();
    assert_eq!(h.rt.balance(&adopted), whole(30));

    // Tag 7 (`SubnetRetired`): merge the doomed child away entirely.
    h.rt.save_snapshot(&alice, &doomed).unwrap();
    h.rt.execute(
        &alice,
        doomed.actor().unwrap(),
        TokenAmount::ZERO,
        Method::KillSubnet,
    )
    .unwrap();
    h.rt.retire_subnet(&doomed).unwrap();
    h.settle();

    let expected_balances = (h.rt.balance(&alice), h.rt.balance(&adopted));
    drop(h); // the crash

    let mut recovered = HierarchyRuntime::recover(durable(device));
    assert!(recovered.node(&doomed).is_none(), "retirement must replay");
    assert!(!recovered.subnets().any(|s| *s == doomed));
    assert_eq!(
        (recovered.balance(&alice), recovered.balance(&adopted)),
        expected_balances
    );

    // The replayed adopted account takes fresh messages at its continued
    // nonce — the real proof the installing block round-tripped.
    let bob = recovered.create_user(&keeper, TokenAmount::ZERO).unwrap();
    recovered
        .submit(&adopted, bob.addr, whole(4), Method::Send)
        .unwrap();
    recovered.run_until_quiescent(4_000).unwrap();
    assert_eq!(recovered.balance(&bob), whole(4));
    assert_eq!(recovered.balance(&adopted), whole(26));
    audit_quiescent(&recovered).unwrap();
}
