//! Unit-level coverage of the elastic scale-out machinery: account
//! adoption, subnet retirement guards, the manual merge path, pool
//! observability, the controller's split/merge policy, and durable
//! recovery of the `UserAdopted`/`SubnetRetired` control records.

use std::sync::Arc;

use hc_actors::sa::SaConfig;
use hc_core::{
    audit_quiescent, ElasticConfig, ElasticController, HierarchyRuntime, PersistenceConfig,
    PlacementPolicy, RuntimeConfig, RuntimeError, UserHandle,
};
use hc_net::{NetConfig, RegionMap};
use hc_state::Method;
use hc_store::InMemoryDevice;
use hc_types::{Address, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// A root user plus a child subnet it operates (spawner and sole staker,
/// like the elastic controller's split).
fn world() -> (HierarchyRuntime, UserHandle, SubnetId) {
    world_with(RuntimeConfig::default())
}

fn world_with(config: RuntimeConfig) -> (HierarchyRuntime, UserHandle, SubnetId) {
    let mut rt = HierarchyRuntime::new(config);
    let alice = rt.create_user(&SubnetId::root(), whole(1_000)).unwrap();
    let child = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(alice.clone(), whole(5))],
        )
        .unwrap();
    (rt, alice, child)
}

#[test]
fn adopt_user_preserves_identity_and_is_idempotent() {
    let (mut rt, alice, child) = world();

    // Adoption installs the same logical account — same address, same
    // derived key — with no balance minted.
    let new_home = rt.adopt_user(&child, alice.addr).unwrap();
    assert_eq!(new_home.addr, alice.addr);
    assert_eq!(new_home.subnet, child);
    assert_eq!(rt.balance(&new_home), TokenAmount::ZERO);
    assert_eq!(rt.adopt_user(&child, alice.addr).unwrap(), new_home);

    // The migration shape: fund the new home from the old one.
    rt.cross_transfer_lazy_with_fee(&alice, &new_home, whole(25), u64::MAX)
        .unwrap();
    rt.run_until_quiescent(4_000).unwrap();
    assert_eq!(rt.balance(&new_home), whole(25));

    // The adopted account transacts at its new home under its own key.
    let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.submit(&new_home, bob.addr, whole(5), Method::Send)
        .unwrap();
    rt.run_until_quiescent(4_000).unwrap();
    assert_eq!(rt.balance(&bob), whole(5));
    assert_eq!(rt.balance(&new_home), whole(20));
    audit_quiescent(&rt).unwrap();
}

#[test]
fn retire_subnet_enforces_lifecycle_guards() {
    // Two regions (no links, so latencies stay uniform) spread round-robin:
    // the child is placed, and retirement must forget the placement.
    let (mut rt, alice, child) = world_with(RuntimeConfig {
        net: NetConfig {
            regions: RegionMap::named(&["us", "eu"]),
            ..NetConfig::default()
        },
        placement: PlacementPolicy::RoundRobin,
        ..RuntimeConfig::default()
    });
    assert_eq!(rt.region_of_subnet(&child), Some("eu"));
    let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
    rt.run_until_quiescent(4_000).unwrap();

    // Guards: the root never retires; a live child must be killed first.
    assert!(rt.retire_subnet(&SubnetId::root()).is_err());
    assert!(
        rt.retire_subnet(&child).is_err(),
        "retirement requires the SA to be killed on the parent"
    );

    // A crashed subnet is refused as crashed, and a rejoined one as
    // catching up — its node is out of the hierarchy, but the subnet is
    // not unknown. (Crashed while still alive: a killed subnet has no
    // validators left to catch up with.)
    rt.crash_node(&child).unwrap();
    assert!(matches!(
        rt.retire_subnet(&child),
        Err(RuntimeError::Retire(_))
    ));
    rt.rejoin_node(&child).unwrap();
    assert!(matches!(
        rt.retire_subnet(&child),
        Err(RuntimeError::Retire(_))
    ));
    rt.run_until_quiescent(4_000).unwrap();
    assert_eq!(rt.region_of_subnet(&child), Some("eu"));

    // The full manual merge path the controller automates: snapshot while
    // alive, kill, recover every leaf on the parent, then retire.
    let tree = rt.save_snapshot(&alice, &child).unwrap();
    rt.execute(
        &alice,
        child.actor().unwrap(),
        TokenAmount::ZERO,
        Method::KillSubnet,
    )
    .unwrap();
    let claimant = rt
        .create_claimant(&UserHandle {
            subnet: child.clone(),
            addr: bob.addr,
        })
        .unwrap();
    let proof = tree.prove(bob.addr).unwrap();
    rt.execute(
        &claimant,
        Address::SCA,
        TokenAmount::ZERO,
        Method::RecoverFunds {
            subnet: child.clone(),
            proof,
        },
    )
    .unwrap();
    assert_eq!(
        rt.balance(&claimant),
        whole(20),
        "the killed subnet's balance recovers on the parent"
    );

    rt.retire_subnet(&child).unwrap();
    assert!(rt.node(&child).is_none());
    assert!(!rt.subnets().any(|s| *s == child));
    assert_eq!(rt.region_of_subnet(&child), None);
    assert!(rt.retire_subnet(&child).is_err(), "retirement is final");
    audit_quiescent(&rt).unwrap();
}

#[test]
fn pool_stats_aggregate_admission_and_cross_backlogs() {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let zero = rt.pool_stats();
    assert_eq!(zero.mempool_pending, 0);
    assert_eq!(zero.mempool_bytes, 0);
    assert_eq!(zero.mempool.admitted, 0);

    let alice = rt.create_user(&SubnetId::root(), whole(1_000)).unwrap();
    let bob = rt
        .create_user(&SubnetId::root(), TokenAmount::ZERO)
        .unwrap();
    for fee in 1..=3 {
        rt.submit_with_fee(&alice, bob.addr, whole(1), Method::Send, fee)
            .unwrap();
    }
    let queued = rt.pool_stats();
    assert_eq!(queued.mempool_pending, 3);
    assert!(queued.mempool_bytes > 0);
    assert_eq!(queued.mempool.admitted, 3);
    assert_eq!(
        rt.mempool_stats(),
        queued.mempool,
        "the mempool aggregate and the pool snapshot must agree"
    );

    // A bottom-up transfer is visible as cross-pool backlog while the
    // parent resolves the checkpoint's message content over the network
    // (top-down ingestion drains within a single wave, so only the
    // bottom-up gauge has an observable window at step granularity).
    let child = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(alice.clone(), whole(5))],
        )
        .unwrap();
    let carol = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &carol, whole(5)).unwrap();
    rt.run_until_quiescent(4_000).unwrap();
    assert_eq!(rt.balance(&carol), whole(5));

    let dave = rt
        .create_user(&SubnetId::root(), TokenAmount::ZERO)
        .unwrap();
    rt.cross_transfer(&carol, &dave, whole(2)).unwrap();
    let mut bottom_up_seen = 0u64;
    for _ in 0..400 {
        rt.step().unwrap();
        bottom_up_seen = bottom_up_seen.max(rt.pool_stats().pending_bottom_up);
        if rt.balance(&dave) == whole(2) {
            break;
        }
    }
    assert_eq!(rt.balance(&dave), whole(2));
    assert!(
        bottom_up_seen > 0,
        "the bottom-up backlog was never observed"
    );

    rt.run_until_quiescent(4_000).unwrap();
    let settled = rt.pool_stats();
    assert_eq!(settled.mempool_pending, 0);
    assert_eq!(settled.mempool_bytes, 0);
    assert_eq!(settled.pending_top_down, 0);
    assert_eq!(settled.pending_bottom_up, 0);
    assert!(settled.mempool.admitted >= 4, "counters are cumulative");
}

#[test]
fn controller_splits_on_backlog_and_merges_when_cold() {
    let mut config = RuntimeConfig::default();
    config.engine_params.block_capacity = 4;
    let mut rt = HierarchyRuntime::new(config);
    let operator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let a = rt.create_user(&SubnetId::root(), whole(50)).unwrap();
    let b = rt.create_user(&SubnetId::root(), whole(50)).unwrap();
    let mut ctrl = ElasticController::new(
        operator,
        ElasticConfig {
            eval_period: 2,
            split_backlog: 8,
            merge_backlog: 0,
            merge_idle_evals: 3,
            ..ElasticConfig::default()
        },
    );

    // Below the backlog threshold nothing happens.
    for _ in 0..4 {
        rt.submit_with_fee(&a, b.addr, TokenAmount::from_atto(10), Method::Send, 1)
            .unwrap();
    }
    for _ in 0..8 {
        rt.step_wave().unwrap();
        ctrl.poll(&mut rt).unwrap();
    }
    assert_eq!(ctrl.stats().splits, 0, "a served backlog must not split");

    // A burst far beyond the block capacity crosses the threshold.
    for i in 0..40 {
        let (from, to) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
        rt.submit_with_fee(from, to.addr, TokenAmount::from_atto(10), Method::Send, 1)
            .unwrap();
    }
    let mut waves = 0;
    while ctrl.stats().splits == 0 {
        rt.step_wave().unwrap();
        ctrl.poll(&mut rt).unwrap();
        waves += 1;
        assert!(waves < 200, "the backlog must trigger a split");
    }
    // Routing flips only once the funding transfer lands at the child.
    while ctrl.home_of(a.addr, &SubnetId::root()) == SubnetId::root()
        || ctrl.home_of(b.addr, &SubnetId::root()) == SubnetId::root()
    {
        rt.step_wave().unwrap();
        ctrl.poll(&mut rt).unwrap();
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
        ctrl.poll(&mut rt).unwrap();
        waves += 1;
        assert!(waves < 4_000, "cold children must merge away");
    }
    assert_eq!(ctrl.home_of(a.addr, &SubnetId::root()), SubnetId::root());
    assert!(ctrl.stats().merges >= 1);
    assert!(ctrl.stats().funds_recovered >= 2);
    rt.run_until_quiescent(4_000).unwrap();
    let total = rt.balance(&a) + rt.balance(&b);
    assert_eq!(total, whole(100), "splitting and merging conserve funds");
    audit_quiescent(&rt).unwrap();
}

/// Durable recovery must replay adoption (control tag `UserAdopted`) and
/// retirement (`SubnetRetired`): the recovered runtime holds the adopted
/// wallet — usable for fresh submissions — and has fully forgotten the
/// retired subnet.
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

    let mut rt = HierarchyRuntime::new(durable(device.clone()));
    let alice = rt.create_user(&SubnetId::root(), whole(1_000)).unwrap();
    let keeper = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(alice.clone(), whole(5))],
        )
        .unwrap();
    let doomed = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(alice.clone(), whole(5))],
        )
        .unwrap();

    // Tag 6: adopt alice into the surviving child and fund the new home.
    let adopted = rt.adopt_user(&keeper, alice.addr).unwrap();
    rt.cross_transfer_lazy_with_fee(&alice, &adopted, whole(30), u64::MAX)
        .unwrap();
    rt.run_until_quiescent(4_000).unwrap();
    assert_eq!(rt.balance(&adopted), whole(30));

    // Tag 7: merge the doomed child away entirely.
    rt.save_snapshot(&alice, &doomed).unwrap();
    rt.execute(
        &alice,
        doomed.actor().unwrap(),
        TokenAmount::ZERO,
        Method::KillSubnet,
    )
    .unwrap();
    rt.retire_subnet(&doomed).unwrap();
    rt.run_until_quiescent(4_000).unwrap();

    let expected_balances = (rt.balance(&alice), rt.balance(&adopted));
    drop(rt); // the crash

    let mut recovered = HierarchyRuntime::recover(durable(device));
    assert!(recovered.node(&doomed).is_none(), "retirement must replay");
    assert!(!recovered.subnets().any(|s| *s == doomed));
    assert_eq!(
        (recovered.balance(&alice), recovered.balance(&adopted)),
        expected_balances
    );

    // The replayed adopted wallet signs fresh messages with a continued
    // nonce cursor — the real proof the control record round-tripped.
    let bob = recovered.create_user(&keeper, TokenAmount::ZERO).unwrap();
    recovered
        .submit(&adopted, bob.addr, whole(4), Method::Send)
        .unwrap();
    recovered.run_until_quiescent(4_000).unwrap();
    assert_eq!(recovered.balance(&bob), whole(4));
    assert_eq!(recovered.balance(&adopted), whole(26));
    audit_quiescent(&recovered).unwrap();
}
