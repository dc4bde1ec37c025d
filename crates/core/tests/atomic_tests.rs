//! End-to-end tests of cross-net atomic execution (paper §IV-D): the
//! two-phase commit across subnets, with honest and Byzantine parties.

mod common;

use common::{expect_exit, whole, Harness};
use hc_actors::sa::SaConfig;
use hc_actors::AtomicExecStatus;
use hc_core::{AtomicOrchestrator, AtomicParty, HierarchyRuntime, PartyBehavior, UserHandle};
use hc_state::Method;
use hc_types::{SubnetId, TokenAmount};

/// Two sibling subnets with one user each, both holding an asset record
/// under the key `"asset"`.
fn asset_holders() -> (Harness, UserHandle, UserHandle) {
    let mut h = Harness::setup();
    let mut users = Vec::new();
    for asset in [b"100 gold".to_vec(), b"7 silver".to_vec()] {
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let user = h.user(&subnet);
        h.fund(&user, 50);
        put(&mut h, &user, b"asset", asset).unwrap();
        users.push(user);
    }
    let b = users.pop().unwrap();
    let a = users.pop().unwrap();
    (h, a, b)
}

/// `user` writes `data` under `key` in its own storage.
fn put(
    h: &mut Harness,
    user: &UserHandle,
    key: &[u8],
    data: Vec<u8>,
) -> Result<hc_state::Receipt, hc_core::RuntimeError> {
    let method = Method::PutData {
        key: key.into(),
        data: data.into(),
    };
    h.rt.execute(user, user.addr, TokenAmount::ZERO, method)
}

fn storage_of(rt: &HierarchyRuntime, user: &UserHandle, key: &[u8]) -> Option<Vec<u8>> {
    rt.node(&user.subnet)?
        .state()
        .accounts()
        .get(user.addr)?
        .storage
        .get(key)
        .cloned()
}

fn is_locked(rt: &HierarchyRuntime, user: &UserHandle, key: &[u8]) -> bool {
    rt.node(&user.subnet)
        .and_then(|n| n.state().accounts().get(user.addr))
        .map(|a| a.locked.contains(key))
        .unwrap_or(false)
}

#[test]
fn honest_swap_commits_and_swaps_state() {
    let (mut h, a, b) = asset_holders();
    let parties = [
        AtomicParty::honest(a.clone(), b"asset"),
        AtomicParty::honest(b.clone(), b"asset"),
    ];
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()], // swap
        5_000,
    )
    .unwrap();

    assert_eq!(outcome.status, AtomicExecStatus::Committed);
    assert_eq!(outcome.coordinator, SubnetId::root());
    // The assets swapped across subnets.
    assert_eq!(storage_of(&h.rt, &a, b"asset").unwrap(), b"7 silver");
    assert_eq!(storage_of(&h.rt, &b, b"asset").unwrap(), b"100 gold");
    // Inputs are unlocked again.
    assert!(!is_locked(&h.rt, &a, b"asset"));
    assert!(!is_locked(&h.rt, &b, b"asset"));
    h.settle();
}

#[test]
fn divergent_output_aborts_and_preserves_state() {
    let (mut h, a, b) = asset_holders();
    let parties = [
        AtomicParty::honest(a.clone(), b"asset"),
        AtomicParty::honest(b.clone(), b"asset").with_behavior(PartyBehavior::Divergent),
    ];
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        5_000,
    )
    .unwrap();

    assert_eq!(outcome.status, AtomicExecStatus::Aborted);
    assert!(outcome.outputs.is_none());
    // Atomicity: both subnets keep their original state.
    assert_eq!(storage_of(&h.rt, &a, b"asset").unwrap(), b"100 gold");
    assert_eq!(storage_of(&h.rt, &b, b"asset").unwrap(), b"7 silver");
    assert!(!is_locked(&h.rt, &a, b"asset"));
    assert!(!is_locked(&h.rt, &b, b"asset"));
}

#[test]
fn explicit_abort_wins_over_commit() {
    let (mut h, a, b) = asset_holders();
    let parties = [
        AtomicParty::honest(a.clone(), b"asset"),
        AtomicParty::honest(b.clone(), b"asset").with_behavior(PartyBehavior::Abort),
    ];
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        5_000,
    )
    .unwrap();
    assert_eq!(outcome.status, AtomicExecStatus::Aborted);
    assert_eq!(storage_of(&h.rt, &a, b"asset").unwrap(), b"100 gold");
}

#[test]
fn crashed_party_times_out_via_coordinator_sweep() {
    let (mut h, a, b) = asset_holders();
    let parties = [
        AtomicParty::honest(a.clone(), b"asset"),
        AtomicParty::honest(b.clone(), b"asset").with_behavior(PartyBehavior::Crash),
    ];
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        10_000,
    )
    .unwrap();
    // Timeliness: the execution terminates (aborted) even though one party
    // disappeared, and the honest party's state is unlocked unchanged.
    assert_eq!(outcome.status, AtomicExecStatus::Aborted);
    assert_eq!(storage_of(&h.rt, &a, b"asset").unwrap(), b"100 gold");
    assert!(!is_locked(&h.rt, &a, b"asset"));
}

#[test]
fn three_party_execution_commits() {
    let mut h = Harness::setup();
    let mut parties = Vec::new();
    for i in 0..3u64 {
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let user = h.user(&subnet);
        put(&mut h, &user, b"v", vec![i as u8]).unwrap();
        parties.push(AtomicParty::honest(user, b"v"));
    }

    // Rotate the three values.
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[2].clone(), inputs[0].clone(), inputs[1].clone()],
        10_000,
    )
    .unwrap();
    assert_eq!(outcome.status, AtomicExecStatus::Committed);
    assert_eq!(storage_of(&h.rt, &parties[0].user, b"v").unwrap(), vec![2]);
    assert_eq!(storage_of(&h.rt, &parties[1].user, b"v").unwrap(), vec![0]);
    assert_eq!(storage_of(&h.rt, &parties[2].user, b"v").unwrap(), vec![1]);
}

#[test]
fn locked_input_rejects_writes_during_execution() {
    let (mut h, a, _b) = asset_holders();
    let lock = Method::LockState {
        key: b"asset".to_vec(),
    };
    h.rt.execute(&a, a.addr, TokenAmount::ZERO, lock).unwrap();
    // Consistency: no message may affect the locked input state.
    expect_exit(put(&mut h, &a, b"asset", b"stolen".to_vec()), "locked");
    assert_eq!(storage_of(&h.rt, &a, b"asset").unwrap(), b"100 gold");
}

#[test]
fn party_in_coordinator_subnet_submits_locally() {
    // One party at the root (the coordinator), one in a child subnet.
    let mut h = Harness::setup();
    let root = SubnetId::root();
    let root_user = h.rt.create_user(&root, whole(100)).unwrap();
    put(&mut h, &root_user, b"x", b"root-asset".to_vec()).unwrap();

    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let child_user = h.user(&subnet);
    put(&mut h, &child_user, b"x", b"child-asset".to_vec()).unwrap();

    let parties = [
        AtomicParty::honest(root_user.clone(), b"x"),
        AtomicParty::honest(child_user.clone(), b"x"),
    ];
    let outcome = AtomicOrchestrator::run(
        &mut h.rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        5_000,
    )
    .unwrap();
    assert_eq!(outcome.status, AtomicExecStatus::Committed);
    assert_eq!(outcome.coordinator, root);
    assert_eq!(storage_of(&h.rt, &root_user, b"x").unwrap(), b"child-asset");
    assert_eq!(storage_of(&h.rt, &child_user, b"x").unwrap(), b"root-asset");
}
