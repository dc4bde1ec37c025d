//! Validator churn tests: membership changes mid-life must keep block
//! production, checkpoint signing, and the committed history all valid.

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::RuntimeConfig;
use hc_state::{ImplicitMsg, Method};
use hc_types::{SubnetId, TokenAmount};

#[test]
fn validators_join_and_leave_while_checkpoints_flow() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let root = SubnetId::root();
    let sa_config = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let subnet = h.spawn(&h.alice.clone(), sa_config);
    let sa = subnet.actor().unwrap();
    let sa_state = h.rt.node(&root).unwrap().state().sa(sa).unwrap();
    // Adopting an installed account hands out its handle again.
    let v1 =
        h.rt.adopt_user(&root, sa_state.validators()[0].addr)
            .unwrap();

    // Era 1: single validator produces a few checkpoints.
    for _ in 0..12 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    h.settle();
    let era1 = h.child_info(&subnet).committed_checkpoints;
    assert!(era1 >= 2);

    // Two more validators join: the quorum grows from the lone signer to
    // more than two-thirds of three keys.
    for _ in 0..2 {
        let v = h.rt.create_user(&root, whole(100)).unwrap();
        let key = v.key.public();
        h.rt.execute(&v, sa, whole(5), Method::JoinSubnet { key })
            .unwrap();
    }
    assert_eq!(
        h.rt.node(&SubnetId::root())
            .unwrap()
            .state()
            .sa(sa)
            .unwrap()
            .validators()
            .len(),
        3
    );

    // Era 2: checkpoints now need the larger quorum — and get it.
    for _ in 0..12 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    h.settle();
    let era2 = h.child_info(&subnet).committed_checkpoints;
    assert!(era2 > era1);

    // Era 3: the original validator leaves (the quorum is both keys left).
    h.rt.execute(&v1, sa, TokenAmount::ZERO, Method::LeaveSubnet)
        .unwrap();
    for _ in 0..12 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    h.settle();
    let era3 = h.child_info(&subnet).committed_checkpoints;
    assert!(era3 > era2);

    // The full history — spanning three different validator sets — still
    // verifies, because each era is audited against its own quorum.
    let verified = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert_eq!(verified.len() as u64, era3);

    // Funds still flow after all the churn.
    let bob = h.user(&subnet);
    h.fund(&bob, 7);
    assert_eq!(h.rt.balance(&bob), whole(7));
}

#[test]
fn validator_set_changes_show_in_block_proposers() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let root = SubnetId::root();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    assert_eq!(h.rt.node(&subnet).unwrap().validators().len(), 1);

    let v2 = h.rt.create_user(&root, whole(100)).unwrap();
    let key = v2.key.public();
    let sa = subnet.actor().unwrap();
    h.rt.execute(&v2, sa, whole(5), Method::JoinSubnet { key })
        .unwrap();

    // The child refreshes its validator view on its next tick.
    h.rt.tick_subnet(&subnet).unwrap();
    assert_eq!(h.rt.node(&subnet).unwrap().validators().len(), 2);

    // Round-robin rotation: over many blocks both keys propose.
    let mut proposers = std::collections::HashSet::new();
    for _ in 0..6 {
        h.rt.tick_subnet(&subnet).unwrap();
        let node = h.rt.node(&subnet).unwrap();
        let head = node.chain().get(&node.chain().head()).unwrap();
        proposers.insert(head.header.proposer);
    }
    assert_eq!(proposers.len(), 2, "both validators proposed blocks");
}

/// A validator joins in the very parent block that commits a checkpoint
/// the lone validator signed. The block runs its implicit messages before
/// its signed ones, so the commit was checked against the old set, and so
/// is the walk: under the new set of two keys, one signature is short of
/// the quorum.
#[test]
fn a_join_in_the_committing_block_does_not_apply_to_the_commit() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let root = SubnetId::root();
    let sa_config = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let subnet = h.spawn(&h.alice.clone(), sa_config);
    let sa = subnet.actor().unwrap();
    let v2 = h.rt.create_user(&root, whole(100)).unwrap();
    let queued = |h: &Harness| {
        let pending = h.rt.node(&root).unwrap().pending_checkpoints();
        pending.iter().any(|c| c.checkpoint.source == subnet)
    };
    while !queued(&h) {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    let before = h.child_info(&subnet).committed_checkpoints;
    let key = v2.key.public();
    h.rt.execute(&v2, sa, whole(5), Method::JoinSubnet { key })
        .unwrap();

    let node = h.rt.node(&root).unwrap();
    let head = node.chain().head_block().unwrap();
    let commit = head.implicit_msgs.iter().find_map(|m| match m {
        ImplicitMsg::CommitChildCheckpoint { signed } => Some(signed.clone()),
        _ => None,
    });
    let commit = commit.expect("the join's block commits the checkpoint");
    assert_eq!(commit.signatures.len(), 1);
    let joins = head.signed_msgs.iter();
    let joins = joins.filter(|m| matches!(m.message().method, Method::JoinSubnet { .. }));
    assert_eq!(joins.count(), 1, "and carries the join");
    assert_eq!(node.state().sa(sa).unwrap().validators().len(), 2);
    assert_eq!(h.child_info(&subnet).committed_checkpoints, before + 1);

    let walk = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert_eq!(walk.last(), Some(&commit));
    h.settle();
    h.rt.verify_checkpoint_chain(&subnet).unwrap();
}
