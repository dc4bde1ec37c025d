//! Validator churn tests: membership changes mid-life must keep block
//! production, checkpoint signing, and the archived history all valid.

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::RuntimeConfig;
use hc_state::Method;
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
    let era1 = h.rt.checkpoint_history(&subnet).len();
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
    let era2 = h.rt.checkpoint_history(&subnet).len();
    assert!(era2 > era1);

    // Era 3: the original validator leaves (the quorum is both keys left).
    h.rt.execute(&v1, sa, TokenAmount::ZERO, Method::LeaveSubnet)
        .unwrap();
    for _ in 0..12 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    h.settle();
    let era3 = h.rt.checkpoint_history(&subnet).len();
    assert!(era3 > era2);

    // The full history — spanning three different validator sets — still
    // verifies, because each era is audited against its own quorum.
    let verified = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert_eq!(verified as usize, era3);

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
