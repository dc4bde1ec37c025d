//! End-to-end revert tests (paper §IV-B): a cross-net message that cannot
//! be applied at its destination triggers a compensating revert that rides
//! the normal cross-net flow back and refunds the original sender.

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_actors::{CrossMsg, HcAddress};
use hc_core::{RuntimeConfig, UserHandle};
use hc_types::{Address, TokenAmount};

#[test]
fn failed_top_down_call_refunds_the_sender() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let alice = h.alice.clone();
    let subnet = h.spawn(&alice, SaConfig::default());
    let balance_before = h.rt.balance(&alice);

    // A cross-net call with an unknown method selector: committed fine at
    // the root (the SCA cannot know it will fail), fails on application in
    // the child, and the value must come back.
    let msg = CrossMsg::call(
        alice.hc_address(),
        HcAddress::new(subnet.clone(), Address::ATOMIC_EXEC),
        whole(9),
        424_242, // no such method
        vec![],
    );
    h.rt.send_cross_msg(&alice, msg).unwrap();
    let blocks = h.settle();
    assert!(blocks < 50_000, "revert flow must converge");

    // Alice paid nothing in the end (zero fees configured).
    assert_eq!(h.rt.balance(&alice), balance_before);
    // The child's circulating supply is back to zero: the round trip
    // cancelled out.
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, TokenAmount::ZERO);
}

#[test]
fn failed_call_to_sibling_refunds_through_the_lca() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let alice = h.alice.clone();
    let left = h.spawn(&alice, SaConfig::default());
    let right = h.spawn(&alice, SaConfig::default());

    // Fund a sender inside `left`.
    let sender = h.user(&left);
    h.fund(&sender, 50);

    // The sender calls a bogus method in the sibling subnet: the value
    // travels left → root → right, fails there, and reverts
    // right → root → left.
    let msg = CrossMsg::call(
        sender.hc_address(),
        HcAddress::new(right.clone(), Address::ATOMIC_EXEC),
        whole(6),
        999_999,
        vec![],
    );
    h.rt.send_cross_msg(&sender, msg).unwrap();
    let blocks = h.settle();
    assert!(blocks < 100_000, "two-leg revert must converge");

    assert_eq!(h.rt.balance(&sender), whole(50), "value fully refunded");
    assert_eq!(h.child_info(&left).circ_supply, whole(50));
    assert_eq!(h.child_info(&right).circ_supply, TokenAmount::ZERO);
}

#[test]
fn transfers_to_missing_recipients_still_mint() {
    // Plain transfers to a fresh (key-less) address are fine — accounts
    // are created on credit; only *calls* can fail. This guards the revert
    // path against false positives.
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let ghost = UserHandle {
        subnet: subnet.clone(),
        addr: Address::new(77_777),
        ..h.alice.clone()
    };
    h.fund(&ghost, 3);
    assert_eq!(h.rt.balance(&ghost), whole(3));
}
