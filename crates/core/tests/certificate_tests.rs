//! Fund-certificate acceleration tests (paper §IV-A): destinations learn
//! of slow in-flight payments immediately, as *tentative* information.

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::RuntimeConfig;
use hc_types::{SubnetId, TokenAmount};

#[test]
fn certificate_arrives_long_before_settlement() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    h.fund(&bob, 100);
    let (root, alice) = (SubnetId::root(), h.alice.clone());

    // Bob sends bottom-up: the certificate should reach the root while
    // the value is still waiting for the next checkpoint.
    h.rt.cross_transfer(&bob, &alice, whole(7)).unwrap();
    let alice_before = h.rt.balance(&alice);

    // Step a handful of blocks: enough for the certificate's network
    // delivery, far too few for checkpoint settlement.
    let mut cert_seen_at = None;
    let mut settled_at = None;
    for i in 0..400 {
        h.rt.step().unwrap();
        let tentative = h.rt.node(&root).unwrap().tentative_value_for(alice.addr);
        if cert_seen_at.is_none() && tentative == whole(7) {
            cert_seen_at = Some(i);
        }
        if h.rt.balance(&alice) > alice_before {
            settled_at = Some(i);
            break;
        }
    }
    let cert_at = cert_seen_at.expect("certificate never arrived");
    let settle_at = settled_at.expect("payment never settled");
    assert!(
        cert_at + 3 < settle_at,
        "certificate (block {cert_at}) should beat settlement (block {settle_at}) clearly"
    );

    // Once settled, the tentative entry is cleared.
    assert_eq!(
        h.rt.node(&root).unwrap().tentative_value_for(alice.addr),
        TokenAmount::ZERO
    );
}

#[test]
fn forged_certificates_are_rejected() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    h.fund(&bob, 100);
    let (root, alice) = (SubnetId::root(), h.alice.clone());

    // An attacker fabricates a certificate for a payment that was never
    // committed, signed by a key outside the subnet's validator set.
    let outsider = hc_types::Keypair::from_seed([0xbd; 32]);
    let fake_msg =
        hc_actors::CrossMsg::transfer(bob.hc_address(), alice.hc_address(), whole(1_000_000));
    let mut cert = hc_actors::FundCertificate::new(fake_msg, hc_types::ChainEpoch::new(1));
    let cid = cert.signing_cid();
    cert.signatures.add(outsider.sign(cid.as_bytes()));

    // Deliver it through the real network path.
    h.rt.inject_gossip(
        &root.topic(),
        hc_net::ResolutionMsg::Certificate(Box::new(cert)),
    );
    for _ in 0..10 {
        h.rt.step().unwrap();
    }
    assert_eq!(
        h.rt.node(&root).unwrap().tentative_value_for(alice.addr),
        TokenAmount::ZERO,
        "unverifiable certificates must be dropped"
    );
}

#[test]
fn top_down_messages_emit_no_certificates() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    h.fund(&bob, 100);
    h.rt.cross_transfer(&h.alice, &bob, whole(5)).unwrap();
    for _ in 0..30 {
        h.rt.step().unwrap();
    }
    // Top-down settles fast; no tentative entry should ever appear in the
    // child.
    assert_eq!(
        h.rt.node(&bob.subnet)
            .unwrap()
            .tentative_value_for(bob.addr),
        TokenAmount::ZERO
    );
    assert_eq!(h.rt.balance(&bob), whole(105));
}
