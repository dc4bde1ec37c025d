//! Fund-certificate acceleration tests (paper §IV-A): destinations learn
//! of slow in-flight payments immediately, as *tentative* information.

use hc_actors::sa::SaConfig;
use hc_core::{HierarchyRuntime, RuntimeConfig, UserHandle};
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

fn world() -> (HierarchyRuntime, UserHandle, UserHandle) {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000)).unwrap();
    let validator = rt.create_user(&root, whole(100)).unwrap();
    let subnet = rt
        .spawn_subnet(
            &alice,
            SaConfig::default(),
            whole(10),
            &[(validator, whole(5))],
        )
        .unwrap();
    let bob = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &bob, whole(100)).unwrap();
    rt.run_until_quiescent(10_000).unwrap();
    (rt, alice, bob)
}

#[test]
fn certificate_arrives_long_before_settlement() {
    let (mut rt, alice, bob) = world();
    let root = SubnetId::root();

    // Bob sends bottom-up: the certificate should reach the root while
    // the value is still waiting for the next checkpoint.
    rt.cross_transfer(&bob, &alice, whole(7)).unwrap();
    let alice_before = rt.balance(&alice);

    // Step a handful of blocks: enough for the certificate's network
    // delivery, far too few for checkpoint settlement.
    let mut cert_seen_at = None;
    let mut settled_at = None;
    for i in 0..400 {
        rt.step().unwrap();
        let tentative = rt.node(&root).unwrap().tentative_value_for(alice.addr);
        if cert_seen_at.is_none() && tentative == whole(7) {
            cert_seen_at = Some(i);
        }
        if rt.balance(&alice) > alice_before {
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
        rt.node(&root).unwrap().tentative_value_for(alice.addr),
        TokenAmount::ZERO
    );
}

#[test]
fn forged_certificates_are_rejected() {
    let (mut rt, alice, bob) = world();
    let root = SubnetId::root();

    // An attacker fabricates a certificate for a payment that was never
    // committed, signed by a key outside the subnet's validator set.
    let outsider = hc_types::Keypair::from_seed([0xbd; 32]);
    let fake_msg =
        hc_actors::CrossMsg::transfer(bob.hc_address(), alice.hc_address(), whole(1_000_000));
    let mut cert = hc_actors::FundCertificate::new(fake_msg, hc_types::ChainEpoch::new(1));
    let cid = cert.signing_cid();
    cert.signatures.add(outsider.sign(cid.as_bytes()));

    // Deliver it through the real network path.
    rt.inject_gossip(
        &root.topic(),
        hc_net::ResolutionMsg::Certificate(Box::new(cert)),
    );
    for _ in 0..10 {
        rt.step().unwrap();
    }
    assert_eq!(
        rt.node(&root).unwrap().tentative_value_for(alice.addr),
        TokenAmount::ZERO,
        "unverifiable certificates must be dropped"
    );
}

#[test]
fn top_down_messages_emit_no_certificates() {
    let (mut rt, alice, bob) = world();
    rt.cross_transfer(&alice, &bob, whole(5)).unwrap();
    for _ in 0..30 {
        rt.step().unwrap();
    }
    // Top-down settles fast; no tentative entry should ever appear in the
    // child.
    assert_eq!(
        rt.node(&bob.subnet).unwrap().tentative_value_for(bob.addr),
        TokenAmount::ZERO
    );
    assert_eq!(rt.balance(&bob), whole(105));
}
