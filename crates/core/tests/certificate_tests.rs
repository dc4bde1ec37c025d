//! Fund-certificate acceleration tests (paper §IV-A): destinations learn
//! of slow in-flight payments immediately, as *tentative* information.

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::RuntimeConfig;
use hc_net::{FaultKind, FaultPlan, FaultRule, PartitionPolicy};
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

/// A path payment's certificate settles too. The LCA re-stamps the
/// message's nonce as it turns the payment around, so a certificate held
/// under the CID of the message as sent never matched the message that
/// settled, and stayed tentative for ever.
#[test]
fn a_path_payment_clears_its_certificate_on_settlement() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let alice = h.alice.clone();
    let mut leaves = Vec::new();
    for _ in 0..2 {
        let mid = h.spawn(&alice, SaConfig::default());
        let creator = h.user(&mid);
        h.fund(&creator, 100);
        leaves.push(h.spawn(&creator, SaConfig::default()));
    }
    let (bob, carol) = (h.user(&leaves[0]), h.user(&leaves[1]));
    h.fund(&bob, 50);
    // Carol's subnet has had a top-down message, so the payment arrives
    // under another nonce than the one bob's subnet sent it with.
    h.fund(&carol, 1);

    h.rt.cross_transfer(&bob, &carol, whole(7)).unwrap();
    let mut certified = false;
    for _ in 0..2_000 {
        if h.rt.balance(&carol) > whole(1) {
            break;
        }
        h.rt.step().unwrap();
        let node = h.rt.node(&carol.subnet).unwrap();
        certified |= node.tentative_value_for(carol.addr) == whole(7);
    }
    assert!(certified, "the certificate reached the destination first");
    h.settle();
    assert_eq!(h.rt.balance(&carol), whole(8));
    let node = h.rt.node(&carol.subnet).unwrap();
    assert_eq!(node.tentative_value_for(carol.addr), TokenAmount::ZERO);
    assert_eq!(node.tentative_count(), 0);
}

/// Identical transfers are held side by side and each settles one; a
/// redelivered copy of a certificate is held once. Every delivery on the
/// root's topic arrives twice.
#[test]
fn identical_transfers_settle_one_certificate_each() {
    let root = SubnetId::root();
    let mut config = RuntimeConfig::default();
    config.net.faults.rules.push(FaultRule::new(
        0,
        u64::MAX,
        FaultKind::Duplicate {
            topic: Some(root.topic()),
            rate: 1.0,
            max_copies: 1,
            spread_ms: 50,
        },
    ));
    let mut h = Harness::with(config, 10_000);
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    h.fund(&bob, 100);
    let alice = h.alice.clone();

    for _ in 0..2 {
        h.rt.cross_transfer(&bob, &alice, whole(3)).unwrap();
    }
    // Until the payments settle, the most the root ever holds is both
    // certificates, each once.
    let (before, mut most) = (h.rt.balance(&alice), 0);
    for _ in 0..400 {
        if h.rt.balance(&alice) > before {
            break;
        }
        h.rt.step().unwrap();
        most = most.max(h.rt.node(&root).unwrap().tentative_count());
    }
    assert_eq!(most, 2, "both certificates are held, once each");
    h.settle();
    assert_eq!(h.rt.balance(&alice), before + whole(6));
    let node = h.rt.node(&root).unwrap();
    assert_eq!(node.tentative_value_for(alice.addr), TokenAmount::ZERO);
    assert_eq!(node.tentative_count(), 0);
    assert!(h.rt.net_stats().redelivered > 0);
}

/// A certificate that comes after its payment settled is dropped and
/// counted, not held for ever. The destination's topic is held until well
/// after a path payment settles, so its certificate arrives late; it used
/// to stay in `tentative` and over-report the tentative value from then on.
#[test]
fn a_certificate_after_its_settlement_is_dropped_and_counted() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let alice = h.alice.clone();
    let mut leaves = Vec::new();
    for _ in 0..2 {
        let mid = h.spawn(&alice, SaConfig::default());
        let creator = h.user(&mid);
        h.fund(&creator, 100);
        leaves.push(h.spawn(&creator, SaConfig::default()));
    }
    let (bob, carol) = (h.user(&leaves[0]), h.user(&leaves[1]));
    h.fund(&bob, 50);
    h.fund(&carol, 1);

    // A top-down payment reaches carol's subnet by its parent's hand-off,
    // not its topic: only the certificate waits for the heal.
    let heal_ms = h.rt.now_ms() + 120_000;
    h.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            0,
            heal_ms,
            FaultKind::Partition {
                name: "late certificate".into(),
                topics: vec![carol.subnet.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::HoldUntilHeal,
            },
        )],
    });
    h.rt.cross_transfer(&bob, &carol, whole(7)).unwrap();
    while h.rt.balance(&carol) == whole(1) {
        h.rt.step().unwrap();
    }
    assert!(
        h.rt.now_ms() < heal_ms,
        "the payment settled before the heal"
    );
    let node = h.rt.node(&carol.subnet).unwrap();
    assert_eq!(
        node.tentative_count(),
        0,
        "the certificate is still held back"
    );

    while h.rt.now_ms() <= heal_ms {
        h.rt.step().unwrap();
    }
    h.settle();
    assert_eq!(h.rt.balance(&carol), whole(8));
    assert!(h.rt.net_stats().partition_held > 0);
    let node = h.rt.node(&carol.subnet).unwrap();
    assert_eq!(node.tentative_value_for(carol.addr), TokenAmount::ZERO);
    assert_eq!(node.tentative_count(), 0);
    assert_eq!(node.late_certificates(), 1);
    assert_eq!(node.owed_certificates(), 0);
}

/// A certificate that never comes leaves its settlement owing one, and no
/// later transfer pays that debt by mistake. The destination's topic drops
/// everything until a path payment has settled, so its certificate is
/// lost; an identical transfer sent after the heal must have its own
/// certificate held, not dropped as the first one's, late.
#[test]
fn a_lost_certificate_takes_no_later_identical_one() {
    let mut h = Harness::with(RuntimeConfig::default(), 10_000);
    let alice = h.alice.clone();
    let mut leaves = Vec::new();
    for _ in 0..2 {
        let mid = h.spawn(&alice, SaConfig::default());
        let creator = h.user(&mid);
        h.fund(&creator, 100);
        leaves.push(h.spawn(&creator, SaConfig::default()));
    }
    let (bob, carol) = (h.user(&leaves[0]), h.user(&leaves[1]));
    h.fund(&bob, 50);
    h.fund(&carol, 1);

    let heal_ms = h.rt.now_ms() + 120_000;
    h.rt.extend_faults(FaultPlan {
        rules: vec![FaultRule::new(
            0,
            heal_ms,
            FaultKind::Partition {
                name: "lost certificate".into(),
                topics: vec![carol.subnet.topic()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        )],
    });
    h.rt.cross_transfer(&bob, &carol, whole(7)).unwrap();
    while h.rt.balance(&carol) == whole(1) {
        h.rt.step().unwrap();
    }
    assert!(
        h.rt.now_ms() < heal_ms,
        "the payment settled before the heal"
    );
    while h.rt.now_ms() <= heal_ms {
        h.rt.step().unwrap();
    }

    h.rt.cross_transfer(&bob, &carol, whole(7)).unwrap();
    let mut seen = false;
    while h.rt.balance(&carol) == whole(8) {
        h.rt.step().unwrap();
        let node = h.rt.node(&carol.subnet).unwrap();
        seen |= node.tentative_value_for(carol.addr) == whole(7);
        assert_eq!(
            node.late_certificates(),
            0,
            "an on-time certificate dropped"
        );
    }
    assert!(seen, "the second certificate was never held");
    h.settle();
    assert_eq!(h.rt.balance(&carol), whole(15));
    let node = h.rt.node(&carol.subnet).unwrap();
    assert_eq!(node.tentative_value_for(carol.addr), TokenAmount::ZERO);
    assert_eq!(node.tentative_count(), 0);
    assert_eq!(node.late_certificates(), 0);
    assert_eq!(node.owed_certificates(), 1, "the lost certificate's debt");
}
