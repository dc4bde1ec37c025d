//! Security tests: the firewall property under a fully compromised
//! subnet, and fraud-proof slashing (paper §II, §III-B).

mod common;

use common::{expect_exit, whole, Harness};
use hc_actors::sa::SaConfig;
use hc_state::Method;
use hc_types::{Address, TokenAmount};

#[test]
fn overdraw_attack_is_fully_rejected() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 30);
    let thief = Address::new(9_999);

    // The compromised subnet claims 1000 HC out of a 30 HC supply.
    let report = h.rt.forge_withdrawal(&subnet, thief, whole(1_000)).unwrap();
    assert_eq!(report.bound, whole(30));
    assert_eq!(
        report.extracted,
        TokenAmount::ZERO,
        "overdraw must be rejected outright"
    );
    // The checkpoint was rejected wholesale: circulating supply intact.
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, whole(30));
    h.settle();
}

#[test]
fn extraction_is_capped_at_circulating_supply() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 30);
    let thief = Address::new(9_999);

    // Claim exactly the circulating supply: the firewall allows it (the
    // attacker "extracts" what was genuinely injected — the bounded
    // economic impact the paper specifies).
    let report = h.rt.forge_withdrawal(&subnet, thief, whole(30)).unwrap();
    assert_eq!(report.extracted, whole(30));
    // Nothing is left to take: a second forgery extracts zero.
    let report = h.rt.forge_withdrawal(&subnet, thief, whole(1)).unwrap();
    assert_eq!(report.extracted, TokenAmount::ZERO);
    assert_eq!(report.bound, TokenAmount::ZERO);
    h.settle();
}

#[test]
fn repeated_attacks_never_exceed_bound_cumulatively() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 50);
    let thief = Address::new(9_999);
    let mut extracted_total = TokenAmount::ZERO;
    for claim in [20u64, 20, 20, 20] {
        let report = h.rt.forge_withdrawal(&subnet, thief, whole(claim)).unwrap();
        extracted_total += report.extracted;
    }
    assert!(extracted_total <= whole(50), "extracted {extracted_total}");
    // Only the claims within the remaining supply succeeded: 20 + 20,
    // then 20 > 10 remaining is rejected twice.
    assert_eq!(extracted_total, whole(40));
    h.settle();
}

#[test]
fn ancestors_of_compromised_subnet_are_unaffected() {
    // Compromise a grandchild; the rootnet's exposure is bounded by what
    // the *grandchild* held, regardless of what mid holds.
    let mut h = Harness::setup();
    let mid = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&mid);
    h.fund(&inside, 100);
    let mid_creator = h.user(&mid);
    h.fund(&mid_creator, 50);
    let stake = [(mid_creator.clone(), whole(5))];
    let deep =
        h.rt.spawn_subnet(&mid_creator, SaConfig::default(), whole(10), &stake)
            .unwrap();
    let deep_user = h.user(&deep);
    h.fund(&deep_user, 8);

    let thief = Address::new(9_999);
    let report = h.rt.forge_withdrawal(&deep, thief, whole(500)).unwrap();
    assert_eq!(report.bound, whole(8));
    assert_eq!(report.extracted, TokenAmount::ZERO);
    h.settle();
}

#[test]
fn equivocation_fraud_proof_slashes_collateral() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let subnet = h.spawn(&alice, SaConfig::default());
    let proof = h.rt.forge_equivocation(&subnet).unwrap();

    let collateral_before = h.child_info(&subnet).collateral;
    assert_eq!(collateral_before, whole(15)); // 10 registration + 5 stake

    let reporter_balance_before = h.rt.balance(&alice);
    h.rt.execute(
        &alice,
        Address::SCA,
        TokenAmount::ZERO,
        Method::ReportFraud {
            subnet: subnet.clone(),
            proof: Box::new(proof),
        },
    )
    .unwrap();

    let info = h.child_info(&subnet);
    assert_eq!(info.collateral, TokenAmount::ZERO);
    assert_eq!(info.status, hc_actors::SubnetStatus::Inactive);
    // Reporter got half of the slashed collateral.
    assert_eq!(
        h.rt.balance(&alice) - reporter_balance_before,
        TokenAmount::from_atto(whole(15).atto() / 2)
    );
    h.check_state();
}

#[test]
fn inactive_subnet_cannot_receive_new_funds() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let subnet = h.spawn(&alice, SaConfig::default());
    let proof = h.rt.forge_equivocation(&subnet).unwrap();
    h.rt.execute(
        &alice,
        Address::SCA,
        TokenAmount::ZERO,
        Method::ReportFraud {
            subnet: subnet.clone(),
            proof: Box::new(proof),
        },
    )
    .unwrap();

    let victim = h.user(&subnet);
    expect_exit(h.rt.cross_transfer(&alice, &victim, whole(5)), "inactive");

    // Topping the collateral back up reactivates the subnet (paper
    // §III-B: "to recover its active state, users of the subnet need to
    // put up additional collateral").
    h.rt.execute(
        &alice,
        Address::SCA,
        whole(20),
        Method::AddCollateral {
            subnet: subnet.clone(),
        },
    )
    .unwrap();
    h.fund(&victim, 5);
    assert_eq!(h.rt.balance(&victim), whole(5));
}

#[test]
fn forged_checkpoint_with_bad_prev_is_rejected() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 30);
    // Tamper the prev pointer: the hash chain check fires before any
    // economics.
    h.rt.inject_signed_checkpoint(&subnet, |ckpt| {
        ckpt.prev = hc_types::Cid::digest(b"fabricated history");
    })
    .unwrap();
    h.settle();
    // Supply untouched.
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, whole(30));
}

#[test]
fn long_range_history_rewrite_is_pinned_out_by_checkpoints() {
    // The paper (§II): checkpointing "helps alleviate attacks on a child
    // subnet, such as long-range and related attacks in the case of a
    // PoS-based subnet". A long-range adversary (old keys, PoS) fabricates
    // an *entire alternative checkpoint history* from genesis. The parent
    // SCA pins the canonical chain via the committed `prev` hash chain, so
    // the rewrite is rejected at its very first divergent checkpoint.
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 10);
    // Build real history: several committed checkpoints.
    for _ in 0..2 {
        h.commit_checkpoint(&subnet);
    }
    let canonical_head = h.child_info(&subnet).prev_checkpoint;
    assert!(!canonical_head.is_nil());
    let committed_before = h.child_info(&subnet).committed_checkpoints;

    // The adversary's alternative history starts from genesis (prev=NIL),
    // validly signed with the (compromised) validator keys.
    h.rt.inject_signed_checkpoint(&subnet, |ckpt| {
        ckpt.prev = hc_types::Cid::NIL; // rewrite from the very beginning
        ckpt.proof = hc_types::Cid::digest(b"alternative universe");
    })
    .unwrap();
    // `settle` ends in the invariant check, whose checkpoint-chain identity
    // is the light-client audit over the archive.
    h.settle();

    let info = h.child_info(&subnet);
    // The canonical chain is untouched: same head, no extra commitments.
    assert_eq!(info.prev_checkpoint, canonical_head);
    assert_eq!(info.committed_checkpoints, committed_before);
}

/// The firewall bound is an identity every wave checks, not only a
/// scenario's end: while a forged withdrawal takes a child's whole
/// circulating supply, and on every wave after it, the parent's record of
/// the compromised child stays at or under the child's live supply.
#[test]
fn a_forged_withdrawal_passes_the_firewall_identity_on_every_wave() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let inside = h.user(&subnet);
    h.fund(&inside, 30);
    let thief = Address::new(9_999);
    // In a debug build every wave `forge_withdrawal` runs ends in the
    // invariant check.
    let report = h.rt.forge_withdrawal(&subnet, thief, whole(30)).unwrap();
    assert_eq!(report.extracted, whole(30));
    assert!(h.child_info(&subnet).circ_supply < h.rt.balance(&inside));
    for _ in 0..50 {
        h.rt.step_wave().unwrap();
        h.check_state();
    }
    h.settle();
}
