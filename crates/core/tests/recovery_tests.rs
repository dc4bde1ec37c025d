//! Fund recovery from killed subnets via persisted snapshots
//! (paper §III-C).

mod common;

use common::{expect_exit, whole, Harness};
use hc_actors::sa::SaConfig;
use hc_actors::BalanceProof;
use hc_core::UserHandle;
use hc_state::Method;
use hc_types::{Address, SubnetId, TokenAmount};

/// Kills `subnet` through its only validator (the root user is not one).
fn kill(h: &mut Harness, subnet: &SubnetId) {
    let sa = subnet.actor().unwrap();
    let root = SubnetId::root();
    let sa_state = h.rt.node(&root).unwrap().state().sa(sa).unwrap();
    // Adopting an installed account hands out its handle again.
    let validator =
        h.rt.adopt_user(&root, sa_state.validators()[0].addr)
            .unwrap();
    h.rt.execute(&validator, sa, TokenAmount::ZERO, Method::KillSubnet)
        .unwrap();
}

/// `claimant` claims `proof`'s balance of the killed `subnet` on the parent.
fn recover_funds(
    h: &mut Harness,
    claimant: &UserHandle,
    subnet: &SubnetId,
    proof: BalanceProof,
) -> Result<hc_state::Receipt, hc_core::RuntimeError> {
    let subnet = subnet.clone();
    let method = Method::RecoverFunds {
        subnet,
        proof: proof.into(),
    };
    h.rt.execute(claimant, Address::SCA, TokenAmount::ZERO, method)
}

#[test]
fn kill_then_recover_funds_with_snapshot_proofs() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let (u1, u2) = (h.user(&subnet), h.user(&subnet));
    h.rt.cross_transfer(&h.alice, &u1, whole(30)).unwrap();
    h.fund(&u2, 12);

    // Persist the snapshot *before* the subnet dies.
    let tree = h.rt.save_snapshot(&h.alice, &subnet).unwrap();
    assert_eq!(tree.leaves().len(), 2);
    kill(&mut h, &subnet);

    // u1's owner recovers 30 HC on the parent chain. The claimant is the
    // same address, now acting on the root (the runtime installs a root
    // account for it).
    let claimant1 = h.rt.create_claimant(&u1).unwrap();
    let proof1 = tree.prove(u1.addr).unwrap();
    let rec = recover_funds(&mut h, &claimant1, &subnet, proof1.clone()).unwrap();
    assert!(rec.exit.is_ok());
    assert_eq!(h.rt.balance(&claimant1), whole(30));

    // Replaying the claim fails.
    let replay = recover_funds(&mut h, &claimant1, &subnet, proof1);
    expect_exit(replay, "already recovered");

    // The second user recovers too; after that the child's circulating
    // supply is exactly zero.
    let claimant2 = h.rt.create_claimant(&u2).unwrap();
    let proof2 = tree.prove(u2.addr).unwrap();
    recover_funds(&mut h, &claimant2, &subnet, proof2).unwrap();
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, TokenAmount::ZERO);
    // The dead node still holds what its users recovered on the parent: a
    // killed child's edge may fall below its live supply.
    h.check_state();
}

#[test]
fn recovery_requires_killed_subnet_and_valid_proof() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let (u1, u2) = (h.user(&subnet), h.user(&subnet));
    h.rt.cross_transfer(&h.alice, &u1, whole(30)).unwrap();
    h.fund(&u2, 12);
    let tree = h.rt.save_snapshot(&h.alice, &subnet).unwrap();
    let claimant = h.rt.create_claimant(&u1).unwrap();
    let proof = tree.prove(u1.addr).unwrap();

    // Subnet still alive: recovery refused.
    let alive = recover_funds(&mut h, &claimant, &subnet, proof.clone());
    expect_exit(alive, "killed");

    // Someone else cannot use u1's proof.
    kill(&mut h, &subnet);
    let thief = h.rt.create_user(&SubnetId::root(), whole(1)).unwrap();
    let stolen = recover_funds(&mut h, &thief, &subnet, proof);
    expect_exit(stolen, "different address");

    // An inflated forged proof fails verification.
    let mut forged = tree.prove(u1.addr).unwrap();
    forged.leaf.amount = whole(1_000);
    let inflated = recover_funds(&mut h, &claimant, &subnet, forged);
    expect_exit(inflated, "content");
}

#[test]
fn snapshot_requires_validator_signatures_and_monotone_epochs() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let (u1, u2) = (h.user(&subnet), h.user(&subnet));
    h.rt.cross_transfer(&h.alice, &u1, whole(30)).unwrap();
    h.fund(&u2, 12);
    let alice = h.alice.clone();
    // A snapshot with bogus signatures is refused.
    let node = h.rt.node(&subnet).unwrap();
    let mut balances = Vec::new();
    node.state().accounts().for_each(|a, acc| {
        if !a.is_system() && !acc.balance.is_zero() {
            balances.push((*a, acc.balance));
        }
    });
    let (snapshot, _) =
        hc_actors::StateSnapshot::build(subnet.clone(), node.chain().head_epoch(), balances);
    let unsigned = Method::SaveSnapshot {
        snapshot: snapshot.into(),
        signatures: hc_types::crypto::AggregateSignature::new(),
    };
    let result =
        h.rt.execute(&alice, Address::SCA, TokenAmount::ZERO, unsigned);
    expect_exit(result, "signatures");

    // A properly signed snapshot persists; re-persisting the same epoch
    // is refused (must advance).
    h.rt.save_snapshot(&alice, &subnet).unwrap();
    expect_exit(h.rt.save_snapshot(&alice, &subnet), "advance");
}
