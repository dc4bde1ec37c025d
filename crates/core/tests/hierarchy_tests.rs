//! End-to-end tests of the hierarchy runtime: subnet lifecycle, all three
//! cross-net message classes, checkpoint propagation, reverts, and the
//! supply audits.

mod common;

use common::{expect_exit, whole, Harness};
use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_core::{RuntimeConfig, UserHandle};
use hc_types::SubnetId;

#[test]
fn top_down_transfer_reaches_child_and_audits_pass() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    h.fund(&bob, 20);

    assert_eq!(h.rt.balance(&bob), whole(20));
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, whole(20));
}

#[test]
fn bottom_up_transfer_returns_to_root_via_checkpoints() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let bob = h.user(&subnet);
    let carol = h.user(&SubnetId::root());

    // Fund bob in the child, then bob sends 8 back up to carol at root.
    h.fund(&bob, 20);
    h.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    let blocks = h.settle();
    assert!(blocks < 1_000, "bottom-up flow must converge");

    assert_eq!(h.rt.balance(&carol), whole(8));
    assert_eq!(h.rt.balance(&bob), whole(12));
    // Circulating supply shrank by the returned value.
    let info = h.child_info(&subnet);
    assert_eq!(info.circ_supply, whole(12));
    // The child cut checkpoints and the root committed them.
    assert!(h.rt.node(&subnet).unwrap().stats().checkpoints_cut > 0);
    assert!(
        h.rt.node(&SubnetId::root())
            .unwrap()
            .stats()
            .checkpoints_committed
            > 0
    );
}

#[test]
fn path_message_between_sibling_subnets_turns_around_at_root() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let left = h.spawn(&alice, SaConfig::default());
    let right = h.spawn(&alice, SaConfig::default());
    assert_ne!(left, right);

    let sender = h.user(&left);
    let receiver = h.user(&right);

    h.fund(&sender, 30);

    // left -> right: bottom-up to root (the LCA), then top-down.
    h.release(&sender, &receiver, 7);

    assert_eq!(h.rt.balance(&receiver), whole(7));
    assert_eq!(h.rt.balance(&sender), whole(23));
    assert_eq!(h.child_info(&left).circ_supply, whole(23));
    assert_eq!(h.child_info(&right).circ_supply, whole(7));
}

#[test]
fn three_level_hierarchy_routes_in_both_directions() {
    let mut h = Harness::setup();
    let mid = h.spawn(&h.alice.clone(), SaConfig::default());

    // A user in `mid` spawns the grandchild (subnets spawn from any point
    // in the hierarchy, paper §II).
    let mid_creator = h.user(&mid);
    h.fund(&mid_creator, 200);
    let deep = h.spawn(&mid_creator, SaConfig::default());
    assert_eq!(deep.depth(), 2);
    assert_eq!(deep.parent().unwrap(), mid);

    // Root -> grandchild (two top-down hops, transit escrow in mid).
    let deep_user = h.user(&deep);
    h.fund(&deep_user, 40);
    assert_eq!(h.rt.balance(&deep_user), whole(40));

    // Grandchild -> root (two bottom-up hops through two checkpoints).
    let root_receiver = h.user(&SubnetId::root());
    h.rt.cross_transfer(&deep_user, &root_receiver, whole(15))
        .unwrap();
    let blocks = h.settle();
    assert!(blocks < 3_000, "two-level bottom-up must converge");
    assert_eq!(h.rt.balance(&root_receiver), whole(15));
    assert_eq!(h.rt.balance(&deep_user), whole(25));
}

#[test]
fn subnets_can_run_different_consensus_engines() {
    let mut h = Harness::setup();
    for kind in [
        ConsensusKind::RoundRobin,
        ConsensusKind::ProofOfStake,
        ConsensusKind::Tendermint,
        ConsensusKind::Mir,
    ] {
        let sa = SaConfig {
            consensus: kind,
            ..SaConfig::default()
        };
        let subnet = h.spawn(&h.alice.clone(), sa);
        let user = h.user(&subnet);
        h.fund(&user, 5);
        assert_eq!(h.rt.balance(&user), whole(5), "engine {kind}");
        assert_eq!(h.rt.node(&subnet).unwrap().engine().kind(), kind);
    }
}

#[test]
fn transfer_to_unregistered_subnet_fails_at_source() {
    let mut h = Harness::setup();
    let ghost = SubnetId::root().child(hc_types::Address::new(424242));
    let phantom = UserHandle {
        subnet: ghost,
        addr: hc_types::Address::new(1),
        ..h.alice.clone()
    };
    let result = h.rt.cross_transfer(&h.alice, &phantom, whole(5));
    expect_exit(result, "not registered");
    // Nothing left in flight; funds untouched (minus nothing).
    assert!(h.rt.all_quiescent());
    h.check_state();
}

#[test]
fn intra_subnet_transfers_do_not_touch_the_hierarchy() {
    let mut h = Harness::setup();
    let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
    let a = h.user(&subnet);
    let b = h.user(&subnet);
    h.fund(&a, 10);

    let root_blocks_before = h.rt.node(&SubnetId::root()).unwrap().stats().blocks;
    // Plain transfer inside the subnet.
    h.rt.execute(&a, b.addr, whole(4), hc_state::Method::Send)
        .unwrap();
    assert_eq!(h.rt.balance(&b), whole(4));
    // Only the subnet produced a block for it.
    assert_eq!(
        h.rt.node(&SubnetId::root()).unwrap().stats().blocks,
        root_blocks_before
    );
    h.check_state();
}

#[test]
fn many_transfers_in_both_directions_conserve_supply() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let left = h.spawn(&alice, SaConfig::default());
    let right = h.spawn(&alice, SaConfig::default());
    let lu = h.user(&left);
    let ru = h.user(&right);
    let root_sink = h.user(&SubnetId::root());

    h.rt.cross_transfer(&alice, &lu, whole(100)).unwrap();
    h.fund(&ru, 100);

    for i in 0..5u64 {
        h.rt.cross_transfer(&lu, &ru, whole(2 + i)).unwrap();
        h.rt.cross_transfer(&ru, &root_sink, whole(1 + i)).unwrap();
        h.rt.cross_transfer(&alice, &lu, whole(3)).unwrap();
    }
    let blocks = h.settle();
    assert!(blocks < 5_000, "mixed traffic must converge");

    // Conservation arithmetic: what left the users arrived elsewhere.
    let sent_lu: u64 = (0..5).map(|i| 2 + i).sum();
    let sent_ru: u64 = (0..5).map(|i| 1 + i).sum();
    assert_eq!(h.rt.balance(&lu), whole(100 - sent_lu + 15));
    assert_eq!(h.rt.balance(&ru), whole(100 + sent_lu - sent_ru));
    assert_eq!(h.rt.balance(&root_sink), whole(sent_ru));
}

#[test]
fn checkpoints_chain_and_children_trees_fill() {
    let mut h = Harness::setup();
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let subnet = h.spawn(&h.alice.clone(), sa);
    // Produce enough child blocks for several checkpoints.
    for _ in 0..30 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    // Let the root absorb pending commits.
    h.settle();

    let child = h.rt.node(&subnet).unwrap();
    assert!(child.stats().checkpoints_cut >= 5);
    let root = h.rt.node(&SubnetId::root()).unwrap();
    assert_eq!(
        root.stats().checkpoints_committed,
        child.stats().checkpoints_cut,
        "every cut checkpoint was committed"
    );
    // The SCA recorded the chain of checkpoints.
    let info = h.child_info(&subnet);
    assert_eq!(info.committed_checkpoints, child.stats().checkpoints_cut);
    assert!(!info.prev_checkpoint.is_nil());
}

#[test]
fn deterministic_replay_under_same_seed() {
    let run = |seed: u64| {
        let config = RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        };
        let mut h = Harness::with(config, 1_000_000);
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let bob = h.user(&subnet);
        h.fund(&bob, 20);
        (
            h.rt.node(&subnet).unwrap().chain().head(),
            h.rt.node(&SubnetId::root()).unwrap().chain().head(),
            h.rt.now_ms(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

/// Cross-net content is kept only on its route and only until it is used,
/// and every certificate settles (paper §IV-A, §IV-C). In a three-level
/// tree carrying bottom-up and path transfers of every shape, the
/// hierarchy at rest holds no group in any resolver — a subnet serves the
/// groups it cut from its registry — no tentative payment, and no
/// settlement owed a certificate (a subnet that forwards a path payment
/// down does not settle it).
#[test]
fn cross_net_content_and_certificates_are_held_only_until_used() {
    let mut h = Harness::setup();
    let alice = h.alice.clone();
    let (a, b) = (
        h.spawn(&alice, SaConfig::default()),
        h.spawn(&alice, SaConfig::default()),
    );
    let leaf = |h: &mut Harness, mid: &SubnetId| {
        let creator = h.user(mid);
        h.fund(&creator, 100);
        h.spawn(&creator, SaConfig::default())
    };
    let (ax, ay, bz) = (leaf(&mut h, &a), leaf(&mut h, &a), leaf(&mut h, &b));
    let (x, y, z) = (h.user(&ax), h.user(&ay), h.user(&bz));
    let (am, root_user) = (h.user(&a), h.user(&SubnetId::root()));
    h.fund(&x, 100);
    h.fund(&am, 100);

    for _ in 0..3 {
        for to in [&root_user, &am, &y, &z] {
            h.rt.cross_transfer(&x, to, whole(1)).unwrap();
        }
        h.rt.cross_transfer(&am, &root_user, whole(1)).unwrap();
        for _ in 0..7 {
            h.rt.step().unwrap();
        }
    }
    h.settle();
    assert_eq!(h.rt.balance(&root_user), whole(6));
    assert_eq!(h.rt.balance(&z), whole(3));

    for subnet in [SubnetId::root(), a, b, ax, ay, bz] {
        let node = h.rt.node(&subnet).unwrap();
        let held: Vec<_> = node.resolver().cache().cids().collect();
        assert!(held.is_empty(), "{subnet} holds groups: {held:?}");
        assert_eq!(node.tentative_count(), 0, "{subnet} holds certificates");
        assert_eq!(node.owed_certificates(), 0, "{subnet} owes certificates");
    }
    let root = h.rt.node(&SubnetId::root()).unwrap();
    assert!(root.resolver().stats().cache_hits > 0);
}
