//! End-to-end tests of the hierarchy runtime: subnet lifecycle, all three
//! cross-net message classes, checkpoint propagation, reverts, and the
//! supply audits.

use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_core::{audit_escrow, audit_quiescent, HierarchyRuntime, RuntimeConfig, UserHandle};
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// A runtime with one funded root user and a helper to spawn subnets.
struct World {
    rt: HierarchyRuntime,
    alice: UserHandle,
}

impl World {
    fn new() -> Self {
        Self::with_config(RuntimeConfig::default())
    }

    fn with_config(config: RuntimeConfig) -> Self {
        let mut rt = HierarchyRuntime::new(config);
        let alice = rt.create_user(&SubnetId::root(), whole(1_000_000)).unwrap();
        World { rt, alice }
    }

    /// Spawns a child under `parent_user`'s subnet with one validator
    /// (funded at the root and required to live in the parent).
    fn spawn(&mut self, creator: &UserHandle, sa_config: SaConfig) -> SubnetId {
        let validator = if creator.subnet.is_root() {
            self.rt.create_user(&SubnetId::root(), whole(100)).unwrap()
        } else {
            // Validators of nested subnets live in the parent subnet and
            // are funded there cross-net first.
            let v = self.rt.create_user(&creator.subnet, whole(0)).unwrap();
            self.rt.cross_transfer(&self.alice, &v, whole(100)).unwrap();
            self.rt.run_until_quiescent(10_000).unwrap();
            v
        };
        self.rt
            .spawn_subnet(creator, sa_config, whole(10), &[(validator, whole(5))])
            .unwrap()
    }
}

#[test]
fn top_down_transfer_reaches_child_and_audits_pass() {
    let mut w = World::new();
    let subnet = w.spawn(&w.alice.clone(), SaConfig::default());
    let bob = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();

    w.rt.cross_transfer(&w.alice.clone(), &bob, whole(20))
        .unwrap();
    w.rt.run_until_quiescent(1_000).unwrap();

    assert_eq!(w.rt.balance(&bob), whole(20));
    let info =
        w.rt.node(&SubnetId::root())
            .unwrap()
            .state()
            .sca()
            .subnet(&subnet)
            .unwrap()
            .clone();
    assert_eq!(info.circ_supply, whole(20));
    audit_escrow(&w.rt).unwrap();
    audit_quiescent(&w.rt).unwrap();
}

#[test]
fn bottom_up_transfer_returns_to_root_via_checkpoints() {
    let mut w = World::new();
    let subnet = w.spawn(&w.alice.clone(), SaConfig::default());
    let bob = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    let carol =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();

    // Fund bob in the child, then bob sends 8 back up to carol at root.
    w.rt.cross_transfer(&w.alice.clone(), &bob, whole(20))
        .unwrap();
    w.rt.run_until_quiescent(1_000).unwrap();
    w.rt.cross_transfer(&bob, &carol, whole(8)).unwrap();
    let blocks = w.rt.run_until_quiescent(1_000).unwrap();
    assert!(blocks < 1_000, "bottom-up flow must converge");

    assert_eq!(w.rt.balance(&carol), whole(8));
    assert_eq!(w.rt.balance(&bob), whole(12));
    // Circulating supply shrank by the returned value.
    let info =
        w.rt.node(&SubnetId::root())
            .unwrap()
            .state()
            .sca()
            .subnet(&subnet)
            .unwrap()
            .clone();
    assert_eq!(info.circ_supply, whole(12));
    audit_quiescent(&w.rt).unwrap();
    // The child cut checkpoints and the root committed them.
    assert!(w.rt.node(&subnet).unwrap().stats().checkpoints_cut > 0);
    assert!(
        w.rt.node(&SubnetId::root())
            .unwrap()
            .stats()
            .checkpoints_committed
            > 0
    );
}

#[test]
fn path_message_between_sibling_subnets_turns_around_at_root() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let left = w.spawn(&alice, SaConfig::default());
    let right = w.spawn(&alice, SaConfig::default());
    assert_ne!(left, right);

    let sender = w.rt.create_user(&left, TokenAmount::ZERO).unwrap();
    let receiver = w.rt.create_user(&right, TokenAmount::ZERO).unwrap();

    w.rt.cross_transfer(&alice, &sender, whole(30)).unwrap();
    w.rt.run_until_quiescent(1_000).unwrap();

    // left -> right: bottom-up to root (the LCA), then top-down.
    w.rt.cross_transfer(&sender, &receiver, whole(7)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();

    assert_eq!(w.rt.balance(&receiver), whole(7));
    assert_eq!(w.rt.balance(&sender), whole(23));
    let root_node = w.rt.node(&SubnetId::root()).unwrap();
    assert_eq!(
        root_node.state().sca().subnet(&left).unwrap().circ_supply,
        whole(23)
    );
    assert_eq!(
        root_node.state().sca().subnet(&right).unwrap().circ_supply,
        whole(7)
    );
    audit_quiescent(&w.rt).unwrap();
}

#[test]
fn three_level_hierarchy_routes_in_both_directions() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let mid = w.spawn(&alice, SaConfig::default());

    // A user in `mid` spawns the grandchild (subnets spawn from any point
    // in the hierarchy, paper §II).
    let mid_creator = w.rt.create_user(&mid, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&alice, &mid_creator, whole(200))
        .unwrap();
    w.rt.run_until_quiescent(1_000).unwrap();
    let deep = w.spawn(&mid_creator, SaConfig::default());
    assert_eq!(deep.depth(), 2);
    assert_eq!(deep.parent().unwrap(), mid);

    // Root -> grandchild (two top-down hops, transit escrow in mid).
    let deep_user = w.rt.create_user(&deep, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&alice, &deep_user, whole(40)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();
    assert_eq!(w.rt.balance(&deep_user), whole(40));

    // Grandchild -> root (two bottom-up hops through two checkpoints).
    let root_receiver =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();
    w.rt.cross_transfer(&deep_user, &root_receiver, whole(15))
        .unwrap();
    let blocks = w.rt.run_until_quiescent(3_000).unwrap();
    assert!(blocks < 3_000, "two-level bottom-up must converge");
    assert_eq!(w.rt.balance(&root_receiver), whole(15));
    assert_eq!(w.rt.balance(&deep_user), whole(25));
    audit_quiescent(&w.rt).unwrap();
}

#[test]
fn subnets_can_run_different_consensus_engines() {
    let mut w = World::new();
    let alice = w.alice.clone();
    for kind in [
        ConsensusKind::RoundRobin,
        ConsensusKind::ProofOfStake,
        ConsensusKind::Tendermint,
        ConsensusKind::Mir,
    ] {
        let subnet = w.spawn(
            &alice,
            SaConfig {
                consensus: kind,
                ..SaConfig::default()
            },
        );
        let user = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&alice, &user, whole(5)).unwrap();
        w.rt.run_until_quiescent(2_000).unwrap();
        assert_eq!(w.rt.balance(&user), whole(5), "engine {kind}");
        assert_eq!(w.rt.node(&subnet).unwrap().engine().kind(), kind);
    }
    audit_quiescent(&w.rt).unwrap();
}

#[test]
fn transfer_to_unregistered_subnet_fails_at_source() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let ghost = SubnetId::root().child(hc_types::Address::new(424242));
    let phantom = UserHandle {
        subnet: ghost,
        addr: hc_types::Address::new(1),
    };
    let err = w.rt.cross_transfer(&alice, &phantom, whole(5)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not registered"), "{msg}");
    // Nothing left in flight; funds untouched (minus nothing).
    assert!(w.rt.all_quiescent());
    audit_escrow(&w.rt).unwrap();
}

#[test]
fn intra_subnet_transfers_do_not_touch_the_hierarchy() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let subnet = w.spawn(&alice, SaConfig::default());
    let a = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    let b = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
    w.rt.cross_transfer(&alice, &a, whole(10)).unwrap();
    w.rt.run_until_quiescent(1_000).unwrap();

    let root_blocks_before = w.rt.node(&SubnetId::root()).unwrap().stats().blocks;
    // Plain transfer inside the subnet.
    w.rt.execute(&a, b.addr, whole(4), hc_state::Method::Send)
        .unwrap();
    assert_eq!(w.rt.balance(&b), whole(4));
    // Only the subnet produced a block for it.
    assert_eq!(
        w.rt.node(&SubnetId::root()).unwrap().stats().blocks,
        root_blocks_before
    );
    audit_escrow(&w.rt).unwrap();
}

#[test]
fn many_transfers_in_both_directions_conserve_supply() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let left = w.spawn(&alice, SaConfig::default());
    let right = w.spawn(&alice, SaConfig::default());
    let lu = w.rt.create_user(&left, TokenAmount::ZERO).unwrap();
    let ru = w.rt.create_user(&right, TokenAmount::ZERO).unwrap();
    let root_sink =
        w.rt.create_user(&SubnetId::root(), TokenAmount::ZERO)
            .unwrap();

    w.rt.cross_transfer(&alice, &lu, whole(100)).unwrap();
    w.rt.cross_transfer(&alice, &ru, whole(100)).unwrap();
    w.rt.run_until_quiescent(2_000).unwrap();

    for i in 0..5u64 {
        w.rt.cross_transfer(&lu, &ru, whole(2 + i)).unwrap();
        w.rt.cross_transfer(&ru, &root_sink, whole(1 + i)).unwrap();
        w.rt.cross_transfer(&alice, &lu, whole(3)).unwrap();
    }
    let blocks = w.rt.run_until_quiescent(5_000).unwrap();
    assert!(blocks < 5_000, "mixed traffic must converge");
    audit_quiescent(&w.rt).unwrap();

    // Conservation arithmetic: what left the users arrived elsewhere.
    let sent_lu: u64 = (0..5).map(|i| 2 + i).sum();
    let sent_ru: u64 = (0..5).map(|i| 1 + i).sum();
    assert_eq!(w.rt.balance(&lu), whole(100 - sent_lu + 15));
    assert_eq!(w.rt.balance(&ru), whole(100 + sent_lu - sent_ru));
    assert_eq!(w.rt.balance(&root_sink), whole(sent_ru));
}

#[test]
fn checkpoints_chain_and_children_trees_fill() {
    let mut w = World::new();
    let alice = w.alice.clone();
    let subnet = w.spawn(
        &alice,
        SaConfig {
            checkpoint_period: 5,
            ..SaConfig::default()
        },
    );
    // Produce enough child blocks for several checkpoints.
    for _ in 0..30 {
        w.rt.tick_subnet(&subnet).unwrap();
    }
    // Let the root absorb pending commits.
    w.rt.run_until_quiescent(100).unwrap();

    let child = w.rt.node(&subnet).unwrap();
    assert!(child.stats().checkpoints_cut >= 5);
    let root = w.rt.node(&SubnetId::root()).unwrap();
    assert_eq!(
        root.stats().checkpoints_committed,
        child.stats().checkpoints_cut,
        "every cut checkpoint was committed"
    );
    // The SCA recorded the chain of checkpoints.
    let info = root.state().sca().subnet(&subnet).unwrap();
    assert_eq!(info.committed_checkpoints, child.stats().checkpoints_cut);
    assert!(!info.prev_checkpoint.is_nil());
}

#[test]
fn deterministic_replay_under_same_seed() {
    let run = |seed: u64| {
        let mut w = World::with_config(RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        });
        let alice = w.alice.clone();
        let subnet = w.spawn(&alice, SaConfig::default());
        let bob = w.rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        w.rt.cross_transfer(&alice, &bob, whole(20)).unwrap();
        w.rt.run_until_quiescent(1_000).unwrap();
        (
            w.rt.node(&subnet).unwrap().chain().head(),
            w.rt.node(&SubnetId::root()).unwrap().chain().head(),
            w.rt.now_ms(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
