//! Light-client verification of committed checkpoint chains (paper §II:
//! "any client receiving it is able to verify the correctness of the
//! subnet consensus").

mod common;

use common::{whole, Harness};
use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::sa::SaConfig;
use hc_core::{RuntimeConfig, SyncMode};
use hc_state::{ImplicitMsg, Method};
use hc_types::{CanonicalEncode, ChainEpoch, SubnetId};

/// A child that cuts a checkpoint every five blocks.
fn five_block_windows() -> SaConfig {
    SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    }
}

#[test]
fn archived_chain_verifies_end_to_end() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    // Produce several checkpoint windows with some traffic.
    let bob = h.user(&subnet);
    h.rt.cross_transfer(&h.alice, &bob, whole(10)).unwrap();
    for _ in 0..40 {
        h.rt.tick_subnet(&subnet).unwrap();
    }
    h.settle();

    let verified = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert!(
        verified.len() >= 7,
        "expected several checkpoints, got {}",
        verified.len()
    );
    // The walk ends at the SCA's recorded head and holds as many
    // checkpoints as the SCA counts.
    let info = h.child_info(&subnet);
    assert_eq!(info.committed_checkpoints, verified.len() as u64);
    assert_eq!(
        verified.last().unwrap().checkpoint.cid(),
        info.prev_checkpoint
    );
}

#[test]
fn archive_registry_survives_gc_sweeps() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    for _ in 0..3 {
        h.commit_checkpoint(&subnet);
    }
    // A blob sweep touches the state store alone: the history read from
    // the parent's chain is what it was before it.
    let history = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert!(history.len() >= 3);
    h.rt.prune_blobs();
    assert_eq!(h.rt.verify_checkpoint_chain(&subnet), Ok(history));
}

#[test]
fn rootnet_has_no_checkpoint_chain() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    h.spawn(&h.alice.clone(), five_block_windows());
    assert!(h.rt.verify_checkpoint_chain(&SubnetId::root()).is_err());
}

#[test]
fn unregistered_subnet_fails_verification() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    h.spawn(&h.alice.clone(), five_block_windows());
    let ghost = SubnetId::root().child(hc_types::Address::new(12345));
    assert!(h.rt.verify_checkpoint_chain(&ghost).is_err());
}

/// Every checkpoint of `subnet` the committed blocks of its parent carry,
/// accepted or refused, in chain order.
fn carried(h: &Harness, subnet: &SubnetId) -> Vec<SignedCheckpoint> {
    let parent = h.rt.node(&subnet.parent().unwrap()).unwrap();
    let mut carried = Vec::new();
    for block in parent.chain().iter() {
        for m in &block.implicit_msgs {
            match m {
                ImplicitMsg::CommitChildCheckpoint { signed }
                    if signed.checkpoint.source == *subnet =>
                {
                    carried.push(signed.clone());
                }
                _ => {}
            }
        }
    }
    carried
}

/// A forged over-withdrawal is committed into a parent block, refused by
/// the firewall, and never on the walk: the chain still verifies to what it
/// was.
#[test]
fn rejected_forgeries_never_enter_the_archive() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    h.commit_checkpoint(&subnet);
    let before = h.rt.verify_checkpoint_chain(&subnet).unwrap();

    h.rt.forge_withdrawal(&subnet, hc_types::Address::new(666), whole(10_000))
        .unwrap();
    let after = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert_eq!(after[..before.len()], before[..]);
    let forged: Vec<_> = carried(&h, &subnet)
        .into_iter()
        .filter(|c| !after.contains(c))
        .collect();
    assert_eq!(forged.len(), 1, "the forgery sits in a committed block");
    assert!(!forged[0].checkpoint.cross_msgs.is_empty());
}

/// A copy of a committed checkpoint handed to the parent again — here
/// signed again once a second validator joined, so the copies differ — is
/// committed into a later block and refused there. The walk resolves the
/// checkpoint to its first copy, the one the parent accepted.
#[test]
fn a_resubmitted_checkpoint_resolves_to_its_first_commit() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    h.commit_checkpoint(&subnet);
    let first = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    let committed = first.last().unwrap().clone();
    assert_eq!(committed.signatures.len(), 1);

    let v2 = h.rt.create_user(&SubnetId::root(), whole(100)).unwrap();
    let key = v2.key.public();
    let sa = subnet.actor().unwrap();
    h.rt.execute(&v2, sa, whole(5), Method::JoinSubnet { key })
        .unwrap();
    h.rt.tick_subnet(&subnet).unwrap();
    h.rt.inject_signed_checkpoint(&subnet, |c| *c = committed.checkpoint.clone())
        .unwrap();
    h.settle();

    let copies: Vec<_> = carried(&h, &subnet)
        .into_iter()
        .filter(|c| c.checkpoint == committed.checkpoint)
        .collect();
    assert_eq!(copies.len(), 2);
    assert_eq!(copies[0], committed);
    assert_eq!(copies[1].signatures.len(), 2, "the copy is signed by both");
    let walk = h.rt.verify_checkpoint_chain(&subnet).unwrap();
    assert_eq!(walk[..first.len()], first[..]);
}

/// A parent that rejoined from a snapshot holds its chain from epoch 1,
/// the blocks its snapshot covered too: root → a → a1, a1 crashes, then a;
/// a rejoins under snapshot sync, then a1. a1's chain still verifies from
/// genesis over a's one chain, and part of it was committed below a's
/// install boundary.
#[test]
fn a_history_committed_below_a_snapshot_install_verifies() {
    let config = RuntimeConfig {
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let a = h.spawn(&h.alice.clone(), five_block_windows());
    let creator = h.user(&a);
    h.fund(&creator, 100);
    let a1 = h.spawn(&creator, five_block_windows());
    h.commit_checkpoint(&a1);
    h.commit_checkpoint(&a1);
    let before = h.rt.verify_checkpoint_chain(&a1).unwrap();

    h.rt.crash_node(&a1).unwrap();
    let committed_at = h.rt.node(&a).unwrap().chain().head_epoch();
    while h
        .rt
        .checkpoint_anchor(&a)
        .is_none_or(|(at, _)| at <= committed_at)
    {
        h.rt.step().unwrap();
    }
    let installs = h.rt.chaos_stats().snapshot_installs;
    let (boundary, _) = h.rt.checkpoint_anchor(&a).unwrap();
    h.rt.crash_node(&a).unwrap();
    h.rt.rejoin_node(&a).unwrap();
    while h.rt.is_catching_up(&a) {
        h.rt.step().unwrap();
    }
    assert_eq!(h.rt.chaos_stats().snapshot_installs, installs + 1);
    h.rt.rejoin_node(&a1).unwrap();
    h.settle();
    h.commit_checkpoint(&a1);

    let walk = h.rt.verify_checkpoint_chain(&a1).unwrap();
    assert_eq!(walk[..before.len()], before[..]);
    let chain = h.rt.node(&a).unwrap().chain();
    assert!(
        chain.header_at(ChainEpoch::new(1)).is_some(),
        "a's chain starts at genesis"
    );
    let covered = chain.iter().take_while(|b| b.header.epoch <= boundary);
    let below: Vec<SignedCheckpoint> = covered
        .flat_map(|b| b.implicit_msgs.clone())
        .filter_map(|m| match m {
            ImplicitMsg::CommitChildCheckpoint { signed } => Some(signed),
            _ => None,
        })
        .collect();
    assert!(
        walk.iter().any(|c| below.contains(c)),
        "some checkpoint was committed below the install boundary"
    );
}
