//! Light-client verification of committed checkpoint chains (paper §II:
//! "any client receiving it is able to verify the correctness of the
//! subnet consensus").

mod common;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::RuntimeConfig;
use hc_types::{CanonicalEncode, SubnetId};

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
        verified >= 7,
        "expected several checkpoints, got {verified}"
    );
    assert_eq!(h.rt.checkpoint_history(&subnet).len() as u64, verified);
    // The archive head equals the SCA's recorded head (checked inside
    // verify, but assert the count is consistent with the SCA too).
    let committed = h.child_info(&subnet).committed_checkpoints;
    assert_eq!(committed, verified);
}

#[test]
fn archive_registry_survives_gc_sweeps() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    for _ in 0..3 {
        h.commit_checkpoint(&subnet);
    }
    let cids = |h: &Harness| -> Vec<_> {
        h.rt.checkpoint_history(&subnet)
            .iter()
            .map(|e| e.signed.checkpoint.cid())
            .collect()
    };

    // A blob sweep touches the state store alone: the history and its
    // audit are what they were before it.
    let (history, verified) = (cids(&h), h.rt.verify_checkpoint_chain(&subnet).unwrap());
    assert!(verified >= 3);
    h.rt.prune_blobs();
    assert_eq!(cids(&h), history);
    assert_eq!(h.rt.verify_checkpoint_chain(&subnet), Ok(verified));
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

#[test]
fn rejected_forgeries_never_enter_the_archive() {
    let mut h = Harness::with(RuntimeConfig::default(), 100_000);
    let subnet = h.spawn(&h.alice.clone(), five_block_windows());
    h.commit_checkpoint(&subnet);
    let before = h.rt.checkpoint_history(&subnet).len();

    // A forged over-withdrawal checkpoint is rejected by the firewall and
    // must not pollute the archive; the chain still verifies.
    h.rt.forge_withdrawal(&subnet, hc_types::Address::new(666), whole(10_000))
        .unwrap();
    let after = h.rt.checkpoint_history(&subnet).len();
    assert_eq!(before, after);
    h.rt.verify_checkpoint_chain(&subnet).unwrap();
}
