//! Checkpoints: the anchoring mechanism between a subnet and its parent.
//!
//! Per the paper (§III-B), a checkpoint is the tuple
//! `⟨s, proof, prev, children, crossMeta⟩`, identified by its CID, and
//! carries the signatures required by the Subnet Actor's signature policy.
//! Checkpoints serve two purposes:
//!
//! 1. **Security anchoring** — committing the child's chain (`proof`) into
//!    the parent protects against history rewrites (e.g. long-range attacks
//!    on PoS subnets), and the `prev` pointers form a hash chain of
//!    checkpoints that can be audited from the rootnet.
//! 2. **Transport** — `crossMeta` propagates bottom-up cross-net message
//!    metadata towards the rest of the hierarchy.

use hc_types::crypto::AggregateSignature;
use hc_types::{decode_fields, encode_fields, CanonicalEncode, ChainEpoch, Cid, SubnetId};

use crate::msg::CrossMsgMeta;

/// An entry of the checkpoint's `children` tree: the checkpoint CIDs a
/// child subnet committed during this checkpoint window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildCheck {
    /// The child subnet.
    pub source: SubnetId,
    /// CIDs of checkpoints committed by `source` in this window, oldest
    /// first.
    pub checks: Vec<Cid>,
}

encode_fields!(ChildCheck { source, checks });
decode_fields!(ChildCheck { source, checks });

/// A subnet checkpoint: `⟨s, proof, prev, children, crossMeta⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// `s` — the source subnet committing this checkpoint.
    pub source: SubnetId,
    /// `proof` — CID of the latest block of the subnet chain being
    /// committed. Subnets are free to use richer proof schemes
    /// (multi-signature, threshold, ZK); the proof is opaque to the parent
    /// beyond equality checks.
    pub proof: Cid,
    /// Epoch of the subnet chain at which this checkpoint was cut.
    pub epoch: ChainEpoch,
    /// `prev` — CID of this subnet's previous checkpoint ([`Cid::NIL`] for
    /// the first), forming a per-subnet hash chain.
    pub prev: Cid,
    /// `children` — checkpoint CIDs from each child committed this window.
    pub children: Vec<ChildCheck>,
    /// `crossMeta` — bottom-up cross-message metadata being propagated
    /// upwards by this subnet and its descendants.
    pub cross_msgs: Vec<CrossMsgMeta>,
}

encode_fields!(Checkpoint {
    source,
    proof,
    epoch,
    prev,
    children,
    cross_msgs
});
decode_fields!(Checkpoint {
    source,
    proof,
    epoch,
    prev,
    children,
    cross_msgs
});

impl Checkpoint {
    /// Creates an empty checkpoint template for `source` at `epoch`,
    /// chained to `prev`.
    ///
    /// Miners populate the template over the checkpoint window by calling
    /// the SCA (paper Fig. 2), then sign it when the window closes.
    pub fn template(source: SubnetId, epoch: ChainEpoch, prev: Cid) -> Self {
        Checkpoint {
            source,
            proof: Cid::NIL,
            epoch,
            prev,
            children: Vec::new(),
            cross_msgs: Vec::new(),
        }
    }

    /// Adds (or merges) a child's committed checkpoint CID.
    pub fn add_child_check(&mut self, child: SubnetId, cid: Cid) {
        if let Some(entry) = self.children.iter_mut().find(|c| c.source == child) {
            if !entry.checks.contains(&cid) {
                entry.checks.push(cid);
            }
        } else {
            self.children.push(ChildCheck {
                source: child,
                checks: vec![cid],
            });
        }
    }

    /// Adds a cross-message meta to be propagated in this checkpoint.
    pub fn add_cross_meta(&mut self, meta: CrossMsgMeta) {
        self.cross_msgs.push(meta);
    }

    /// Total number of cross-messages referenced by the metas carried.
    pub fn cross_msg_count(&self) -> u64 {
        self.cross_msgs.iter().map(|m| m.count).sum()
    }

    /// Size of the canonical encoding in bytes — the on-parent-chain
    /// footprint used by the checkpoint-overhead experiments.
    pub fn encoded_size(&self) -> usize {
        self.canonical_bytes().len()
    }
}

/// A checkpoint plus the signatures collected from the subnet's validators.
///
/// The signatures are over the checkpoint's CID, and whether they satisfy
/// the subnet's policy is judged by the Subnet Actor
/// ([`crate::sa::SaState::submit_checkpoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedCheckpoint {
    /// The checkpoint body.
    pub checkpoint: Checkpoint,
    /// Validator signatures over the checkpoint CID.
    pub signatures: AggregateSignature,
}

encode_fields!(SignedCheckpoint {
    checkpoint,
    signatures
});
decode_fields!(SignedCheckpoint {
    checkpoint,
    signatures
});

impl SignedCheckpoint {
    /// Wraps a checkpoint with an (initially empty) signature set.
    pub fn new(checkpoint: Checkpoint) -> Self {
        SignedCheckpoint {
            checkpoint,
            signatures: AggregateSignature::new(),
        }
    }

    /// The message validators sign: the checkpoint CID bytes.
    pub fn signing_bytes(&self) -> Vec<u8> {
        self.checkpoint.cid().as_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_types::{Address, Nonce, TokenAmount};

    fn subnet(route: &[u64]) -> SubnetId {
        SubnetId::from_route(route.iter().copied().map(Address::new))
    }

    fn meta(from: &[u64], to: &[u64]) -> CrossMsgMeta {
        CrossMsgMeta {
            from: subnet(from),
            to: subnet(to),
            nonce: Nonce::ZERO,
            msgs_cid: Cid::digest(b"group"),
            count: 3,
            total_value: TokenAmount::from_atto(10),
        }
    }

    #[test]
    fn template_starts_empty_and_chained() {
        let prev = Cid::digest(b"prev");
        let c = Checkpoint::template(subnet(&[100]), ChainEpoch::new(10), prev);
        assert_eq!(c.prev, prev);
        assert!(c.children.is_empty());
        assert!(c.cross_msgs.is_empty());
        assert_eq!(c.cross_msg_count(), 0);
    }

    #[test]
    fn add_child_check_merges_per_child() {
        let mut c = Checkpoint::template(subnet(&[]), ChainEpoch::new(0), Cid::NIL);
        let child = subnet(&[100]);
        let c1 = Cid::digest(b"c1");
        let c2 = Cid::digest(b"c2");
        c.add_child_check(child.clone(), c1);
        c.add_child_check(child.clone(), c2);
        c.add_child_check(child.clone(), c1); // duplicate ignored
        c.add_child_check(subnet(&[101]), c1);
        assert_eq!(c.children.len(), 2);
        assert_eq!(c.children[0].checks, vec![c1, c2]);
    }

    #[test]
    fn cid_changes_with_content() {
        let a = Checkpoint::template(subnet(&[100]), ChainEpoch::new(1), Cid::NIL);
        let mut b = a.clone();
        b.add_cross_meta(meta(&[100], &[]));
        assert_ne!(a.cid(), b.cid());
        assert_eq!(b.cross_msg_count(), 3);
    }

    #[test]
    fn signing_bytes_are_the_checkpoint_cid() {
        let c = Checkpoint::template(subnet(&[100]), ChainEpoch::new(1), Cid::NIL);
        let signed = SignedCheckpoint::new(c.clone());
        assert_eq!(signed.signing_bytes(), c.cid().as_bytes().to_vec());
    }

    #[test]
    fn encoded_size_grows_with_metas() {
        let mut c = Checkpoint::template(subnet(&[100]), ChainEpoch::new(1), Cid::NIL);
        let small = c.encoded_size();
        for _ in 0..10 {
            c.add_cross_meta(meta(&[100, 101], &[]));
        }
        assert!(c.encoded_size() > small);
    }
}
