//! Light-client verification of a subnet's checkpoint history.
//!
//! Checkpoints "are propagated to the top of the hierarchy, making them
//! accessible to any member of the system. They should include enough
//! information that any client receiving it is able to verify the
//! correctness of the subnet consensus" (paper §II). A committed child
//! checkpoint is held once: in the parent block that committed it, as an
//! [`ImplicitMsg::CommitChildCheckpoint`]. The parent SCA records the head
//! of the child's chain, and each checkpoint's `prev` names the one before
//! it. [`HierarchyRuntime::verify_checkpoint_chain`] plays the light
//! client: it walks that hash chain back to genesis over the parent's
//! committed blocks — its node's chain, which holds them from epoch 1
//! however the node bootstrapped — and checks each checkpoint against the
//! signer set the child's Subnet Actor had logged before the block that
//! committed it.
//! Retiring a subnet leaves its history where its parent committed it.

use std::collections::HashMap;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_state::ImplicitMsg;
use hc_types::{CanonicalEncode, ChainEpoch, Cid, SubnetId};

use crate::runtime::HierarchyRuntime;

/// Every child checkpoint a parent's committed blocks carry, by CID, with
/// the epoch of the first block carrying it: a later copy was refused.
pub(crate) type Commits = HashMap<Cid, (ChainEpoch, SignedCheckpoint)>;

impl HierarchyRuntime {
    /// The child checkpoints `parent`'s committed blocks carry, for every
    /// child at once: the parent's own chain, from epoch 1, decoded one
    /// block at a time. Empty for a parent with no node.
    pub(crate) fn committed_checkpoints(&self, parent: &SubnetId) -> Commits {
        let mut committed = Commits::new();
        let Some(parent_node) = self.node(parent) else {
            return committed;
        };
        for block in parent_node.chain().iter() {
            for m in &block.implicit_msgs {
                if let ImplicitMsg::CommitChildCheckpoint { signed } = m {
                    let first = || (block.header.epoch, signed.clone());
                    committed
                        .entry(signed.checkpoint.cid())
                        .or_insert_with(first);
                }
            }
        }
        committed
    }

    /// Light-client audit of a subnet's checkpoint chain as committed in
    /// its parent. From the parent SCA's recorded head it follows `prev`
    /// over the checkpoints the parent's committed blocks carry — the
    /// parent's own chain, decoded one block at a time — and verifies
    /// that (1) every checkpoint names `subnet` as its source, (2) the
    /// `prev` pointers form an unbroken hash chain of committed checkpoints
    /// from the recorded head down to [`Cid::NIL`], (3) epochs strictly
    /// increase, (4) every checkpoint's signatures satisfy the Subnet
    /// Actor's quorum in force when it was committed (validator churn does
    /// not invalidate history), and (5) the chain is as long as the SCA's
    /// count of commits. A checkpoint counts as committed at the first
    /// parent block that carries it: any later copy was refused.
    ///
    /// Returns the verified checkpoints, oldest first.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn verify_checkpoint_chain(
        &self,
        subnet: &SubnetId,
    ) -> Result<Vec<SignedCheckpoint>, String> {
        let parent = subnet
            .parent()
            .ok_or_else(|| "the rootnet commits no checkpoints".to_owned())?;
        let committed = self.committed_checkpoints(&parent);
        let walk = self.walk_checkpoint_chain(subnet, &committed)?;
        Ok(walk.into_iter().cloned().collect())
    }

    /// [`HierarchyRuntime::verify_checkpoint_chain`] over the parent's
    /// `committed` checkpoints, decoded once for all its children.
    pub(crate) fn walk_checkpoint_chain<'a>(
        &self,
        subnet: &SubnetId,
        committed: &'a Commits,
    ) -> Result<Vec<&'a SignedCheckpoint>, String> {
        let parent = subnet
            .parent()
            .ok_or_else(|| "the rootnet commits no checkpoints".to_owned())?;
        let parent_node = self
            .node(&parent)
            .ok_or_else(|| format!("unknown parent {parent}"))?;
        let info = parent_node
            .state()
            .sca()
            .subnet(subnet)
            .ok_or_else(|| format!("{subnet} is not registered"))?;
        let sa = self
            .sa_of(subnet)
            .ok_or_else(|| format!("{subnet} has no subnet actor in {parent}"))?;

        let mut walk = Vec::new();
        let (mut at, mut later) = (info.prev_checkpoint, None);
        while at != Cid::NIL {
            let (committed_at, signed) = committed
                .get(&at)
                .ok_or_else(|| format!("no block of {parent} commits checkpoint {at}"))?;
            let ckpt = &signed.checkpoint;
            if ckpt.source != *subnet {
                return Err(format!("checkpoint {at} names source {}", ckpt.source));
            }
            // Epochs strictly fall going back, so the walk cannot loop.
            if later.is_some_and(|later| ckpt.epoch >= later) {
                return Err(format!(
                    "checkpoint {at} at epoch {} does not precede its successor's",
                    ckpt.epoch
                ));
            }
            sa.signature_policy_at(*committed_at)
                .check(&signed.signing_bytes(), &signed.signatures)
                .map_err(|e| format!("checkpoint {at} signature policy: {e}"))?;
            (at, later) = (ckpt.prev, Some(ckpt.epoch));
            walk.push(signed);
        }
        if walk.len() as u64 != info.committed_checkpoints {
            return Err(format!(
                "the chain from the SCA's head holds {} checkpoints, the SCA counts {}",
                walk.len(),
                info.committed_checkpoints
            ));
        }
        walk.reverse();
        Ok(walk)
    }
}
