//! Checkpoint history and light-client verification.
//!
//! Checkpoints "are propagated to the top of the hierarchy, making them
//! accessible to any member of the system. They should include enough
//! information that any client receiving it is able to verify the
//! correctness of the subnet consensus" (paper §II). The runtime keeps
//! every committed child checkpoint on the child's record, oldest first;
//! [`HierarchyRuntime::verify_checkpoint_chain`] plays the light client: it
//! re-validates the full hash chain and the signature quorum without
//! touching the subnet's own chain. Retiring a subnet drops its history
//! with its record.

use hc_actors::checkpoint::SignedCheckpoint;
use hc_types::crypto::SignaturePolicy;
use hc_types::{CanonicalEncode, Cid, SubnetId};

use crate::runtime::HierarchyRuntime;

/// One committed checkpoint plus the signer set that was in force when the
/// parent committed it — validator sets churn, so historic checkpoints
/// must be audited against their *contemporaneous* quorum.
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// The committed signed checkpoint.
    pub signed: SignedCheckpoint,
    /// The subnet's signature quorum at commit time.
    pub policy: SignaturePolicy,
}

impl HierarchyRuntime {
    /// The checkpoints `subnet`'s parent committed, oldest first; empty
    /// for an unknown or retired subnet.
    pub fn checkpoint_history(&self, subnet: &SubnetId) -> &[ArchiveEntry] {
        self.subnets
            .by_id
            .get(subnet)
            .map_or(&[], |r| r.checkpoint_history.as_slice())
    }

    /// Light-client audit of a subnet's checkpoint chain as committed in
    /// its parent: verifies that (1) the `prev` pointers form an unbroken
    /// hash chain from genesis ([`Cid::NIL`]) to the parent SCA's recorded
    /// head, (2) epochs strictly increase, (3) every checkpoint names the
    /// right source subnet, and (4) every checkpoint's signatures satisfy
    /// the Subnet Actor signature quorum *in force when it was committed*
    /// (validator churn does not invalidate history).
    ///
    /// Returns the number of verified checkpoints.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn verify_checkpoint_chain(&self, subnet: &SubnetId) -> Result<u64, String> {
        let parent = subnet
            .parent()
            .ok_or_else(|| "the rootnet commits no checkpoints".to_owned())?;
        let parent_node = self
            .node(&parent)
            .ok_or_else(|| format!("unknown parent {parent}"))?;
        let recorded_head = parent_node
            .state()
            .sca()
            .subnet(subnet)
            .map(|i| i.prev_checkpoint)
            .ok_or_else(|| format!("{subnet} is not registered"))?;

        let history = self.checkpoint_history(subnet);
        let mut prev = Cid::NIL;
        let mut last_epoch = None;
        for (i, entry) in history.iter().enumerate() {
            let ckpt = &entry.signed.checkpoint;
            if ckpt.source != *subnet {
                return Err(format!("checkpoint {i} names source {}", ckpt.source));
            }
            if ckpt.prev != prev {
                return Err(format!(
                    "checkpoint {i} breaks the hash chain: prev {} != expected {}",
                    ckpt.prev, prev
                ));
            }
            if let Some(last) = last_epoch {
                if ckpt.epoch <= last {
                    return Err(format!(
                        "checkpoint {i} epoch {} does not advance {}",
                        ckpt.epoch, last
                    ));
                }
            }
            entry
                .policy
                .check(&entry.signed.signing_bytes(), &entry.signed.signatures)
                .map_err(|e| format!("checkpoint {i} signature policy: {e}"))?;
            prev = ckpt.cid();
            last_epoch = Some(ckpt.epoch);
        }
        if prev != recorded_head {
            return Err(format!(
                "archive head {prev} does not match the SCA's recorded head {recorded_head}"
            ));
        }
        Ok(history.len() as u64)
    }
}
