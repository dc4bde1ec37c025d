//! Checkpoint archive and light-client verification.
//!
//! Checkpoints "are propagated to the top of the hierarchy, making them
//! accessible to any member of the system. They should include enough
//! information that any client receiving it is able to verify the
//! correctness of the subnet consensus" (paper §II). The runtime archives
//! every committed child checkpoint; [`HierarchyRuntime::verify_checkpoint_chain`]
//! plays the light client: it re-validates the full hash chain and the
//! signature policy without touching the subnet's own chain.
//!
//! Each subnet's registry is an append-only [`Amt`] keyed by commit order,
//! so the archive commits to a content-addressed root per subnet and a
//! light client can check a single historic checkpoint against that root
//! with an O(log n) [`AmtProof`] instead of replaying the whole chain.

use std::collections::BTreeMap;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_state::{Amt, AmtProof, AmtRoot, CidStore, HashWork};
use hc_types::crypto::SignaturePolicy;
use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, SubnetId};

use crate::runtime::HierarchyRuntime;

/// One archived checkpoint plus the signature policy that was in force
/// when the parent committed it — validator sets churn, so historic
/// checkpoints must be audited against their *contemporaneous* policy.
#[derive(Debug, Clone)]
pub struct ArchiveEntry {
    /// The committed signed checkpoint.
    pub signed: SignedCheckpoint,
    /// The subnet's signature policy at commit time.
    pub policy: SignaturePolicy,
}

impl CanonicalEncode for ArchiveEntry {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.signed.write_bytes(out);
        self.policy.write_bytes(out);
    }
}

impl CanonicalDecode for ArchiveEntry {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(ArchiveEntry {
            signed: SignedCheckpoint::read_bytes(r)?,
            policy: SignaturePolicy::read_bytes(r)?,
        })
    }
}

/// The per-subnet archive of committed checkpoints (oldest first), each
/// registry an append-only [`Amt`] indexed by commit order.
#[derive(Debug, Clone, Default)]
pub struct CheckpointArchive {
    entries: BTreeMap<SubnetId, Amt<ArchiveEntry>>,
}

impl CheckpointArchive {
    /// Records a committed checkpoint with the policy in force.
    pub(crate) fn record(&mut self, signed: SignedCheckpoint, policy: SignaturePolicy) {
        self.entries
            .entry(signed.checkpoint.source.clone())
            .or_default()
            .push(ArchiveEntry { signed, policy });
    }

    /// The committed checkpoints of one subnet, oldest first.
    pub fn history(&self, subnet: &SubnetId) -> Vec<ArchiveEntry> {
        let mut out = Vec::new();
        if let Some(amt) = self.entries.get(subnet) {
            amt.for_each(&mut |_, e| out.push(e.clone()));
        }
        out
    }

    /// The archived checkpoint at `index` in `subnet`'s commit order.
    pub fn entry(&self, subnet: &SubnetId, index: u64) -> Option<&ArchiveEntry> {
        self.entries.get(subnet)?.get(index)
    }

    /// The root (height, count, top-node CID) committing to `subnet`'s full
    /// registry (re-hashing only paths dirtied since the last call).
    pub fn registry_root(&mut self, subnet: &SubnetId) -> Option<AmtRoot> {
        Some(
            self.entries
                .get_mut(subnet)?
                .flush(&mut HashWork::default()),
        )
    }

    /// An O(log n) inclusion proof that `subnet`'s registry holds its
    /// `index`-th archived checkpoint under [`Self::registry_root`].
    pub fn prove(&mut self, subnet: &SubnetId, index: u64) -> Option<AmtProof> {
        let amt = self.entries.get_mut(subnet)?;
        amt.flush(&mut HashWork::default());
        amt.prove(index)
    }

    /// Persists every registry into `store` (unchanged subtrees are
    /// shared) and returns the per-subnet AMT top-node CIDs — the GC pin set
    /// that keeps archived history reachable across sweeps.
    pub(crate) fn persist(&mut self, store: &CidStore) -> Vec<Cid> {
        self.entries
            .values_mut()
            .map(|amt| amt.persist(store).node.cid())
            .collect()
    }

    /// Total checkpoints archived across all subnets.
    pub fn len(&self) -> usize {
        self.entries.values().map(|a| a.len() as usize).sum()
    }

    /// Returns `true` if nothing was archived yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl HierarchyRuntime {
    /// The archive of committed checkpoints.
    pub fn checkpoint_archive(&self) -> &CheckpointArchive {
        &self.archive
    }

    /// Commits the archive registries into the runtime's content store
    /// and returns `(registry_root, proof)` for the `index`-th checkpoint
    /// committed for `subnet` — everything a light client needs to check
    /// one historic checkpoint without downloading the registry:
    /// `proof.verify(&root, index, &entry)`.
    pub fn prove_archived_checkpoint(
        &mut self,
        subnet: &SubnetId,
        index: u64,
    ) -> Option<(AmtRoot, AmtProof)> {
        let archive = &mut self.archive;
        let root = archive.registry_root(subnet)?;
        let proof = archive.prove(subnet, index)?;
        Some((root, proof))
    }

    /// Light-client audit of a subnet's checkpoint chain as committed in
    /// its parent: verifies that (1) the `prev` pointers form an unbroken
    /// hash chain from genesis ([`Cid::NIL`]) to the parent SCA's recorded
    /// head, (2) epochs strictly increase, (3) every checkpoint names the
    /// right source subnet, and (4) every checkpoint's signatures satisfy
    /// the Subnet Actor signature policy *in force when it was committed*
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

        let history = self.checkpoint_archive().history(subnet);
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
