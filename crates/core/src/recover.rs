//! Crash recovery: rebuilding the hierarchy from its journal.
//!
//! [`HierarchyRuntime::recover`] is one scan of the control log written by
//! [`crate::persist`]: records apply in order until one does not, and the
//! log is cut back to that prefix. Every journaled block re-enters its
//! node through the same two doors a live block does —
//! [`SubnetNode::commit_block`](crate::SubnetNode) after re-execution, or
//! its receipt-less prefix `skip_block` inside a fast-forwarded region
//! whose state is installed from the checkpoint-anchored manifest — and
//! its outward effects re-run through the live `post_tick` with journaling
//! and gossip suppressed.

use std::collections::BTreeMap;

use hc_chain::Block;
use hc_state::CidStore;
use hc_types::{CanonicalDecode, ChainEpoch, Cid, SubnetId};

use crate::config::{RuntimeConfig, RuntimeError, UserHandle};
use crate::persist::ControlRecord;
use crate::runtime::HierarchyRuntime;

/// What one recovery pass carries beside the runtime it rebuilds: in
/// snapshot mode, per eligible subnet, the checkpoint anchor its replay
/// fast-forwards to (blocks before it are appended without re-execution;
/// the anchored manifest is installed when its record is reached). Emptied
/// as installs complete; non-empty after replay means the journal tore
/// inside a skipped region and recovery must fall back to full replay.
type FastForward = BTreeMap<SubnetId, (ChainEpoch, Cid)>;

impl HierarchyRuntime {
    /// Restarts a hierarchy from the journaled history on
    /// `config.persistence`'s device: replays the longest satisfiable
    /// prefix of the control log (re-executing every journaled block and
    /// verifying each recomputed state root against the block header),
    /// truncates everything past that prefix out of the log, and resumes
    /// live operation from there.
    ///
    /// With [`crate::PersistenceConfig::InMemory`] this is just
    /// [`HierarchyRuntime::new`]. The rest of the `config` (seed, network,
    /// engine parameters, …) must match the run that wrote the journal —
    /// it deliberately does not store the whole world, only what a
    /// deterministic re-execution cannot re-derive.
    pub fn recover(config: RuntimeConfig) -> Self {
        if !config.persistence.is_durable() {
            return Self::new(config);
        }
        if config.sync_mode == crate::chaos::SyncMode::Snapshot {
            // Snapshot mode fast-forwards each eligible subnet to its last
            // checkpoint-anchored manifest instead of re-executing its
            // whole history. If a fast-forward target turns out to be
            // unreachable (the journal tore inside the skipped region),
            // fall back to the total full-replay recovery below.
            if let Some(rt) = Self::recover_attempt(config.clone(), true) {
                return rt;
            }
        }
        Self::recover_attempt(config, false).expect("full-replay recovery never abandons a prefix")
    }

    /// One recovery pass over the journal. With `fast_forward` enabled,
    /// returns `None` (leaving the journal untouched) when an eligible
    /// subnet's anchor was never reached — the caller retries without
    /// fast-forwarding.
    fn recover_attempt(config: RuntimeConfig, fast_forward: bool) -> Option<Self> {
        let mut rt = Self::boot(config);
        rt.journal.begin_replay();
        // The blob log is attached before replaying: replayed persists
        // dedup against blobs that survived the crash and re-journal any
        // the torn tail lost.
        let (mut control, raw) = rt.journal.open(&rt.store)?;
        // Each record is decoded once; the first that does not decode ends
        // the log as surely as one that does not apply.
        let records: Vec<ControlRecord> = raw
            .into_iter()
            .map_while(|bytes| ControlRecord::decode(&bytes).ok())
            .collect();
        let mut targets = FastForward::new();
        if fast_forward {
            targets = Self::plan_fast_forward(&records, &rt.store);
        }
        let mut applied = 0usize;
        for record in records {
            if !rt.apply_control_record(record, &mut targets) {
                break;
            }
            applied += 1;
        }
        if !targets.is_empty() {
            // A subnet's replay stopped before its anchor installed: its
            // chain is ahead of its (still-genesis) state tree. Abandon
            // this attempt before any journal truncation.
            return None;
        }
        // Make the journal agree with the recovered world: a record past
        // the replayed prefix is not part of history.
        control.truncate_after(applied);
        rt.store.sync();
        rt.journal.attach(control);
        Some(rt)
    }

    /// Scans the control log for subnets whose recovery can skip straight
    /// to their newest checkpoint anchor. Eligible: non-root subnets with
    /// no booted descendants (a child's boot reads its parent's state,
    /// which a fast-forwarded parent would not have yet) whose anchored
    /// manifest closure fully survives in the blob store — anything less
    /// replays in full.
    fn plan_fast_forward(records: &[ControlRecord], store: &CidStore) -> FastForward {
        let mut booted: Vec<&SubnetId> = Vec::new();
        let mut anchors = FastForward::new();
        for record in records {
            match record {
                ControlRecord::SubnetBoot { child, .. } => booted.push(child),
                ControlRecord::CheckpointAnchor {
                    subnet,
                    epoch,
                    manifest,
                } => {
                    anchors.insert(subnet.clone(), (*epoch, *manifest));
                }
                _ => {}
            }
        }
        anchors.retain(|subnet, (_, manifest)| {
            // `hydrate_manifest` pulls the closure out of the surviving
            // blob log into memory — recovery starts from an empty store,
            // so the log is the only place the snapshot can live.
            !subnet.is_root()
                && !booted.iter().any(|b| subnet.is_ancestor_of(b))
                && store.hydrate_manifest(manifest)
        });
        anchors
    }

    /// Applies one control record during recovery. Returns `false` when the
    /// record cannot be satisfied (its block does not extend its chain, a
    /// state root fails to reproduce, …) — replay stops there and the
    /// journal is truncated back to the satisfied prefix.
    fn apply_control_record(&mut self, record: ControlRecord, targets: &mut FastForward) -> bool {
        match record {
            ControlRecord::UserCreated {
                subnet,
                addr,
                balance,
            } => {
                if self.install_account(&subnet, addr, Some(balance)).is_err() {
                    return false;
                }
                self.wallets.reserve(addr);
                true
            }
            ControlRecord::ClaimantCreated { subnet, addr } => {
                self.create_claimant(&UserHandle { subnet, addr }).is_ok()
            }
            ControlRecord::UserAdopted { subnet, addr } => {
                self.install_account(&subnet, addr, None).is_ok()
            }
            ControlRecord::SubnetRetired { subnet } => {
                if !self.nodes.contains_key(&subnet) {
                    return false;
                }
                self.retire_node(&subnet);
                true
            }
            ControlRecord::SubnetBoot {
                child,
                config,
                engine_params,
            } => {
                self.boot_child_node(&child, &config, &engine_params);
                self.nodes.contains_key(&child)
            }
            ControlRecord::Block(block) => {
                let skip = targets.contains_key(&block.header.subnet);
                self.replay_journaled_block(block, skip).is_ok()
            }
            ControlRecord::SnapshotAnchor { subnet, manifest } => {
                if targets.contains_key(&subnet) {
                    // The tree this snapshot was cut from is being skipped;
                    // the journaled manifest cannot be re-persisted for a
                    // cross-check, only kept in the GC window.
                    self.track_manifest(&subnet, manifest);
                    return true;
                }
                let Some(node) = self.nodes.get_mut(&subnet) else {
                    return false;
                };
                let recomputed = node.tree.persist(&node.store);
                if recomputed != manifest {
                    return false;
                }
                node.stats.state_persists += 1;
                self.track_manifest(&subnet, manifest);
                true
            }
            ControlRecord::CheckpointAnchor {
                subnet,
                epoch,
                manifest,
            } => {
                let Some(&(target_epoch, target_manifest)) = targets.get(&subnet) else {
                    // The persist already re-ran inside the replayed
                    // block's checkpoint-cut routing; this anchor only
                    // cross-checks it.
                    let record = self.subnets.by_id.get(&subnet);
                    return record.and_then(|r| r.manifests.back()) == Some(&manifest);
                };
                if epoch == target_epoch {
                    // The fast-forward target: install the anchored
                    // snapshot and resume normal replay from here.
                    if manifest != target_manifest
                        || self.install_anchor(&subnet, epoch, &manifest).is_err()
                    {
                        return false;
                    }
                    targets.remove(&subnet);
                }
                // Target or a pre-target anchor inside the skipped prefix
                // (no persist ran to cross-check against): the GC window
                // must advance exactly as it did live.
                self.anchor_manifest(&subnet, epoch, manifest);
                true
            }
            ControlRecord::RegionAssigned { subnet, region } => {
                // Boot-time policy placement already re-ran inside the
                // replayed boot; this record re-applies it (and carries
                // explicit `place_subnet` overrides the policy can't
                // reproduce). The region must still be declared.
                if self.network.region_map().region_index(&region).is_none() {
                    return false;
                }
                self.apply_region(&subnet, &region);
                true
            }
        }
    }

    /// Re-commits one journaled block. Inside a fast-forwarded prefix it
    /// is chained and skipped — the anchored snapshot supplies the state
    /// it produced; otherwise it is re-executed and the replay *is* the
    /// effect, so checkpoint routing, archiving and event delivery all
    /// re-run through the live [`HierarchyRuntime::post_tick`].
    fn replay_journaled_block(&mut self, block: Block, skip: bool) -> Result<(), RuntimeError> {
        let subnet = &block.header.subnet.clone();
        let at_ms = block.header.timestamp_ms;
        if skip {
            self.refresh_validators(subnet);
            self.skip_past_block(subnet, &block, true)?;
            self.now_ms = self.now_ms.max(at_ms);
        } else {
            let outcome = self.reexecute_block(subnet, &block)?;
            self.now_ms = self.now_ms.max(at_ms);
            self.post_tick(subnet, block, outcome, at_ms)?;
        }
        Ok(())
    }

    /// Installs a fast-forward target: the anchored manifest, read from
    /// the surviving blob store and verified against the committed header
    /// of the (skipped) block at the anchor epoch. Counts as the persist
    /// the skipped checkpoint cut performed live.
    fn install_anchor(
        &mut self,
        subnet: &SubnetId,
        epoch: ChainEpoch,
        manifest: &Cid,
    ) -> Result<(), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let committed_root = node
            .chain
            .iter()
            .find(|b| b.header.epoch == epoch)
            .map(|b| b.header.state_root);
        node.install_manifest(manifest, &self.store, committed_root)?;
        node.stats.state_persists += 1;
        Ok(())
    }
}
