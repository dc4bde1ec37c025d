//! Crash recovery: rebuilding the hierarchy from its journals.
//!
//! [`HierarchyRuntime::recover`] replays the longest satisfiable prefix of
//! the control log written by [`crate::persist`]. Every journaled block
//! re-enters its node through the same two doors a live block does —
//! [`SubnetNode::commit_block`](crate::SubnetNode) after re-execution, or
//! its receipt-less prefix `skip_block` inside a fast-forwarded region
//! whose state is installed from the checkpoint-anchored manifest — and
//! its outward effects re-run through the live `post_tick` with journaling
//! and gossip suppressed.

use std::collections::BTreeMap;

use hc_chain::Block;
use hc_state::CidStore;
use hc_store::Wal;
use hc_types::{CanonicalDecode, ChainEpoch, Cid, SubnetId};

use crate::config::{RuntimeConfig, RuntimeError, UserHandle};
use crate::persist::ControlRecord;
use crate::runtime::HierarchyRuntime;

/// One subnet's block WAL while [`HierarchyRuntime::recover`] replays the
/// control log: the journaled block records and a cursor over how many the
/// replay has consumed so far.
struct ReplayLog {
    wal: Wal,
    records: Vec<Vec<u8>>,
    cursor: usize,
}

/// What one recovery pass carries beside the runtime it rebuilds.
struct Replay {
    logs: BTreeMap<SubnetId, ReplayLog>,
    /// In snapshot mode, per eligible subnet, the checkpoint anchor its
    /// replay fast-forwards to (blocks before it are appended without
    /// re-execution; the anchored manifest is installed when its record is
    /// reached). Emptied as installs complete; non-empty after replay means
    /// the journal tore inside a skipped region and recovery must fall back
    /// to full replay.
    fast_forward: BTreeMap<SubnetId, (ChainEpoch, Cid)>,
}

impl HierarchyRuntime {
    /// Restarts a hierarchy from the journaled history on
    /// `config.persistence`'s device: replays the longest satisfiable
    /// prefix of the control log (re-executing every journaled block and
    /// verifying each recomputed state root against the block header),
    /// truncates everything past that prefix out of the journals, and
    /// resumes live operation from there.
    ///
    /// With [`crate::PersistenceConfig::InMemory`] this is just
    /// [`HierarchyRuntime::new`]. The rest of the `config` (seed, network,
    /// engine parameters, …) must match the run that wrote the journals —
    /// the journals deliberately do not store the whole world, only what a
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

    /// One recovery pass over the journals. With `fast_forward` enabled,
    /// returns `None` (leaving the journals untouched) when an eligible
    /// subnet's anchor was never reached — the caller retries without
    /// fast-forwarding.
    fn recover_attempt(config: RuntimeConfig, fast_forward: bool) -> Option<Self> {
        let mut rt = Self::boot(config);
        rt.journal.begin_replay();
        // The blob log is attached before replaying: replayed persists
        // dedup against blobs that survived the crash and re-journal any
        // the torn tail lost.
        let (mut control, control_records) = rt.journal.open(&rt.store)?;
        let mut replay = Replay {
            logs: rt.open_replay_log(&SubnetId::root()).into_iter().collect(),
            fast_forward: BTreeMap::new(),
        };
        if fast_forward {
            replay.fast_forward = Self::plan_fast_forward(&control_records, &rt.store);
        }
        let mut applied = 0usize;
        for bytes in &control_records {
            let Ok(record) = ControlRecord::decode(bytes) else {
                break;
            };
            if !rt.apply_control_record(record, &mut replay) {
                break;
            }
            applied += 1;
        }
        if !replay.fast_forward.is_empty() {
            // A subnet's replay stopped before its anchor installed: its
            // chain is ahead of its (still-genesis) state tree. Abandon
            // this attempt before any journal truncation.
            return None;
        }
        // Make the journals agree with the recovered world: drop control
        // records past the replayed prefix and, per subnet, block records
        // past the replay cursor (a block whose commit record was lost is
        // not part of history).
        control.truncate_after(applied);
        for (subnet, log) in replay.logs {
            let ReplayLog {
                mut wal, cursor, ..
            } = log;
            wal.truncate_after(cursor);
            if let Some(node) = rt.nodes.get_mut(&subnet) {
                node.chain.attach_wal(wal);
            }
        }
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
    fn plan_fast_forward(
        records: &[Vec<u8>],
        store: &CidStore,
    ) -> BTreeMap<SubnetId, (ChainEpoch, Cid)> {
        let mut booted: Vec<SubnetId> = Vec::new();
        let mut anchors: BTreeMap<SubnetId, (ChainEpoch, Cid)> = BTreeMap::new();
        for bytes in records {
            let Ok(record) = ControlRecord::decode(bytes) else {
                break;
            };
            match record {
                ControlRecord::SubnetBoot { child, .. } => booted.push(child),
                ControlRecord::CheckpointAnchor {
                    subnet,
                    epoch,
                    manifest,
                } => {
                    anchors.insert(subnet, (epoch, manifest));
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
    /// record cannot be satisfied (its block is missing or torn, a state
    /// root fails to reproduce, …) — replay stops there and the journal is
    /// truncated back to the satisfied prefix.
    fn apply_control_record(&mut self, record: ControlRecord, replay: &mut Replay) -> bool {
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
                if !self.nodes.contains_key(&child) {
                    return false;
                }
                replay.logs.extend(self.open_replay_log(&child));
                true
            }
            ControlRecord::BlockCommitted { subnet, epoch } => {
                let Some(log) = replay.logs.get_mut(&subnet) else {
                    return false;
                };
                let Some(bytes) = log.records.get(log.cursor) else {
                    return false;
                };
                let Ok(block) = Block::decode(bytes) else {
                    return false;
                };
                if block.header.epoch != epoch {
                    return false;
                }
                let skip = replay.fast_forward.contains_key(&subnet);
                if self.replay_journaled_block(&subnet, &block, skip).is_err() {
                    return false;
                }
                log.cursor += 1;
                true
            }
            ControlRecord::SnapshotAnchor { subnet, manifest } => {
                if replay.fast_forward.contains_key(&subnet) {
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
                let Some(&(target_epoch, target_manifest)) = replay.fast_forward.get(&subnet)
                else {
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
                    replay.fast_forward.remove(&subnet);
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

    /// Opens `subnet`'s block journal for replay, cursor at the start.
    fn open_replay_log(&self, subnet: &SubnetId) -> Option<(SubnetId, ReplayLog)> {
        let (wal, records) = self.journal.open_chain_wal(subnet)?;
        let log = ReplayLog {
            wal,
            records,
            cursor: 0,
        };
        Some((subnet.clone(), log))
    }

    /// Re-commits one journaled block. Inside a fast-forwarded prefix it
    /// is chained and skipped — the anchored snapshot supplies the state
    /// it produced; otherwise it is re-executed and the replay *is* the
    /// effect, so checkpoint routing, archiving and event delivery all
    /// re-run through the live [`HierarchyRuntime::post_tick`].
    fn replay_journaled_block(
        &mut self,
        subnet: &SubnetId,
        block: &Block,
        skip: bool,
    ) -> Result<(), RuntimeError> {
        let at_ms = block.header.timestamp_ms;
        if skip {
            self.refresh_validators(subnet);
            self.skip_past_block(subnet, block, true)?;
            self.now_ms = self.now_ms.max(at_ms);
        } else {
            let outcome = self.reexecute_block(subnet, block)?;
            self.now_ms = self.now_ms.max(at_ms);
            self.post_tick(subnet, outcome, at_ms)?;
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
