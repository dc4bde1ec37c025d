//! Crash recovery: rebuilding the hierarchy from its journal.
//!
//! [`HierarchyRuntime::recover`] is one scan of the control log written by
//! [`crate::persist`]: records apply in order until one does not, and the
//! log is cut back to that prefix. Every journaled block re-enters its
//! node through the same two doors a live block does —
//! [`SubnetNode::commit_block`](crate::SubnetNode) after re-execution, or
//! its receipt-less prefix `skip_block` inside a fast-forwarded region
//! whose state is installed from the checkpoint-anchored manifest, through
//! the install a snapshot rejoin takes — and its outward effects re-run
//! through the live `post_tick` with journaling and gossip suppressed. A
//! fast-forward the scan leaves short of its anchor restarts as a rejoin
//! does, its journaled blocks as peer chain.

use std::collections::BTreeMap;

use hc_chain::Block;
use hc_state::{CidStore, ImplicitMsg};
use hc_types::{CanonicalDecode, ChainEpoch, Cid, SubnetId};

use crate::config::{RuntimeConfig, RuntimeError};
use crate::node::Input;
use crate::persist::{ControlRecord, BLOCK_TAG};
use crate::runtime::HierarchyRuntime;

/// In snapshot mode, per eligible subnet, the checkpoint anchor its replay
/// fast-forwards to (blocks before it are chained without re-execution;
/// the manifest installs at its record), removed once installed.
type FastForward = BTreeMap<SubnetId, (ChainEpoch, Cid)>;

impl HierarchyRuntime {
    /// Restarts a hierarchy from the journaled history on
    /// `config.persistence`'s device: replays the longest satisfiable
    /// prefix of the control log (re-executing every journaled block and
    /// verifying each recomputed state root against the block header),
    /// truncates everything past that prefix out of the log, and resumes
    /// live operation from there.
    ///
    /// In [`crate::SyncMode::Snapshot`] a subnet may come back catching
    /// up: one whose replay stopped before its fast-forward anchor restarts
    /// from genesis and syncs, like a rejoining node, against the blocks
    /// the journal kept for it ([`HierarchyRuntime::is_catching_up`]).
    ///
    /// With [`crate::PersistenceConfig::InMemory`] this is just
    /// [`HierarchyRuntime::new`]. The rest of the `config` (seed, network,
    /// engine parameters, …) must match the run that wrote the journal —
    /// it deliberately does not store the whole world, only what a
    /// deterministic re-execution cannot re-derive.
    ///
    /// Debug builds end it with [`HierarchyRuntime::check_invariants`] over
    /// the recovered world, and panic naming every break.
    pub fn recover(config: RuntimeConfig) -> Self {
        let mut rt = Self::boot(config);
        // The blob log is attached before replaying: replayed persists
        // dedup against blobs that survived the crash and re-journal any
        // the torn tail lost.
        if let Some((mut control, raw)) = rt.journal.open(&rt.store) {
            rt.journal.begin_replay();
            let applied = rt.replay(raw);
            // Make the journal agree with the recovered world: a record
            // past the replayed prefix is not part of history.
            control.truncate_after(applied);
            rt.store.sync();
            rt.journal.attach(control);
        }
        #[cfg(debug_assertions)]
        if let Err(breaks) = rt.check_invariants() {
            let breaks = crate::audit::describe(&breaks);
            panic!("recovered world at {} ms:\n{breaks}", rt.now_ms);
        }
        rt
    }

    /// The one scan: applies records in order until one does not apply,
    /// then restarts every fast-forward left short of its anchor. Returns
    /// how many records applied.
    fn replay(&mut self, raw: Vec<Vec<u8>>) -> usize {
        // Records are decoded one at a time; the first that does not
        // decode ends the log as surely as one that does not apply. The
        // plan passes over blocks undecoded: a block the scan then stops at
        // leaves a planned anchor unreached, which is the per-node fallback
        // below, as for a record that does not apply.
        let decode = |bytes: &Vec<u8>| ControlRecord::decode(bytes).ok();
        let mut targets = FastForward::new();
        if self.config.sync_mode == crate::chaos::SyncMode::Snapshot {
            let small = raw.iter().filter(|bytes| bytes.first() != Some(&BLOCK_TAG));
            targets = Self::plan_fast_forward(small.map_while(decode), &self.store);
        }
        let mut applied = 0usize;
        for record in raw.into_iter().map_while(|bytes| decode(&bytes)) {
            if !self.apply_control_record(record, &mut targets) {
                break;
            }
            applied += 1;
        }
        // A target left here has a chain ahead of its still-genesis tree; a
        // target the scan never booted, or retired, has no node to restart.
        for subnet in targets.into_keys() {
            if let Ok(journaled) = self.take_down(&subnet) {
                self.restart_node(&subnet, journaled)
                    .expect("a booted child has boot parameters");
            }
        }
        applied
    }

    /// Scans the control log for subnets whose recovery can skip straight
    /// to their newest checkpoint anchor. Eligible: non-root subnets with
    /// no booted descendants (a child's boot reads its parent's state,
    /// which a fast-forwarded parent would not have yet) whose anchored
    /// manifest closure fully survives in the blob store — anything less
    /// replays in full. Only the boot and anchor records are kept.
    fn plan_fast_forward(
        records: impl Iterator<Item = ControlRecord>,
        store: &CidStore,
    ) -> FastForward {
        let mut booted: Vec<SubnetId> = Vec::new();
        let mut anchors = FastForward::new();
        for record in records {
            match record {
                ControlRecord::SubnetBoot { child, .. } => booted.push(child),
                ControlRecord::CheckpointAnchor { signed, manifest } => {
                    let checkpoint = signed.checkpoint;
                    anchors.insert(checkpoint.source, (checkpoint.epoch, manifest));
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
                if node.persist_state() != manifest {
                    return false;
                }
                self.track_manifest(&subnet, manifest);
                true
            }
            ControlRecord::CheckpointAnchor { signed, manifest } => {
                let (subnet, epoch) = (signed.checkpoint.source.clone(), signed.checkpoint.epoch);
                let Some(&(target_epoch, target_manifest)) = targets.get(&subnet) else {
                    // The persist already re-ran inside the replayed
                    // block's checkpoint-cut routing; this anchor only
                    // cross-checks it.
                    let record = self.subnets.by_id.get(&subnet);
                    return record.and_then(|r| r.manifests.back()) == Some(&manifest);
                };
                if epoch == target_epoch {
                    // The fast-forward target: install the anchored
                    // snapshot, verified against the committed header of
                    // the skipped block at the anchor epoch, and resume
                    // normal replay from here.
                    let Some(node) = self.nodes.get_mut(&subnet) else {
                        return false;
                    };
                    if manifest != target_manifest
                        || node
                            .install_snapshot(&manifest, &self.store, epoch)
                            .is_err()
                    {
                        return false;
                    }
                    targets.remove(&subnet);
                }
                // Target or a pre-target anchor inside the skipped prefix
                // (no persist ran to cross-check against): the GC window
                // must advance exactly as it did live, and the checkpoint
                // the skipped block cut goes up as it did live — the
                // parent's re-executed commit, if journaled, retires it.
                self.anchor_manifest(&subnet, epoch, manifest);
                if let Some(parent) = subnet.parent() {
                    self.deliver(parent, Input::Checkpoint(signed));
                }
                true
            }
        }
    }

    /// Re-commits one journaled block. Inside a fast-forwarded prefix it
    /// is chained and skipped — the anchored snapshot supplies the state
    /// it produced; otherwise it is re-executed and the replay *is* the
    /// effect, so checkpoint routing and event delivery all
    /// re-run through the live [`HierarchyRuntime::post_tick`].
    fn replay_journaled_block(&mut self, block: Block, skip: bool) -> Result<(), RuntimeError> {
        let subnet = &block.header.subnet.clone();
        let at_ms = block.header.timestamp_ms;
        // An address a block installed is taken: the next created account
        // comes after every one of them.
        let installed = block.implicit_msgs.iter().flat_map(|m| match m {
            ImplicitMsg::InstallAccounts(accounts) => &accounts[..],
            _ => &[],
        });
        let next_user_id = installed.map(|(addr, ..)| addr.id() + 1).max();
        self.refresh_validators(subnet);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        if skip {
            node.skip_past(block, None)?;
            self.now_ms = self.now_ms.max(at_ms);
        } else {
            let outcome = node.reexecute(&block, self.config.parallelism)?;
            self.now_ms = self.now_ms.max(at_ms);
            self.post_tick(subnet, block, outcome, at_ms)?;
        }
        self.next_user_id = self.next_user_id.max(next_user_id.unwrap_or(0));
        Ok(())
    }
}
