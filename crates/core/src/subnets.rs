//! Per-subnet records: what the runtime remembers about a subnet *beside*
//! its node, and so across that node's crashes — how it was booted, where
//! it is placed, its snapshot manifests, the subnet's chain as its peers
//! hold it while no live node does, what survives the node while it is
//! down, and the inbox of what was handed to the subnet while no node of it
//! ran.
//! Whether a node is live or catching up is the node's own mode.
//!
//! One map holds all of it, so retiring a subnet is one `remove` that
//! cannot leave residue, crash and rejoin read one record, and the blob
//! GC collects the roots it keeps for the subnet from one iterator.

use std::collections::{BTreeMap, VecDeque};

use hc_actors::sa::SaConfig;
use hc_chain::History;
use hc_consensus::EngineParams;
use hc_types::{ChainEpoch, Cid, SubnetId};

use crate::node::{Input, SubnetNode, Survivor};
use crate::runtime::HierarchyRuntime;

/// How many recent manifests per subnet the runtime remembers for manual
/// blob pruning when no automatic GC depth is configured.
const DEFAULT_MANIFEST_HISTORY: usize = 16;

/// The runtime's memory of one subnet.
#[derive(Default)]
pub(crate) struct SubnetRecord {
    /// The boot-time (SA config, engine params), so a crashed node can be
    /// rebuilt from genesis at rejoin. `None` for the rootnet.
    pub(crate) boot: Option<(SaConfig, EngineParams)>,
    /// Region the placement policy put the node in at boot; `None` for
    /// default placement. Not journaled: recovery's replayed boots place the
    /// node again.
    pub(crate) region: Option<String>,
    /// The subnet's finalized chain as its peers hold it, compressed,
    /// while the node is down or catching up — the peers serve a
    /// catch-up's pulls from it. Empty while the node is live: its own
    /// chain holds every block from epoch 1, and its crash hands them back.
    pub(crate) peers: History,
    /// Most recent persisted state-manifest CIDs, newest last — the
    /// recency window of the blob GC's live roots.
    pub(crate) manifests: VecDeque<Cid>,
    /// The newest checkpoint-anchored snapshot boundary: the checkpoint
    /// epoch and the state manifest persisted at its cut. Snapshot-syncing
    /// rejoiners bootstrap from here, and the GC pins this manifest
    /// regardless of the recency window.
    pub(crate) anchor: Option<(ChainEpoch, Cid)>,
    /// While the node is crashed (out of `nodes`): what survives it, for
    /// the rejoin.
    pub(crate) crashed: Option<Survivor>,
    /// While no node of the subnet runs — it crashed, or is registered
    /// but not yet booted: what was handed to it and no node committed —
    /// top-down messages its parent committed and its children's signed
    /// checkpoints — in the order handed. The next node built for the
    /// subnet receives them in that order.
    pub(crate) inbox: Vec<Input>,
    /// Set by [`HierarchyRuntime::inject_signed_checkpoint`]: the parent's
    /// record may then fall below the subnet's live supply. Not journaled.
    pub(crate) compromised: bool,
}

/// Every booted, not yet retired subnet's [`SubnetRecord`].
#[derive(Default)]
pub(crate) struct Subnets {
    pub(crate) by_id: BTreeMap<SubnetId, SubnetRecord>,
    /// Round-robin placement cursor: the region index the *next* booted
    /// node takes ([`crate::PlacementPolicy::RoundRobin`]).
    next_region_slot: usize,
}

impl Subnets {
    /// Records the boot of a subnet whose node just came up, in a fresh
    /// record or in the one a top-down delivery opened before the boot,
    /// keeping what that holds.
    pub(crate) fn boot(&mut self, subnet: &SubnetId, boot: Option<(SaConfig, EngineParams)>) {
        self.by_id.entry(subnet.clone()).or_default().boot = boot;
    }

    /// Takes the next round-robin region slot.
    pub(crate) fn next_region_slot(&mut self) -> usize {
        self.next_region_slot += 1;
        self.next_region_slot - 1
    }
}

impl HierarchyRuntime {
    /// The newest checkpoint-anchored snapshot boundary of `subnet`: the
    /// checkpoint epoch and the state manifest persisted at its cut. This
    /// is the entry point a [`crate::SyncMode::Snapshot`] rejoin
    /// bootstraps from; `None` until the subnet's first checkpoint.
    pub fn checkpoint_anchor(&self, subnet: &SubnetId) -> Option<(ChainEpoch, Cid)> {
        self.subnets.by_id.get(subnet)?.anchor
    }

    /// Makes `manifest`, persisted at `subnet`'s checkpoint cut at `epoch`,
    /// the subnet's snapshot anchor, then enters it in the recency window —
    /// in that order: the window's eviction may sweep, and the newest
    /// anchored manifest must be pinned through the sweep its own arrival
    /// triggers.
    pub(crate) fn anchor_manifest(&mut self, subnet: &SubnetId, epoch: ChainEpoch, manifest: Cid) {
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.anchor = Some((epoch, manifest));
        }
        self.track_manifest(subnet, manifest);
    }

    /// Records a freshly persisted snapshot manifest in `subnet`'s recency
    /// window and, when a durable config caps the window
    /// ([`crate::DurableOptions::keep_manifests`] > 0), prunes blobs that
    /// fell out of every subnet's window. Runs identically during live
    /// operation and replay, so recovered stores see the same GC sweeps.
    pub(crate) fn track_manifest(&mut self, subnet: &SubnetId, manifest: Cid) {
        let durable = self.config.persistence.durable();
        let keep = durable.map_or(0, |d| d.keep_manifests);
        let cap = match keep {
            0 => DEFAULT_MANIFEST_HISTORY,
            n => n,
        };
        let Some(record) = self.subnets.by_id.get_mut(subnet) else {
            return;
        };
        record.manifests.push_back(manifest);
        let mut evicted = false;
        while record.manifests.len() > cap {
            record.manifests.pop_front();
            evicted = true;
        }
        if evicted && keep > 0 {
            self.prune_blobs();
        }
    }

    /// Prunes state blobs unreachable from a live root, in memory and in
    /// the blob log: every subnet's manifest window, anchor and in-flight
    /// snapshot. Automatic when
    /// [`crate::DurableOptions::keep_manifests`] caps the recency window.
    /// Returns `(pruned_blobs, pruned_bytes)` for this sweep; lifetime
    /// totals accumulate in the store's [`hc_state::CidStoreStats`].
    pub fn prune_blobs(&mut self) -> (u64, u64) {
        // Every subnet's manifests still inside its recency window, its
        // checkpoint-anchored manifest (the snapshot-sync entry point — a
        // tight `keep_manifests` window must not evict the manifest a
        // rejoiner would bootstrap from), and the snapshot a catching-up
        // node is assembling.
        let records = self.subnets.by_id.values();
        let windows =
            records.flat_map(|r| r.manifests.iter().copied().chain(r.anchor.map(|a| a.1)));
        let syncing = self.nodes.values().filter_map(SubnetNode::syncing_manifest);
        let roots: Vec<Cid> = windows.chain(syncing).collect();
        self.store.prune_unreachable(&roots)
    }
}

#[cfg(test)]
mod tests {
    use hc_actors::sa::SaConfig;
    use hc_types::TokenAmount;

    use super::*;
    use crate::{RuntimeConfig, SyncMode};

    /// A node that rejoined from a snapshot holds its chain from epoch 1
    /// once it is live, and its record keeps no copy of it.
    #[test]
    fn a_live_snapshot_synced_node_holds_its_chain_and_its_record_none() {
        let whole = TokenAmount::from_whole;
        let config = RuntimeConfig {
            sync_mode: SyncMode::Snapshot,
            ..RuntimeConfig::default()
        };
        let mut rt = HierarchyRuntime::new(config);
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(1_000)).unwrap();
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let sa = SaConfig {
            checkpoint_period: 5,
            ..SaConfig::default()
        };
        let stake = [(validator, whole(5))];
        let child = rt.spawn_subnet(&alice, sa, whole(10), &stake).unwrap();
        while rt.checkpoint_anchor(&child).is_none() {
            rt.step().unwrap();
        }
        let cids = |rt: &HierarchyRuntime| {
            let chain = rt.nodes[&child].chain();
            chain
                .iter()
                .map(|b| (b.header.epoch, b.cid()))
                .collect::<Vec<_>>()
        };
        let before = cids(&rt);

        rt.crash_node(&child).unwrap();
        rt.rejoin_node(&child).unwrap();
        while rt.is_catching_up(&child) {
            assert!(!rt.subnets.by_id[&child].peers.is_empty());
            rt.step().unwrap();
        }
        assert_eq!(rt.chaos_stats().snapshot_installs, 1);
        assert_eq!(cids(&rt), before);
        assert_eq!(before[0].0, ChainEpoch::new(1));
        assert!(rt.subnets.by_id[&child].peers.is_empty());
    }
}
