//! Per-subnet records: what the runtime remembers about a subnet *beside*
//! its node, and so across that node's crashes — how it was booted, where
//! it is placed, which accounts were installed between blocks, its
//! snapshot manifests, and, while the node is down or catching up, the
//! peers' view it syncs against.
//!
//! One map holds all of it, so retiring a subnet is one `remove` that
//! cannot leave residue, crash and rejoin read one record, and the blob
//! GC collects its live roots from one iterator.

use std::collections::{BTreeMap, VecDeque};

use hc_actors::sa::SaConfig;
use hc_chain::Block;
use hc_consensus::EngineParams;
use hc_types::{Address, ChainEpoch, Cid, SubnetId};

use crate::chaos::{CatchUp, CrashedNode};
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
    /// Region the node was placed in at boot (or by an explicit
    /// [`HierarchyRuntime::place_subnet`] override); `None` for default
    /// placement. Journaled as [`crate::ControlRecord::RegionAssigned`].
    pub(crate) region: Option<String>,
    /// Every account installed outside block execution, tagged with the
    /// node's `next_epoch` at install time. A crash–rejoin catch-up
    /// replays the chain from genesis and must re-install each account at
    /// the same epoch boundary the live run did, or the replayed state
    /// roots diverge from the headers.
    pub(crate) user_installs: Vec<(ChainEpoch, Address)>,
    /// Blocks below a snapshot-rejoined node's install boundary. The
    /// node's own chain holds only the post-snapshot suffix, but the
    /// subnet's surviving peers keep full history — a later crash must
    /// hand the next rejoiner the whole peer chain, not just the suffix.
    pub(crate) snapshot_base: Vec<Block>,
    /// Most recent persisted state-manifest CIDs, newest last — the
    /// recency window of the blob GC's live roots.
    pub(crate) manifests: VecDeque<Cid>,
    /// The newest checkpoint-anchored snapshot boundary: the checkpoint
    /// epoch and the state manifest persisted at its cut. Snapshot-syncing
    /// rejoiners bootstrap from here, and the GC pins this manifest
    /// regardless of the recency window.
    pub(crate) anchor: Option<(ChainEpoch, Cid)>,
    /// While the node is crashed (out of `nodes`): the surviving-peer view
    /// needed for rejoin.
    pub(crate) crashed: Option<CrashedNode>,
    /// While the rejoined node replays missed blocks pulled from peers.
    pub(crate) catch_up: Option<CatchUp>,
}

impl SubnetRecord {
    /// `true` unless the subnet's node is crashed or still catching up.
    pub(crate) fn is_live(&self) -> bool {
        self.crashed.is_none() && self.catch_up.is_none()
    }
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
    /// Opens a fresh record for a subnet whose node just booted.
    pub(crate) fn boot(&mut self, subnet: &SubnetId, boot: Option<(SaConfig, EngineParams)>) {
        let record = SubnetRecord {
            boot,
            ..SubnetRecord::default()
        };
        self.by_id.insert(subnet.clone(), record);
    }

    /// Takes the next round-robin region slot.
    pub(crate) fn next_region_slot(&mut self) -> usize {
        self.next_region_slot += 1;
        self.next_region_slot - 1
    }

    pub(crate) fn catch_up(&self, subnet: &SubnetId) -> Option<&CatchUp> {
        self.by_id.get(subnet)?.catch_up.as_ref()
    }

    pub(crate) fn catch_up_mut(&mut self, subnet: &SubnetId) -> Option<&mut CatchUp> {
        self.by_id.get_mut(subnet)?.catch_up.as_mut()
    }

    /// Subnets whose rejoined node is still catching up.
    pub(crate) fn catching_up(&self) -> impl Iterator<Item = &SubnetId> {
        let syncing = |(s, r): (_, &SubnetRecord)| r.catch_up.is_some().then_some(s);
        self.by_id.iter().filter_map(syncing)
    }

    /// The blob GC's per-subnet live roots: the manifests still inside a
    /// recency window, every checkpoint-anchored manifest (the
    /// snapshot-sync entry points — a tight `keep_manifests` window must
    /// not evict the manifest a rejoiner would bootstrap from), and any
    /// manifest currently being served to a syncing peer.
    fn gc_roots(&self) -> impl Iterator<Item = Cid> + '_ {
        self.by_id.values().flat_map(|r| {
            let syncing = r.catch_up.as_ref().and_then(|cu| cu.snapshot.as_ref());
            let window = r.manifests.iter().copied();
            window
                .chain(r.anchor.map(|(_, manifest)| manifest))
                .chain(syncing.map(|s| s.manifest))
        })
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
    /// snapshot, plus the archive's checkpoint registry roots. Automatic when
    /// [`crate::DurableOptions::keep_manifests`] caps the recency window.
    /// Returns `(pruned_blobs, pruned_bytes)` for this sweep; lifetime
    /// totals accumulate in the store's [`hc_state::CidStoreStats`].
    pub fn prune_blobs(&mut self) -> (u64, u64) {
        let mut roots: Vec<Cid> = self.subnets.gc_roots().collect();
        // Archived checkpoint registries live in the same store; persist
        // them (unchanged AMT subtrees are shared) and pin their roots so
        // a sweep never drops auditable history.
        roots.extend(self.archive.persist(&self.store));
        self.store.prune_unreachable(&roots)
    }
}
