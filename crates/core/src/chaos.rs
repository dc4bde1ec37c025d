//! Live node crash–rejoin: killing a subnet node mid-epoch and catching
//! it back up through the (possibly still faulty) network.
//!
//! The simulation runs one node per subnet, standing in for that subnet's
//! honest validator quorum — so "crashing" the node halts the subnet's
//! block production entirely, while the finalized chain survives on the
//! subnet's remaining peers (held here as `CrashedNode::peer_blocks`).
//! Rejoin rebuilds the node from genesis via the recorded boot parameters
//! (the PR 4 recovery path) and then enters a *catch-up* phase: the node
//! publishes [`hc_net::ResolutionMsg::BlockPull`] requests on its own
//! topic, peers answer with bounded [`hc_net::ResolutionMsg::BlockBatch`]
//! replies, and each received block is re-validated and re-executed
//! (`HierarchyRuntime::reexecute_block`) — a corrupt or stale batch cannot
//! poison the node. Both legs of every round trip cross the simulated network, so
//! partitions, loss, duplication, and reordering from the
//! [`hc_net::FaultPlan`] all apply; lost requests are retried under the
//! same capped-backoff [`hc_net::RetryPolicy`] as content resolution.
//!
//! Rejoin supports two bootstrap strategies ([`SyncMode`]): *replay*
//! re-validates and re-executes every missed block from genesis, while
//! *snapshot* first assembles the latest checkpoint-anchored state
//! manifest closure from peers — [`hc_net::ResolutionMsg::BlobPull`]
//! requests answered by bounded [`hc_net::ResolutionMsg::BlobBatch`]
//! replies, every chunk verified against its CID in a staging store and
//! the assembled root verified against the consensus-committed block
//! header at the anchor epoch — then replays only the post-checkpoint
//! suffix. Both strategies run entirely through the faulty network under
//! the same retry policy.
//!
//! The node faults of the fault plan ([`hc_net::FaultKind::Crash`] and
//! the crash leg of [`hc_net::FaultKind::RegionOutage`]) are driven
//! deterministically from the step loop by
//! `HierarchyRuntime::process_fault_events`; tests can also call
//! [`HierarchyRuntime::crash_node`] / [`HierarchyRuntime::rejoin_node`]
//! directly.

use std::collections::VecDeque;

use hc_chain::{Block, Mempool};
use hc_net::{
    Backoff, BackoffStep, FaultKind, FaultPlan, FaultRule, ResolutionMsg, SubscriberId,
    BLOB_BATCH_CAP,
};
use hc_state::{ChunkManifest, CidStore};
use hc_types::{Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId};

use crate::config::RuntimeError;
use crate::node::{node_jitter_seed, SubnetNode};
use crate::runtime::HierarchyRuntime;

/// Blocks per [`hc_net::ResolutionMsg::BlockBatch`] reply. Deliberately
/// small so a long outage takes several pull round trips to repair, each
/// one exposed to the fault plan.
pub const BLOCK_BATCH_CAP: usize = 8;

/// Jitter-stream salts separating a catching-up node's block-pull and
/// blob-pull backoff schedules (see
/// [`hc_net::RetryPolicy::jittered_timeout_for`]).
const BLOCK_PULL_JITTER_SALT: u64 = 0xb10c_700c;
const BLOB_PULL_JITTER_SALT: u64 = 0xb10b_700c;

/// How a rejoining node — or a whole runtime restarting from its journals
/// — bootstraps the history it missed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Re-validate and re-execute every missed block from genesis —
    /// O(chain) work, the strongest (trust-nothing) mode.
    #[default]
    Replay,
    /// Fetch the latest checkpoint-anchored state manifest closure from
    /// peers chunk by chunk (each blob verified against its CID, the
    /// assembled root against the committed checkpoint header), install
    /// it, and replay only the post-checkpoint block suffix —
    /// O(state + suffix) work. Degrades to [`SyncMode::Replay`] when no
    /// usable anchor exists.
    Snapshot,
}

/// Counters of crash/rejoin/catch-up activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Nodes crashed (removed from the hierarchy mid-run).
    pub crashes: u64,
    /// Nodes rebuilt and re-admitted.
    pub rejoins: u64,
    /// Catch-up phases that reached the peers' chain head.
    pub catch_ups_completed: u64,
    /// Missed blocks re-validated and re-executed during catch-up.
    pub blocks_caught_up: u64,
    /// `BlockPull` requests published (first sends and retries).
    pub block_pulls: u64,
    /// `BlockPull` retries after a timed-out round trip.
    pub block_pull_retries: u64,
    /// `BlockBatch` replies served from the surviving-peer chain copy.
    pub block_batches: u64,
    /// Scheduled crash faults skipped because their subnet did not exist
    /// (or could not be safely crashed) when the fault fired.
    pub crashes_skipped: u64,
    /// `BlobPull` snapshot-chunk requests published (first sends and
    /// retries).
    pub blob_pulls: u64,
    /// `BlobPull` retries after a timed-out round trip.
    pub blob_pull_retries: u64,
    /// `BlobBatch` replies served from the shared blob store.
    pub blob_batches: u64,
    /// CID-verified snapshot chunk blobs accepted into a staging store.
    pub blobs_synced: u64,
    /// Snapshots assembled, verified against their committed checkpoint
    /// header, and installed.
    pub snapshot_installs: u64,
    /// Snapshot-mode rejoins that fell back to full replay because no
    /// usable checkpoint anchor was available.
    pub snapshot_fallbacks: u64,
    /// Exhausted per-batch pull budgets re-armed after a cool-down (only
    /// with a bounded [`hc_net::RetryPolicy::max_attempts`]): the sync
    /// pauses on the current batch, it never abandons the rest.
    pub pull_budget_rearms: u64,
    /// Scheduled whole-region outages
    /// ([`hc_net::FaultKind::RegionOutage`]) that fired — the node-crash leg; the network blackhole leg is driven by
    /// the fault plan itself and accounted in
    /// [`hc_net::NetStats::region_dropped`].
    pub region_outages: u64,
    /// Nodes crashed because their region went down.
    pub region_crashes: u64,
    /// Region members that could not be crashed when their outage fired
    /// (the rootnet, or a subnet with live out-of-region descendants) —
    /// they stay up, only their traffic is blackholed.
    pub region_crash_skips: u64,
    /// Region outages fully healed: every crashed member rejoined.
    pub region_heals: u64,
    /// Member rejoins deferred past the heal time because the parent
    /// subnet was itself still down or catching up; retried every step
    /// until the dependency clears.
    pub region_heals_deferred: u64,
    /// Cut-but-uncommitted checkpoints resubmitted after a catch-up
    /// because a crashed parent lost them from its in-memory pending
    /// queue (losing one would wedge the child's `prev` hash chain and
    /// strand every bottom-up message behind it).
    pub checkpoints_resubmitted: u64,
}

/// Progress of one scheduled node fault — a [`FaultKind::Crash`] or the
/// crash leg of a [`FaultKind::RegionOutage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// The crash time has not been reached yet.
    Pending,
    /// The node is down, waiting for its rejoin time.
    Down,
    /// The fault has fully played out (or was skipped).
    Done,
}

/// What survives a subnet node's crash: the view of the subnet's
/// *remaining* peers, which the rejoining node syncs against.
#[derive(Debug)]
pub(crate) struct CrashedNode {
    /// The node's pub-sub identity (kept so topic membership and
    /// subscriber-scoped fault rules stay stable across the outage).
    pub(crate) subscription: SubscriberId,
    /// The finalized chain as held by surviving peers — the catch-up
    /// source of truth.
    pub(crate) peer_blocks: Vec<Block>,
    /// The mempool content as replicated on peers; re-admitted at rejoin.
    pub(crate) mempool: Mempool,
}

/// State of one rejoined node's catch-up phase.
#[derive(Debug)]
pub(crate) struct CatchUp {
    /// The surviving peers' chain, serving [`ResolutionMsg::BlockPull`]s.
    pub(crate) peer_blocks: Vec<Block>,
    /// Accounts the live run installed outside block execution, in
    /// order, tagged with the `next_epoch` at install time — re-installed
    /// at the same epoch boundaries so replayed state roots match the
    /// block headers. Front = earliest.
    pub(crate) pending_users: VecDeque<(ChainEpoch, Address)>,
    /// Retry state of the current pull: round trips attempted since the
    /// last progress, and when the next may go out.
    pub(crate) pull: Backoff,
    /// `Some` while the node is still assembling a snapshot (the fetch
    /// phase precedes any block replay); `None` in replay mode or once
    /// the snapshot is installed.
    pub(crate) snapshot: Option<SnapshotSync>,
    /// Peer blocks at or below the installed snapshot boundary — covered
    /// by the snapshot, never replayed. Zero in replay mode.
    pub(crate) base_blocks: usize,
}

/// In-flight snapshot assembly of one rejoined node.
#[derive(Debug)]
pub(crate) struct SnapshotSync {
    /// The checkpoint-anchored state manifest being assembled.
    pub(crate) manifest: Cid,
    /// The checkpoint epoch the manifest was committed at; the block
    /// header at this epoch is the trust root for the assembled state.
    pub(crate) anchor_epoch: ChainEpoch,
    /// Blobs fetched so far. Deliberately a *separate* store from the
    /// node's: every chunk must genuinely cross the (possibly faulty)
    /// network and verify against its CID before the install sees it.
    pub(crate) staging: CidStore,
}

impl HierarchyRuntime {
    /// Crash/rejoin/catch-up counters.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos
    }

    /// Is `subnet`'s node currently crashed?
    pub fn is_crashed(&self, subnet: &SubnetId) -> bool {
        self.subnets
            .by_id
            .get(subnet)
            .is_some_and(|r| r.crashed.is_some())
    }

    /// Is `subnet`'s node rejoined but still replaying missed blocks?
    pub fn is_catching_up(&self, subnet: &SubnetId) -> bool {
        self.subnets.catch_up(subnet).is_some()
    }

    /// Schedules `plan`'s node faults, all pending. Outages are driven
    /// before crashes, each kind in plan order.
    pub(crate) fn schedule_faults(&mut self, plan: &FaultPlan) {
        let is_crash = |r: &FaultRule| matches!(r.kind, FaultKind::Crash { .. });
        let is_outage = |r: &FaultRule| matches!(r.kind, FaultKind::RegionOutage { .. });
        let node_faults = plan.rules.iter().filter(|r| is_crash(r) || is_outage(r));
        self.node_faults
            .extend(node_faults.map(|r| (r.clone(), CrashPhase::Pending)));
        self.node_faults.sort_by_key(|(r, _)| is_crash(r));
    }

    /// Merges additional fault rules into the live network's plan — used
    /// by chaos harnesses to scope rules to topics of subnets spawned
    /// after boot, and to schedule further crashes and outages.
    pub fn extend_faults(&mut self, plan: FaultPlan) {
        self.schedule_faults(&plan);
        self.network.extend_faults(plan);
    }

    /// Kills `subnet`'s node mid-run: its volatile state (state tree,
    /// pools, resolver cache, randomness position) is lost; the finalized
    /// chain and replicated mempool survive on peers. The subnet stops
    /// producing blocks until [`HierarchyRuntime::rejoin_node`].
    ///
    /// # Errors
    ///
    /// Refuses to crash the rootnet (it anchors the hierarchy), a subnet
    /// with live descendant subnets (their nodes run full nodes on the
    /// parent, which this simulation keeps as a single process), or an
    /// unknown/already-crashed subnet.
    pub fn crash_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        if subnet.is_root() {
            return Err(RuntimeError::Execution(
                "cannot crash the rootnet node".into(),
            ));
        }
        if self.nodes.keys().any(|k| subnet.is_ancestor_of(k)) {
            return Err(RuntimeError::Execution(format!(
                "cannot crash {subnet}: live descendant subnets depend on its chain"
            )));
        }
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(unknown)?;
        let node = self.nodes.remove(subnet).ok_or_else(unknown)?;
        // The peer id goes dark: publishes stop reaching it and anything
        // already queued for it is lost with the process.
        self.network.set_offline(node.subscription, true);
        self.network.clear_inbox(node.subscription);
        // The surviving peers hold the subnet's *full* history. A node
        // that itself bootstrapped from a snapshot only chains the
        // post-install suffix; the blocks its snapshot covered are kept
        // in the record's `snapshot_base` and re-prefixed here.
        let mut peer_blocks = record.snapshot_base.clone();
        peer_blocks.extend(node.chain.iter().cloned());
        record.crashed = Some(CrashedNode {
            subscription: node.subscription,
            peer_blocks,
            mempool: node.mempool,
        });
        self.chaos.crashes += 1;
        Ok(())
    }

    /// Restarts `subnet`'s crashed node with the configured
    /// [`RuntimeConfig::sync_mode`](crate::RuntimeConfig) — see
    /// [`HierarchyRuntime::rejoin_node_with`].
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        self.rejoin_node_with(subnet, self.config.sync_mode)
    }

    /// Restarts `subnet`'s crashed node: rebuilds it from genesis with the
    /// recorded boot parameters and enters the catch-up phase. In
    /// [`SyncMode::Replay`] the node pulls and re-executes every block it
    /// missed; in [`SyncMode::Snapshot`] it first assembles the latest
    /// checkpoint-anchored state snapshot from peers and replays only the
    /// suffix (falling back to replay when no usable anchor exists). The
    /// node produces no blocks until catch-up completes.
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node_with(
        &mut self,
        subnet: &SubnetId,
        mode: SyncMode,
    ) -> Result<(), RuntimeError> {
        let not_crashed = || RuntimeError::Execution(format!("{subnet} is not crashed"));
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(not_crashed)?;
        let crashed = record.crashed.take().ok_or_else(not_crashed)?;
        let (sa_config, engine_params) = record.boot.clone().ok_or_else(|| {
            RuntimeError::Execution(format!("no boot parameters recorded for {subnet}"))
        })?;
        let pending_users: VecDeque<(ChainEpoch, Address)> =
            record.user_installs.iter().copied().collect();
        // Unschedulable until catch-up completes. The fresh genesis RNG
        // stream realigns with the subnet's history as the catch-up burns
        // one draw per missed block.
        let mut node = SubnetNode::genesis(
            subnet.clone(),
            &self.config,
            Some((&sa_config, &engine_params)),
            crashed.subscription,
            u64::MAX,
            self.cid_store().clone(),
        );
        // The mempool's content was replicated across the subnet's peers;
        // the restarted node re-syncs it. (Messages already in replayed
        // blocks were removed from this pool before the crash, so nothing
        // is double-proposed.)
        node.mempool = crashed.mempool;
        self.network.set_offline(crashed.subscription, false);
        self.nodes.insert(subnet.clone(), node);
        self.refresh_validators(subnet);
        // Snapshot bootstrap needs a usable anchor: a checkpoint the
        // runtime recorded, whose cut block the surviving peers still
        // serve (the trust root), and whose manifest closure the peers
        // can actually provide. Anything less degrades to full replay.
        let snapshot = match mode {
            SyncMode::Replay => None,
            SyncMode::Snapshot => {
                let anchor = self.checkpoint_anchor(subnet).filter(|(epoch, manifest)| {
                    let store = self.cid_store();
                    crashed.peer_blocks.iter().any(|b| b.header.epoch == *epoch)
                        && store
                            .get(manifest)
                            .and_then(|b| ChunkManifest::decode(&b))
                            .is_some_and(|m| m.missing_chunks(store).is_empty())
                });
                match anchor {
                    Some((anchor_epoch, manifest)) => Some(SnapshotSync {
                        manifest,
                        anchor_epoch,
                        staging: CidStore::new(),
                    }),
                    None => {
                        self.chaos.snapshot_fallbacks += 1;
                        None
                    }
                }
            }
        };
        let catch_up = CatchUp {
            peer_blocks: crashed.peer_blocks,
            pending_users,
            pull: Backoff::due_at(self.now_ms),
            snapshot,
            base_blocks: 0,
        };
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.catch_up = Some(catch_up);
        }
        self.chaos.rejoins += 1;
        Ok(())
    }

    /// Drives scheduled node faults and all active catch-ups. Called at
    /// the top of every [`HierarchyRuntime::step`] /
    /// [`HierarchyRuntime::step_wave`]; a no-op (and RNG-neutral) when the
    /// fault plan schedules no node fault and nothing is catching up.
    pub(crate) fn process_fault_events(&mut self) -> Result<(), RuntimeError> {
        if self.node_faults.is_empty() && self.subnets.catching_up().next().is_none() {
            return Ok(());
        }
        for i in 0..self.node_faults.len() {
            let (FaultRule { window, kind }, phase) = self.node_faults[i].clone();
            // Down at the window's start, back up at its end.
            let due_ms = match phase {
                CrashPhase::Pending => window.from_ms,
                CrashPhase::Down => window.until_ms,
                CrashPhase::Done => continue,
            };
            if self.now_ms < due_ms {
                continue;
            }
            self.node_faults[i].1 = match (kind, phase) {
                (FaultKind::Crash { subnet }, CrashPhase::Pending) => {
                    // A subnet that does not exist, or cannot be safely
                    // crashed, when its fault fires is refused.
                    if self.crash_node(&subnet).is_ok() {
                        CrashPhase::Down
                    } else {
                        self.chaos.crashes_skipped += 1;
                        CrashPhase::Done
                    }
                }
                (FaultKind::Crash { subnet }, _) => {
                    self.rejoin_node(&subnet)?;
                    CrashPhase::Done
                }
                (FaultKind::RegionOutage { region }, CrashPhase::Pending) => {
                    self.crash_region(&region);
                    CrashPhase::Down
                }
                (FaultKind::RegionOutage { region }, _) => self.heal_region(&region)?,
                _ => phase,
            };
        }
        let syncing: Vec<SubnetId> = self.subnets.catching_up().cloned().collect();
        for subnet in syncing {
            self.advance_catch_up(&subnet)?;
        }
        Ok(())
    }

    /// A whole-region outage fires: every node placed in the region is
    /// crashed, deepest subnets first — within the sweep a member's only
    /// live descendants may be other members, so parents never lose a live
    /// descendant mid-sweep. The traffic blackhole of the same window is
    /// enforced independently by the network.
    fn crash_region(&mut self, region: &str) {
        let records = self.subnets.by_id.iter();
        let live = records
            .filter(|(s, r)| r.region.as_deref() == Some(region) && self.nodes.contains_key(s));
        let mut up: Vec<SubnetId> = live.map(|(s, _)| s.clone()).collect();
        up.sort_by_key(|s| std::cmp::Reverse(s.depth()));
        self.chaos.region_outages += 1;
        for subnet in up {
            if self.crash_node(&subnet).is_ok() {
                self.chaos.region_crashes += 1;
            } else {
                self.chaos.region_crash_skips += 1;
            }
        }
    }

    /// A whole-region outage heals: crashed members still assigned to the
    /// region rejoin shallowest-first (a child can only catch up against a
    /// live parent chain) — but a member whose parent is itself still down
    /// or catching up defers to a later step, so the recovery wave rolls
    /// down the hierarchy in dependency order. `Done` once nobody deferred.
    fn heal_region(&mut self, region: &str) -> Result<CrashPhase, RuntimeError> {
        let records = self.subnets.by_id.iter();
        let down =
            records.filter(|(_, r)| r.region.as_deref() == Some(region) && r.crashed.is_some());
        let mut waiting: Vec<SubnetId> = down.map(|(s, _)| s.clone()).collect();
        waiting.sort_by_key(SubnetId::depth);
        let mut deferred = false;
        for subnet in waiting {
            let parent_ready = subnet
                .parent()
                .is_none_or(|p| self.nodes.contains_key(&p) && self.subnets.catch_up(&p).is_none());
            if parent_ready {
                self.rejoin_node(&subnet)?;
            } else {
                self.chaos.region_heals_deferred += 1;
                deferred = true;
            }
        }
        if deferred {
            return Ok(CrashPhase::Down);
        }
        self.chaos.region_heals += 1;
        Ok(CrashPhase::Done)
    }

    /// One catch-up round for `subnet`: drain the node's inbox (serving
    /// its own pull echoes from the peer chain or blob store and applying
    /// any received batches), finish if the peers' head is reached,
    /// otherwise (re)issue a pull under the retry/backoff schedule. While
    /// a snapshot is being assembled the round works on chunk blobs; once
    /// it is installed, on the block suffix.
    fn advance_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let now_ms = self.now_ms;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let mut pulls_seen: Vec<ChainEpoch> = Vec::new();
        let mut blob_pulls_seen: Vec<(Vec<Cid>, String)> = Vec::new();
        let mut batches: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut blob_batches: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut certs = Vec::new();
        for msg in self.network.poll(node.subscription, now_ms) {
            match msg {
                ResolutionMsg::BlockPull {
                    subnet: s,
                    from_epoch,
                    ..
                } if s == *subnet => pulls_seen.push(from_epoch),
                ResolutionMsg::BlockBatch { subnet: s, blocks } if s == *subnet => {
                    batches.push(blocks);
                }
                ResolutionMsg::BlobPull { cids, reply_topic } => {
                    blob_pulls_seen.push((cids, reply_topic));
                }
                ResolutionMsg::BlobBatch { blobs } => blob_batches.push(blobs),
                ResolutionMsg::Certificate(cert) => certs.push(*cert),
                other => {
                    if let Some((topic, reply)) = node.resolver.handle(other) {
                        self.network.publish(&topic, reply, now_ms, None);
                    }
                }
            }
        }
        for cert in certs {
            self.ingest_certificate(subnet, cert);
        }

        // Surviving peers answer snapshot-chunk pulls from the shared blob
        // store, in bounded batches (as with block pulls, the runtime
        // stands in for the peers the single-process simulation elides).
        for (cids, reply_topic) in blob_pulls_seen {
            let blobs: Vec<Vec<u8>> = {
                let store = self.cid_store();
                cids.iter()
                    .take(BLOB_BATCH_CAP)
                    .filter_map(|c| store.get(c))
                    .map(|b| b.as_ref().clone())
                    .collect()
            };
            if blobs.is_empty() {
                continue;
            }
            self.chaos.blob_batches += 1;
            self.network.publish(
                &reply_topic,
                ResolutionMsg::BlobBatch { blobs },
                now_ms,
                None,
            );
        }

        // Snapshot fetch phase: the anchored manifest closure must be
        // assembled and installed before any block replays.
        if self
            .subnets
            .catch_up(subnet)
            .is_some_and(|cu| cu.snapshot.is_some())
        {
            return self.advance_snapshot_fetch(subnet, blob_batches, now_ms);
        }

        // Surviving peers answer pulls from their copy of the chain, in
        // bounded batches — a long outage takes several round trips.
        for from_epoch in pulls_seen {
            let Some(cu) = self.subnets.catch_up(subnet) else {
                break;
            };
            let batch: Vec<Vec<u8>> = cu
                .peer_blocks
                .iter()
                .filter(|b| b.header.epoch >= from_epoch)
                .take(BLOCK_BATCH_CAP)
                .map(CanonicalEncode::canonical_bytes)
                .collect();
            if batch.is_empty() {
                continue;
            }
            self.chaos.block_batches += 1;
            self.network.publish(
                &subnet.topic(),
                ResolutionMsg::BlockBatch {
                    subnet: subnet.clone(),
                    blocks: batch,
                },
                now_ms,
                None,
            );
        }

        // Replay received batches. Duplicated or overlapping batches are
        // harmless: only the block matching the node's next epoch applies.
        let mut progressed = false;
        for blocks in batches {
            for bytes in blocks {
                let Ok(block) = Block::decode(&bytes) else {
                    continue;
                };
                let expect = Self::get_node_mut(&mut self.nodes, subnet)?.next_epoch;
                if block.header.epoch != expect {
                    continue;
                }
                self.install_pending_users(subnet, block.header.epoch)?;
                // The live hierarchy has moved on: every outward effect of
                // the block (parent checkpoint submission, journal
                // records, manifest anchors, certificate gossip) happened
                // when it was produced, so only the node-local half of its
                // events re-runs.
                let outcome = self.reexecute_block(subnet, &block)?;
                let node = Self::get_node_mut(&mut self.nodes, subnet)?;
                for event in &outcome.events {
                    node.apply_event(event, false);
                }
                // Replay restores the historical schedule; stay
                // unschedulable until catch-up completes.
                node.next_block_at_ms = u64::MAX;
                self.chaos.blocks_caught_up += 1;
                progressed = true;
            }
        }
        if progressed {
            if let Some(cu) = self.subnets.catch_up_mut(subnet) {
                cu.pull = Backoff::due_at(now_ms);
            }
        }

        let done = {
            let replayed = self.nodes.get(subnet).map_or(0, |n| n.chain.len());
            self.subnets
                .catch_up(subnet)
                .is_some_and(|cu| cu.base_blocks + replayed >= cu.peer_blocks.len())
        };
        if done {
            self.finish_catch_up(subnet)?;
            return Ok(());
        }

        let from_epoch = self.known_node(subnet)?.next_epoch;
        let pull = || ResolutionMsg::BlockPull {
            subnet: subnet.clone(),
            from_epoch,
            reply_topic: subnet.topic(),
        };
        if let Some(attempt) = self.pull_step(subnet, BLOCK_PULL_JITTER_SALT, now_ms, pull)? {
            self.chaos.block_pulls += 1;
            self.chaos.block_pull_retries += u64::from(attempt > 1);
        }
        Ok(())
    }

    /// One step of a catching-up node's pull, shared by the block and blob
    /// legs (`salt` separates their jitter streams): when the backoff says
    /// one is due, publishes `pull` on the subnet's own topic with the
    /// node as origin — in this single-process simulation the runtime
    /// stands in for the surviving peers, so the pull must come back
    /// through the (possibly faulty) network to be served — and returns
    /// the attempt number. `None` while the current round trip is still
    /// within its timeout or the budget is cooling down.
    fn pull_step(
        &mut self,
        subnet: &SubnetId,
        salt: u64,
        now_ms: u64,
        pull: impl FnOnce() -> ResolutionMsg,
    ) -> Result<Option<u32>, RuntimeError> {
        let policy = self.config.retry;
        // Same deterministic seeded jitter as resolver pulls.
        let seed = || node_jitter_seed(self.config.seed, subnet);
        let own = self.known_node(subnet)?.subscription;
        let Some(cu) = self.subnets.catch_up_mut(subnet) else {
            return Ok(None);
        };
        Ok(match cu.pull.step(&policy, now_ms, seed, salt) {
            BackoffStep::Send(attempt) => {
                self.network
                    .publish(&subnet.topic(), pull(), now_ms, Some(own));
                Some(attempt)
            }
            BackoffStep::Wait => None,
            BackoffStep::Exhausted => {
                // The retry budget is *per batch* — the backoff restarts on
                // every replayed block or accepted blob, so only the
                // current round trip is exhausted. Cool down for the capped
                // timeout and re-arm: a long blackout slows this batch
                // down, it must never permanently abandon the batches
                // behind it.
                cu.pull = Backoff::due_at(now_ms + policy.max_timeout_ms.max(1));
                self.chaos.pull_budget_rearms += 1;
                None
            }
        })
    }

    /// One snapshot-fetch round: fold received [`ResolutionMsg::BlobBatch`]
    /// blobs into the staging store (content-addressed, so corrupt or
    /// unrelated blobs simply land under a different CID and are never
    /// requested again), install the snapshot once the closure is
    /// complete, otherwise (re)pull the still-missing chunks under the
    /// same per-batch retry budget as block catch-up.
    fn advance_snapshot_fetch(
        &mut self,
        subnet: &SubnetId,
        blob_batches: Vec<Vec<Vec<u8>>>,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        let mut accepted = 0u64;
        let wanted: Vec<Cid> = {
            let Some(cu) = self.subnets.catch_up_mut(subnet) else {
                return Ok(());
            };
            let Some(sync) = cu.snapshot.as_mut() else {
                return Ok(());
            };
            for blobs in blob_batches {
                for blob in blobs {
                    if !sync.staging.contains(&Cid::digest(&blob)) {
                        sync.staging.put(blob);
                        accepted += 1;
                    }
                }
            }
            if accepted > 0 {
                cu.pull = Backoff::due_at(now_ms);
            }
            let sync = cu.snapshot.as_ref().expect("checked above");
            match sync.staging.get(&sync.manifest) {
                None => vec![sync.manifest],
                Some(blob) => {
                    let manifest = ChunkManifest::decode(&blob).ok_or_else(|| {
                        RuntimeError::Execution("snapshot manifest blob failed to decode".into())
                    })?;
                    let mut missing = manifest.missing_chunks(&sync.staging);
                    missing.truncate(BLOB_BATCH_CAP);
                    missing
                }
            }
        };
        self.chaos.blobs_synced += accepted;
        if wanted.is_empty() {
            return self.install_snapshot(subnet);
        }

        let pull = || ResolutionMsg::BlobPull {
            cids: wanted,
            reply_topic: subnet.topic(),
        };
        if let Some(attempt) = self.pull_step(subnet, BLOB_PULL_JITTER_SALT, now_ms, pull)? {
            self.chaos.blob_pulls += 1;
            self.chaos.blob_pull_retries += u64::from(attempt > 1);
        }
        Ok(())
    }

    /// Installs a fully assembled snapshot: swaps in the staged state once
    /// it verifies against the consensus-committed block header at the
    /// anchor epoch, skips the node past the blocks the snapshot covers
    /// (realigning its RNG stream and cursors without executing them), and
    /// re-bases the chain on the anchor. From here catch-up continues as a
    /// normal block replay of the post-anchor suffix.
    fn install_snapshot(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let cu = self
            .subnets
            .catch_up_mut(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))?;
        let sync = cu
            .snapshot
            .as_ref()
            .ok_or_else(|| RuntimeError::Execution("no snapshot in flight".into()))?;
        let anchor_epoch = sync.anchor_epoch;
        let covered: Vec<Block> = cu
            .peer_blocks
            .iter()
            .filter(|b| b.header.epoch <= anchor_epoch)
            .cloned()
            .collect();
        let anchor = covered.last().filter(|b| b.header.epoch == anchor_epoch);
        let anchor_cid = anchor.map(Block::cid);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.install_manifest(
            &sync.manifest,
            &sync.staging,
            anchor.map(|b| b.header.state_root),
        )?;
        // Adopt the manifest's full closure — fixed chunks AND every
        // account-HAMT node — so the node's store can serve the same
        // snapshot (and GC can pin it) after the swap (content-addressed
        // puts dedup against blobs already present).
        for cid in sync.staging.manifest_closure(&[sync.manifest]) {
            if let Some(chunk) = sync.staging.get(&cid) {
                node.store.put(chunk.as_ref().clone());
            }
        }
        // Accounts installed at or below the anchor are part of the
        // snapshot state already; replaying them would double-apply.
        while cu
            .pending_users
            .front()
            .is_some_and(|(epoch, _)| *epoch <= anchor_epoch)
        {
            cu.pending_users.pop_front();
        }
        cu.base_blocks = covered.len();
        cu.snapshot = None;
        cu.pull = Backoff::due_at(self.now_ms);

        // The snapshot replaces execution, not history: every covered
        // block still realigns the consensus RNG, the cross-net nonce
        // cursors, the mempool epoch, and the wallet nonces exactly as a
        // per-block replay would, so the node resumes mid-conversation
        // with its parent.
        for block in &covered {
            self.skip_past_block(subnet, block, false)?;
        }
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.chain.reset_to_snapshot_base(
            anchor_epoch,
            anchor_cid.expect("install verified against the anchor header"),
        );
        node.next_block_at_ms = u64::MAX;
        // Remember the covered prefix: a future crash of this node must
        // still hand the next rejoiner the full peer history even though
        // this node's own chain now starts at the anchor.
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.snapshot_base = covered;
        }
        self.chaos.snapshot_installs += 1;
        Ok(())
    }

    /// Re-installs accounts the live run created outside block execution,
    /// up to and including `up_to_epoch`. The live `install_user` mutated
    /// the tree between blocks; a catch-up replay from pure genesis must
    /// repeat those writes at the same epoch boundaries or the replayed
    /// state roots diverge from the block headers. Wallets are runtime
    /// state and survive the crash — they are deliberately not touched
    /// (re-inserting would reset signer nonces).
    fn install_pending_users(
        &mut self,
        subnet: &SubnetId,
        up_to_epoch: ChainEpoch,
    ) -> Result<(), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let Some(cu) = self.subnets.catch_up_mut(subnet) else {
            return Ok(());
        };
        while let Some(&(epoch, addr)) = cu.pending_users.front() {
            if epoch > up_to_epoch {
                break;
            }
            cu.pending_users.pop_front();
            let acc = node.tree.accounts_mut().get_or_create(addr);
            acc.key = Some(Self::user_key(self.config.seed, addr).public());
            acc.balance = hc_types::TokenAmount::ZERO;
        }
        Ok(())
    }

    /// Ends `subnet`'s catch-up: the node holds the same finalized chain
    /// as its peers and rejoins normal block production.
    fn finish_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        // Accounts installed after the surviving head (but before the
        // crash) have no covering block; restore them now.
        self.install_pending_users(subnet, ChainEpoch::new(u64::MAX))?;
        let mut block_time_ms = self.config.engine_params.block_time_ms;
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.catch_up = None;
            if let Some((_, engine_params)) = &record.boot {
                block_time_ms = engine_params.block_time_ms;
            }
        }
        let now_ms = self.now_ms;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.next_block_at_ms = now_ms + block_time_ms;
        self.chaos.catch_ups_completed += 1;
        self.resubmit_lost_checkpoints(subnet)?;
        Ok(())
    }

    /// Repairs checkpoint submissions a crash may have stranded, in both
    /// directions around the freshly caught-up `subnet`: its own
    /// uncommitted cut suffix goes (back) to its parent, and every live
    /// child's uncommitted suffix goes (back) to it. A checkpoint lives
    /// only in the parent's in-memory pending queue between cut and
    /// commit, so a parent crash loses it — and the per-child `prev` hash
    /// chain would then reject every subsequent checkpoint from that
    /// child, stranding its bottom-up messages forever.
    fn resubmit_lost_checkpoints(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        self.resubmit_cut_suffix(subnet)?;
        let children: Vec<SubnetId> = self
            .nodes
            .keys()
            .filter(|s| s.parent().as_ref() == Some(subnet))
            .cloned()
            .collect();
        for child in children {
            self.resubmit_cut_suffix(&child)?;
        }
        Ok(())
    }

    /// Re-enqueues `child`'s cut-but-uncommitted checkpoints at its
    /// parent, in chain order. The uncommitted suffix is exactly the
    /// chain walk from the child's current cut head through the
    /// runtime's cut ledger (entries are pruned when the parent archives
    /// a commit, so the walk stops at the committed boundary). Already
    /// pending copies are skipped, which makes the repair idempotent.
    fn resubmit_cut_suffix(&mut self, child: &SubnetId) -> Result<(), RuntimeError> {
        let Some(parent) = child.parent() else {
            return Ok(());
        };
        if self.subnets.catch_up(child).is_some() || self.subnets.catch_up(&parent).is_some() {
            return Ok(());
        }
        let Some(child_node) = self.nodes.get(child) else {
            return Ok(());
        };
        let mut cursor = child_node.tree.sca().prev_checkpoint();
        let mut suffix = Vec::new();
        while cursor != Cid::NIL {
            let Some(signed) = self.cut_checkpoints.get(&cursor) else {
                break;
            };
            cursor = signed.checkpoint.prev;
            suffix.push(signed.clone());
        }
        if suffix.is_empty() {
            return Ok(());
        }
        suffix.reverse();
        let parent_node = Self::get_node_mut(&mut self.nodes, &parent)?;
        let mut resubmitted = 0u64;
        for signed in suffix {
            if !parent_node
                .pending_checkpoints
                .iter()
                .any(|p| p.checkpoint == signed.checkpoint)
            {
                parent_node.pending_checkpoints.push(signed);
                resubmitted += 1;
            }
        }
        self.chaos.checkpoints_resubmitted += resubmitted;
        Ok(())
    }
}
