//! Live node crash–rejoin: killing a subnet node mid-epoch and catching
//! it back up through the (possibly still faulty) network.
//!
//! The simulation runs one node per subnet, standing in for that subnet's
//! honest validator quorum — so "crashing" the node halts the subnet's
//! block production entirely, while the finalized chain survives on the
//! subnet's remaining peers (held here as `CrashedNode::peer_blocks`).
//! Rejoin rebuilds the node from genesis via the recorded boot parameters
//! and then enters a *catch-up* phase: the node
//! publishes [`hc_net::ResolutionMsg::BlockPull`] requests on its own
//! topic, peers answer with bounded [`hc_net::ResolutionMsg::BlockBatch`]
//! replies, and each received block is re-validated and re-executed
//! (`SubnetNode::reexecute`) — a forged, corrupt or stale
//! block is dropped and counted, and cannot poison the node. (A recovery
//! fast-forward short of its anchor restarts the same way.) Both legs of
//! every round trip cross the simulated network, so
//! partitions, loss, duplication, and reordering from the
//! [`hc_net::FaultPlan`] all apply; lost requests are retried under the
//! same capped-backoff [`hc_net::RetryPolicy`] as content resolution. A
//! catching-up node reads its inbox through the same front door as a live
//! one (`SubnetNode::poll`), and every reply leaves with the node as
//! origin, so region rules see its region. The runtime keeps only the
//! surviving peers' side: serving the pulls from their copy of the chain
//! and the blob store.
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

use hc_chain::{Block, History, Mempool, StoredBlock};
use hc_net::{
    Backoff, BackoffStep, FaultKind, FaultPlan, FaultRule, ResolutionMsg, SubscriberId,
    BLOB_BATCH_CAP,
};
use hc_state::{ChunkManifest, CidStore};
use hc_types::{Address, CanonicalDecode, ChainEpoch, Cid, Keypair, SubnetId, TokenAmount};

use crate::config::RuntimeError;
use crate::runtime::HierarchyRuntime;

/// Blocks per [`hc_net::ResolutionMsg::BlockBatch`] reply. Deliberately
/// small so a long outage takes several pull round trips to repair, each
/// one exposed to the fault plan.
pub const BLOCK_BATCH_CAP: usize = 8;

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
    /// Received catch-up blocks that failed validation or re-execution (a
    /// forgery, a wrong state root) and were dropped, changing nothing.
    pub blocks_rejected: u64,
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
    /// Snapshot-mode restarts that fell back to full replay because no
    /// usable checkpoint anchor was available: rejoins, and recovery
    /// fast-forwards whose replay stopped short of their anchor.
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
    /// Delivered, uncommitted child checkpoints a crashed parent's queue
    /// left in its record, for the next node built for it to commit.
    pub checkpoints_held: u64,
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
    /// The finalized chain as held by surviving peers, in wire form — the
    /// catch-up source of truth.
    pub(crate) peer_blocks: History,
    /// The mempool content as replicated on peers; re-admitted at rejoin.
    pub(crate) mempool: Mempool,
    /// The validators' signing keys, which outlive the node's state: the
    /// restarted node signs with them and derives none.
    pub(crate) validator_keys: Vec<Keypair>,
}

/// State of one rejoined node's catch-up phase.
#[derive(Debug)]
pub(crate) struct CatchUp {
    /// The surviving peers' chain in wire form, serving
    /// [`ResolutionMsg::BlockPull`]s as stored.
    pub(crate) peer_blocks: History,
    /// Accounts the live run installed outside block execution, in
    /// order, tagged with the `next_epoch` at install time — re-installed
    /// at the same epoch boundaries so replayed state roots match the
    /// block headers. Front = earliest.
    pub(crate) pending_users: VecDeque<(ChainEpoch, Address, Option<TokenAmount>)>,
    /// Retry state of the current pull: round trips attempted since the
    /// last progress, and when the next may go out.
    pub(crate) pull: Backoff,
    /// `Some` while the node is still assembling a snapshot (the fetch
    /// phase precedes any block replay); `None` in replay mode or once
    /// the snapshot is installed.
    pub(crate) snapshot: Option<SnapshotSync>,
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
        let crashed = self.take_down(subnet)?;
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.crashed = Some(crashed);
        }
        self.chaos.crashes += 1;
        Ok(())
    }

    /// Takes `subnet`'s node out of the hierarchy and returns what survives
    /// it: its subscription, gone dark with its inbox lost, the subnet's
    /// full chain as its peers hold it, and the replicated mempool. What
    /// the node received and did not commit moves to its record's inbox,
    /// where later deliveries join it until a node is built again.
    pub(crate) fn take_down(&mut self, subnet: &SubnetId) -> Result<CrashedNode, RuntimeError> {
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(unknown)?;
        let mut node = self.nodes.remove(subnet).ok_or_else(unknown)?;
        self.network.set_offline(node.subscription, true);
        self.network.clear_inbox(node.subscription);
        self.chaos.checkpoints_held += node.pending_checkpoints().len() as u64;
        record.inbox.extend(node.take_inbox());
        // A snapshot-bootstrapped node chains only the post-install suffix;
        // the covered blocks wait in `snapshot_base` and are re-prefixed.
        let mut peer_blocks = std::mem::take(&mut record.snapshot_base);
        peer_blocks.extend(node.chain.into_history());
        Ok(CrashedNode {
            subscription: node.subscription,
            peer_blocks,
            mempool: node.mempool,
            validator_keys: node.validator_keys,
        })
    }

    /// Restarts `subnet`'s crashed node: rebuilds it from genesis with the
    /// recorded boot parameters and enters the catch-up phase under the
    /// configured [`RuntimeConfig::sync_mode`](crate::RuntimeConfig) (see
    /// [`SyncMode`]). The node produces no blocks until catch-up completes.
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let not_crashed = || RuntimeError::Execution(format!("{subnet} is not crashed"));
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(not_crashed)?;
        let crashed = record.crashed.take().ok_or_else(not_crashed)?;
        self.restart_node(subnet, crashed)?;
        self.chaos.rejoins += 1;
        Ok(())
    }

    /// The one restart, behind [`HierarchyRuntime::rejoin_node`] and a
    /// recovery fast-forward short of its anchor (whose peers' chain is its
    /// journaled prefix): a genesis node on `survivor`'s subscription and
    /// mempool, catching up against its peers' chain.
    pub(crate) fn restart_node(
        &mut self,
        subnet: &SubnetId,
        survivor: CrashedNode,
    ) -> Result<(), RuntimeError> {
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        let record = self.subnets.by_id.get(subnet).ok_or_else(unknown)?;
        let (sa_config, engine_params) = record.boot.clone().ok_or_else(|| {
            RuntimeError::Execution(format!("no boot parameters recorded for {subnet}"))
        })?;
        let pending_users: VecDeque<_> = record.user_installs.iter().copied().collect();
        let (subscription, peer_blocks) = (survivor.subscription, survivor.peer_blocks);
        let mut mempool = survivor.mempool;
        // Unschedulable until catch-up completes. The fresh genesis RNG
        // stream realigns with the subnet's history as the catch-up burns
        // one draw per missed block.
        let boot = Some((&sa_config, &engine_params));
        let node = self.genesis_node(subnet, boot, subscription, u64::MAX);
        // The peers' replicated mempool (which holds nothing of the chain,
        // so nothing is double-proposed) becomes the new node's: it counts
        // on the new node's counters and carries no verdict of the old
        // one's, so each message is verified once here before proposal.
        mempool.rehome(node.sig_cache.clone());
        node.mempool = mempool;
        node.validator_keys = survivor.validator_keys;
        self.network.set_offline(subscription, false);
        self.refresh_validators(subnet);
        // Snapshot bootstrap needs a usable anchor: a checkpoint the
        // runtime recorded, whose cut block the surviving peers still
        // serve (the trust root), and whose manifest closure the peers
        // can actually provide — in memory, or hydrated from the blob log.
        // Anything less degrades to full replay.
        let snapshot = match self.config.sync_mode {
            SyncMode::Replay => None,
            SyncMode::Snapshot => {
                let anchor = self.checkpoint_anchor(subnet).filter(|(epoch, manifest)| {
                    peer_blocks.get_by_epoch(*epoch).is_some()
                        && self.store.hydrate_manifest(manifest)
                });
                self.chaos.snapshot_fallbacks += u64::from(anchor.is_none());
                anchor.map(|(anchor_epoch, manifest)| SnapshotSync {
                    manifest,
                    anchor_epoch,
                    staging: CidStore::new(),
                })
            }
        };
        let catch_up = CatchUp {
            peer_blocks,
            pending_users,
            pull: Backoff::due_at(self.now_ms),
            snapshot,
        };
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.catch_up = Some(catch_up);
        }
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

    /// One catch-up round for `subnet`: the node reads its inbox through
    /// the live front door, `SubnetNode::poll` (content replies go out as
    /// it reads); the runtime, standing in for the surviving peers, serves
    /// the node's own pull echoes from the blob store and the peer chain;
    /// the node re-commits the received blocks; then finish if the peers'
    /// head is reached or (re)issue a pull under the retry/backoff
    /// schedule. While a snapshot is being assembled the round works on
    /// chunk blobs; once it is installed, on the block suffix.
    fn advance_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let now_ms = self.now_ms;
        let inbox = self.poll_network(subnet, now_ms)?;
        // The runtime stands in for the subnet's surviving peers, which the
        // single-process simulation elides; they sit in the node's region,
        // so their replies leave with the node as origin.
        let origin = Some(self.known_node(subnet)?.subscription);

        // Peers answer snapshot-chunk pulls from the shared blob store, in
        // bounded batches.
        for (cids, reply_topic) in inbox.blob_pulls {
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
            let batch = ResolutionMsg::BlobBatch { blobs };
            self.network.publish(&reply_topic, batch, now_ms, origin);
        }

        // Snapshot fetch phase: the anchored manifest closure must be
        // assembled and installed before any block replays.
        if self
            .subnets
            .catch_up(subnet)
            .is_some_and(|cu| cu.snapshot.is_some())
        {
            return self.advance_snapshot_fetch(subnet, inbox.blob_batches, now_ms);
        }

        // Peers answer pulls from their copy of the chain, as stored, in
        // bounded batches — a long outage takes several round trips.
        for from_epoch in inbox.block_pulls {
            let Some(cu) = self.subnets.catch_up(subnet) else {
                break;
            };
            let blocks = cu.peer_blocks.serve(from_epoch, BLOCK_BATCH_CAP);
            if blocks.is_empty() {
                continue;
            }
            self.chaos.block_batches += 1;
            let batch = ResolutionMsg::BlockBatch {
                subnet: subnet.clone(),
                blocks,
            };
            self.network.publish(&subnet.topic(), batch, now_ms, origin);
        }

        // Replay received batches. Duplicated or overlapping batches are
        // harmless: only the block matching the node's next epoch applies.
        let mut progressed = false;
        for blocks in inbox.block_batches {
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
                // records, manifest anchors, certificate gossip, the
                // top-down messages handed to its children) happened when
                // it was produced, so only the node-local half of its
                // events re-runs. A refused block changed nothing: a peer's
                // forgery is dropped, and the pull goes on.
                let Ok(outcome) = self.reexecute_block(subnet, &block) else {
                    self.chaos.blocks_rejected += 1;
                    continue;
                };
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

        // The blocks a snapshot covered are in `snapshot_base`, not replayed.
        let done = self.subnets.by_id.get(subnet).is_some_and(|r| {
            let replayed = self.nodes.get(subnet).map_or(0, |n| n.chain.len());
            let have = r.snapshot_base.len() + replayed;
            r.catch_up
                .as_ref()
                .is_some_and(|cu| have >= cu.peer_blocks.len())
        });
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
        if let Some(attempt) = self.pull_step(subnet, now_ms, pull)? {
            self.chaos.block_pulls += 1;
            self.chaos.block_pull_retries += u64::from(attempt > 1);
        }
        Ok(())
    }

    /// One step of a catching-up node's pull, shared by the block and blob
    /// legs: when the backoff says one is due, publishes `pull` on the subnet's own topic with the
    /// node as origin — in this single-process simulation the runtime
    /// stands in for the surviving peers, so the pull must come back
    /// through the (possibly faulty) network to be served — and returns
    /// the attempt number. `None` while the current round trip is still
    /// within its timeout or the budget is cooling down.
    fn pull_step(
        &mut self,
        subnet: &SubnetId,
        now_ms: u64,
        pull: impl FnOnce() -> ResolutionMsg,
    ) -> Result<Option<u32>, RuntimeError> {
        let policy = self.config.retry;
        let own = self.known_node(subnet)?.subscription;
        let Some(cu) = self.subnets.catch_up_mut(subnet) else {
            return Ok(None);
        };
        Ok(match cu.pull.step(&policy, now_ms) {
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
        if let Some(attempt) = self.pull_step(subnet, now_ms, pull)? {
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
        let covered = cu.peer_blocks.prefix_through(anchor_epoch);
        // The anchor's CID comes from storage; only its header is decoded.
        let anchor = covered.get_by_epoch(anchor_epoch);
        let anchor_cid = anchor.map(StoredBlock::cid);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.install_manifest(
            &sync.manifest,
            &sync.staging,
            anchor.map(|b| b.header().state_root),
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
            .is_some_and(|(epoch, ..)| *epoch <= anchor_epoch)
        {
            cu.pending_users.pop_front();
        }
        cu.snapshot = None;
        cu.pull = Backoff::due_at(self.now_ms);

        // The snapshot replaces execution, not history: every covered
        // block still realigns the consensus RNG, the cross-net nonce
        // cursors and the mempool's floors exactly as a per-block replay
        // would, so the node resumes mid-conversation with its parent. One
        // block is decoded at a time.
        for stored in covered.iter() {
            node.skip_past(&stored.decode(), false)?;
        }
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

    /// Re-installs accounts the live run created or adopted outside block
    /// execution, up to and including `up_to_epoch`. The live
    /// `install_account` mutated the tree between blocks; a catch-up
    /// replay from pure genesis must repeat those writes at the same epoch
    /// boundaries — through the same [`HierarchyRuntime::write_account`] —
    /// or the replayed state roots diverge from the block headers. The
    /// key written is re-derived; the user's handle kept its own.
    fn install_pending_users(
        &mut self,
        subnet: &SubnetId,
        up_to_epoch: ChainEpoch,
    ) -> Result<(), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let Some(cu) = self.subnets.catch_up_mut(subnet) else {
            return Ok(());
        };
        while let Some(&(epoch, addr, mint)) = cu.pending_users.front() {
            if epoch > up_to_epoch {
                break;
            }
            cu.pending_users.pop_front();
            let key = Self::user_key(self.config.seed, addr);
            Self::write_account(&mut node.tree, &key, addr, mint);
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
        Ok(())
    }
}
