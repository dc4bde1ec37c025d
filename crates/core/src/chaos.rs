//! Live node crash–rejoin: killing a subnet node mid-epoch and catching
//! it back up through the (possibly still faulty) network.
//!
//! The simulation runs one node per subnet, standing in for that subnet's
//! honest validator quorum — so "crashing" the node halts the subnet's
//! block production entirely, while the finalized chain survives on the
//! subnet's remaining peers (the record's copy, `SubnetRecord::peers`,
//! held while no live node holds the chain). A crash is
//! `SubnetNode::crash`, which hands back what outlives the node; a rejoin
//! rebuilds it from genesis via the recorded boot parameters and restarts
//! it catching up (`SubnetNode::restart`). The node then catches
//! itself up (`node/catch_up.rs`): it publishes
//! [`hc_net::ResolutionMsg::BlockPull`] requests on its own topic, peers
//! answer with bounded [`hc_net::ResolutionMsg::BlockBatch`] replies, and
//! it re-validates and re-executes each received block — a forged, corrupt
//! or stale block is dropped and counted, and cannot poison the node. (A
//! recovery fast-forward short of its anchor restarts the same way.) Both
//! legs of every round trip cross the simulated network, so partitions,
//! loss, duplication, and reordering from the [`hc_net::FaultPlan`] all
//! apply; lost requests are retried under the same capped-backoff
//! [`hc_net::RetryPolicy`] as content resolution, and every reply leaves
//! with the node as origin, so region rules see its region. This module is
//! the runtime's half: the fault schedule, crash and rejoin, and the
//! surviving peers' side of a catch-up — serving the pulls from their copy
//! of the chain and the blob store, and refreshing the node's validator
//! set from the parent chain.
//!
//! Rejoin supports two bootstrap strategies ([`SyncMode`]): *replay*
//! re-validates and re-executes every missed block from genesis, while
//! *snapshot* first assembles the latest checkpoint-anchored state
//! manifest closure from peers — [`hc_net::ResolutionMsg::BlobPull`]
//! requests answered by bounded [`hc_net::ResolutionMsg::BlobBatch`]
//! replies, every chunk verified against its CID in a staging store —
//! then, as a recovery fast-forward does, chains the blocks it covers as
//! the peers hold them, installs it against its own committed header at
//! the anchor epoch, and replays only the post-checkpoint suffix. Either
//! way the node ends holding the chain from epoch 1, and the record's copy
//! is dropped. Both strategies run entirely through the faulty network
//! under the same retry policy.
//!
//! The node faults of the fault plan ([`hc_net::FaultKind::Crash`] and
//! the crash leg of [`hc_net::FaultKind::RegionOutage`]) are driven
//! deterministically from the step loop by
//! `HierarchyRuntime::process_fault_events`, which also runs the catch-up
//! rounds: one at the step's time, then one at each catching-up node's
//! next wake (its next sync delivery, or its pull's retry deadline) that
//! falls before the next live node's block, so a round trip costs the
//! network's delay, not block intervals. Tests can also call
//! [`HierarchyRuntime::crash_node`] / [`HierarchyRuntime::rejoin_node`].

use hc_chain::History;
use hc_net::{FaultKind, FaultPlan, FaultRule, ResolutionMsg, BLOB_BATCH_CAP};
use hc_types::SubnetId;

use crate::config::RuntimeError;
use crate::node::{Peers, SubnetNode, Survivor};
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
    /// Virtual ms from each restart to the node going live, summed over
    /// the completed catch-ups.
    pub catch_up_ms: u64,
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
/// crash leg of a [`FaultKind::RegionOutage`]. A fault that has played out
/// (or was skipped) leaves the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// The crash time has not been reached yet.
    Pending,
    /// The node is down, waiting for its rejoin time.
    Down,
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
        self.nodes.get(subnet).is_some_and(|n| !n.is_live())
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
    /// producing blocks until [`HierarchyRuntime::rejoin_node`]. A node
    /// still catching up can crash too; its peers' chain is unchanged.
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
        let survivor = self.take_down(subnet)?;
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.crashed = Some(survivor);
        }
        self.chaos.crashes += 1;
        Ok(())
    }

    /// Takes `subnet`'s node out of the hierarchy ([`SubnetNode::crash`])
    /// and returns what survives it, its subscription gone dark with its
    /// inbox lost. What the node received and did not commit moves to its
    /// record's inbox, where later deliveries join it until a node is built
    /// again; the blocks only the node held join the record's copy of the
    /// peers' chain, which then holds the whole chain.
    pub(crate) fn take_down(&mut self, subnet: &SubnetId) -> Result<Survivor, RuntimeError> {
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(unknown)?;
        let node = self.nodes.remove(subnet).ok_or_else(unknown)?;
        self.chaos.checkpoints_held += node.pending_checkpoints().len() as u64;
        let (survivor, inbox, chain) = node.crash();
        self.network.set_offline(survivor.subscription, true);
        self.network.clear_inbox(survivor.subscription);
        record.inbox.extend(inbox);
        record.peers.extend(chain);
        Ok(survivor)
    }

    /// Restarts `subnet`'s crashed node: rebuilds it from genesis with the
    /// recorded boot parameters, catching up under the configured
    /// [`RuntimeConfig::sync_mode`](crate::RuntimeConfig) (see
    /// [`SyncMode`]). The node produces no blocks until catch-up completes.
    ///
    /// # Errors
    ///
    /// Fails when `subnet` is not crashed or its boot parameters were
    /// never recorded (it was never spawned through the runtime).
    pub fn rejoin_node(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let not_crashed = || RuntimeError::Execution(format!("{subnet} is not crashed"));
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(not_crashed)?;
        let survivor = record.crashed.take().ok_or_else(not_crashed)?;
        self.restart_node(subnet, survivor)?;
        self.chaos.rejoins += 1;
        Ok(())
    }

    /// The one restart, behind [`HierarchyRuntime::rejoin_node`] and a
    /// recovery fast-forward short of its anchor (whose peers' chain is its
    /// journaled prefix): a genesis node on `survivor`'s subscription,
    /// restarted ([`SubnetNode::restart`]) to catch up against the peers'
    /// chain the record holds — from a snapshot of the subnet's anchor when
    /// one is usable.
    pub(crate) fn restart_node(
        &mut self,
        subnet: &SubnetId,
        survivor: Survivor,
    ) -> Result<(), RuntimeError> {
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        let record = self.subnets.by_id.get(subnet).ok_or_else(unknown)?;
        let (sa_config, engine_params) = record.boot.clone().ok_or_else(|| {
            RuntimeError::Execution(format!("no boot parameters recorded for {subnet}"))
        })?;
        // Snapshot bootstrap needs a usable anchor: a checkpoint the
        // runtime recorded, whose cut block the surviving peers still
        // serve (the trust root), and whose manifest closure the peers
        // can actually provide — in memory, or hydrated from the blob log.
        // Anything less degrades to full replay.
        let anchor = match self.config.sync_mode {
            SyncMode::Replay => None,
            SyncMode::Snapshot => {
                let anchor = record.anchor.filter(|(epoch, manifest)| {
                    record.peers.get_by_epoch(*epoch).is_some()
                        && self.store.hydrate_manifest(manifest)
                });
                self.chaos.snapshot_fallbacks += u64::from(anchor.is_none());
                anchor
            }
        };
        // Unschedulable until catch-up completes. The fresh genesis RNG
        // stream realigns with the subnet's history as the catch-up burns
        // one draw per missed block.
        let subscription = survivor.subscription;
        let boot = Some((&sa_config, &engine_params));
        self.genesis_node(subnet, boot, subscription, u64::MAX);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let (config, block_time_ms) = (&self.config, engine_params.block_time_ms);
        node.restart(survivor, anchor, config, block_time_ms, self.now_ms);
        self.network.set_offline(subscription, false);
        self.refresh_validators(subnet);
        Ok(())
    }

    /// Drives scheduled node faults and all active catch-ups. Called at
    /// the top of every [`HierarchyRuntime::step`] /
    /// [`HierarchyRuntime::step_wave`]; a no-op (and RNG-neutral) when the
    /// fault plan schedules no node fault and nothing is catching up. A
    /// catch-up acts when its sync traffic lands: after the round at now,
    /// the clock moves to each next wake ([`SubnetNode::next_wake_ms`])
    /// that falls before the next live node's block, and a round runs
    /// there.
    pub(crate) fn process_fault_events(&mut self) -> Result<(), RuntimeError> {
        if self.node_faults.is_empty() && self.nodes.values().all(SubnetNode::is_live) {
            return Ok(());
        }
        let mut i = 0;
        while i < self.node_faults.len() {
            let (FaultRule { window, kind }, phase) = &self.node_faults[i];
            // Down at the window's start, back up at its end. Only a rule
            // that fires takes a copy of its target.
            let due_ms = match phase {
                CrashPhase::Pending => window.from_ms,
                CrashPhase::Down => window.until_ms,
            };
            let (fired, phase) = ((self.now_ms >= due_ms).then(|| kind.clone()), *phase);
            // `None` once the fault has played out.
            let next = match (fired, phase) {
                (Some(FaultKind::Crash { subnet }), CrashPhase::Pending) => {
                    // A subnet that does not exist, or cannot be safely
                    // crashed, when its fault fires is refused.
                    let crashed = self.crash_node(&subnet).is_ok();
                    self.chaos.crashes_skipped += u64::from(!crashed);
                    crashed.then_some(CrashPhase::Down)
                }
                (Some(FaultKind::Crash { subnet }), _) => {
                    self.rejoin_node(&subnet)?;
                    None
                }
                (Some(FaultKind::RegionOutage { region }), CrashPhase::Pending) => {
                    self.crash_region(&region);
                    Some(CrashPhase::Down)
                }
                (Some(FaultKind::RegionOutage { region }), _) => self.heal_region(&region)?,
                _ => Some(phase),
            };
            if let Some(phase) = next {
                self.node_faults[i].1 = phase;
                i += 1;
            } else {
                self.node_faults.remove(i);
            }
        }
        self.advance_catch_ups()?;
        while let Some(wake_ms) = self.next_catch_up_wake() {
            self.now_ms = self.now_ms.max(wake_ms);
            self.advance_catch_ups()?;
        }
        Ok(())
    }

    /// One round of every catching-up node, at now.
    fn advance_catch_ups(&mut self) -> Result<(), RuntimeError> {
        let syncing = self.nodes.values().filter(|n| !n.is_live());
        let syncing: Vec<SubnetId> = syncing.map(|n| n.subnet_id().clone()).collect();
        for subnet in syncing {
            self.advance_catch_up(&subnet)?;
        }
        Ok(())
    }

    /// The earliest wake of a catching-up node, if it falls before the
    /// next live node's block.
    fn next_catch_up_wake(&self) -> Option<u64> {
        let live = self.nodes.values().filter(|n| n.is_live());
        let next_block_ms = live.map(SubnetNode::next_block_at_ms).min()?;
        let wakes = self.nodes.values();
        let wakes = wakes.filter_map(|n| n.next_wake_ms(&self.network, self.now_ms));
        wakes.min().filter(|&wake_ms| wake_ms < next_block_ms)
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
    /// down the hierarchy in dependency order. `None` once nobody deferred.
    fn heal_region(&mut self, region: &str) -> Result<Option<CrashPhase>, RuntimeError> {
        let records = self.subnets.by_id.iter();
        let down =
            records.filter(|(_, r)| r.region.as_deref() == Some(region) && r.crashed.is_some());
        let mut waiting: Vec<SubnetId> = down.map(|(s, _)| s.clone()).collect();
        waiting.sort_by_key(SubnetId::depth);
        let mut deferred = false;
        for subnet in waiting {
            let parent_ready = subnet
                .parent()
                .is_none_or(|p| self.nodes.get(&p).is_some_and(SubnetNode::is_live));
            if parent_ready {
                self.rejoin_node(&subnet)?;
            } else {
                self.chaos.region_heals_deferred += 1;
                deferred = true;
            }
        }
        if deferred {
            return Ok(Some(CrashPhase::Down));
        }
        self.chaos.region_heals += 1;
        Ok(None)
    }

    /// One catch-up round of `subnet`'s node. The node reads its inbox
    /// through its front door, [`SubnetNode::poll`]; the runtime, standing
    /// in for the subnet's surviving peers, answers the pulls in it — chunk
    /// blobs from the shared store and, once no snapshot is being
    /// assembled, blocks as stored in the record's copy of the chain, both
    /// in bounded batches — and refreshes the validator set the node
    /// replays under; then the node acts on what it received
    /// ([`SubnetNode::catch_up`]). The peers sit in the node's region, so
    /// their replies leave with the node as origin. Once the node is live
    /// it holds the whole chain, and the record keeps no copy of it.
    fn advance_catch_up(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let now_ms = self.now_ms;
        let mut inbox = self.poll_network(subnet, now_ms)?;
        let node = self.known_node(subnet)?;
        let (origin, replaying) = (Some(node.subscription()), node.syncing_manifest().is_none());
        for (cids, reply_topic) in std::mem::take(&mut inbox.blob_pulls) {
            let stored = cids
                .iter()
                .take(BLOB_BATCH_CAP)
                .filter_map(|c| self.store.get(c));
            let blobs: Vec<Vec<u8>> = stored.map(|b| b.as_ref().clone()).collect();
            if blobs.is_empty() {
                continue;
            }
            self.chaos.blob_batches += 1;
            let batch = ResolutionMsg::BlobBatch { blobs };
            self.network.publish(&reply_topic, batch, now_ms, origin);
        }
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        if replaying {
            let peers = &self.subnets.by_id.get(subnet).ok_or_else(unknown)?.peers;
            for from_epoch in std::mem::take(&mut inbox.block_pulls) {
                let blocks = peers.serve(from_epoch, BLOCK_BATCH_CAP);
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
            if !inbox.block_batches.is_empty() {
                self.refresh_validators(subnet);
            }
        }
        let record = self.subnets.by_id.get_mut(subnet).ok_or_else(unknown)?;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let peers = Peers {
            history: &record.peers,
            network: &self.network,
            now_ms,
        };
        node.catch_up(inbox, &peers, self.config.parallelism, &mut self.chaos)?;
        if node.is_live() {
            record.peers = History::default();
        }
        Ok(())
    }
}
