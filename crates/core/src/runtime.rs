//! The hierarchy runtime: the struct that wires one node per subnet to
//! the shared network, its construction, the event loop and the tick —
//! every step is one private `run_wave`. The rest of `HierarchyRuntime`'s
//! API is in `users`, `lifecycle`, `stats` and [`crate::chaos`]; wallets,
//! the journal and per-subnet records have one owner each.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::{CrossMsgMeta, FundCertificate};
use hc_chain::{execute_block_with, fan_out, produce_block_with, Block, ExecOptions};
use hc_consensus::ValidatorSet;
use hc_net::{BackoffStep, Network, ResolutionMsg, Resolver};
use hc_state::{CidStore, ImplicitMsg, Method, VmEvent};
use hc_store::Persistence;
use hc_types::{Address, CanonicalEncode, Cid, Keypair, SubnetId, TokenAmount};

use crate::config::{RuntimeConfig, RuntimeError, StepReport};
use crate::journal::Journal;
use crate::node::{LocalOutcome, SubnetNode};
use crate::persist::ControlRecord;
use crate::subnets::{SubnetRecord, Subnets};
use crate::wallet::Wallets;

/// Domain separation for root validator key seeds.
const ROOT_SEED_DOMAIN: u64 = 0x726f_6f74; // "root"

/// Validators of the rootnet (round-robin authority set).
const ROOT_VALIDATORS: usize = 4;

/// Epochs after which a pending atomic execution is force-aborted by the
/// coordinator's sweep (the *timeliness* guarantee, paper §IV-D).
const ATOMIC_TIMEOUT_EPOCHS: u64 = 50;

/// The hierarchical consensus runtime: one node per subnet plus the shared
/// pub-sub network, advanced by a deterministic discrete-event loop.
pub struct HierarchyRuntime {
    pub(crate) config: RuntimeConfig,
    pub(crate) nodes: BTreeMap<SubnetId, SubnetNode>,
    pub(crate) network: Network<ResolutionMsg>,
    pub(crate) now_ms: u64,
    /// Signing keys and cursors of every managed account.
    pub(crate) wallets: Wallets,
    events: VecDeque<(SubnetId, VmEvent)>,
    /// Tokens minted at the rootnet (genesis + faucet), the global supply
    /// baseline for conservation audits.
    pub(crate) root_minted: TokenAmount,
    /// Every committed child checkpoint, for light-client audits.
    pub(crate) archive: crate::archive::CheckpointArchive,
    /// Runtime-wide content-addressed blob store: persisted state chunk
    /// manifests. Shared by every node (handles clone the same store), so
    /// unchanged chunks are stored once across snapshots and subnets.
    pub(crate) store: CidStore,
    /// The control log and the replay mode that silences outward effects.
    pub(crate) journal: Journal,
    /// What the runtime remembers about each subnet beside its node.
    pub(crate) subnets: Subnets,
    /// The fault plan's crashes and region outages (those given at boot
    /// plus any added via [`HierarchyRuntime::extend_faults`]) and each
    /// one's progress through crash → rejoin; outages first.
    pub(crate) node_faults: Vec<(hc_net::FaultRule, crate::chaos::CrashPhase)>,
    /// Crash/rejoin/catch-up counters.
    pub(crate) chaos: crate::chaos::ChaosStats,
    /// Signed checkpoints cut but not yet committed by the parent, keyed
    /// by checkpoint CID. A checkpoint submitted to a parent lives only in
    /// that node's in-memory `pending_checkpoints` until committed, so a
    /// parent crash loses it — and the per-child `prev` hash chain then
    /// rejects every later checkpoint from that child. This runtime-level
    /// ledger (the runtime outlives node crashes) lets catch-up resubmit
    /// the lost suffix; entries are pruned as commits are archived.
    pub(crate) cut_checkpoints: BTreeMap<Cid, SignedCheckpoint>,
}

impl fmt::Debug for HierarchyRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HierarchyRuntime")
            .field("subnets", &self.nodes.len())
            .field("now_ms", &self.now_ms)
            .finish_non_exhaustive()
    }
}

impl HierarchyRuntime {
    /// Creates a hierarchy containing only the rootnet, with four
    /// authority validators.
    ///
    /// With [`crate::PersistenceConfig::Durable`] the runtime attaches its
    /// journals to the configured device and starts writing through. `new`
    /// expects a *fresh* device; to restart from a device that already
    /// holds journaled history, use [`HierarchyRuntime::recover`].
    pub fn new(config: RuntimeConfig) -> Self {
        let mut rt = Self::boot(config);
        if let Some((control, _)) = rt.journal.open(&rt.store) {
            rt.journal.attach(control);
            // The root's boot-time placement predates the control log's
            // attachment; journal it now so recovery replays it.
            rt.journal_region(&SubnetId::root());
        }
        rt
    }

    /// Builds the in-memory hierarchy skeleton (rootnet only), without
    /// touching any persistence device.
    pub(crate) fn boot(config: RuntimeConfig) -> Self {
        let network = Network::new(config.net.clone(), config.seed);
        let root = SubnetId::root();

        // Root validators: deterministic authority identities.
        let mut validator_keys = Vec::new();
        let mut validators = Vec::new();
        for i in 0..ROOT_VALIDATORS {
            let mut seed = [0u8; 32];
            let v = config.seed ^ ((i as u64) << 32) ^ ROOT_SEED_DOMAIN;
            seed[..8].copy_from_slice(&v.to_le_bytes());
            seed[8] = 0x52;
            let key = Keypair::from_seed(seed);
            validators.push(hc_consensus::Validator {
                addr: Address::new(10 + i as u64),
                key: key.public(),
                power: 1,
            });
            validator_keys.push(key);
        }

        let store = CidStore::new();
        let mut node = SubnetNode::genesis(
            root.clone(),
            &config,
            None,
            network.subscribe(&root.topic()),
            config.engine_params.block_time_ms,
            store.clone(),
        );
        node.validators = ValidatorSet::new(validators);
        node.validator_keys = validator_keys;

        let mut subnets = Subnets::default();
        subnets.boot(&root, None);
        let mut rt = HierarchyRuntime {
            journal: Journal::new(&config.persistence),
            config,
            nodes: BTreeMap::from([(root.clone(), node)]),
            network,
            now_ms: 0,
            wallets: Wallets::new(),
            events: VecDeque::new(),
            root_minted: TokenAmount::ZERO,
            archive: crate::archive::CheckpointArchive::default(),
            store,
            subnets,
            node_faults: Vec::new(),
            chaos: crate::chaos::ChaosStats::default(),
            cut_checkpoints: BTreeMap::new(),
        };
        rt.schedule_faults(&rt.config.net.faults.clone());
        rt.assign_boot_region(&root);
        rt
    }

    /// The persistence device the runtime journals to, if durable.
    pub fn persistence_device(&self) -> Option<Arc<dyn Persistence>> {
        self.config.persistence.durable().map(|d| d.device.clone())
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The subnets in the hierarchy (always includes the root).
    pub fn subnets(&self) -> impl Iterator<Item = &SubnetId> {
        self.nodes.keys()
    }

    /// Read access to a subnet node.
    pub fn node(&self, subnet: &SubnetId) -> Option<&SubnetNode> {
        self.nodes.get(subnet)
    }

    /// The runtime-wide content-addressed blob store holding persisted
    /// state chunks and snapshot manifests (shared by every subnet node).
    pub fn cid_store(&self) -> &hc_state::CidStore {
        &self.store
    }

    /// Returns `true` when `subnet` has no local pending work *and* no
    /// top-down messages waiting for it in its parent's SCA — the drain
    /// condition required before a child can be merged away. `false` for
    /// unknown subnets.
    pub fn subnet_settled(&self, subnet: &SubnetId) -> bool {
        let Some(n) = self.nodes.get(subnet) else {
            return false;
        };
        if !n.is_quiescent() || !self.parent_queue_drained(n) {
            return false;
        }
        // Work still routed *into* the subnet from elsewhere in the
        // hierarchy: queued user messages carrying a cross transfer
        // destined here, or resolved bottom-up groups not yet applied.
        // Killing the subnet now would execute those against a dead
        // destination and strand the transfers.
        self.nodes.values().all(|other| {
            !other.cross_pool.routes_into(&n.subnet_id)
                && !other.mempool.iter().any(|m| {
                    matches!(
                        &m.message().method,
                        Method::SendCrossMsg { msg }
                            if n.subnet_id.is_prefix_of(&msg.to.subnet)
                    )
                })
        })
    }

    /// Tokens minted at the root (the global conservation baseline).
    pub fn root_minted(&self) -> TokenAmount {
        self.root_minted
    }

    /// Drains the domain events emitted since the last call.
    pub fn drain_events(&mut self) -> Vec<(SubnetId, VmEvent)> {
        self.events.drain(..).collect()
    }

    /// Publishes a raw gossip message on a topic — the adversarial
    /// injection point for network-level attacks (forged certificates,
    /// junk resolution traffic) in tests and experiments.
    pub fn inject_gossip(&mut self, topic: &str, msg: ResolutionMsg) {
        self.network.publish(topic, msg, self.now_ms, None);
    }

    /// [`HierarchyRuntime::node`], or the error naming the unknown subnet.
    pub(crate) fn known_node(&self, subnet: &SubnetId) -> Result<&SubnetNode, RuntimeError> {
        let unknown = || RuntimeError::UnknownSubnet(subnet.clone());
        self.nodes.get(subnet).ok_or_else(unknown)
    }

    pub(crate) fn get_node_mut<'a>(
        nodes: &'a mut BTreeMap<SubnetId, SubnetNode>,
        subnet: &SubnetId,
    ) -> Result<&'a mut SubnetNode, RuntimeError> {
        nodes
            .get_mut(subnet)
            .ok_or_else(|| RuntimeError::UnknownSubnet(subnet.clone()))
    }

    /// Advances the hierarchy by one block: the subnet with the earliest
    /// scheduled block produces it.
    ///
    /// # Errors
    ///
    /// Propagates internal failures (which indicate bugs, not user error).
    pub fn step(&mut self) -> Result<StepReport, RuntimeError> {
        self.process_fault_events()?;
        let earliest = self.nodes.values().min_by_key(|n| n.due());
        let subnet = earliest
            .expect("hierarchy always has the root")
            .subnet_id
            .clone();
        self.tick_subnet(&subnet)
    }

    /// The subnets forming the next *wave*: the longest prefix of the
    /// earliest-deadline order whose members (i) are due back-to-back on
    /// the virtual clock and (ii) are pairwise hierarchy-independent.
    ///
    /// Taking a strict prefix (stopping at the first violation instead of
    /// skipping past it) keeps the wave identical to the run of blocks a
    /// sequential [`HierarchyRuntime::step`] loop would produce next. The
    /// ancestor/descendant exclusion keeps checkpoint submission and
    /// top-down sync — the flows that couple a parent and its children —
    /// strictly across waves, never within one.
    fn wave_members(&self) -> Vec<SubnetId> {
        let mut order: Vec<&SubnetNode> = self.nodes.values().collect();
        order.sort_by_key(|n| n.due());
        let mut members: Vec<SubnetId> = Vec::new();
        let mut sim_now = self.now_ms;
        for node in order {
            if !members.is_empty() {
                if node.next_block_at_ms > sim_now + 1 {
                    break; // the first schedule gap ends the wave
                }
                let related = members
                    .iter()
                    .any(|m| m.is_ancestor_of(&node.subnet_id) || node.subnet_id.is_ancestor_of(m));
                if related {
                    break;
                }
            }
            sim_now = node.next_block_at_ms.max(sim_now + 1);
            members.push(node.subnet_id.clone());
        }
        members
    }

    /// Advances the hierarchy by one *wave* of blocks: every subnet due
    /// back-to-back at the minimum scheduled time produces its next block,
    /// with the pure per-subnet phase running concurrently on up to
    /// [`RuntimeConfig::parallelism`] threads.
    ///
    /// # Errors
    ///
    /// Propagates internal failures (which indicate bugs, not user error).
    pub fn step_wave(&mut self) -> Result<Vec<StepReport>, RuntimeError> {
        self.process_fault_events()?;
        let members = self.wave_members();
        self.run_wave(&members)
    }

    /// The per-block pipeline — the only one — over `members`, a wave of
    /// pairwise hierarchy-independent subnets in wave order:
    ///
    /// 1. *pre* — sequential, wave order: validator refresh, clock
    ///    advance, network poll, parent sync, content resolution.
    /// 2. *(a)* — concurrent: block assembly, consensus, execution, and
    ///    commit against each subnet's own node only.
    /// 3. *(b)* — sequential, wave order: the block's journal record,
    ///    checkpoint archiving, event routing, registry pruning; then the
    ///    journal barrier — the wave's one sync and its commit point.
    ///
    /// Debug builds end every wave with [`crate::audit_escrow`]: escrow
    /// coverage and root conservation hold between any two blocks.
    ///
    /// Phase (a) touches no shared state (each node owns its private
    /// randomness stream) and is laid on the workers by
    /// [`hc_chain::fan_out`], so the result is bit-identical at every
    /// `parallelism` setting. A wave of one is a plain tick: nothing is
    /// spawned, and every draw happens where a lone tick makes it.
    fn run_wave(&mut self, members: &[SubnetId]) -> Result<Vec<StepReport>, RuntimeError> {
        let mut at_ms = Vec::with_capacity(members.len());
        for subnet in members {
            at_ms.push(self.pre_tick(subnet)?);
        }

        // The members' nodes are borrowed where they live, laid out in
        // wave order so outcomes line up with `members`.
        let mut due: Vec<(usize, &mut SubnetNode)> = self
            .nodes
            .iter_mut()
            .filter_map(|(id, node)| Some((members.iter().position(|m| m == id)?, node)))
            .collect();
        due.sort_unstable_by_key(|(slot, _)| *slot);
        let config = &self.config;
        let outcomes = fan_out(due, config.parallelism, |(slot, node)| {
            Self::produce_local(node, config, at_ms[slot])
        });

        let mut reports = Vec::with_capacity(members.len());
        for ((subnet, at_ms), produced) in members.iter().zip(&at_ms).zip(outcomes) {
            let (block, outcome) = produced?;
            reports.push(self.post_tick(subnet, block, outcome, *at_ms)?);
        }
        self.journal.barrier();
        #[cfg(debug_assertions)]
        if let Err(broken) = crate::audit::audit_escrow(self) {
            panic!("wave {members:?} at {} ms: {broken}", self.now_ms);
        }
        Ok(reports)
    }

    /// Steps until every node is quiescent (no cross-net work in flight)
    /// or at least `max_blocks` have been produced. Returns the number of
    /// blocks produced. With [`RuntimeConfig::parallelism`] above `1` the
    /// hierarchy advances wave-by-wave ([`HierarchyRuntime::step_wave`])
    /// and may overshoot `max_blocks` by at most one wave.
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_until_quiescent(&mut self, max_blocks: usize) -> Result<usize, RuntimeError> {
        if self.config.parallelism > 1 {
            let mut produced = 0;
            while produced < max_blocks {
                if self.all_quiescent() {
                    break;
                }
                produced += self.step_wave()?.len();
            }
            return Ok(produced);
        }
        for produced in 0..max_blocks {
            if self.all_quiescent() {
                return Ok(produced);
            }
            self.step()?;
        }
        Ok(max_blocks)
    }

    /// Produces `n` blocks (hierarchy-wide, earliest-deadline order).
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn run_blocks(&mut self, n: usize) -> Result<(), RuntimeError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Returns `true` when no node has cross-net work in flight, locally
    /// or waiting in its parent's SCA top-down queue.
    pub fn all_quiescent(&self) -> bool {
        // A crashed or still-catching-up node has work in flight by
        // definition: the hierarchy is not settled until it has rejoined
        // and replayed everything it missed.
        if !self.subnets.by_id.values().all(SubnetRecord::is_live) {
            return false;
        }
        // So do unfired crash faults: quiescing before a scheduled crash
        // would end a chaos run early.
        let crash_ahead = |(rule, phase): &(hc_net::FaultRule, _)| {
            matches!(rule.kind, hc_net::FaultKind::Crash { .. })
                && *phase != crate::chaos::CrashPhase::Done
        };
        if self.node_faults.iter().any(crash_ahead) {
            return false;
        }
        self.nodes
            .values()
            .all(|n| n.is_quiescent() && self.parent_queue_drained(n))
    }

    /// `true` when the parent's SCA holds no top-down message `node` has
    /// yet to pull (vacuously for the root, or while the parent is down).
    fn parent_queue_drained(&self, node: &SubnetNode) -> bool {
        let parent = node.subnet_id.parent().and_then(|p| self.nodes.get(&p));
        parent.is_none_or(|p| {
            p.tree
                .sca()
                .top_down_msgs(&node.subnet_id, node.cross_pool.next_top_down_nonce())
                .is_empty()
        })
    }

    /// Produces one block on `subnet` (at its scheduled time), running the
    /// full per-block pipeline: network poll, parent sync, content
    /// resolution, proposal, execution, and post-block event routing.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets or internal consensus/chain errors.
    pub fn tick_subnet(&mut self, subnet: &SubnetId) -> Result<StepReport, RuntimeError> {
        let mut reports = self.run_wave(std::slice::from_ref(subnet))?;
        Ok(reports.pop().expect("a wave of one reports one block"))
    }

    /// Phase *pre* of a tick: cross-net intake against shared state —
    /// validator refresh from the parent SA, clock advance, network poll,
    /// parent-chain sync, and content resolution. Returns the block's
    /// virtual time.
    fn pre_tick(&mut self, subnet: &SubnetId) -> Result<u64, RuntimeError> {
        self.refresh_validators(subnet);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        // Blocks form a total order on the global virtual clock: each block
        // lands strictly after every previously produced block (causal
        // consistency for cross-chain reads), and never before the node's
        // own schedule.
        let at_ms = node.next_block_at_ms.max(self.now_ms + 1);
        self.now_ms = at_ms;

        for cert in Self::poll_network(node, &self.network, at_ms) {
            self.ingest_certificate(subnet, cert);
        }
        self.sync_parent(subnet)?;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        Self::resolve_pending(node, &self.network, at_ms);
        Ok(at_ms)
    }

    /// Garbage-collects acknowledged top-down messages from the parent's
    /// registry: everything below the nonce this child has already pulled
    /// is settled history. The registry is transport bookkeeping outside
    /// the state root, so pruning never perturbs consensus.
    fn prune_parent_registry(&mut self, subnet: &SubnetId) {
        let Some(parent) = subnet.parent() else {
            return;
        };
        let Some(next) = self
            .nodes
            .get(subnet)
            .map(|n| n.cross_pool.next_top_down_nonce())
        else {
            return;
        };
        if let Some(parent_node) = self.nodes.get_mut(&parent) {
            parent_node.tree.prune_top_down(subnet, next);
        }
    }

    /// Ingests pub-sub traffic for the node and answers pull requests.
    /// Returns the fund certificates received: validating one reads other
    /// nodes' chains, which is the caller's reach.
    fn poll_network(
        node: &mut SubnetNode,
        network: &Network<ResolutionMsg>,
        now_ms: u64,
    ) -> Vec<FundCertificate> {
        let mut certs = Vec::new();
        for msg in network.poll(node.subscription, now_ms) {
            if let ResolutionMsg::Certificate(cert) = msg {
                certs.push(*cert);
                continue;
            }
            // The resolver cache dies with the process, but the content
            // registry is canonical state (the state tree's registry
            // log) and survives crash recovery — re-seed on demand so
            // a rejoined node still serves pulls for groups it
            // checkpointed before the crash (the registry is the
            // authoritative store; the cache is only its hot front).
            if let ResolutionMsg::Pull { cid, .. } = &msg {
                if !node.resolver.cache().contains(cid) {
                    if let Some(group) = node.tree.resolve_content(cid) {
                        node.resolver.seed(group.clone());
                    }
                }
            }
            if let Some((topic, reply)) = node.resolver.handle(msg) {
                // State the replying node as origin so region-scoped rules
                // see the true (from, to) region pair.
                network.publish(&topic, reply, now_ms, Some(node.subscription));
            }
        }
        certs
    }

    /// Validates a received fund certificate against the *source's* Subnet
    /// Actor (read from the chain that hosts it — in this in-process
    /// simulation that mirrors the light-client read a real node performs
    /// on the ancestor chains it tracks) and records it as a pending
    /// payment. Invalid or unverifiable certificates are dropped.
    pub(crate) fn ingest_certificate(&mut self, subnet: &SubnetId, cert: FundCertificate) {
        if cert.body.msg.to.subnet != *subnet {
            return;
        }
        let source = &cert.body.msg.from.subnet;
        let Some(parent) = source.parent() else {
            return; // the rootnet needs no certificates
        };
        let Some(sa_addr) = source.actor() else {
            return;
        };
        let Some(sa) = self.nodes.get(&parent).and_then(|n| n.tree.sa(sa_addr)) else {
            return;
        };
        if cert.verify(sa).is_err() {
            return;
        }
        let key = cert.body.msg.cid();
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.tentative.entry(key).or_insert(cert);
        }
    }

    /// Child-side sync with the parent chain: pulls newly committed
    /// top-down messages (paper Fig. 3, left).
    fn sync_parent(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let Some(parent) = subnet.parent() else {
            return Ok(());
        };
        let from_nonce = self.known_node(subnet)?.cross_pool.next_top_down_nonce();
        let msgs = self
            .nodes
            .get(&parent)
            .map(|p| p.tree.sca().top_down_msgs(subnet, from_nonce))
            .unwrap_or_default();
        if !msgs.is_empty() {
            Self::get_node_mut(&mut self.nodes, subnet)?
                .cross_pool
                .ingest_top_down(msgs);
        }
        Ok(())
    }

    /// Attempts to resolve pending bottom-up metas and turnaround metas;
    /// publishes pull requests for misses (paper §IV-C). Each miss goes
    /// through the resolver's per-request timeout/backoff tracker
    /// ([`Resolver::should_pull`]): the first miss pulls immediately,
    /// repeat misses wait out the capped exponential backoff, and once a
    /// bounded retry budget is spent the request is abandoned — counted in
    /// [`hc_net::ResolverStats::pulls_abandoned`], never silently lost.
    fn resolve_pending(node: &mut SubnetNode, network: &Network<ResolutionMsg>, now_ms: u64) {
        let own_topic = node.subnet_id.topic();
        // Looks a group up in the node's cache; a miss that is due a pull
        // publishes one. The pulling node is the origin: a pull that must
        // cross a severed or degraded region pair is subject to those rules.
        let lookup = |resolver: &mut Resolver, meta: &CrossMsgMeta| {
            let pull = match resolver.lookup_or_pull(meta.msgs_cid, &own_topic) {
                Ok(group) => return Some(group),
                Err(pull) => pull,
            };
            if let BackoffStep::Send(_) = resolver.should_pull(meta.msgs_cid, now_ms) {
                let origin = Some(node.subscription);
                network.publish(&meta.from.topic(), pull, now_ms, origin);
            }
            None
        };
        for meta in node.cross_pool.unresolved_metas() {
            if let Some(group) = lookup(&mut node.resolver, &meta) {
                node.cross_pool.resolve(group);
            }
        }
        for meta in std::mem::take(&mut node.unresolved_turnarounds) {
            match lookup(&mut node.resolver, &meta) {
                Some(group) => node.pending_turnarounds.push((meta, group)),
                None => node.unresolved_turnarounds.push(meta),
            }
        }
    }

    /// Phase (a) of a tick: builds, executes, and commits the next block
    /// of `node`'s subnet, touching nothing but the node itself. Being a
    /// pure function of the node (randomness included — see
    /// [`SubnetNode::rng`]) is what lets [`HierarchyRuntime::step_wave`]
    /// run this concurrently across the subnets of a wave.
    fn produce_local(
        node: &mut SubnetNode,
        config: &RuntimeConfig,
        at_ms: u64,
    ) -> Result<(Block, LocalOutcome), RuntimeError> {
        let subnet = node.subnet_id.clone();
        let is_root = subnet.is_root();
        let epoch = node.next_epoch;
        let opportunity = node.draw_slot(epoch)?;

        // Assemble implicit messages: child checkpoints, turnarounds,
        // cross-net applications, and the checkpoint cut.
        let mut implicit: Vec<ImplicitMsg> = Vec::new();
        for signed in node.pending_checkpoints.drain(..) {
            implicit.push(ImplicitMsg::CommitChildCheckpoint { signed });
        }
        for (meta, msgs) in node.pending_turnarounds.drain(..) {
            implicit.push(ImplicitMsg::CommitTurnaround { meta, msgs });
        }
        let (tds, bus) = node.cross_pool.take_proposable(opportunity.capacity);
        for m in tds {
            implicit.push(ImplicitMsg::ApplyTopDown(m));
        }
        for (meta, msgs) in bus {
            implicit.push(ImplicitMsg::ApplyBottomUp { meta, msgs });
        }
        if !is_root && node.tree.sca().is_checkpoint_epoch(epoch) {
            implicit.push(ImplicitMsg::CutCheckpoint {
                proof: node.chain.head(),
            });
        }
        if node.tree.atomic().has_pending() {
            implicit.push(ImplicitMsg::SweepAtomicTimeouts {
                timeout: ATOMIC_TIMEOUT_EPOCHS,
            });
        }

        let budget = opportunity.capacity.saturating_sub(implicit.len());
        let signed_msgs = node.mempool.select(budget);

        let proposer_key = node
            .validator_keys
            .get(opportunity.proposer)
            .or_else(|| node.validator_keys.first())
            .cloned()
            .expect("subnet has at least one managed validator key");

        let parent_cid = node.chain.head();
        let executed = produce_block_with(
            &mut node.tree,
            subnet.clone(),
            epoch,
            parent_cid,
            implicit,
            signed_msgs,
            &proposer_key,
            at_ms,
            ExecOptions {
                sig_cache: node.sig_cache.as_ref(),
                parallelism: config.parallelism,
            },
        );

        let mut block = executed.block;
        if node.engine.requires_justification() {
            let cid = block.cid();
            let quorum = node.validators.quorum_threshold();
            for key in node.validator_keys.iter().take(quorum.max(1)) {
                block.justification.add(key.sign(cid.as_bytes()));
            }
        }
        node.engine
            .validate_block(&block, &node.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        node.mempool.remove_included(block.signed_msgs.iter());
        // The clone right-sizes the payload vectors the chain store keeps;
        // the block itself goes on to `post_tick`, which journals it.
        node.chain
            .append(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let outcome = node.commit_block(&block, executed.receipts, &opportunity);
        Ok((block, outcome))
    }

    /// Re-commits one past block — replayed from the journal or pulled
    /// from peers — against `subnet`'s node: burns the consensus draw the
    /// live run made for it, validates and re-executes it (verifying the
    /// recomputed state root against the header), chains it, and hands it
    /// to the same
    /// [`SubnetNode::commit_block`] the live tick uses. What happens to
    /// the returned outcome is the caller's choice of *outward* effects:
    /// journal recovery routes it through [`HierarchyRuntime::post_tick`],
    /// peer catch-up applies only the node-local half of its events.
    pub(crate) fn reexecute_block(
        &mut self,
        subnet: &SubnetId,
        block: &Block,
    ) -> Result<LocalOutcome, RuntimeError> {
        self.refresh_validators(subnet);
        let parallelism = self.config.parallelism;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let opportunity = node.draw_slot(block.header.epoch)?;
        node.engine
            .validate_block(block, &node.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        let receipts = execute_block_with(
            &mut node.tree,
            block,
            ExecOptions {
                sig_cache: node.sig_cache.as_ref(),
                parallelism,
            },
        )
        .map_err(|e| RuntimeError::Execution(format!("replay execution: {e}")))?;
        node.chain
            .append(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let outcome = node.commit_block(block, receipts, &opportunity);
        self.wallets.advance_past(subnet, block);
        Ok(outcome)
    }

    /// Re-commits one past block whose state arrives wholesale from a
    /// snapshot: burns its consensus draw and repeats, through
    /// [`SubnetNode::skip_block`], the bookkeeping that outlives execution
    /// — without validating, executing or hashing anything. `append`
    /// chains the block (recovery fast-forward keeps full history); the
    /// snapshot-covered prefix of a rejoining node is not chained.
    pub(crate) fn skip_past_block(
        &mut self,
        subnet: &SubnetId,
        block: &Block,
        append: bool,
    ) -> Result<(), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let opportunity = node.draw_slot(block.header.epoch)?;
        if append {
            node.chain
                .append(block.clone())
                .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        }
        node.skip_block(block, &opportunity);
        self.wallets.advance_past(subnet, block);
        Ok(())
    }

    /// Phase (b) of a tick: applies a block's outward effects to shared
    /// state — journals the block, archives committed checkpoints, routes
    /// the block's events through the hierarchy, and prunes the parent's
    /// settled top-down registry.
    pub(crate) fn post_tick(
        &mut self,
        subnet: &SubnetId,
        block: Block,
        outcome: LocalOutcome,
        at_ms: u64,
    ) -> Result<StepReport, RuntimeError> {
        let LocalOutcome {
            report,
            archived,
            events,
        } = outcome;
        // The block's place in history: after every record written before
        // it, durable with the rest of its wave at the barrier.
        self.journal.append(&ControlRecord::Block(block));
        for (signed, policy) in archived {
            self.cut_checkpoints.remove(&signed.checkpoint.cid());
            self.archive.record(signed, policy);
        }
        if self.journal.outward() {
            for ev in &events {
                self.events.push_back((subnet.clone(), ev.clone()));
            }
        }
        for ev in events {
            self.route_event(subnet, ev, at_ms)?;
        }
        self.prune_parent_registry(subnet);
        Ok(report)
    }

    /// Reacts to a VM event emitted by a block of `subnet`: the node-local
    /// half ([`SubnetNode::apply_event`], shared with peer catch-up) and
    /// then the outward half — gossip, parent submission, journal records,
    /// certificates.
    fn route_event(
        &mut self,
        subnet: &SubnetId,
        event: VmEvent,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        let push_enabled = self.config.push_enabled && self.journal.outward();
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        // Runs in the sequential routing phase, so the persist a cut
        // triggers leaves store counters deterministic at any wave
        // parallelism.
        let cut = node.apply_event(&event, push_enabled);
        match event {
            VmEvent::CheckpointCut { checkpoint } => {
                let (manifest, pushes) = cut.expect("a checkpoint cut persists its state");
                // The subnet's validators sign the cut checkpoint; it then
                // travels to the parent chain (paper §III-B, Fig. 2).
                let signed = node.sign_checkpoint(checkpoint);
                let origin = node.subscription;
                for (topic, push) in pushes {
                    // Pushes originate here: announcing content across a
                    // severed ocean fails like any other delivery (the
                    // destination falls back to the pull path).
                    self.network.publish(&topic, push, now_ms, Some(origin));
                }

                let epoch = signed.checkpoint.epoch;
                if let Some(parent) = subnet.parent() {
                    // Ledger the cut until the parent archives its commit,
                    // so a parent crash cannot strand it (see
                    // `cut_checkpoints`).
                    self.cut_checkpoints
                        .insert(signed.checkpoint.cid(), signed.clone());
                    Self::get_node_mut(&mut self.nodes, &parent)?
                        .pending_checkpoints
                        .push(signed);
                }

                // Anchor the persisted manifest in the control log and the
                // GC window. During replay the same code path re-persists,
                // so GC sweeps happen at identical points.
                self.journal.append(&ControlRecord::CheckpointAnchor {
                    subnet: subnet.clone(),
                    epoch,
                    manifest,
                });
                self.anchor_manifest(subnet, epoch, manifest);
            }

            VmEvent::CrossMsgQueued { msg }
                if self.config.certificates_enabled
                && self.journal.outward()
                // Accelerate the slow routes: certify bottom-up and path
                // messages directly to their destination (paper §IV-A).
                // Top-down messages settle within a couple of blocks and
                // need no certificate.
                && !msg.is_top_down() && msg.from.subnet == *subnet =>
            {
                let mut cert =
                    hc_actors::FundCertificate::new(msg.clone(), node.chain.head_epoch());
                let cid = cert.signing_cid();
                for key in &node.validator_keys {
                    cert.signatures.add(key.sign(cid.as_bytes()));
                }
                // The certificate travels from the *source* subnet's
                // region to the destination topic — stating the origin
                // lets inter-region partitions and degrades intersect it.
                self.network.publish(
                    &msg.to.subnet.topic(),
                    ResolutionMsg::Certificate(Box::new(cert)),
                    now_ms,
                    Some(node.subscription),
                );
            }

            _ => {}
        }
        Ok(())
    }
}
