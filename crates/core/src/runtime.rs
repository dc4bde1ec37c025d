//! The hierarchy runtime: the struct that wires one node per subnet to
//! the shared network, its construction, the event loop and the tick —
//! every step is one private `run_wave`. The rest of `HierarchyRuntime`'s
//! API is in `users`, `lifecycle`, `stats` and [`crate::chaos`]; the
//! journal and per-subnet records have one owner each. The runtime holds
//! no key: a user's is on its handle, a validator's on its node.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::FundCertificate;
use hc_chain::{fan_out, fan_out_threads, Block};
use hc_consensus::ValidatorSet;
use hc_net::{Network, ResolutionMsg};
use hc_state::{CidStore, VmEvent};
use hc_store::Persistence;
use hc_types::{Address, Cid, Keypair, SubnetId, TokenAmount};

use crate::config::{RuntimeConfig, RuntimeError, StepReport};
use crate::journal::Journal;
use crate::node::{Input, LocalOutcome, SubnetNode, SyncInbox};
use crate::persist::ControlRecord;
use crate::subnets::{SubnetRecord, Subnets};

/// Domain separation for root validator key seeds.
const ROOT_SEED_DOMAIN: u64 = 0x726f_6f74; // "root"

/// Validators of the rootnet (round-robin authority set).
const ROOT_VALIDATORS: usize = 4;

/// The hierarchical consensus runtime: one node per subnet plus the shared
/// pub-sub network, advanced by a deterministic discrete-event loop.
pub struct HierarchyRuntime {
    pub(crate) config: RuntimeConfig,
    pub(crate) nodes: BTreeMap<SubnetId, SubnetNode>,
    pub(crate) network: Network<ResolutionMsg>,
    pub(crate) now_ms: u64,
    /// The address the next created account gets; lower ids are system
    /// actors and validators.
    pub(crate) next_user_id: u64,
    events: VecDeque<(SubnetId, VmEvent)>,
    /// Runtime-wide content-addressed blob store: persisted state chunk
    /// manifests. Shared by every node (handles clone the same store), so
    /// unchanged chunks are stored once across snapshots and subnets.
    pub(crate) store: CidStore,
    /// The control log.
    pub(crate) journal: Journal,
    /// What the runtime remembers about each subnet beside its node.
    pub(crate) subnets: Subnets,
    /// The fault plan's crashes and region outages (those given at boot
    /// plus any added via [`HierarchyRuntime::extend_faults`]) yet to play
    /// out, each with its progress through crash → rejoin; outages first.
    pub(crate) node_faults: Vec<(hc_net::FaultRule, crate::chaos::CrashPhase)>,
    /// Crash/rejoin/catch-up counters.
    pub(crate) chaos: crate::chaos::ChaosStats,
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
        if let Some(control) = rt.journal.open(&rt.store) {
            rt.journal.attach(control.into_wal());
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

        let mut rt = HierarchyRuntime {
            journal: Journal::new(&config.persistence),
            config,
            nodes: BTreeMap::new(),
            network,
            now_ms: 0,
            next_user_id: 100,
            events: VecDeque::new(),
            store: CidStore::new(),
            subnets: Subnets::default(),
            node_faults: Vec::new(),
            chaos: crate::chaos::ChaosStats::default(),
        };
        let subscription = rt.network.subscribe(&root.topic());
        let block_time_ms = rt.config.engine_params.block_time_ms;
        let node = rt.genesis_node(&root, None, subscription, block_time_ms);
        let mut keys = validator_keys.into_iter();
        let set = ValidatorSet::new(validators);
        node.install_validators(set, |_| keys.next().expect("a key per root validator"));
        rt.subnets.boot(&root, None);
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

    /// Returns `true` when `subnet`'s node has no pending work — top-down
    /// messages its parent committed included, which wait in the node's
    /// own pool — and nothing elsewhere routes into it: the drain condition
    /// required before a child can be merged away. `false` for unknown
    /// subnets.
    pub fn subnet_settled(&self, subnet: &SubnetId) -> bool {
        let Some(n) = self.nodes.get(subnet) else {
            return false;
        };
        if !n.is_quiescent() {
            return false;
        }
        // Work still routed *into* the subnet from elsewhere in the
        // hierarchy, a crashed node's pool its peers keep included: killing
        // the subnet now would execute it against a dead destination.
        let mut crashed = self
            .subnets
            .by_id
            .values()
            .filter_map(|r| r.crashed.as_ref());
        !self.nodes.values().any(|other| other.routes_into(subnet))
            && !crashed.any(|survivor| survivor.routes_into(subnet))
    }

    /// Tokens minted at the root (the global conservation baseline): the
    /// minted total the root's committed state holds.
    pub fn root_minted(&self) -> TokenAmount {
        let root = self.nodes.get(&SubnetId::root());
        root.map_or(TokenAmount::ZERO, |n| n.state().minted())
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
            .subnet_id()
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
    /// top-down delivery — the flows that couple a parent and its children —
    /// strictly across waves, never within one.
    fn wave_members(&self) -> Vec<SubnetId> {
        let mut order: Vec<&SubnetNode> = self.nodes.values().collect();
        order.sort_by_key(|n| n.due());
        let mut members: Vec<SubnetId> = Vec::new();
        let mut sim_now = self.now_ms;
        for node in order {
            let (due_ms, id) = node.due();
            if !members.is_empty() {
                if due_ms > sim_now + 1 {
                    break; // the first schedule gap ends the wave
                }
                let related = members
                    .iter()
                    .any(|m| m.is_ancestor_of(id) || id.is_ancestor_of(m));
                if related {
                    break;
                }
            }
            sim_now = due_ms.max(sim_now + 1);
            members.push(id.clone());
        }
        members
    }

    /// Advances the hierarchy by one *wave* of blocks: every subnet due
    /// back-to-back at the minimum scheduled time produces its next block,
    /// with the pure per-subnet phase running concurrently on up to
    /// [`RuntimeConfig::parallelism`] threads, which the wave's blocks
    /// share.
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
    ///    advance, network poll, content resolution.
    /// 2. *(a)* — concurrent: block assembly, consensus, execution, and
    ///    commit against each subnet's own node only.
    /// 3. *(b)* — sequential, wave order: the block's journal record,
    ///    event routing, top-down hand-off; then the journal barrier — the
    ///    wave's one sync and its commit point.
    ///
    /// Debug builds end every wave with
    /// [`HierarchyRuntime::check_invariants`], re-hashing the heads of the
    /// wave's members only, and panic naming the wave, `now_ms` and every
    /// break: the safety story holds between any two blocks.
    ///
    /// Phase (a) touches no shared state (each node owns its private
    /// randomness stream) and is laid on the workers by
    /// [`hc_chain::fan_out`], so the result is bit-identical at every
    /// `parallelism` setting. The workers are divided, not handed to every
    /// block: a wave of *k* runs on `min(parallelism, k)` threads and each
    /// block gets `parallelism / min(parallelism, k)` workers (at least
    /// one) for its signatures and lanes. A wave of one is a plain tick:
    /// its block gets every worker, and every draw happens where a lone
    /// tick makes it.
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
        let parallelism = self.config.parallelism;
        let workers = (parallelism / fan_out_threads(due.len(), parallelism)).max(1);
        let outcomes = fan_out(due, parallelism, |(slot, node)| {
            node.produce(workers, at_ms[slot])
        });

        let mut reports = Vec::with_capacity(members.len());
        for ((subnet, at_ms), produced) in members.iter().zip(&at_ms).zip(outcomes) {
            let (block, outcome) = produced?;
            reports.push(self.post_tick(subnet, block, outcome, *at_ms)?);
        }
        self.journal.barrier();
        #[cfg(debug_assertions)]
        if let Err(breaks) = self.check_invariants_rehashing(Some(members)) {
            let breaks = crate::audit::describe(&breaks);
            panic!("wave {members:?} at {} ms:\n{breaks}", self.now_ms);
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

    /// Returns `true` when no node has cross-net work in flight. What a
    /// node is handed waits in that node from the moment it is handed, so
    /// each node is asked about itself only.
    pub fn all_quiescent(&self) -> bool {
        // A crashed or still-catching-up node has work in flight by
        // definition: the hierarchy is not settled until it has rejoined
        // and replayed everything it missed. So does a record whose inbox
        // holds what no node of the subnet has taken yet.
        let settled = |r: &SubnetRecord| r.crashed.is_none() && r.inbox.is_empty();
        if !self.subnets.by_id.values().all(settled) {
            return false;
        }
        // So do crash faults yet to play out: quiescing before a scheduled
        // crash would end a chaos run early.
        let crash_ahead = |(rule, _): &(hc_net::FaultRule, _)| {
            matches!(rule.kind, hc_net::FaultKind::Crash { .. })
        };
        if self.node_faults.iter().any(crash_ahead) {
            return false;
        }
        let settled = |n: &SubnetNode| n.is_live() && n.is_quiescent();
        self.nodes.values().all(settled)
    }

    /// Produces one block on `subnet` (at its scheduled time), running the
    /// full per-block pipeline: network poll, content resolution, proposal,
    /// execution, and post-block event routing.
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
    /// and content resolution. Returns the block's virtual time.
    fn pre_tick(&mut self, subnet: &SubnetId) -> Result<u64, RuntimeError> {
        self.refresh_validators(subnet);
        // Blocks form a total order on the global virtual clock: each block
        // lands strictly after every previously produced block (causal
        // consistency for cross-chain reads), and never before the node's
        // own schedule.
        let at_ms = self
            .known_node(subnet)?
            .next_block_at_ms()
            .max(self.now_ms + 1);
        self.now_ms = at_ms;

        // Sync traffic is for a catching-up node; a live one ignores it.
        self.poll_network(subnet, at_ms)?;
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.resolve_pending(&self.network, at_ms);
        Ok(at_ms)
    }

    /// The front door of `subnet`'s node, live or catching up: the node
    /// reads its inbox ([`SubnetNode::poll`]), the certificates it kept are
    /// checked here against other chains, and the sync traffic is returned
    /// for a catch-up to act on.
    pub(crate) fn poll_network(
        &mut self,
        subnet: &SubnetId,
        now_ms: u64,
    ) -> Result<SyncInbox, RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        let (certs, sync) = node.poll(&self.network, now_ms);
        for cert in certs {
            self.ingest_certificate(subnet, cert);
        }
        Ok(sync)
    }

    /// Validates a fund certificate `subnet`'s node received against the
    /// *source's* Subnet Actor (the light-client read a real node performs
    /// on the ancestor chains it tracks) and hands it to the node as a
    /// pending payment. Invalid or unverifiable certificates are dropped,
    /// as are the rootnet's, which needs none.
    fn ingest_certificate(&mut self, subnet: &SubnetId, cert: FundCertificate) {
        let Some(sa) = self.sa_of(&cert.body.msg.from.subnet) else {
            return;
        };
        if cert.verify(sa).is_err() {
            return;
        }
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.receive(Input::Certificate(cert));
        }
    }

    /// Phase (b) of a tick: applies a live block's effects beyond its node
    /// to shared state — journals the block, queues and routes its events
    /// through the hierarchy, and hands the top-down messages it committed
    /// to their children.
    fn post_tick(
        &mut self,
        subnet: &SubnetId,
        block: Block,
        outcome: LocalOutcome,
        at_ms: u64,
    ) -> Result<StepReport, RuntimeError> {
        let LocalOutcome {
            report,
            events,
            top_down,
        } = outcome;
        // The block's place in history: after every record written before
        // it, durable with the rest of its wave at the barrier. Its chain
        // holds it there from now on.
        let journaled = self.journal.append(&ControlRecord::Block(block));
        Self::get_node_mut(&mut self.nodes, subnet)?.journaled(journaled);
        for ev in &events {
            self.events.push_back((subnet.clone(), ev.clone()));
        }
        for ev in events {
            self.route_event(subnet, ev, at_ms)?;
        }
        for (child, msg) in top_down {
            self.deliver(child, Input::TopDown(msg));
        }
        Ok(report)
    }

    /// Hands `input` to `to` in one step: to its node when one runs, else
    /// into its record's inbox — which outlives a crash, and is opened here
    /// for a child registered but not yet booted — until
    /// [`HierarchyRuntime::genesis_node`] hands it to the node it builds.
    pub(crate) fn deliver(&mut self, to: SubnetId, input: Input) {
        match self.nodes.get_mut(&to) {
            Some(node) => node.receive(input),
            None => self.subnets.by_id.entry(to).or_default().inbox.push(input),
        }
    }

    /// Hands a checkpoint `subnet` cut up to its parent, for a live cut and
    /// a recovered one alike: journals its anchor — a no-op while recovery
    /// scans, which attaches the log only afterwards — anchors the persisted
    /// `manifest` in the GC window, then delivers the checkpoint.
    pub(crate) fn hand_up(&mut self, subnet: &SubnetId, signed: SignedCheckpoint, manifest: Cid) {
        let epoch = signed.checkpoint.epoch;
        self.journal.append(&ControlRecord::CheckpointAnchor {
            signed: signed.clone(),
            manifest,
        });
        self.anchor_manifest(subnet, epoch, manifest);
        if let Some(parent) = subnet.parent() {
            self.deliver(parent, Input::Checkpoint(signed));
        }
    }

    /// Reacts to a VM event emitted by a live block of `subnet`: the
    /// node-local half ([`SubnetNode::apply_event`], which a past block
    /// runs through [`SubnetNode::reexecute`]) and then the half beyond the
    /// node — gossip, the checkpoint hand-off, journal records, certificates.
    fn route_event(
        &mut self,
        subnet: &SubnetId,
        event: VmEvent,
        now_ms: u64,
    ) -> Result<(), RuntimeError> {
        // A payment settled here can still be followed by its certificate
        // only from a live source; the source's head now bounds the epoch it
        // was committed at (`node/tentative.rs`).
        let source_head = match &event {
            VmEvent::CrossMsgApplied { msg } if !msg.is_top_down() && msg.to.subnet == *subnet => {
                let source = self.nodes.get(&msg.from.subnet).filter(|s| s.is_live());
                source.map(|s| s.chain().head_epoch())
            }
            _ => None,
        };
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        // Runs in the sequential routing phase, so the persist a cut
        // triggers leaves store counters deterministic at any wave
        // parallelism.
        let cut = node.apply_event(&event, self.config.push_enabled, source_head);
        match event {
            VmEvent::CheckpointCut { checkpoint } => {
                let (manifest, pushes) = cut.expect("a checkpoint cut persists its state");
                // The subnet's validators sign the cut checkpoint; it then
                // travels to the parent chain (paper §III-B, Fig. 2).
                let signed = node.sign_checkpoint(checkpoint);
                let origin = node.subscription();
                for (topic, push) in pushes {
                    // Pushes originate here: announcing content across a
                    // severed ocean fails like any other delivery (the
                    // destination falls back to the pull path).
                    self.network.publish(&topic, push, now_ms, Some(origin));
                }
                // Recovery re-persists and hands up through the same
                // helper, so GC sweeps happen at identical points.
                self.hand_up(subnet, signed, manifest);
            }

            // Accelerate the slow routes: certify bottom-up and path
            // messages directly to their destination (paper §IV-A).
            // Top-down messages settle within a couple of blocks and need
            // no certificate.
            VmEvent::CrossMsgQueued { msg } if !msg.is_top_down() && msg.from.subnet == *subnet => {
                let mut cert = FundCertificate::new(msg.clone(), node.chain().head_epoch());
                cert.signatures = node.attest(cert.signing_cid().as_bytes());
                // The certificate travels from the *source* subnet's
                // region to the destination topic — stating the origin
                // lets inter-region partitions and degrades intersect it.
                self.network.publish(
                    &msg.to.subnet.topic(),
                    ResolutionMsg::Certificate(Box::new(cert)),
                    now_ms,
                    Some(node.subscription()),
                );
            }

            _ => {}
        }
        Ok(())
    }
}
