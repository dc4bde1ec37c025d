//! A subnet node: the canonical chain, state, pools, and consensus engine
//! of one subnet.
//!
//! The runtime keeps one `SubnetNode` per subnet. It models the *honest
//! quorum* of the subnet: the canonical state every honest full node
//! converges to. Individual validators are represented by their keys (for
//! block, justification, and checkpoint signatures); Byzantine behaviour is
//! injected explicitly through the attack APIs (see `hc-sim`).
//!
//! A node also holds the fund certificates of payments on their way to it
//! (paper §IV-A), keyed by the message itself compared without its nonce
//! — no digest is taken, a settling message is looked up borrowed, and
//! settling a top-down payment, which is never certified, looks nothing
//! up. A certificate that arrives after its payment settled is dropped
//! and counted, not held for ever; one that never comes takes no later
//! transfer's (`node/tentative.rs`).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hc_actors::checkpoint::{Checkpoint, SignedCheckpoint};
use hc_actors::sa::SaConfig;
use hc_actors::{CrossMsg, CrossMsgMeta, FundCertificate, MsgGroup, ScaConfig};
use hc_chain::{
    execute_block_with, produce_block_with, Block, ChainStore, CrossMsgPool, ExecOptions,
    Journaled, Mempool, StoredBlock,
};
use hc_consensus::{
    make_engine, BlockOpportunity, Consensus, ConsensusKind, EngineParams, ValidatorSet,
};
use hc_net::{ResolutionMsg, Resolver, SubscriberId};
use hc_state::{
    AccountInstall, ChunkManifest, CidStore, ImplicitMsg, Method, Receipt, SigCache, SigCacheStats,
    StateTree, VmEvent,
};
use hc_types::{Address, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId};

use crate::config::{RuntimeConfig, RuntimeError, StepReport};

mod catch_up;
mod intake;
mod network;
mod tentative;
mod validators;
pub(crate) use catch_up::{Peers, Survivor};
pub(crate) use network::SyncInbox;

/// Epochs after which a pending atomic execution is force-aborted by the
/// coordinator's sweep (the *timeliness* guarantee, paper §IV-D).
const ATOMIC_TIMEOUT_EPOCHS: u64 = 50;

/// Running counters for one subnet node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Blocks committed to the chain.
    pub blocks: u64,
    /// Signed user messages executed successfully.
    pub user_msgs_ok: u64,
    /// Signed user messages that failed or were rejected.
    pub user_msgs_failed: u64,
    /// Cross-net messages applied in this subnet (top-down + bottom-up).
    pub cross_applied: u64,
    /// Checkpoints committed from children.
    pub checkpoints_committed: u64,
    /// Bytes of child checkpoints committed (parent-chain load, E3).
    pub checkpoint_bytes: u64,
    /// Own checkpoints cut and submitted to the parent.
    pub checkpoints_cut: u64,
    /// Total simulation gas executed.
    pub gas_used: u64,
    /// Sum of block intervals, in virtual milliseconds (throughput math).
    pub total_interval_ms: u64,
    /// PoW blocks orphaned (wasted work).
    pub orphaned: u64,
    /// Extra BFT rounds beyond the happy path.
    pub extra_rounds: u64,
    /// State snapshots persisted as chunk manifests into the node's
    /// [`CidStore`] (one per checkpoint cut or SCA snapshot save).
    pub state_persists: u64,
}

/// What committing one block implies outside its node — computed by
/// [`SubnetNode::commit_block`] against the node alone, applied to shared
/// runtime state by the caller.
pub(crate) struct LocalOutcome {
    pub(crate) report: StepReport,
    /// VM events of the block, to be routed through the hierarchy.
    pub(crate) events: Vec<VmEvent>,
    /// The top-down messages the block committed, each with the child on
    /// its route, to be handed to that child (paper Fig. 3).
    pub(crate) top_down: Vec<(SubnetId, CrossMsg)>,
}

/// What a past block implies beyond its node ([`SubnetNode::reexecute`]):
/// the checkpoint it cut, with its persisted manifest, and its top-down
/// messages, each with the child on its route.
pub(crate) type HandOffs = (Option<(Checkpoint, Cid)>, Vec<(SubnetId, CrossMsg)>);

/// What the runtime hands a node through [`SubnetNode::receive`]: a
/// top-down message its parent committed, a checkpoint a child cut, or a
/// verified fund certificate for a payment on its way here.
pub(crate) enum Input {
    TopDown(CrossMsg),
    Checkpoint(SignedCheckpoint),
    Certificate(FundCertificate),
}

/// Derives a subnet node's private randomness stream from the runtime
/// seed and the subnet's identity (domain-separated through the content
/// hash, so sibling subnets get unrelated streams).
fn node_rng(seed: u64, subnet: &SubnetId) -> StdRng {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&subnet.canonical_bytes());
    StdRng::from_seed(*Cid::digest(&bytes).as_bytes())
}

/// Raises the pool floor of each of `senders` to the nonce its account
/// expects next in `tree`. Only an authenticated message advances an
/// account nonce, so a message a block carried but execution rejected —
/// unknown sender, foreign key, bad signature, nonce gap — moves no floor.
fn settle_floors(
    tree: &StateTree,
    mempool: &mut Mempool,
    senders: impl IntoIterator<Item = Address>,
) {
    for from in senders {
        if let Some(account) = tree.accounts().get(from) {
            mempool.set_floor(from, account.nonce);
        }
    }
}

/// Whether `pool` queues a cross-net send into `subnet` or below it.
fn sends_into(pool: &Mempool, subnet: &SubnetId) -> bool {
    pool.iter().any(|m| {
        matches!(&m.message().method, Method::SendCrossMsg { msg }
            if subnet.is_prefix_of(&msg.to.subnet))
    })
}

/// One subnet's canonical node. Stepping lives in
/// [`crate::runtime::HierarchyRuntime`]; this type owns what a committed
/// block implies for its node and exposes read access for clients, tests,
/// and benchmarks.
pub struct SubnetNode {
    /// The subnet's identity.
    subnet_id: SubnetId,
    /// Canonical state at the chain head.
    tree: StateTree,
    /// The committed chain.
    chain: ChainStore,
    /// Internal pool of pending user messages.
    mempool: Mempool,
    /// Accounts clients created or adopted since the last block, in order:
    /// the next block installs them first.
    installs: Vec<AccountInstall>,
    /// Cross-msg pool (paper §IV-B).
    cross_pool: CrossMsgPool,
    /// The subnet's consensus engine.
    engine: Box<dyn Consensus>,
    /// Current validator set (refreshed from the parent's Subnet Actor).
    validators: ValidatorSet,
    /// The validators' signing keys (simulation holds them to produce
    /// blocks, justifications, and checkpoint signatures).
    validator_keys: Vec<Keypair>,
    /// Content resolution; its cache holds only network-borne content.
    resolver: Resolver,
    /// Pub-sub subscription for this subnet's topic.
    subscription: SubscriberId,
    /// Virtual time at which this node produces its next block.
    next_block_at_ms: u64,
    /// Epoch of the next block.
    next_epoch: ChainEpoch,
    /// Child checkpoints received and waiting to be committed in this
    /// chain's next block.
    pending_checkpoints: Vec<SignedCheckpoint>,
    /// Turnaround metas this subnet is the LCA of, in commit order, each
    /// with its content once resolved: the next block re-commits the
    /// resolved ones top-down.
    turnarounds: Vec<(CrossMsgMeta, Option<MsgGroup>)>,
    /// The user message [`crate::HierarchyRuntime::execute`] is waiting
    /// on, by CID, and its receipt once a block committed it. Receipts
    /// are otherwise not retained: `execute` is their one reader.
    awaited: Option<(Cid, Option<Receipt>)>,
    /// Verified fund certificates for payments still in flight towards
    /// this subnet (the §IV-A acceleration): tentative, not spendable.
    /// Held under the message by value, compared without its nonce, until
    /// the payment settles; one that comes after its payment settled is
    /// dropped and counted.
    tentative: tentative::Tentative,
    /// Content-addressed blob store: persisted state chunk manifests
    /// (snapshots/checkpoints). A handle to the runtime-wide store, so
    /// identical chunks are shared across snapshots *and* subnets.
    store: CidStore,
    /// Counters.
    stats: NodeStats,
    /// Producing blocks, or still catching up with its peers.
    mode: catch_up::Mode,
    /// This node's private randomness stream, seeded from the runtime
    /// seed and the subnet id. Keeping the stream per-node (instead of
    /// one runtime-wide RNG) makes block production a pure function of
    /// the node, so a wave of due subnets can produce concurrently and
    /// still replay bit-identically at any parallelism.
    rng: StdRng,
    /// The node's signature-verification counters, shared by its mempool
    /// and its block execution. A verdict itself lives only on the value
    /// (DESIGN.md §10 "Signature verdicts").
    sig_cache: SigCache,
}

impl std::fmt::Debug for SubnetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubnetNode")
            .field("subnet_id", &self.subnet_id)
            .field("head_epoch", &self.chain.head_epoch())
            .field("validators", &self.validators.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SubnetNode {
    /// Builds a node at genesis, for its one caller, the runtime's
    /// `genesis_node` — root boot, child boot, and a restart. `boot` carries a child's Subnet Actor
    /// config and engine parameters; `None` builds the rootnet (authority
    /// round-robin under the runtime-wide parameters). The validator set
    /// starts empty: the root's caller installs its authority set, a
    /// child's is refreshed from the parent's Subnet Actor.
    pub(crate) fn genesis(
        subnet_id: SubnetId,
        config: &RuntimeConfig,
        boot: Option<(&SaConfig, &EngineParams)>,
        subscription: SubscriberId,
        next_block_at_ms: u64,
        store: CidStore,
    ) -> Self {
        let (sca, engine) = match boot {
            Some((sa, params)) => (
                ScaConfig {
                    checkpoint_period: sa.checkpoint_period,
                    ..ScaConfig::default()
                },
                make_engine(sa.consensus, params.clone()),
            ),
            None => (
                ScaConfig::default(),
                make_engine(ConsensusKind::RoundRobin, config.engine_params.clone()),
            ),
        };
        let sig_cache = SigCache::default();
        SubnetNode {
            tree: StateTree::genesis(subnet_id.clone(), sca, []),
            chain: ChainStore::new(subnet_id.clone()),
            mempool: Mempool::with_config(config.mempool).with_sig_cache(sig_cache.clone()),
            installs: Vec::new(),
            cross_pool: CrossMsgPool::new(),
            engine,
            validators: ValidatorSet::default(),
            validator_keys: Vec::new(),
            resolver: Resolver::with_policy(config.retry),
            subscription,
            next_block_at_ms,
            next_epoch: ChainEpoch::new(1),
            pending_checkpoints: Vec::new(),
            turnarounds: Vec::new(),
            awaited: None,
            tentative: tentative::Tentative::default(),
            store,
            stats: NodeStats::default(),
            mode: catch_up::Mode::Live,
            rng: node_rng(config.seed, &subnet_id),
            sig_cache,
            subnet_id,
        }
    }

    /// The node's one door. A top-down message joins the cross-msg pool, a
    /// child checkpoint the queue the next block commits, and a certificate
    /// is held until its payment settles — identical transfers side by
    /// side, a redelivered copy of one certificate not — or dropped and
    /// counted if its payment already settled.
    pub(crate) fn receive(&mut self, input: Input) {
        match input {
            Input::TopDown(msg) => self.cross_pool.ingest_top_down([msg]),
            Input::Checkpoint(signed) => self.pending_checkpoints.push(signed),
            Input::Certificate(cert) => self.tentative.hold(cert),
        }
    }

    /// Draws the consensus slot of the block at `epoch` from the node's
    /// private randomness stream. Every block a node ever holds — produced,
    /// re-executed or skipped — burns exactly one draw, which keeps the
    /// stream aligned with the subnet's history.
    fn draw_slot(&mut self, epoch: ChainEpoch) -> Result<BlockOpportunity, RuntimeError> {
        if epoch != self.next_epoch {
            return Err(RuntimeError::Execution(format!(
                "block at epoch {epoch}, node expects {}",
                self.next_epoch
            )));
        }
        self.engine
            .next_block(epoch, &self.validators, &mut self.rng)
            .map_err(|e| RuntimeError::Execution(format!("consensus: {e}")))
    }

    /// Phase (a) of the runtime's tick: builds, executes, and commits the
    /// node's next block at `at_ms`, touching nothing but the node itself —
    /// a pure function of the node (randomness included, see
    /// [`SubnetNode::rng`]), so a wave of due subnets runs it concurrently.
    /// `workers` is the node's share of the wave's threads, spent on the
    /// block's signatures and lanes; it never shows in the result.
    pub(crate) fn produce(
        &mut self,
        workers: usize,
        at_ms: u64,
    ) -> Result<(Block, LocalOutcome), RuntimeError> {
        let subnet = self.subnet_id.clone();
        let epoch = self.next_epoch;
        let opportunity = self.draw_slot(epoch)?;

        // Assemble implicit messages: child checkpoints, resolved
        // turnarounds, cross-net applications, the checkpoint cut and the
        // atomic sweep; the queued installs go first, outside the budget.
        let mut implicit: Vec<ImplicitMsg> = Vec::new();
        for signed in self.pending_checkpoints.drain(..) {
            implicit.push(ImplicitMsg::CommitChildCheckpoint { signed });
        }
        for (meta, content) in std::mem::take(&mut self.turnarounds) {
            match content {
                Some(msgs) => implicit.push(ImplicitMsg::CommitTurnaround { meta, msgs }),
                None => self.turnarounds.push((meta, None)),
            }
        }
        let (tds, bus) = self.cross_pool.take_proposable(opportunity.capacity);
        for m in tds {
            implicit.push(ImplicitMsg::ApplyTopDown(m));
        }
        for (meta, msgs) in bus {
            implicit.push(ImplicitMsg::ApplyBottomUp { meta, msgs });
        }
        if !subnet.is_root() && self.tree.sca().is_checkpoint_epoch(epoch) {
            implicit.push(ImplicitMsg::CutCheckpoint {
                proof: self.chain.head(),
            });
        }
        if self.tree.atomic().has_pending() {
            implicit.push(ImplicitMsg::SweepAtomicTimeouts {
                timeout: ATOMIC_TIMEOUT_EPOCHS,
            });
        }

        let budget = opportunity.capacity.saturating_sub(implicit.len());
        let signed_msgs = self.mempool.select(budget);
        if !self.installs.is_empty() {
            let installs = std::mem::take(&mut self.installs).into_boxed_slice();
            implicit.insert(0, ImplicitMsg::InstallAccounts(installs));
        }

        let proposer_key = self
            .validator_keys
            .get(opportunity.proposer)
            .or_else(|| self.validator_keys.first())
            .cloned()
            .expect("subnet has at least one managed validator key");

        let parent_cid = self.chain.head();
        let executed = produce_block_with(
            &mut self.tree,
            subnet,
            epoch,
            parent_cid,
            implicit,
            signed_msgs,
            &proposer_key,
            at_ms,
            ExecOptions {
                sig_cache: Some(&self.sig_cache),
                parallelism: workers,
            },
        );

        let mut block = executed.block;
        if self.engine.requires_justification() {
            let cid = block.cid();
            let quorum = self.validators.quorum_threshold();
            for key in self.validator_keys.iter().take(quorum.max(1)) {
                block.justification.add(key.sign(cid.as_bytes()));
            }
        }
        self.engine
            .validate_block(&block, &self.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        // The clone right-sizes the payload vectors the chain store keeps;
        // the block itself goes on to `post_tick`, which journals it.
        self.chain
            .append(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let outcome = self.commit_block(&block, executed.receipts, &opportunity);
        Ok((block, outcome))
    }

    /// The one way a past block re-enters its node — replayed from the
    /// journal or pulled from peers: validates and re-executes it (the
    /// state root checked against the header), burns its consensus draw,
    /// chains it, hands it to the live tick's [`SubnetNode::commit_block`]
    /// and applies each event's node-local half (no push, no certificate
    /// owed). Returns its [`HandOffs`], for the caller to hand on or drop.
    /// A forged or stale block is refused before the draw and changes
    /// nothing.
    pub(crate) fn reexecute(
        &mut self,
        block: &Block,
        parallelism: usize,
    ) -> Result<HandOffs, RuntimeError> {
        if (block.header.epoch, block.header.parent) != (self.next_epoch, self.chain.head()) {
            return Err(RuntimeError::Execution(
                "block does not extend the head".into(),
            ));
        }
        self.engine
            .validate_block(block, &self.validators)
            .map_err(|e| RuntimeError::Execution(format!("block validation: {e}")))?;
        // Verifies the proposer's signature first; any failure leaves the
        // tree at the pre-block state.
        let receipts = execute_block_with(
            &mut self.tree,
            block,
            ExecOptions {
                sig_cache: Some(&self.sig_cache),
                parallelism,
            },
        )
        .map_err(|e| RuntimeError::Execution(format!("replay execution: {e}")))?;
        let opportunity = self.draw_slot(block.header.epoch)?;
        self.chain
            .append(block.clone())
            .map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        let outcome = self.commit_block(block, receipts, &opportunity);
        let mut cut = None;
        for event in outcome.events {
            let persisted = self.apply_event(&event, false, None);
            if let (VmEvent::CheckpointCut { checkpoint }, Some((cid, _))) = (event, persisted) {
                cut = Some((checkpoint, cid));
            }
        }
        Ok((cut, outcome.top_down))
    }

    /// The head was journaled as `at` (`None` when nothing journals): the
    /// chain holds it there once it is history.
    pub(crate) fn journaled(&mut self, at: Option<Journaled>) {
        if let Some(at) = at {
            self.chain.journal_head(at);
        }
    }

    /// Re-commits one past block whose state arrives wholesale from a
    /// snapshot: burns its consensus draw, repeats, through
    /// [`SubnetNode::skip_block`], the bookkeeping that outlives execution
    /// — without executing it — and chains it. A recovery fast-forward's
    /// journaled block is chained validated; a rejoin's `block` is decoded
    /// from `stored`, its peers' copy, and chained with the bytes they
    /// hold, which hashes, encodes and compresses nothing. The block's
    /// senders join `senders`, the set the walk hands
    /// [`SubnetNode::install_snapshot`]. A block the chain refuses is an
    /// error the walk does not continue from.
    pub(crate) fn skip_past(
        &mut self,
        block: Block,
        stored: Option<&StoredBlock>,
        senders: &mut BTreeSet<Address>,
    ) -> Result<(), RuntimeError> {
        let opportunity = self.draw_slot(block.header.epoch)?;
        self.skip_block(&block, &opportunity);
        senders.extend(block.signed_msgs.iter().map(|m| m.message().from));
        let chained = match stored {
            Some(stored) => self.chain.append_stored(block, stored),
            None => self.chain.append(block),
        };
        chained.map_err(|e| RuntimeError::Execution(format!("chain append: {e}")))?;
        Ok(())
    }

    /// Everything a committed block implies for its node that outlives
    /// execution: the mempool settling the included user messages (their
    /// slots freed, their senders' floors set from the tree), the epoch and
    /// schedule cursors, the pending queues the block drained, and the
    /// cross-net nonce cursors. Called on its own for a block whose state
    /// arrives wholesale from a snapshot (recovery fast-forward,
    /// snapshot-covered history) — no receipts, no counters, and no
    /// hashing. This is the one place a committed block reaches the pool,
    /// so a live, replayed, caught-up or skipped block all teach it the
    /// same nonces; a block skipped ahead of its snapshot reads a tree
    /// that is behind, and [`SubnetNode::install_snapshot`] settles its
    /// senders again, from the set the skip walk collected. Every step is idempotent on a live node, whose
    /// proposer already drained the same queues and advanced the same
    /// cursors when it assembled the block.
    pub(crate) fn skip_block(&mut self, block: &Block, opportunity: &BlockOpportunity) {
        let epoch = block.header.epoch;
        self.mempool.remove_included(&block.signed_msgs);
        let senders = block.signed_msgs.iter().map(|m| m.message().from);
        settle_floors(&self.tree, &mut self.mempool, senders);
        self.next_block_at_ms = block.header.timestamp_ms + opportunity.interval_ms;
        self.next_epoch = epoch.next();
        for m in &block.implicit_msgs {
            match m {
                ImplicitMsg::CommitChildCheckpoint { signed } => {
                    self.pending_checkpoints
                        .retain(|p| p.checkpoint != signed.checkpoint);
                }
                ImplicitMsg::CommitTurnaround { meta, .. } => {
                    self.turnarounds.retain(|(m2, _)| m2 != meta);
                }
                ImplicitMsg::ApplyTopDown(cross) => {
                    self.cross_pool.note_top_down_applied(cross.nonce);
                }
                ImplicitMsg::ApplyBottomUp { meta, .. } => {
                    self.cross_pool.note_bottom_up_applied(meta);
                }
                _ => {}
            }
        }
    }

    /// The one way a block that was executed against this node's tree —
    /// just produced, replayed from the journal, or pulled from peers —
    /// becomes part of the node: [`SubnetNode::skip_block`] plus everything
    /// that needs the receipts (counters, the `awaited` receipt, the events
    /// to route) and the top-down
    /// messages its execution committed, taken from the tree's outbox.
    /// The caller has already appended the block to the chain; a live
    /// block is journaled afterwards, by `post_tick`.
    pub(crate) fn commit_block(
        &mut self,
        block: &Block,
        receipts: Vec<Receipt>,
        opportunity: &BlockOpportunity,
    ) -> LocalOutcome {
        self.skip_block(block, opportunity);
        let implicit = block.implicit_msgs.len();
        let gas_used: u64 = receipts.iter().map(|r| r.gas_used).sum();
        self.stats.blocks += 1;
        self.stats.gas_used += gas_used;
        self.stats.total_interval_ms += opportunity.interval_ms;
        self.stats.orphaned += u64::from(opportunity.orphaned);
        self.stats.extra_rounds += u64::from(opportunity.rounds.saturating_sub(1));
        for r in &receipts[implicit..] {
            if r.exit.is_ok() {
                self.stats.user_msgs_ok += 1;
            } else {
                self.stats.user_msgs_failed += 1;
            }
        }

        // Committed checkpoint bytes: the parent-chain load of experiment E3.
        for m in &block.implicit_msgs {
            if let ImplicitMsg::CommitChildCheckpoint { signed } = m {
                self.stats.checkpoint_bytes += signed.checkpoint.encoded_size() as u64;
            }
        }
        if let Some((cid, receipt)) = &mut self.awaited {
            if let Some(i) = block.signed_msgs.iter().position(|m| m.msg_cid() == *cid) {
                *receipt = Some(receipts[implicit + i].clone());
            }
        }

        LocalOutcome {
            report: StepReport {
                subnet: self.subnet_id.clone(),
                epoch: block.header.epoch,
                at_ms: block.header.timestamp_ms,
                msgs: block.msg_count(),
                gas_used,
            },
            events: receipts.into_iter().flat_map(|r| r.events).collect(),
            top_down: self.tree.take_outbox(),
        }
    }

    /// The node-local half of routing one VM event of a committed block —
    /// shared by a live tick's `route_event` and [`SubnetNode::reexecute`].
    /// For a checkpoint cut it returns the manifest the checkpointed state
    /// was persisted under and, when `push` is set, the content
    /// announcements for the carried message groups; publishing those,
    /// submitting the checkpoint to the parent, journaling and certificates
    /// are the caller's. For a settled payment whose certificate can still
    /// come, `source_head` is the head epoch of its source now.
    pub(crate) fn apply_event(
        &mut self,
        event: &VmEvent,
        push: bool,
        source_head: Option<ChainEpoch>,
    ) -> Option<(Cid, Vec<(String, ResolutionMsg)>)> {
        match event {
            VmEvent::CheckpointCut { checkpoint } => {
                self.stats.checkpoints_cut += 1;
                let manifest = self.persist_state();

                // Content resolution (paper §IV-C): the state tree's
                // content registry holds the groups this subnet cut, and
                // `poll` serves pulls for them from there. A group a child
                // cut and this cut carries on up leaves the cache here:
                // forwarding is its use. With the *push* path enabled, the
                // groups are also announced proactively on their
                // destinations' topics.
                let mut pushes = Vec::new();
                for meta in &checkpoint.cross_msgs {
                    let cid = &meta.msgs_cid;
                    let content = self.tree.resolve_content(cid).cloned();
                    let content = content.or_else(|| self.resolver.take(cid));
                    if let (true, Some(group)) = (push, content) {
                        // On the wire the group is raw again: the receiver
                        // trusts nothing it did not hash.
                        let (cid, msgs) = (meta.msgs_cid, group.to_vec());
                        pushes.push((meta.to.topic(), ResolutionMsg::Push { cid, msgs }));
                    }
                }
                return Some((manifest, pushes));
            }
            VmEvent::CheckpointCommitted { outcome, .. } => {
                self.stats.checkpoints_committed += 1;
                for meta in &outcome.applied_here {
                    self.cross_pool.ingest_meta(meta.clone());
                }
                let turnarounds = outcome.turnaround.iter().map(|m| (m.clone(), None));
                self.turnarounds.extend(turnarounds);
            }
            VmEvent::CrossMsgApplied { msg } => {
                self.stats.cross_applied += 1;
                // A payment settled here is no longer tentative; one this
                // subnet only forwards settles further down its route.
                if msg.to.subnet == self.subnet_id {
                    self.tentative.payment_settled(msg, source_head);
                }
            }
            // Remaining events are informational; reverts ride the normal
            // cross-net flow and need no extra routing.
            _ => {}
        }
        None
    }

    /// Persists the head state as a chunk manifest and counts it; unchanged
    /// chunks dedupe against the previous persist (`CidStore::stats`).
    pub(crate) fn persist_state(&mut self) -> Cid {
        self.stats.state_persists += 1;
        self.tree.persist(&self.store)
    }

    /// The one way a persisted snapshot replaces a node's state, for a
    /// rejoin and a recovery fast-forward alike, once the node has chained
    /// the blocks the snapshot covers: decode `manifest` from `source`,
    /// check its root against the state root this node's chain committed
    /// in its header at `epoch`, rebuild the tree from the manifest's
    /// closure, swap it in, and settle against it the pool floor of each
    /// of `senders` — every sender a message of the covered blocks comes
    /// from, which the skip walk collected ([`SubnetNode::skip_past`]), so
    /// no block is read again here. The committed header is the trust
    /// root — chunks verified only against their CIDs could still be a
    /// consistent-but-wrong state.
    pub(crate) fn install_snapshot(
        &mut self,
        manifest: &Cid,
        source: &CidStore,
        epoch: ChainEpoch,
        senders: &BTreeSet<Address>,
    ) -> Result<(), RuntimeError> {
        let decoded = source
            .get(manifest)
            .and_then(|blob| ChunkManifest::decode(&blob))
            .ok_or_else(|| {
                RuntimeError::Execution(format!("snapshot manifest {manifest} missing or corrupt"))
            })?;
        let committed_root = self.chain.header_at(epoch).map(|h| h.state_root);
        if committed_root != Some(decoded.root) {
            return Err(RuntimeError::Execution(format!(
                "snapshot root {} does not match the committed header root {committed_root:?}",
                decoded.root
            )));
        }
        self.tree = StateTree::from_manifest(&decoded, source)
            .map_err(|e| RuntimeError::Execution(format!("snapshot install: {e}")))?;
        settle_floors(&self.tree, &mut self.mempool, senders.iter().copied());
        Ok(())
    }

    /// The subnet's identity.
    pub fn subnet_id(&self) -> &SubnetId {
        &self.subnet_id
    }

    /// Canonical state at the chain head.
    pub fn state(&self) -> &StateTree {
        &self.tree
    }

    /// The committed chain.
    pub fn chain(&self) -> &ChainStore {
        &self.chain
    }

    /// The consensus engine.
    pub fn engine(&self) -> &dyn Consensus {
        self.engine.as_ref()
    }

    /// Current validator set.
    pub fn validators(&self) -> &ValidatorSet {
        &self.validators
    }

    /// Content-resolution state and statistics.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// The cross-msg pool (pending cross-net work).
    pub fn cross_pool(&self) -> &CrossMsgPool {
        &self.cross_pool
    }

    /// Child checkpoints waiting for commitment in this chain, in the
    /// order they were received.
    pub fn pending_checkpoints(&self) -> &[SignedCheckpoint] {
        &self.pending_checkpoints
    }

    /// Turnaround metas waiting (resolved + unresolved).
    pub fn pending_turnaround_count(&self) -> usize {
        self.turnarounds.len()
    }

    /// Total tentatively certified incoming value for `addr`.
    pub fn tentative_value_for(&self, addr: Address) -> hc_types::TokenAmount {
        self.tentative.value_for(addr)
    }

    /// Fund certificates held for payments not yet settled.
    pub fn tentative_count(&self) -> usize {
        self.tentative.len()
    }

    /// Fund certificates dropped because their payment had already
    /// settled here.
    pub fn late_certificates(&self) -> u64 {
        self.tentative.late()
    }

    /// Payments settled here whose fund certificate has not come: lost on
    /// the way, or still to come late.
    pub fn owed_certificates(&self) -> usize {
        self.tentative.owed()
    }

    /// Node counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// The node's content-addressed blob store (shared runtime-wide).
    pub fn cid_store(&self) -> &CidStore {
        &self.store
    }

    /// Pending user messages.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// The nonce this node would accept next from `addr`: what its pool
    /// holds for the sender, over the account nonce of its committed tree
    /// (see [`Mempool::next_nonce`]).
    pub fn next_nonce(&self, addr: Address) -> Nonce {
        let committed = self.tree.accounts().get(addr).map(|a| a.nonce);
        self.mempool
            .next_nonce(addr, committed.unwrap_or(Nonce::ZERO))
    }

    /// Bytes the pending user messages occupy.
    pub(crate) fn mempool_bytes(&self) -> usize {
        self.mempool.occupancy_bytes()
    }

    /// Admission/eviction counters of this node's mempool.
    pub fn mempool_stats(&self) -> hc_chain::MempoolStats {
        self.mempool.stats()
    }

    /// Activity counters of this node's content resolver.
    pub fn resolver_stats(&self) -> hc_net::ResolverStats {
        self.resolver.stats()
    }

    /// This node's signature-verification counters.
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.sig_cache.stats()
    }

    /// The node's pub-sub identity.
    pub(crate) fn subscription(&self) -> SubscriberId {
        self.subscription
    }

    /// Virtual time of the next scheduled block.
    pub fn next_block_at_ms(&self) -> u64 {
        self.next_block_at_ms
    }

    /// The earliest-deadline order of the event loop: schedule first,
    /// subnet id to break ties.
    pub(crate) fn due(&self) -> (u64, &SubnetId) {
        (self.next_block_at_ms, &self.subnet_id)
    }

    /// Returns `true` when the node has no *local* cross-net work in
    /// flight: nothing to propose, resolve, commit, or turn around, and no
    /// value waiting in the current checkpoint window.
    ///
    /// Hierarchy-wide quiescence additionally requires every node live and
    /// every subnet record's inbox empty — see
    /// [`crate::runtime::HierarchyRuntime::all_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        self.mempool.is_empty()
            && self.cross_pool.pending_top_down() == 0
            && self.cross_pool.pending_bottom_up() == 0
            && self.pending_checkpoints.is_empty()
            && self.turnarounds.is_empty()
            && self.tree.sca().window_is_value_empty()
    }

    /// Whether work held here — a resolved bottom-up group, a queued
    /// cross-net send — routes into `subnet` or below it.
    pub fn routes_into(&self, subnet: &SubnetId) -> bool {
        self.cross_pool.routes_into(subnet) || sends_into(&self.mempool, subnet)
    }

    /// Observed mean block interval in milliseconds.
    pub fn mean_block_interval_ms(&self) -> f64 {
        if self.stats.blocks == 0 {
            0.0
        } else {
            self.stats.total_interval_ms as f64 / self.stats.blocks as f64
        }
    }

    /// Observed throughput in successfully executed user messages per
    /// virtual second.
    pub fn user_throughput_per_s(&self) -> f64 {
        if self.stats.total_interval_ms == 0 {
            0.0
        } else {
            self.stats.user_msgs_ok as f64 * 1_000.0 / self.stats.total_interval_ms as f64
        }
    }
}

#[cfg(test)]
impl SubnetNode {
    /// The state tree, for a test that plants a break in it.
    pub(crate) fn tree_mut(&mut self) -> &mut StateTree {
        &mut self.tree
    }

    /// The cross-msg pool, for a test that plants a break in it.
    pub(crate) fn cross_pool_mut(&mut self) -> &mut CrossMsgPool {
        &mut self.cross_pool
    }

    /// Loses the child checkpoints the node holds, for a test that plants
    /// a dropped hand-off.
    pub(crate) fn drop_pending_checkpoints(&mut self) {
        self.pending_checkpoints.clear();
    }
}

#[cfg(test)]
mod tests {
    //! A block carries every message its proposer selected, and execution
    //! rejects the ones that do not authenticate at the account nonce. No
    //! such message may move its sender's pool floor: the owner's next
    //! nonce stays admissible, and a recovered sender signs it. A spent
    //! nonce is refused, however the state that spent it arrived.

    use hc_chain::PushOutcome;
    use hc_state::{Message, Method, SealedMessage};
    use hc_types::TokenAmount;

    use super::*;
    use crate::runtime::HierarchyRuntime;

    fn transfer(from: Address, nonce: u64, key: &Keypair) -> SealedMessage {
        let msg = Message::transfer(
            from,
            Address::new(1),
            TokenAmount::from_atto(1),
            Nonce::new(nonce),
        );
        SealedMessage::sign(msg, key)
    }

    /// Admits `msg` to the root pool at the top fee and commits the block
    /// that includes it.
    fn include(rt: &mut HierarchyRuntime, msg: SealedMessage) {
        let root = SubnetId::root();
        let pool = &mut rt.nodes.get_mut(&root).unwrap().mempool;
        assert_eq!(
            pool.push_sealed_with_fee(msg, u64::MAX),
            PushOutcome::Admitted
        );
        rt.tick_subnet(&root).unwrap();
        assert_eq!(
            rt.node(&root).unwrap().mempool_len(),
            0,
            "the block included it"
        );
    }

    fn account_nonce(rt: &HierarchyRuntime, addr: Address) -> Nonce {
        rt.node(&SubnetId::root())
            .unwrap()
            .state()
            .accounts()
            .get(addr)
            .unwrap()
            .nonce
    }

    #[test]
    fn a_foreign_key_at_the_last_nonces_moves_no_floor() {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let alice = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(10))
            .unwrap();
        // Valid signatures, so admission takes them, by a key alice's
        // account does not hold, so execution rejects them.
        let mallory = Keypair::from_seed([0x4d; 32]);
        for nonce in [u64::MAX - 1, u64::MAX] {
            include(&mut rt, transfer(alice.addr, nonce, &mallory));
        }
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::ZERO);
        let receipt = rt.execute(
            &alice,
            Address::new(1),
            TokenAmount::from_atto(1),
            Method::Send,
        );
        assert!(receipt.is_ok(), "alice's nonce 0 was shut out: {receipt:?}");
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::new(1));
    }

    #[test]
    fn a_recovered_sender_signs_from_its_account_nonce() {
        // The journal keeps every block whole, rejected messages too; a
        // recovered sender's next nonce follows the account nonce, not the
        // nonces a replayed block carried.
        let device = std::sync::Arc::new(hc_store::InMemoryDevice::new());
        let config = RuntimeConfig {
            persistence: crate::PersistenceConfig::on_device(device),
            ..RuntimeConfig::default()
        };
        let mut rt = HierarchyRuntime::new(config.clone());
        let alice = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(10))
            .unwrap();
        let mallory = Keypair::from_seed([0x4d; 32]);
        for nonce in [u64::MAX - 1, u64::MAX] {
            include(&mut rt, transfer(alice.addr, nonce, &mallory));
        }
        drop(rt);
        let mut rt = HierarchyRuntime::recover(config);
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::ZERO);
        let receipt = rt.execute(
            &alice,
            Address::new(1),
            TokenAmount::from_atto(1),
            Method::Send,
        );
        assert!(
            receipt.is_ok(),
            "alice was signed past nonce 0: {receipt:?}"
        );
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::new(1));
    }

    #[test]
    fn a_nonce_included_ahead_of_its_predecessor_moves_no_floor() {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let alice = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(10))
            .unwrap();
        let key = &alice.key;
        // Gossip delivers nonce 1 first: it is included and rejected.
        include(&mut rt, transfer(alice.addr, 1, key));
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::ZERO);
        include(&mut rt, transfer(alice.addr, 0, key));
        include(&mut rt, transfer(alice.addr, 1, key));
        assert_eq!(account_nonce(&rt, alice.addr), Nonce::new(2));
    }

    #[test]
    fn an_installed_snapshot_settles_the_chained_senders() {
        // A recovery fast-forward skips blocks while the tree is still
        // behind them; the install is where their senders' floors land.
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let alice = rt.create_user(&root, TokenAmount::from_whole(10)).unwrap();
        let (from, key) = (alice.addr, &alice.key);
        let spent = transfer(from, 0, key);
        include(&mut rt, spent.clone());
        let node = rt.nodes.get_mut(&root).unwrap();
        let (store, manifest) = (node.store.clone(), node.tree.persist(&node.store));
        let head = node.chain.head_epoch();
        node.mempool = Mempool::new();
        let senders = BTreeSet::from([from]);
        node.install_snapshot(&manifest, &store, head, &senders)
            .unwrap();
        assert_eq!(
            node.mempool.push_sealed_with_fee(spent, 0),
            PushOutcome::Duplicate
        );
        assert!(node.mempool.push_sealed(transfer(from, 1, key)));
    }
}
