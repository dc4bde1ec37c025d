//! A subnet node: the canonical chain, state, pools, and consensus engine
//! of one subnet.
//!
//! The runtime keeps one `SubnetNode` per subnet. It models the *honest
//! quorum* of the subnet: the canonical state every honest full node
//! converges to. Individual validators are represented by their keys (for
//! block, justification, and checkpoint signatures); Byzantine behaviour is
//! injected explicitly through the attack APIs (see `hc-sim`).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hc_actors::checkpoint::{Checkpoint, SignedCheckpoint};
use hc_actors::sa::SaConfig;
use hc_actors::{CrossMsgMeta, FundCertificate, MsgGroup, ScaConfig};
use hc_chain::{Block, ChainStore, CrossMsgPool, Mempool};
use hc_consensus::{
    make_engine, BlockOpportunity, Consensus, ConsensusKind, EngineParams, ValidatorSet,
};
use hc_net::{ResolutionMsg, Resolver, SubscriberId};
use hc_state::{
    ChunkManifest, CidStore, ImplicitMsg, Receipt, SigCache, SigCacheStats, StateTree, VmEvent,
};
use hc_types::crypto::SignaturePolicy;
use hc_types::{CanonicalEncode, ChainEpoch, Cid, Keypair, SubnetId};

use crate::config::{RuntimeConfig, RuntimeError, StepReport};

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
    /// Committed child checkpoints paired with the signature policy in
    /// force at commit time, destined for the global archive.
    pub(crate) archived: Vec<(SignedCheckpoint, SignaturePolicy)>,
    /// VM events of the block, to be routed through the hierarchy.
    pub(crate) events: Vec<VmEvent>,
}

/// Derives a subnet node's private randomness stream from the runtime
/// seed and the subnet's identity (domain-separated through the content
/// hash, so sibling subnets get unrelated streams).
fn node_rng(seed: u64, subnet: &SubnetId) -> StdRng {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&subnet.canonical_bytes());
    StdRng::from_seed(*Cid::digest(&bytes).as_bytes())
}

/// Seed for a node's resolver backoff jitter: the run seed mixed with the
/// subnet identity, so co-located retry loops desynchronize while every
/// run stays replayable. Inert while [`hc_net::RetryPolicy::jitter_pct`]
/// is 0.
pub(crate) fn node_jitter_seed(seed: u64, subnet: &SubnetId) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend_from_slice(&subnet.canonical_bytes());
    let digest = Cid::digest(&bytes);
    u64::from_le_bytes(
        digest.as_bytes()[..8]
            .try_into()
            .expect("digest has 8+ bytes"),
    )
}

/// One subnet's canonical node. Stepping lives in
/// [`crate::runtime::HierarchyRuntime`]; this type owns what a committed
/// block implies for its node and exposes read access for clients, tests,
/// and benchmarks.
pub struct SubnetNode {
    /// The subnet's identity.
    pub(crate) subnet_id: SubnetId,
    /// Canonical state at the chain head.
    pub(crate) tree: StateTree,
    /// The committed chain.
    pub(crate) chain: ChainStore,
    /// Internal pool of pending user messages.
    pub(crate) mempool: Mempool,
    /// Cross-msg pool (paper §IV-B).
    pub(crate) cross_pool: CrossMsgPool,
    /// The subnet's consensus engine.
    pub(crate) engine: Box<dyn Consensus>,
    /// Current validator set (refreshed from the parent's Subnet Actor).
    pub(crate) validators: ValidatorSet,
    /// The validators' signing keys (simulation holds them to produce
    /// blocks, justifications, and checkpoint signatures).
    pub(crate) validator_keys: Vec<Keypair>,
    /// Content-resolution state machine.
    pub(crate) resolver: Resolver,
    /// Pub-sub subscription for this subnet's topic.
    pub(crate) subscription: SubscriberId,
    /// Virtual time at which this node produces its next block.
    pub(crate) next_block_at_ms: u64,
    /// Epoch of the next block.
    pub(crate) next_epoch: ChainEpoch,
    /// Child checkpoints waiting to be committed in this chain's next
    /// block.
    pub(crate) pending_checkpoints: Vec<SignedCheckpoint>,
    /// Turnaround metas with resolved content, ready for top-down
    /// re-commitment in the next block (this subnet is their LCA).
    pub(crate) pending_turnarounds: Vec<(CrossMsgMeta, MsgGroup)>,
    /// Turnaround metas still waiting for content resolution.
    pub(crate) unresolved_turnarounds: Vec<CrossMsgMeta>,
    /// The user message [`crate::HierarchyRuntime::execute`] is waiting
    /// on, by CID, and its receipt once a block committed it. Receipts
    /// are otherwise not retained: `execute` is their one reader.
    pub(crate) awaited: Option<(Cid, Option<Receipt>)>,
    /// Verified fund certificates for payments still in flight towards
    /// this subnet (the §IV-A acceleration): tentative, not spendable.
    pub(crate) tentative: BTreeMap<Cid, FundCertificate>,
    /// Content-addressed blob store: persisted state chunk manifests
    /// (snapshots/checkpoints). A handle to the runtime-wide store, so
    /// identical chunks are shared across snapshots *and* subnets.
    pub(crate) store: CidStore,
    /// Counters.
    pub(crate) stats: NodeStats,
    /// This node's private randomness stream, seeded from the runtime
    /// seed and the subnet id. Keeping the stream per-node (instead of
    /// one runtime-wide RNG) makes block production a pure function of
    /// the node, so a wave of due subnets can produce concurrently and
    /// still replay bit-identically at any parallelism.
    pub(crate) rng: StdRng,
    /// Node-local verified-signature cache: populated at mempool
    /// admission, consulted by block production and validation. `None`
    /// when disabled (`RuntimeConfig::sig_cache_capacity` of zero) —
    /// receipts are bit-identical either way.
    pub(crate) sig_cache: Option<SigCache>,
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
    /// Builds a node at genesis — the one constructor behind root boot,
    /// child boot, and crash-rejoin. `boot` carries a child's Subnet Actor
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
                    ..config.sca.clone()
                },
                make_engine(sa.consensus, params.clone()),
            ),
            None => (
                config.sca.clone(),
                make_engine(ConsensusKind::RoundRobin, config.engine_params.clone()),
            ),
        };
        let sig_cache =
            (config.sig_cache_capacity > 0).then(|| SigCache::new(config.sig_cache_capacity));
        SubnetNode {
            tree: StateTree::genesis(subnet_id.clone(), sca, []),
            chain: ChainStore::new(subnet_id.clone()),
            mempool: match &sig_cache {
                Some(c) => Mempool::with_config(config.mempool).with_sig_cache(c.clone()),
                None => Mempool::with_config(config.mempool),
            },
            cross_pool: CrossMsgPool::new(),
            engine,
            validators: ValidatorSet::default(),
            validator_keys: Vec::new(),
            resolver: Resolver::with_policy_seeded(
                config.retry,
                node_jitter_seed(config.seed, &subnet_id),
            ),
            subscription,
            next_block_at_ms,
            next_epoch: ChainEpoch::new(1),
            pending_checkpoints: Vec::new(),
            pending_turnarounds: Vec::new(),
            unresolved_turnarounds: Vec::new(),
            awaited: None,
            tentative: BTreeMap::new(),
            store,
            stats: NodeStats::default(),
            rng: node_rng(config.seed, &subnet_id),
            sig_cache,
            subnet_id,
        }
    }

    /// Draws the consensus slot of the block at `epoch` from the node's
    /// private randomness stream. Every block a node ever holds — produced,
    /// re-executed or skipped — burns exactly one draw, which keeps the
    /// stream aligned with the subnet's history.
    pub(crate) fn draw_slot(
        &mut self,
        epoch: ChainEpoch,
    ) -> Result<BlockOpportunity, RuntimeError> {
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

    /// Everything a committed block implies for its node that outlives
    /// execution: the mempool's dedup horizon, the epoch and schedule
    /// cursors, the pending queues the block drained, and the cross-net
    /// nonce cursors. Called on its own for a block whose state arrives
    /// wholesale from a snapshot (recovery fast-forward, snapshot-covered
    /// history) — no receipts, no counters, and no hashing. Every step is
    /// idempotent on a live node, whose proposer already drained the same
    /// queues and advanced the same cursors when it assembled the block.
    pub(crate) fn skip_block(&mut self, block: &Block, opportunity: &BlockOpportunity) {
        let epoch = block.header.epoch;
        self.mempool.advance_epoch(epoch);
        self.next_block_at_ms = block.header.timestamp_ms + opportunity.interval_ms;
        self.next_epoch = epoch.next();
        for m in &block.implicit_msgs {
            match m {
                ImplicitMsg::CommitChildCheckpoint { signed } => {
                    self.pending_checkpoints
                        .retain(|p| p.checkpoint != signed.checkpoint);
                }
                ImplicitMsg::CommitTurnaround { meta, .. } => {
                    self.pending_turnarounds.retain(|(m2, _)| m2 != meta);
                    self.unresolved_turnarounds.retain(|m2| m2 != meta);
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
    /// that needs the receipts (counters, the `awaited` receipt, the
    /// checkpoints to archive, the events to route).
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

        // Account committed checkpoint bytes (parent-chain load,
        // experiment E3) and snapshot the signature policy in force at
        // commit time so the archive stays verifiable across validator
        // churn. The policy lives in this node's own copy of the child's
        // Subnet Actor.
        let mut archived = Vec::new();
        for (m, receipt) in block.implicit_msgs.iter().zip(&receipts) {
            if let ImplicitMsg::CommitChildCheckpoint { signed } = m {
                self.stats.checkpoint_bytes += signed.checkpoint.encoded_size() as u64;
                let policy = signed
                    .checkpoint
                    .source
                    .actor()
                    .filter(|_| receipt.exit.is_ok())
                    .and_then(|a| self.tree.sa(a).map(hc_actors::SaState::signature_policy));
                if let Some(policy) = policy {
                    archived.push((signed.clone(), policy));
                }
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
            archived,
            events: receipts.into_iter().flat_map(|r| r.events).collect(),
        }
    }

    /// The node-local half of routing one VM event of a committed block —
    /// shared by live ticks, journal recovery and peer catch-up. For a
    /// checkpoint cut it returns the manifest the checkpointed state was
    /// persisted under and, when `push` is set, the content announcements
    /// for the carried message groups; publishing those, submitting the
    /// checkpoint to the parent, journaling and certificates are the
    /// caller's outward half.
    pub(crate) fn apply_event(
        &mut self,
        event: &VmEvent,
        push: bool,
    ) -> Option<(Cid, Vec<(String, ResolutionMsg)>)> {
        match event {
            VmEvent::CheckpointCut { checkpoint } => {
                self.stats.checkpoints_cut += 1;
                // Persist the checkpointed state as a chunk manifest:
                // unchanged chunks dedupe against the previous persist
                // (structural sharing, observable via CidStore::stats).
                let manifest = self.tree.persist(&self.store);
                self.stats.state_persists += 1;

                // Content resolution (paper §IV-C): the state tree's
                // content registry is this subnet's authoritative store, so its
                // resolver always serves pulls for the carried groups (a
                // rebuilt node re-seeds here — the cache died with the
                // process); with the *push* path enabled, the groups are
                // also announced proactively on their destinations' topics.
                let mut pushes = Vec::new();
                for meta in &checkpoint.cross_msgs {
                    let content = self
                        .tree
                        .resolve_content(&meta.msgs_cid)
                        .or_else(|| self.resolver.cache().get(&meta.msgs_cid))
                        .cloned();
                    if let Some(group) = content {
                        if push {
                            // On the wire the group is raw again: the
                            // receiver trusts nothing it did not hash.
                            let (cid, msgs) = (meta.msgs_cid, group.to_vec());
                            pushes.push((meta.to.topic(), ResolutionMsg::Push { cid, msgs }));
                        }
                        self.resolver.seed(group);
                    }
                }
                return Some((manifest, pushes));
            }
            VmEvent::CheckpointCommitted { outcome, .. } => {
                self.stats.checkpoints_committed += 1;
                for meta in &outcome.applied_here {
                    self.cross_pool.ingest_meta(meta.clone());
                }
                self.unresolved_turnarounds
                    .extend(outcome.turnaround.iter().cloned());
            }
            VmEvent::CrossMsgApplied { msg } => {
                self.stats.cross_applied += 1;
                // A settled payment is no longer tentative.
                self.tentative.remove(&msg.cid());
            }
            // Remaining events are informational; reverts ride the normal
            // cross-net flow and need no extra routing.
            _ => {}
        }
        None
    }

    /// The one way a persisted snapshot replaces a node's state: decode
    /// `manifest` from `source`, check its root against the state root the
    /// subnet's consensus committed in the header at the anchor epoch,
    /// rebuild the tree from the manifest's closure, swap it in. The
    /// committed header is the trust root — chunks verified only against
    /// their CIDs could still be a consistent-but-wrong state.
    pub(crate) fn install_manifest(
        &mut self,
        manifest: &Cid,
        source: &CidStore,
        committed_root: Option<Cid>,
    ) -> Result<(), RuntimeError> {
        let decoded = source
            .get(manifest)
            .and_then(|blob| ChunkManifest::decode(&blob))
            .ok_or_else(|| {
                RuntimeError::Execution(format!("snapshot manifest {manifest} missing or corrupt"))
            })?;
        if committed_root != Some(decoded.root) {
            return Err(RuntimeError::Execution(format!(
                "snapshot root {} does not match the committed header root {committed_root:?}",
                decoded.root
            )));
        }
        self.tree = StateTree::from_manifest(&decoded, source)
            .map_err(|e| RuntimeError::Execution(format!("snapshot install: {e}")))?;
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

    /// Child checkpoints waiting for commitment in this chain.
    pub fn pending_checkpoint_count(&self) -> usize {
        self.pending_checkpoints.len()
    }

    /// Turnaround metas waiting (resolved + unresolved).
    pub fn pending_turnaround_count(&self) -> usize {
        self.pending_turnarounds.len() + self.unresolved_turnarounds.len()
    }

    /// Total tentatively certified incoming value for `addr`.
    pub fn tentative_value_for(&self, addr: hc_types::Address) -> hc_types::TokenAmount {
        self.tentative
            .values()
            .filter(|c| c.body.msg.to.raw == addr)
            .map(|c| c.body.msg.value)
            .sum()
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

    /// Admission/eviction counters of this node's mempool.
    pub fn mempool_stats(&self) -> hc_chain::MempoolStats {
        self.mempool.stats()
    }

    /// Activity counters of this node's content resolver.
    pub fn resolver_stats(&self) -> hc_net::ResolverStats {
        self.resolver.stats()
    }

    /// Counters of this node's verified-signature cache (all zeros when
    /// the cache is disabled).
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        self.sig_cache
            .as_ref()
            .map(SigCache::stats)
            .unwrap_or_default()
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
    /// Hierarchy-wide quiescence additionally requires that the parent's
    /// SCA holds no unsynced top-down messages for this subnet — see
    /// [`crate::runtime::HierarchyRuntime::all_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        self.mempool.is_empty()
            && self.cross_pool.pending_top_down() == 0
            && self.cross_pool.pending_bottom_up() == 0
            && self.pending_checkpoints.is_empty()
            && self.pending_turnarounds.is_empty()
            && self.unresolved_turnarounds.is_empty()
            && self.tree.sca().window_is_value_empty()
    }

    /// Signs `checkpoint` with every validator key the node holds: the
    /// subnet's quorum, whether it signs an honest cut or — adversarial
    /// simulation — whatever an attacker who compromised it wants.
    pub(crate) fn sign_checkpoint(&self, checkpoint: Checkpoint) -> SignedCheckpoint {
        let mut signed = SignedCheckpoint::new(checkpoint);
        let bytes = signed.signing_bytes();
        for key in &self.validator_keys {
            signed.signatures.add(key.sign(&bytes));
        }
        signed
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
