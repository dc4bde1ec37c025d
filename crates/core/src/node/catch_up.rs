//! A node catching itself up (paper §II: a subnet's full nodes sync its
//! chain from their peers). A node restarted after a crash — or by a
//! recovery fast-forward short of its anchor — is in [`Mode::CatchingUp`]
//! until it holds its peers' chain, from epoch 1 to their head. It acts on
//! the sync traffic its front door ([`SubnetNode::poll`]) read: it
//! re-executes the blocks its peers send, or first assembles their
//! snapshot, chains the blocks it covers as the peers hold them and
//! installs it, as a recovery fast-forward does; it pulls what it still
//! lacks under its own [`Backoff`]; it says when it next has work
//! ([`SubnetNode::next_wake_ms`]: its next sync delivery, or its pull's
//! retry deadline), so the runtime runs a round as each delivery lands
//! rather than at the next block; and it goes live by itself, its first
//! block on its subnet's slot grid. The runtime stands in for the peers:
//! it answers the pulls and refreshes the validator set from the parent
//! chain, and nothing else. State changes
//! only through blocks, so the blocks it re-executes (or the snapshot it
//! installs) bring every account its subnet installed: nothing is
//! re-installed beside them.

use std::collections::BTreeSet;

use hc_chain::{Block, History, Mempool};
use hc_net::{
    Backoff, BackoffStep, Network, ResolutionMsg, RetryPolicy, SubscriberId, BLOB_BATCH_CAP,
};
use hc_state::AccountInstall;
use hc_state::{ChunkManifest, CidStore};
use hc_types::{CanonicalDecode, ChainEpoch, Cid, Keypair, SubnetId};

use super::{Input, SubnetNode, SyncInbox};
use crate::chaos::ChaosStats;
use crate::config::{RuntimeConfig, RuntimeError};

/// Whether a node produces blocks, or is still syncing its peers' chain
/// and produces none. The catch-up is boxed: a live node, the common
/// case, carries a pointer rather than its state.
#[derive(Debug, Default)]
pub(crate) enum Mode {
    #[default]
    Live,
    CatchingUp(Box<CatchUp>),
}

/// What outlives a node's crash, for the node its restart builds: its
/// pub-sub identity (topic membership and subscriber-scoped fault rules
/// stay stable across the outage), the mempool and the queued installs its
/// peers replicated, and the validators' signing keys — the restarted node
/// signs with them and derives none.
#[derive(Debug)]
pub(crate) struct Survivor {
    pub(crate) subscription: SubscriberId,
    mempool: Mempool,
    installs: Vec<AccountInstall>,
    validator_keys: Vec<Keypair>,
}

impl Survivor {
    /// Whether the pool the peers keep queues a send into `subnet`.
    pub(crate) fn routes_into(&self, subnet: &SubnetId) -> bool {
        super::sends_into(&self.mempool, subnet)
    }
}

/// The surviving peers a catching-up node syncs against, at `now_ms`: their
/// copy of its chain, in compressed wire form, and the network its pulls
/// cross.
pub(crate) struct Peers<'a> {
    pub(crate) history: &'a History,
    pub(crate) network: &'a Network<ResolutionMsg>,
    pub(crate) now_ms: u64,
}

/// A restarted node's catch-up.
#[derive(Debug)]
pub(crate) struct CatchUp {
    /// Retry state of the current pull: round trips attempted since the
    /// last progress, and when the next may go out.
    pull: Backoff,
    policy: RetryPolicy,
    /// `Some` while the node is still assembling a snapshot (the fetch
    /// phase precedes any block replay).
    snapshot: Option<SnapshotSync>,
    /// The subnet's block time: the spacing of its slot grid, on which
    /// the node's first block after catch-up lands.
    block_time_ms: u64,
    /// When the node restarted, for [`ChaosStats::catch_up_ms`].
    restarted_ms: u64,
}

/// In-flight snapshot assembly of one restarted node.
#[derive(Debug)]
struct SnapshotSync {
    /// The checkpoint-anchored state manifest being assembled.
    manifest: Cid,
    /// The checkpoint epoch the manifest was committed at; the block
    /// header at this epoch is the trust root for the assembled state.
    anchor_epoch: ChainEpoch,
    /// Blobs fetched so far. Deliberately a *separate* store from the
    /// node's: every chunk must genuinely cross the (possibly faulty)
    /// network and verify against its CID before the install sees it.
    staging: CidStore,
}

impl SnapshotSync {
    /// The blobs still missing: the manifest, else at most a batch of the
    /// chunks it names that are not staged yet. Empty once the closure is
    /// whole.
    fn wanted(&self) -> Result<Vec<Cid>, RuntimeError> {
        let Some(blob) = self.staging.get(&self.manifest) else {
            return Ok(vec![self.manifest]);
        };
        let manifest = ChunkManifest::decode(&blob).ok_or_else(|| {
            RuntimeError::Execution("snapshot manifest blob failed to decode".into())
        })?;
        let mut missing = manifest.missing_chunks(&self.staging);
        missing.truncate(BLOB_BATCH_CAP);
        Ok(missing)
    }
}

impl CatchUp {
    /// The first block of a node that goes live at `now_ms` keeps its
    /// subnet's cadence: it lands on the slot grid of the head it caught
    /// up to (`head_ms` + k × block time), at least one block time from
    /// now — so a node that went live between two of its siblings' blocks
    /// stays in phase with them. With no head it is one block time from
    /// now.
    fn first_slot_ms(&self, head_ms: Option<u64>, now_ms: u64) -> u64 {
        let (block_ms, earliest_ms) = (self.block_time_ms.max(1), now_ms + self.block_time_ms);
        head_ms.map_or(earliest_ms, |head_ms| {
            let slots = earliest_ms.saturating_sub(head_ms).div_ceil(block_ms);
            head_ms + slots.max(1) * block_ms
        })
    }
}

impl SubnetNode {
    /// `true` unless the node is still catching up.
    pub(crate) fn is_live(&self) -> bool {
        matches!(self.mode, Mode::Live)
    }

    /// The manifest of the snapshot the node is assembling, which the blob
    /// GC must keep.
    pub(crate) fn syncing_manifest(&self) -> Option<Cid> {
        match &self.mode {
            Mode::CatchingUp(cu) => cu.snapshot.as_ref().map(|s| s.manifest),
            _ => None,
        }
    }

    /// The node goes down. Returns what survives it; what it received and
    /// did not commit — its unapplied top-down messages by nonce, then its
    /// uncommitted child checkpoints (its certificates die with it); and
    /// the blocks of its subnet's chain only it held: all of a live node's
    /// chain, none of a catching-up node's — its replay is a prefix of the
    /// chain it was syncing against, which its peers still hold.
    pub(crate) fn crash(self) -> (Survivor, Vec<Input>, History) {
        let top_down = self.cross_pool.into_top_down().into_iter();
        let mut inbox: Vec<Input> = top_down.map(Input::TopDown).collect();
        inbox.extend(self.pending_checkpoints.into_iter().map(Input::Checkpoint));
        let chain = match self.mode {
            Mode::Live => self.chain.into_history(),
            Mode::CatchingUp(_) => History::default(),
        };
        let survivor = Survivor {
            subscription: self.subscription,
            mempool: self.mempool,
            installs: self.installs,
            validator_keys: self.validator_keys,
        };
        (survivor, inbox, chain)
    }

    /// Makes this genesis node `survivor`'s restart at `now_ms`, catching
    /// up from a snapshot of `anchor` when given, else by replay from
    /// genesis; `block_time_ms` is its block time. The peers' replicated
    /// mempool and queued installs (which hold nothing of the chain, so
    /// nothing is double-proposed) become the node's: the pool counts on
    /// the node's counters and carries no verdict of the old one's, so each
    /// message is verified once here before proposal.
    pub(crate) fn restart(
        &mut self,
        survivor: Survivor,
        anchor: Option<(ChainEpoch, Cid)>,
        config: &RuntimeConfig,
        block_time_ms: u64,
        now_ms: u64,
    ) {
        let mut mempool = survivor.mempool;
        mempool.rehome(self.sig_cache.clone());
        self.mempool = mempool;
        self.installs = survivor.installs;
        self.validator_keys = survivor.validator_keys;
        let snapshot = anchor.map(|(anchor_epoch, manifest)| SnapshotSync {
            manifest,
            anchor_epoch,
            staging: CidStore::new(),
        });
        self.mode = Mode::CatchingUp(Box::new(CatchUp {
            pull: Backoff::due_at(now_ms),
            policy: config.retry,
            snapshot,
            block_time_ms,
            restarted_ms: now_ms,
        }));
    }

    /// When the catching-up node next has work after `now_ms`: the
    /// earliest delivery pending to its subscription, or its pull's
    /// deadline if that is later than now (a deadline at or before now is
    /// no event: the round at now already stepped it). `None` for a live
    /// node, or one with nothing pending.
    pub(crate) fn next_wake_ms(
        &self,
        network: &Network<ResolutionMsg>,
        now_ms: u64,
    ) -> Option<u64> {
        let Mode::CatchingUp(cu) = &self.mode else {
            return None;
        };
        let retry = Some(cu.pull.next_at_ms()).filter(|&at| at > now_ms);
        let delivery = network.next_delivery_for(self.subscription);
        delivery.into_iter().chain(retry).min()
    }

    /// One catch-up round on the sync traffic [`SubnetNode::poll`] read,
    /// its blocks re-executed on `workers`. Once the node holds
    /// `peers.history` it goes live, its first block on its subnet's slot
    /// grid ([`CatchUp::first_slot_ms`]).
    pub(crate) fn catch_up(
        &mut self,
        inbox: SyncInbox,
        peers: &Peers,
        workers: usize,
        stats: &mut ChaosStats,
    ) -> Result<(), RuntimeError> {
        let Mode::CatchingUp(mut cu) = std::mem::take(&mut self.mode) else {
            return Ok(());
        };
        let done = self.catch_up_round(&mut cu, inbox, peers, workers, stats);
        if !matches!(done, Ok(true)) {
            self.mode = Mode::CatchingUp(cu);
            return done.map(|_| ());
        }
        let head_ms = self.chain.head_block().map(|b| b.header.timestamp_ms);
        self.next_block_at_ms = cu.first_slot_ms(head_ms, peers.now_ms);
        stats.catch_ups_completed += 1;
        stats.catch_up_ms += peers.now_ms.saturating_sub(cu.restarted_ms);
        Ok(())
    }

    /// The body of [`SubnetNode::catch_up`]. While a snapshot is being
    /// assembled: fold received blobs into the staging store
    /// (content-addressed, so corrupt or unrelated blobs land under a
    /// different CID and are never asked for again), pull what it still
    /// lacks, and once its closure is whole bootstrap from it and go on to
    /// the blocks in the same round. After: re-commit the received blocks
    /// that extend the head — duplicated or overlapping batches are
    /// harmless — and report whether the node holds its peers' chain; if
    /// not, (re)pull the next batch.
    fn catch_up_round(
        &mut self,
        cu: &mut CatchUp,
        inbox: SyncInbox,
        peers: &Peers,
        workers: usize,
        stats: &mut ChaosStats,
    ) -> Result<bool, RuntimeError> {
        let now_ms = peers.now_ms;
        if let Some(sync) = &mut cu.snapshot {
            let mut accepted = 0;
            for blob in inbox.blob_batches.into_iter().flatten() {
                if !sync.staging.contains(&Cid::digest(&blob)) {
                    sync.staging.put(blob);
                    accepted += 1;
                }
            }
            if accepted > 0 {
                cu.pull = Backoff::due_at(now_ms);
            }
            let cids = sync.wanted()?;
            stats.blobs_synced += accepted;
            if !cids.is_empty() {
                let reply_topic = self.subnet_id.topic();
                let pull = ResolutionMsg::BlobPull { cids, reply_topic };
                self.send_pull(cu, pull, peers, stats);
                return Ok(false);
            }
            self.bootstrap_from_snapshot(cu, peers, stats)?;
        }
        for bytes in inbox.block_batches.into_iter().flatten() {
            let Ok(block) = Block::decode(&bytes) else {
                continue;
            };
            if block.header.epoch != self.next_epoch {
                continue;
            }
            // The live hierarchy has moved on: every outward effect of the
            // block (parent checkpoint submission, journal records, manifest
            // anchors, certificate gossip, the top-down messages handed to
            // its children) happened when it was produced, so only the
            // node-local half of its events re-runs. A refused block changed
            // nothing: a peer's forgery is dropped, and the pull goes on.
            let Ok(outcome) = self.reexecute(&block, workers) else {
                stats.blocks_rejected += 1;
                continue;
            };
            for event in &outcome.events {
                self.apply_event(event, false, None);
            }
            // Replay restores the historical schedule; stay unschedulable
            // until catch-up completes.
            self.next_block_at_ms = u64::MAX;
            stats.blocks_caught_up += 1;
            cu.pull = Backoff::due_at(now_ms);
        }
        if self.chain.len() >= peers.history.len() {
            return Ok(true);
        }
        let pull = ResolutionMsg::BlockPull {
            subnet: self.subnet_id.clone(),
            from_epoch: self.next_epoch,
            reply_topic: self.subnet_id.topic(),
        };
        self.send_pull(cu, pull, peers, stats);
        Ok(false)
    }

    /// Publishes `pull` on the subnet's own topic, with the node as origin,
    /// when the backoff says one is due: the peers answer it from there, so
    /// both legs cross the (possibly faulty) network. The retry budget is
    /// *per batch* — the backoff restarts on every replayed block or
    /// accepted blob — so an exhausted budget cools down for the capped
    /// timeout and re-arms: a long blackout slows this batch down, it never
    /// abandons the batches behind it.
    fn send_pull(
        &self,
        cu: &mut CatchUp,
        pull: ResolutionMsg,
        peers: &Peers,
        stats: &mut ChaosStats,
    ) {
        let now_ms = peers.now_ms;
        match cu.pull.step(&cu.policy, now_ms) {
            BackoffStep::Send(attempt) => {
                let (sent, retried) = match pull {
                    ResolutionMsg::BlockPull { .. } => {
                        (&mut stats.block_pulls, &mut stats.block_pull_retries)
                    }
                    _ => (&mut stats.blob_pulls, &mut stats.blob_pull_retries),
                };
                *sent += 1;
                *retried += u64::from(attempt > 1);
                let (topic, origin) = (self.subnet_id.topic(), Some(self.subscription));
                peers.network.publish(&topic, pull, now_ms, origin);
            }
            BackoffStep::Wait => {}
            BackoffStep::Exhausted => {
                cu.pull = Backoff::due_at(now_ms + cu.policy.max_timeout_ms.max(1));
                stats.pull_budget_rearms += 1;
            }
        }
    }

    /// Bootstraps the node from the assembled snapshot the way a recovery
    /// fast-forward does: chains the blocks the snapshot covers as the
    /// peers hold them, walking each through [`SubnetNode::skip_past`] —
    /// the snapshot replaces execution, not history, so every covered
    /// block still realigns the consensus RNG, the cross-net nonce cursors
    /// and the mempool exactly as a per-block replay would, and the node
    /// resumes mid-conversation with its parent — then installs the staged
    /// state against its own header at the anchor epoch
    /// ([`SubnetNode::install_snapshot`]), settling the floors of the
    /// senders the walk collected. From here catch-up replays the
    /// post-anchor suffix.
    fn bootstrap_from_snapshot(
        &mut self,
        cu: &mut CatchUp,
        peers: &Peers,
        stats: &mut ChaosStats,
    ) -> Result<(), RuntimeError> {
        let sync = cu.snapshot.as_ref().expect("a snapshot is being assembled");
        // One block is decoded at a time; its CID comes from storage.
        let covered = peers.history.iter();
        let covered = covered.take_while(|b| b.epoch() <= sync.anchor_epoch);
        let mut senders = BTreeSet::new();
        for stored in covered {
            self.skip_past(stored.decode(), Some(stored), &mut senders)?;
        }
        let (manifest, staging) = (&sync.manifest, &sync.staging);
        self.install_snapshot(manifest, staging, sync.anchor_epoch, &senders)?;
        // Adopt the manifest's full closure — fixed chunks AND every
        // account-HAMT node — so the node's store can serve the same
        // snapshot (and GC can pin it) after the swap (content-addressed
        // puts dedup against blobs already present).
        for cid in sync.staging.manifest_closure(&[sync.manifest]) {
            if let Some(chunk) = sync.staging.get(&cid) {
                self.store.put(chunk.as_ref().clone());
            }
        }
        cu.snapshot = None;
        cu.pull = Backoff::due_at(peers.now_ms);
        self.next_block_at_ms = u64::MAX;
        stats.snapshot_installs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! A node catches itself up driven by its inputs alone: a world
    //! produces a subnet's chain, then a node restarted from genesis is
    //! handed that chain's blocks, shuffled, duplicated and with a forgery
    //! first, and no runtime steps in between. A snapshot rejoin settles
    //! the floor of every sender of the blocks it skipped.

    use std::collections::BTreeMap;

    use hc_actors::sa::SaConfig;
    use hc_chain::{BlockHeader, PushOutcome};
    use hc_state::Method;
    use hc_types::{CanonicalEncode, SubnetId, TokenAmount};

    use super::*;
    use crate::chaos::SyncMode;
    use crate::runtime::HierarchyRuntime;

    /// A snapshot rejoin whose pool starts empty, as a recovered node's
    /// does, refuses a replay of the last message of every sender the
    /// covered blocks hold: the install settles the senders its skip walk
    /// collected, and no block after the anchor carries a message.
    #[test]
    fn a_snapshot_rejoin_refuses_each_covered_senders_last_message() {
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
        let users: Vec<_> = (0..3)
            .map(|_| rt.create_user(&child, TokenAmount::ZERO).unwrap())
            .collect();
        for user in &users {
            rt.cross_transfer(&alice, user, whole(30)).unwrap();
        }
        rt.run_until_quiescent(10_000).unwrap();
        for round in 0..4 {
            for (i, user) in users.iter().enumerate() {
                let to = users[(i + 1 + round) % users.len()].addr;
                rt.execute(user, to, whole(1), Method::Send).unwrap();
            }
        }
        let sent = rt.nodes[&child].chain.head_epoch();
        while rt
            .checkpoint_anchor(&child)
            .is_none_or(|(epoch, _)| epoch < sent)
        {
            rt.step().unwrap();
        }
        let (anchor, _) = rt.checkpoint_anchor(&child).unwrap();
        let mut last = BTreeMap::new();
        for block in rt.nodes[&child].chain.iter() {
            assert!(block.header.epoch <= anchor || block.signed_msgs.is_empty());
            for m in &block.signed_msgs {
                last.insert(m.message().from, m.clone());
            }
        }
        assert_eq!(last.len(), users.len());

        rt.crash_node(&child).unwrap();
        let record = rt.subnets.by_id.get_mut(&child).unwrap();
        record.crashed.as_mut().unwrap().mempool = Mempool::new();
        rt.rejoin_node(&child).unwrap();
        while rt.is_catching_up(&child) {
            rt.step().unwrap();
        }
        assert_eq!(rt.chaos_stats().snapshot_installs, 1);
        let pool = &mut rt.nodes.get_mut(&child).unwrap().mempool;
        for (from, msg) in last {
            assert_eq!(
                pool.push_sealed_with_fee(msg, 0),
                PushOutcome::Duplicate,
                "{from}'s last covered message"
            );
        }
    }

    #[test]
    fn a_restarted_node_catches_up_from_shuffled_batches_by_itself() {
        let whole = TokenAmount::from_whole;
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(1_000)).unwrap();
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let stake = [(validator, whole(5))];
        let child = rt
            .spawn_subnet(&alice, SaConfig::default(), whole(10), &stake)
            .unwrap();
        let bob = rt.create_user(&child, TokenAmount::ZERO).unwrap();
        let carol = rt.create_user(&child, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &bob, whole(30)).unwrap();
        rt.run_until_quiescent(10_000).unwrap();
        for _ in 0..20 {
            rt.execute(&bob, carol.addr, whole(1), Method::Send)
                .unwrap();
        }
        let live = &rt.nodes[&child];
        let peers = live.chain.clone().into_history();
        let n = peers.len();
        assert!(n > 12, "several batches to sync: {n}");

        // The restart, as the runtime builds it, but by hand.
        let record = &rt.subnets.by_id[&child];
        let (sa, params) = record.boot.clone().unwrap();
        let network = Network::new(rt.config.net.clone(), 7);
        let subscription = network.subscribe(&child.topic());
        let boot = Some((&sa, &params));
        let store = CidStore::new();
        let mut node = SubnetNode::genesis(
            child.clone(),
            &rt.config,
            boot,
            subscription,
            u64::MAX,
            store,
        );
        node.validators = live.validators.clone();
        let survivor = Survivor {
            subscription,
            mempool: Mempool::new(),
            installs: Vec::new(),
            validator_keys: live.validator_keys.clone(),
        };
        let mut now_ms = rt.now_ms();
        node.restart(survivor, None, &rt.config, params.block_time_ms, now_ms);
        assert!(!node.is_live());

        // The peers' blocks in batches of four; the first round brings a
        // later batch, the epoch-1 block resealed by a non-validator, then
        // the first batch twice; every later round brings all the rest,
        // newest first, each twice, so one batch applies per round.
        let attacker = Keypair::from_seed([0xa7; 32]);
        let first = Block::decode(&peers.serve(ChainEpoch::new(1), 1)[0]).unwrap();
        let header = BlockHeader {
            proposer: attacker.public(),
            ..first.header.clone()
        };
        let (signed, implicit) = (first.signed_msgs.clone(), first.implicit_msgs.clone());
        let forged = Block::seal(header, signed, implicit, &attacker).canonical_bytes();
        let batches: Vec<Vec<Vec<u8>>> = (0..n)
            .step_by(4)
            .map(|from| peers.serve(ChainEpoch::new(from as u64 + 1), 4))
            .collect();
        let mut stats = ChaosStats::default();
        let restarted_ms = now_ms;
        let mut round = |node: &mut SubnetNode, block_batches, now_ms| {
            let inbox = SyncInbox {
                block_batches,
                ..SyncInbox::default()
            };
            let peers = Peers {
                history: &peers,
                network: &network,
                now_ms,
            };
            node.catch_up(inbox, &peers, 1, &mut stats).unwrap();
            node.is_live()
        };
        let opening = vec![
            batches[1].clone(),
            vec![forged],
            batches[0].clone(),
            batches[0].clone(),
        ];
        let mut done = round(&mut node, opening, now_ms);
        for _ in 0..batches.len() {
            if done {
                break;
            }
            now_ms += 100;
            let rest = batches.iter().rev().flat_map(|b| [b.clone(), b.clone()]);
            done = round(&mut node, rest.collect(), now_ms);
        }

        assert!(done, "the node left catch-up by itself");
        assert_eq!(stats.blocks_rejected, 1, "the forgery was counted");
        assert_eq!(stats.blocks_caught_up, n as u64);
        assert_eq!(stats.catch_ups_completed, 1);
        let head = |node: &SubnetNode| {
            let block = node.chain.head_block().unwrap();
            (block.cid(), block.header.state_root, node.next_epoch)
        };
        assert_eq!(head(&node), head(live));
        assert_eq!(node.chain.len(), n, "the node holds the chain from epoch 1");
        assert_eq!(node.tree.recompute_root(), live.tree.recompute_root());
        let cursors = |node: &SubnetNode| {
            let pool = node.cross_pool();
            let queues = (node.pending_checkpoints.len(), node.turnarounds.len());
            (pool.next_top_down_nonce(), pool.pending_top_down(), queues)
        };
        assert_eq!(cursors(&node), cursors(live));
        assert_eq!(node.stats, live.stats);
        assert_eq!(stats.catch_up_ms, now_ms - restarted_ms);
        // The first block lands on the slot grid of the head it caught up
        // to, the first slot at least a block time after it went live.
        let block_ms = params.block_time_ms;
        let head_ms = live.chain.head_block().unwrap().header.timestamp_ms;
        let first_ms = node.next_block_at_ms;
        assert_eq!((first_ms - head_ms) % block_ms, 0, "{first_ms} ms");
        assert!(first_ms >= now_ms + block_ms, "{first_ms} ms");
        assert!(first_ms < now_ms + 2 * block_ms, "{first_ms} ms");
    }
}
