//! Layer replay: after each wave of the traced run, the wave's own
//! committed blocks are pushed once more through each crate's public API,
//! one layer at a time, each under its own span.
//!
//! The live run can only be timed from outside `hc-core`
//! (`core.step_wave`); the replay is what splits that time by layer
//! without touching the crates. Each step repeats the work the live path
//! did for the block, on state the replay owns:
//!
//! * `chain.admit` / `chain.select` — a fresh [`Mempool`] admits the
//!   block's messages (signature check included) and selects them back.
//! * `chain.schedule` — [`Schedule::build`] over the payload.
//! * `chain.execute` — [`execute_block_with`] on a shadow [`StateTree`]
//!   that follows the subnet's chain block by block, as a validating peer
//!   would. It must reproduce the header's state root, which makes the
//!   replay an output check as well as a timer.
//! * `state.flush` / `state.persist` — the shadow's root re-hash, and a
//!   persist into the replay's own blob store when the block cut a
//!   checkpoint (the live path persists at exactly those blocks).
//! * `types.encode_cid` — canonical re-encoding and hashing of the block
//!   and each message.
//! * `store.wal_append` / `store.wal_replay` — durable workloads only:
//!   the block's bytes appended to a [`Wal`] on the same device kind with
//!   the same fsync policy, and the log opened again at the end. The
//!   device has a directory of its own, outside the runtime's, so the
//!   runtime's journal counters see none of it.
//! * `net.gossip` — as many publishes as the wave made, delivered and
//!   polled on a fresh [`Network`].
//!
//! Replays cost wall time the live run does not have; the traced run is
//! never used for end-to-end numbers.

use std::collections::BTreeMap;
use std::sync::Arc;

use hc_chain::{execute_block_with, Block, ExecOptions, Mempool, MempoolConfig, Schedule};
use hc_core::{HierarchyRuntime, StepReport};
use hc_net::{NetConfig, Network, ResolutionMsg, SubscriberId};
use hc_state::{CidStore, ImplicitMsg, SealedMessage, SigCache, StateTree};
use hc_store::{FsyncPolicy, OnDiskDevice, Persistence, Wal, WalOptions};
use hc_types::{CanonicalEncode, Cid, SubnetId};

use crate::trace::Tracer;
use crate::workloads::JournalDir;

/// Name of the replay's own journal stream.
const REPLAY_LOG: &str = "blocks";

/// The durable workload's journal options: sync after every append.
fn wal_options() -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::Always,
        ..WalOptions::default()
    }
}

/// Counters the replay accumulates next to its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Blocks replayed; every one reproduced its header's state root.
    pub blocks: u64,
    /// Signed messages in those blocks.
    pub msgs: u64,
    /// Canonical bytes of the blocks and their messages.
    pub encoded_bytes: u64,
    /// Parallel lanes the schedules found.
    pub lanes: u64,
    /// Sum of critical-path lengths at the workload's parallelism.
    pub critical_path: u64,
    /// Messages the schedules covered.
    pub scheduled_msgs: u64,
}

/// The traced run's replay state.
pub struct LayerReplay {
    shadows: BTreeMap<SubnetId, StateTree>,
    sig_cache: SigCache,
    mempool: MempoolConfig,
    parallelism: usize,
    block_capacity: usize,
    blobs: CidStore,
    /// The replay journal and the directory its device writes to.
    wal: Option<(Wal, JournalDir)>,
    wal_records: usize,
    net: Network<ResolutionMsg>,
    topics: Vec<(String, SubscriberId)>,
    /// What was replayed.
    pub counts: ReplayCounts,
}

impl LayerReplay {
    /// Starts a replay that shadows every subnet of `rt` from its current
    /// state. For a `durable` workload the replay journals to an on-disk
    /// device of its own.
    pub fn new(rt: &HierarchyRuntime, durable: bool) -> Self {
        let config = rt.config();
        let shadows = rt
            .subnets()
            .filter_map(|s| rt.node(s).map(|n| (s.clone(), n.state().clone())))
            .collect();
        let wal = durable.then(|| {
            let dir = JournalDir::fresh();
            let device: Arc<dyn Persistence> = Arc::new(OnDiskDevice::new(&dir.0));
            (Wal::open(device, REPLAY_LOG, wal_options()).0, dir)
        });
        let net = Network::new(NetConfig::default(), config.seed);
        let topics = rt
            .subnets()
            .map(|s| {
                let topic = s.topic();
                let sub = net.subscribe(&topic);
                (topic, sub)
            })
            .collect();
        LayerReplay {
            shadows,
            sig_cache: SigCache::new(config.sig_cache_capacity.max(1)),
            mempool: config.mempool,
            parallelism: config.parallelism,
            block_capacity: config.engine_params.block_capacity,
            blobs: CidStore::new(),
            wal,
            wal_records: 0,
            net,
            topics,
            counts: ReplayCounts::default(),
        }
    }

    /// Replays the blocks `reports` names, then `published` gossip
    /// messages.
    ///
    /// # Errors
    ///
    /// Fails when a block is missing from its chain or the shadow does not
    /// reproduce its state root.
    pub fn after_wave(
        &mut self,
        tr: &mut Tracer,
        rt: &HierarchyRuntime,
        reports: &[StepReport],
        published: u64,
    ) -> Result<(), String> {
        for report in reports {
            let block = rt
                .node(&report.subnet)
                .and_then(|n| n.chain().get_by_epoch(report.epoch))
                .ok_or_else(|| {
                    format!(
                        "replay: block {} of {} is gone",
                        report.epoch, report.subnet
                    )
                })?;
            self.replay_block(tr, block)?;
        }
        self.replay_gossip(tr, published, rt.now_ms());
        Ok(())
    }

    fn replay_block(&mut self, tr: &mut Tracer, block: &Block) -> Result<(), String> {
        let subnet = &block.header.subnet;

        let span = tr.enter("chain.admit");
        let mut pool = Mempool::with_config(self.mempool).with_sig_cache(self.sig_cache.clone());
        for m in &block.signed_msgs {
            // Sealed afresh: admission derives the message CID, as the
            // live submit path does.
            pool.push_sealed_with_fee(SealedMessage::new(m.signed().clone()), 1);
        }
        tr.exit(span);

        let span = tr.enter("chain.select");
        let picked = pool.select(self.block_capacity);
        pool.remove_included(picked.iter());
        tr.exit(span);
        if picked.len() != block.signed_msgs.len() {
            return Err(format!(
                "replay: pool selected {} of the {} messages in block {} of {subnet}",
                picked.len(),
                block.signed_msgs.len(),
                block.header.epoch
            ));
        }

        let span = tr.enter("chain.schedule");
        let schedule = Schedule::build(&block.signed_msgs);
        tr.exit(span);
        let shape = schedule.stats();
        self.counts.lanes += shape.lanes as u64;
        self.counts.scheduled_msgs += shape.messages as u64;
        self.counts.critical_path += schedule.critical_path(self.parallelism.max(1)) as u64;

        let shadow = self
            .shadows
            .get_mut(subnet)
            .ok_or_else(|| format!("replay: no shadow state for {subnet}"))?;
        let span = tr.enter("chain.execute");
        let executed = execute_block_with(
            shadow,
            block,
            ExecOptions {
                sig_cache: Some(&self.sig_cache),
                parallelism: self.parallelism,
            },
        );
        tr.exit(span);
        executed.map_err(|e| {
            format!(
                "replay: block {} of {subnet} did not re-execute: {e}",
                block.header.epoch
            )
        })?;

        let span = tr.enter("state.flush");
        let root = shadow.flush();
        tr.exit(span);
        if root != block.header.state_root {
            return Err(format!(
                "replay: shadow of {subnet} flushed to {root}, header {} says {}",
                block.header.epoch, block.header.state_root
            ));
        }

        let cut = block
            .implicit_msgs
            .iter()
            .any(|m| matches!(m, ImplicitMsg::CutCheckpoint { .. }));
        if cut {
            let span = tr.enter("state.persist");
            shadow.persist(&self.blobs);
            tr.exit(span);
        }

        let span = tr.enter("types.encode_cid");
        let bytes = block.canonical_bytes();
        std::hint::black_box(Cid::digest(&bytes));
        let mut encoded = bytes.len() as u64;
        for m in &block.signed_msgs {
            let msg_bytes = m.signed().canonical_bytes();
            std::hint::black_box(Cid::digest(&msg_bytes));
            encoded += msg_bytes.len() as u64;
        }
        tr.exit(span);

        if let Some((wal, _)) = &mut self.wal {
            let span = tr.enter("store.wal_append");
            wal.append(&bytes);
            tr.exit(span);
            self.wal_records += 1;
        }

        self.counts.blocks += 1;
        self.counts.msgs += block.signed_msgs.len() as u64;
        self.counts.encoded_bytes += encoded;
        Ok(())
    }

    fn replay_gossip(&mut self, tr: &mut Tracer, published: u64, now_ms: u64) {
        if published == 0 {
            return;
        }
        let span = tr.enter("net.gossip");
        for i in 0..published as usize {
            let (topic, _) = &self.topics[i % self.topics.len()];
            self.net.publish(
                topic,
                ResolutionMsg::Pull {
                    cid: Cid::NIL,
                    reply_topic: topic.clone(),
                },
                now_ms,
                None,
            );
        }
        // Past the longest injected delay, so every delivery is polled.
        let horizon = now_ms + 1_000;
        for (_, sub) in &self.topics {
            std::hint::black_box(self.net.poll(*sub, horizon));
        }
        tr.exit(span);
    }

    /// Ends the replay: for durable workloads, opens the replay journal
    /// again (the read side of the store) and checks every record is back.
    ///
    /// # Errors
    ///
    /// Fails when the reopened log holds a different number of records
    /// than were appended.
    pub fn finish(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let Some((wal, _dir)) = self.wal.take() else {
            return Ok(());
        };
        let device = wal.device().clone();
        drop(wal);
        let span = tr.enter("store.wal_replay");
        let (_, records) = Wal::open(device, REPLAY_LOG, wal_options());
        tr.exit(span);
        if records.len() != self.wal_records {
            return Err(format!(
                "replay: journal returned {} of {} records",
                records.len(),
                self.wal_records
            ));
        }
        Ok(())
    }
}
