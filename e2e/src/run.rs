//! One benchmark run: set-up, the measured open-loop phase, the joins and
//! output checks after the clock stops, and the metrics.
//!
//! The measured phase drives the hierarchy through `hc-core`'s public API
//! only. Arrivals are open-loop on the *virtual* clock: every op has a due
//! time drawn in set-up, it is submitted just before the first wave at or
//! after that time, and its latency runs from the due time — so a stalled
//! hierarchy is charged for the wait it imposes. Nothing is joined while
//! the wall clock runs: the loop only appends (message CID, block
//! timestamp) and (event, virtual time) pairs.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use hc_core::{HierarchyRuntime, RuntimeError, SubnetNode, UserHandle};
use hc_state::{Method, VmEvent};
use hc_types::crypto::sha256_block_count;
use hc_types::{Cid, SubnetId, TokenAmount};

use crate::replay::LayerReplay;
use crate::stats::{self, RatePoint};
use crate::trace::Tracer;
use crate::workloads::{
    scratch_dir, setup, PlannedOp, Rate, WorkloadCfg, World, ROUND_MS, XFER_BASE,
};

/// Latency limit of [`stats::rate_at_limit`], in virtual ms.
pub const LATENCY_LIMIT_VMS: f64 = 3_000.0;

/// Waves allowed after the last arrival before the run is declared stuck.
const DRAIN_WAVE_BOUND: u64 = 200_000;

/// Set-ups an untraced run times; `setup_s` is their median. The driver
/// judges `setup_s` run by run, and one set-up of a fraction of a second
/// on a container whose speed drifts is too noisy a sample for that. The
/// traced run reports no `setup_s` and sets up once.
const SETUP_REPS: usize = 5;

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Output-check failures; empty means correct.
    pub errors: Vec<String>,
    /// Ops submitted.
    pub attempted: u64,
    /// Ops that never committed (refused, evicted or still pending at the
    /// end), were reverted, or committed with a failed receipt.
    pub failed: u64,
    /// Every metric the run could compute, by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per subnet: id, head block CID, head state root.
    pub fingerprint: Vec<(String, String, String)>,
    /// Percentile the `commit_lat_p99_vms` metric actually holds: 99
    /// unless the sample was too small, as at smoke size.
    pub tail_pct: f64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
}

impl RunOutcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics that are a function of the seed alone.
    pub fn deterministic(&self) -> BTreeMap<&'static str, f64> {
        self.metrics
            .iter()
            .filter(|(name, _)| {
                crate::spec::metric(name).is_some_and(crate::spec::MetricSpec::is_deterministic)
            })
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

// Per-node counters that die with the node on a crash. Growth is summed
// over live nodes at the end; a crashed node's growth is banked at crash
// time so nothing is lost or counted twice.
const N_NODE_COUNTERS: usize = 14;
const C_HAMT_NODES: usize = 0;
const C_BYTES_HASHED: usize = 1;
const C_OVERLAY_HITS: usize = 2;
const C_OVERLAY_MISSES: usize = 3;
const C_SIG_HITS: usize = 4;
const C_SIG_MISSES: usize = 5;
const C_PULLS_SENT: usize = 6;
const C_PULLS_RETRIED: usize = 7;
const C_RESOLVER_HITS: usize = 8;
const C_RESOLVER_MISSES: usize = 9;
const C_EXTRA_ROUNDS: usize = 10;
const C_ORPHANED: usize = 11;
const C_INTERVAL_MS: usize = 12;
const C_USER_FAILED: usize = 13;

type NodeCounters = [u64; N_NODE_COUNTERS];

fn read_node(node: &SubnetNode) -> NodeCounters {
    let commit = node.state().commit_stats();
    let sig = node.sig_cache_stats();
    let res = node.resolver_stats();
    let stats = node.stats();
    let mut c = [0u64; N_NODE_COUNTERS];
    c[C_HAMT_NODES] = commit.hamt_nodes_hashed;
    c[C_BYTES_HASHED] = commit.bytes_hashed;
    c[C_OVERLAY_HITS] = commit.overlay_read_hits;
    c[C_OVERLAY_MISSES] = commit.overlay_read_misses;
    c[C_SIG_HITS] = sig.hits;
    c[C_SIG_MISSES] = sig.misses;
    c[C_PULLS_SENT] = res.pulls_sent;
    c[C_PULLS_RETRIED] = res.pulls_retried;
    c[C_RESOLVER_HITS] = res.cache_hits;
    c[C_RESOLVER_MISSES] = res.cache_misses;
    c[C_EXTRA_ROUNDS] = stats.extra_rounds;
    c[C_ORPHANED] = stats.orphaned;
    c[C_INTERVAL_MS] = stats.total_interval_ms;
    c[C_USER_FAILED] = stats.user_msgs_failed;
    c
}

/// Runtime-wide counters read through public accessors.
#[derive(Debug, Clone, Copy, Default)]
struct GlobalCounters {
    mempool: hc_chain::MempoolStats,
    store: hc_state::CidStoreStats,
    net: hc_net::NetStats,
    chaos: hc_core::ChaosStats,
    fsyncs: u64,
    journal_bytes: u64,
}

fn read_global(rt: &HierarchyRuntime) -> GlobalCounters {
    let (fsyncs, journal_bytes) = rt.persistence_device().map_or((0, 0), |d| {
        let bytes = d.streams().iter().map(|s| d.len(s)).sum();
        (d.sync_count(), bytes)
    });
    GlobalCounters {
        mempool: rt.mempool_stats(),
        store: rt.store_stats(),
        net: rt.net_stats(),
        chaos: rt.chaos_stats(),
        fsyncs,
        journal_bytes,
    }
}

/// Everything the measured loop appends to; joined after the clock stops.
#[derive(Default)]
struct Log {
    /// Per op: virtual time of the wave it was submitted ahead of.
    injected_vms: Vec<u64>,
    /// Message CID → op index.
    cid_of: HashMap<Cid, u32>,
    /// (message CID, block timestamp) of every signed message committed.
    commits: Vec<(Cid, u64)>,
    /// (op index, virtual time) of cross-net messages queued at source.
    queued: Vec<(u32, u64)>,
    /// Same, applied at the destination.
    applied: Vec<(u32, u64)>,
    /// Same, reverted.
    reverted: Vec<(u32, u64)>,
    /// Backlog (pending mempool messages) at each round boundary.
    backlog: Vec<u64>,
    waves: u64,
    blocks: u64,
    user_msgs: u64,
    checkpoints_cut: u64,
    checkpoints_committed: u64,
    checkpoint_bytes: u64,
    checkpoint_xmsgs: u64,
    /// SHA-256 compressions spent inside calls into the runtime.
    live_sha: u64,
    /// Wall seconds of waves run while the crashed leaf was catching up.
    catchup_s: f64,
    crash_vms: Option<u64>,
    crash_head: Option<(hc_types::ChainEpoch, Cid)>,
    outage_vms: Option<u64>,
    /// Replay-side seconds (traced run only), for the overhead estimate.
    replay_s: f64,
}

/// The op index a measured cross-net transfer carries in its amount.
fn op_of_value(value: TokenAmount, ops: usize) -> Option<u32> {
    let idx = value.atto().checked_sub(XFER_BASE)?;
    (idx < ops as u128).then_some(idx as u32)
}

/// Virtual time of the wave `step_wave` would produce next: the earliest
/// scheduled block, never at or before the current time.
fn next_wave_vms(rt: &HierarchyRuntime) -> u64 {
    rt.subnets()
        .filter_map(|s| rt.node(s))
        .map(SubnetNode::next_block_at_ms)
        .min()
        .unwrap_or(u64::MAX)
        .max(rt.now_ms() + 1)
}

fn rt_err(what: &str) -> impl Fn(RuntimeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

struct Phase<'a> {
    cfg: &'a WorkloadCfg,
    rt: &'a mut HierarchyRuntime,
    plan: &'a [PlannedOp],
    users: &'a [Vec<UserHandle>],
    /// The subnet that crashes, with its index, when the workload has a
    /// crash plan.
    leaf: Option<(SubnetId, u8)>,
    tr: &'a mut Tracer,
    replay: Option<LayerReplay>,
    log: Log,
    base_vms: u64,
    /// Per-node counters at the start of the phase.
    baseline: BTreeMap<SubnetId, NodeCounters>,
    /// Growth of nodes that no longer exist (the crashed leaf).
    carry: NodeCounters,
}

impl Phase<'_> {
    fn submit(&mut self, idx: u32, wave_vms: u64) -> Result<(), String> {
        let op = self.plan[idx as usize];
        let from = &self.users[op.src as usize][op.from as usize];
        let to = &self.users[op.dst as usize][op.to as usize];
        let amount = TokenAmount::from_atto(XFER_BASE + u128::from(idx));
        let fee = u64::from(op.fee);
        // A refused message never commits, which is how the joins count
        // it; the admission outcome adds nothing to that.
        let (cid, _) = if op.is_cross() {
            self.rt.cross_transfer_lazy_with_fee(from, to, amount, fee)
        } else {
            self.rt
                .submit_with_fee(from, to.addr, amount, Method::Send, fee)
        }
        .map_err(rt_err("submit"))?;
        self.log.injected_vms[idx as usize] = wave_vms;
        self.log.cid_of.insert(cid, idx);
        Ok(())
    }

    /// Submits `batch` ahead of the wave at `wave_vms`, timing local and
    /// cross-net submissions apart when tracing.
    fn inject(&mut self, batch: &[u32], wave_vms: u64) -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        let sha = sha256_block_count();
        if self.tr.enabled() {
            let start = self.tr.clock_ns();
            let (mut local_ns, mut cross_ns, mut locals, mut crosses) = (0u64, 0u64, 0u32, 0u32);
            for &idx in batch {
                let t = Instant::now();
                self.submit(idx, wave_vms)?;
                let ns = t.elapsed().as_nanos() as u64;
                if self.plan[idx as usize].is_cross() {
                    cross_ns += ns;
                    crosses += 1;
                } else {
                    local_ns += ns;
                    locals += 1;
                }
            }
            self.tr.aggregate("core.submit", start, local_ns, locals);
            self.tr
                .aggregate("core.xsubmit", start + local_ns, cross_ns, crosses);
        } else {
            for &idx in batch {
                self.submit(idx, wave_vms)?;
            }
        }
        self.log.live_sha += sha256_block_count() - sha;
        Ok(())
    }

    /// Runs one wave and appends what it committed and emitted.
    fn wave(&mut self) -> Result<(), String> {
        let leaf = self.leaf.as_ref().map(|(s, _)| s);
        let catching_up = leaf.is_some_and(|l| self.rt.is_catching_up(l));
        let published_before = self.replay.is_some().then(|| self.rt.net_stats().published);
        let sha = sha256_block_count();
        let t = Instant::now();
        let span = self.tr.enter("core.step_wave");
        let reports = self.rt.step_wave().map_err(rt_err("step_wave"))?;
        self.tr.exit(span);
        if catching_up {
            self.log.catchup_s += t.elapsed().as_secs_f64();
        }
        let span = self.tr.enter("core.drain_events");
        let events = self.rt.drain_events();
        self.tr.exit(span);
        self.log.live_sha += sha256_block_count() - sha;

        let now = self.rt.now_ms();
        self.log.waves += 1;
        for r in &reports {
            let block = self
                .rt
                .node(&r.subnet)
                .and_then(|n| n.chain().get_by_epoch(r.epoch))
                .ok_or_else(|| format!("block {} of {} is gone", r.epoch, r.subnet))?;
            self.log.blocks += 1;
            self.log.user_msgs += block.signed_msgs.len() as u64;
            let ts = block.header.timestamp_ms;
            self.log
                .commits
                .extend(block.signed_msgs.iter().map(|m| (m.msg_cid(), ts)));
            if self.log.outage_vms.is_none() && leaf == Some(&r.subnet) {
                if let Some(crashed_at) = self.log.crash_vms {
                    self.log.outage_vms = Some(r.at_ms - crashed_at);
                }
            }
        }
        let ops = self.plan.len();
        for (subnet, ev) in events {
            match ev {
                VmEvent::CrossMsgQueued { msg } if msg.from.subnet == subnet => {
                    if let Some(i) = op_of_value(msg.value, ops) {
                        self.log.queued.push((i, now));
                    }
                }
                VmEvent::CrossMsgApplied { msg } if msg.to.subnet == subnet => {
                    if let Some(i) = op_of_value(msg.value, ops) {
                        self.log.applied.push((i, now));
                    }
                }
                VmEvent::CrossMsgReverted { original, .. } => {
                    if let Some(i) = op_of_value(original.value, ops) {
                        self.log.reverted.push((i, now));
                    }
                }
                VmEvent::CheckpointCut { checkpoint } => {
                    self.log.checkpoints_cut += 1;
                    self.log.checkpoint_bytes += checkpoint.encoded_size() as u64;
                    self.log.checkpoint_xmsgs +=
                        checkpoint.cross_msgs.iter().map(|m| m.count).sum::<u64>();
                }
                VmEvent::CheckpointCommitted { .. } => self.log.checkpoints_committed += 1,
                _ => {}
            }
        }
        if let (Some(replay), Some(before)) = (&mut self.replay, published_before) {
            let t = Instant::now();
            let span = self.tr.enter("replay");
            let published = self.rt.net_stats().published - before;
            let replayed = replay.after_wave(self.tr, self.rt, &reports, published);
            self.tr.exit(span);
            self.log.replay_s += t.elapsed().as_secs_f64();
            replayed?;
        }
        Ok(())
    }

    /// The measured phase: inject on schedule, wave, until every op is in
    /// and the hierarchy is quiescent. Returns its wall seconds.
    fn measure(&mut self) -> Result<f64, String> {
        let ops = self.plan.len();
        self.log.injected_vms = vec![0; ops];
        self.log.cid_of.reserve(ops);
        self.log.commits.reserve(ops);

        let at_round = |r: u64| self.base_vms + r * ROUND_MS;
        let crash_at = self.cfg.crash.map(|c| at_round(c.crash_round));
        let rejoin_at = self
            .cfg
            .crash
            .map(|c| at_round(c.crash_round + c.down_rounds));
        let end_vms = at_round(self.cfg.rounds);
        let (mut crashed, mut rejoined) = (false, false);
        let mut held: Vec<u32> = Vec::new();
        let mut batch: Vec<u32> = Vec::new();
        let mut cursor = 0usize;
        let mut drain_waves = 0u64;

        let started = Instant::now();
        let run_span = self.tr.enter("run");
        loop {
            let wave_vms = next_wave_vms(self.rt);
            let round = wave_vms.saturating_sub(self.base_vms) / ROUND_MS;
            self.tr.round = round as u32;
            self.tr.wave = self.log.waves as u32;
            while (self.log.backlog.len() as u64) <= round.min(self.cfg.rounds) {
                self.log.backlog.push(self.rt.pool_stats().mempool_pending);
            }

            if let (Some((leaf, _)), Some(at)) = (&self.leaf, crash_at) {
                if !crashed && wave_vms >= at {
                    let node = self.rt.node(leaf).ok_or("leaf is gone before its crash")?;
                    // The rebuilt node counts from zero: bank what this
                    // one grew by, and drop its baseline.
                    let before = self.baseline.remove(leaf).unwrap_or_default();
                    for ((c, grown), b) in self.carry.iter_mut().zip(read_node(node)).zip(before) {
                        *c += grown - b;
                    }
                    self.log.crash_head = Some((node.chain().head_epoch(), node.chain().head()));
                    self.log.crash_vms = Some(self.rt.now_ms());
                    let span = self.tr.enter("core.crash_node");
                    self.rt.crash_node(leaf).map_err(rt_err("crash_node"))?;
                    self.tr.exit(span);
                    crashed = true;
                }
            }
            if let (Some((leaf, _)), Some(at)) = (&self.leaf, rejoin_at) {
                if crashed && !rejoined && wave_vms >= at {
                    let sha = sha256_block_count();
                    let span = self.tr.enter("core.rejoin_node");
                    self.rt.rejoin_node(leaf).map_err(rt_err("rejoin_node"))?;
                    self.tr.exit(span);
                    self.log.live_sha += sha256_block_count() - sha;
                    rejoined = true;
                    // The node is back (catching up): what queued up
                    // client-side while it was down goes in first, in due
                    // order, still timed from its original due time.
                    let backlog = std::mem::take(&mut held);
                    self.inject(&backlog, wave_vms)?;
                }
            }

            batch.clear();
            let down_leaf = (crashed && !rejoined)
                .then(|| self.leaf.as_ref().map(|(_, idx)| *idx))
                .flatten();
            while cursor < ops && self.base_vms + self.plan[cursor].due_ms() <= wave_vms {
                if Some(self.plan[cursor].src) == down_leaf {
                    held.push(cursor as u32);
                } else {
                    batch.push(cursor as u32);
                }
                cursor += 1;
            }
            self.inject(&batch, wave_vms)?;

            if cursor == ops && held.is_empty() && wave_vms >= end_vms {
                if self.rt.all_quiescent() {
                    break;
                }
                drain_waves += 1;
                if drain_waves > DRAIN_WAVE_BOUND {
                    return Err("hierarchy did not drain after the last arrival".into());
                }
            }
            self.wave()?;
        }
        self.tr.exit(run_span);
        Ok(started.elapsed().as_secs_f64())
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn fingerprint(rt: &HierarchyRuntime) -> Vec<(String, String, String)> {
    rt.subnets()
        .filter_map(|s| {
            let node = rt.node(s)?;
            let head = node.chain().head();
            let root = node.chain().get(&head).map(|b| b.header.state_root)?;
            Some((s.to_string(), head.to_string(), root.to_string()))
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs workload `cfg` once for `seed`.
///
/// # Errors
///
/// Returns a description when the run could not be carried through at
/// all (a runtime call failed, the hierarchy wedged). Output-check
/// failures of a completed run are reported in [`RunOutcome::errors`]
/// instead.
pub fn run(cfg: &WorkloadCfg, seed: u64, trace: bool) -> Result<RunOutcome, String> {
    // Set-up, repeated: the previous world is dropped first so peak
    // memory holds one world, not all of them.
    let mut setup_times = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(cfg, seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let World {
        mut rt,
        config,
        subnets,
        users,
        plan,
        journal,
    } = world.expect("at least one set-up ran");
    let setup_s = stats::median(&setup_times).expect("at least one set-up ran");

    let accounts: u64 = users.iter().map(|u| u.len() as u64).sum();
    let mut tracer = Tracer::new(trace);
    let replay = trace.then(|| LayerReplay::new(&rt, cfg.durable));

    let global_before = read_global(&rt);
    let baseline: BTreeMap<SubnetId, NodeCounters> = rt
        .subnets()
        .filter_map(|s| rt.node(s).map(|n| (s.clone(), read_node(n))))
        .collect();
    let leaf = cfg.crash.and_then(|_| {
        subnets
            .last()
            .map(|s| (s.clone(), (subnets.len() - 1) as u8))
    });

    let base_vms = rt.now_ms() + 1;
    let mut phase = Phase {
        cfg,
        rt: &mut rt,
        plan: &plan,
        users: &users,
        leaf: leaf.clone(),
        tr: &mut tracer,
        replay,
        log: Log::default(),
        base_vms,
        baseline,
        carry: [0; N_NODE_COUNTERS],
    };
    let measured_s = phase.measure()?;
    let Phase {
        mut replay,
        log,
        baseline,
        carry: mut node_total,
        ..
    } = phase;

    // ---- the wall clock has stopped; joins and checks from here ----
    let mut errors: Vec<String> = Vec::new();
    if let Some(r) = &mut replay {
        errors.extend(r.finish(&mut tracer).err());
    }
    let global_after = read_global(&rt);
    for s in rt.subnets() {
        let Some(node) = rt.node(s) else { continue };
        let before = baseline.get(s).copied().unwrap_or_default();
        for ((t, n), b) in node_total.iter_mut().zip(read_node(node)).zip(before) {
            *t += n - b;
        }
    }
    let topic_lat_p99 = rt
        .subnets()
        .filter_map(|s| rt.topic_latency(s))
        .map(|l| l.p99_ms)
        .max()
        .unwrap_or(0);

    let end_vms = rt.now_ms();
    let window_end = base_vms + cfg.rounds * ROUND_MS;
    let Joined {
        errors: join_errors,
        committed,
        committed_in_window,
        not_committed,
        reverted,
        mut commit_lat,
        mut xnet_lat,
        mut late,
    } = join(&plan, &log, base_vms, end_vms, window_end);
    errors.extend(join_errors);
    // Failed receipts cannot be attributed to single ops from outside the
    // runtime (receipts are not retained), only counted.
    let failed_receipts = node_total[C_USER_FAILED];
    let attempted = plan.len() as u64;
    let failed = not_committed + reverted + failed_receipts;
    let committed_ok = committed.saturating_sub(reverted + failed_receipts);

    errors.extend(
        hc_core::audit_quiescent(&rt)
            .err()
            .map(|e| format!("audit: {e}")),
    );
    // The rejoined leaf must hold the chain its peers held when it died.
    if let (Some((leaf, _)), Some((epoch, head))) = (&leaf, log.crash_head) {
        let extends = rt.node(leaf).map(SubnetNode::chain).is_some_and(|c| {
            c.get_by_epoch(epoch).map(hc_chain::Block::cid) == Some(head)
                || c.get_by_epoch(epoch.next()).map(|b| b.header.parent) == Some(head)
        });
        if !extends {
            errors.push(format!(
                "rejoined {leaf} does not extend its pre-crash head at epoch {epoch}"
            ));
        }
        if log.outage_vms.is_none() {
            errors.push(format!("{leaf} produced no block after rejoining"));
        }
        let chaos = global_after.chaos;
        if chaos.crashes - global_before.chaos.crashes != 1
            || chaos.catch_ups_completed - global_before.chaos.catch_ups_completed != 1
        {
            errors.push(format!("{leaf} did not crash and catch up exactly once"));
        }
    }

    let heads = fingerprint(&rt);
    let mut recover_s = 0.0;
    if cfg.durable {
        let roots = |rt: &HierarchyRuntime| -> Vec<Cid> {
            rt.subnets()
                .filter_map(|s| rt.node(s).map(|n| n.state().recompute_root()))
                .collect()
        };
        let roots_before = roots(&rt);
        // Dropping the runtime is the whole-process crash; only what the
        // journal holds comes back.
        drop(rt);
        let t = Instant::now();
        let span = tracer.enter("core.recover");
        let recovered = HierarchyRuntime::recover(config);
        tracer.exit(span);
        recover_s = t.elapsed().as_secs_f64();
        if fingerprint(&recovered) != heads {
            errors.push("recovered heads differ from the heads before the drop".into());
        }
        if roots(&recovered) != roots_before {
            errors.push("recovered state roots differ from the roots before the drop".into());
        }
    }

    // ---- metrics ----
    // The curve reads latencies by op, so before `summarize` sorts them.
    let curve = rate_curve(cfg, &plan, &commit_lat, &log.backlog);
    let commit = stats::summarize(&mut commit_lat);
    let xnet = stats::summarize(&mut xnet_lat);
    late.sort_unstable();
    let late_p99 = stats::percentile(&late, 99.0)
        .or_else(|_| stats::percentile(&late, 75.0))
        .unwrap_or(0);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_msg = |x: u64| ratio(x, committed_ok);
    let span_s = |name: &str| tracer.total_s(name);
    let tput_virt = committed_in_window as f64 * 1e3 / (cfg.rounds * ROUND_MS) as f64;
    let counts = replay.as_ref().map(|r| r.counts).unwrap_or_default();
    let (net_a, net_b) = (global_after.net, global_before.net);
    let (pool_a, pool_b) = (global_after.mempool, global_before.mempool);
    let (chaos_a, chaos_b) = (global_after.chaos, global_before.chaos);
    let puts_hit = global_after.store.put_hits - global_before.store.put_hits;
    let puts_miss = global_after.store.put_misses - global_before.store.put_misses;
    let step_wave_s = span_s("core.step_wave");
    // What the replays of in-wave work explain of the live wave.
    // `state.flush` is left out: `chain.execute` already derives the
    // block's state root once, as the live path does.
    let explained: f64 = [
        "chain.select",
        "chain.schedule",
        "chain.execute",
        "state.persist",
        "types.encode_cid",
        "store.wal_append",
        "net.gossip",
    ]
    .iter()
    .map(|n| span_s(n))
    .sum();

    m.insert("setup_s", setup_s);
    m.insert("commit_tput_wall", committed_ok as f64 / measured_s);
    m.insert("commit_tput_virt", tput_virt);
    m.insert("commit_lat_p50_vms", commit.map_or(0.0, |c| c.p50 / 1e3));
    m.insert("commit_lat_p99_vms", commit.map_or(0.0, |c| c.tail / 1e3));
    m.insert("sha256_per_msg", per_msg(log.live_sha));
    m.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    m.insert("xnet_lat_p50_vms", xnet.map_or(0.0, |x| x.p50 / 1e3));
    m.insert("xnet_lat_p99_vms", xnet.map_or(0.0, |x| x.tail / 1e3));
    m.insert(
        "rate_at_limit_virt",
        curve
            .and_then(|c| stats::rate_at_limit(&c, LATENCY_LIMIT_VMS))
            .unwrap_or(0.0),
    );
    m.insert("outage_vms", log.outage_vms.unwrap_or(0) as f64);
    m.insert("failed_share", ratio(failed, attempted));
    m.insert(
        "trace_overhead_share",
        if trace && measured_s > log.replay_s {
            measured_s / (measured_s - log.replay_s) - 1.0
        } else {
            0.0
        },
    );
    m.insert("workload.submitted", attempted as f64);
    m.insert("workload.accounts_materialized", accounts as f64);
    m.insert("workload.gen_late_p99_vms", late_p99 as f64 / 1e3);
    m.insert(
        "workload.commit_lat_samples",
        commit.map_or(0, |c| c.n) as f64,
    );
    m.insert("workload.xnet_lat_samples", xnet.map_or(0, |x| x.n) as f64);

    m.insert("core.submit_s", span_s("core.submit"));
    m.insert("core.xsubmit_s", span_s("core.xsubmit"));
    m.insert("core.step_wave_s", step_wave_s);
    m.insert("core.drain_events_s", span_s("core.drain_events"));
    m.insert("core.recover_s", recover_s);
    m.insert("core.rejoin_catchup_s", log.catchup_s);
    m.insert("core.waves", log.waves as f64);
    m.insert("core.wave_width_mean", ratio(log.blocks, log.waves));
    m.insert(
        "core.tput_virt_per_subnet",
        tput_virt / subnets.len() as f64,
    );
    m.insert(
        "core.blocks_caught_up",
        (chaos_a.blocks_caught_up - chaos_b.blocks_caught_up) as f64,
    );
    m.insert(
        "core.snapshot_installs",
        (chaos_a.snapshot_installs - chaos_b.snapshot_installs) as f64,
    );
    m.insert(
        "core.unattributed_share",
        if step_wave_s > 0.0 {
            (1.0 - explained / step_wave_s).max(0.0)
        } else {
            0.0
        },
    );

    m.insert("chain.admit_s", span_s("chain.admit"));
    m.insert("chain.select_s", span_s("chain.select"));
    m.insert("chain.schedule_s", span_s("chain.schedule"));
    m.insert("chain.execute_s", span_s("chain.execute"));
    m.insert("chain.blocks", log.blocks as f64);
    m.insert("chain.msgs_per_block", ratio(log.user_msgs, log.blocks));
    m.insert(
        "chain.mempool_admitted",
        (pool_a.admitted - pool_b.admitted) as f64,
    );
    m.insert(
        "chain.mempool_evicted",
        (pool_a.evicted - pool_b.evicted) as f64,
    );
    m.insert(
        "chain.mempool_rejected_full",
        (pool_a.rejected_full - pool_b.rejected_full) as f64,
    );
    m.insert(
        "chain.mempool_high_water_bytes",
        pool_a.high_water_bytes as f64,
    );
    m.insert(
        "chain.sched_lanes_per_block",
        ratio(counts.lanes, counts.blocks),
    );
    m.insert(
        "chain.sched_critical_path_share",
        ratio(counts.critical_path, counts.scheduled_msgs),
    );

    m.insert("state.flush_s", span_s("state.flush"));
    m.insert("state.persist_s", span_s("state.persist"));
    m.insert(
        "state.hamt_nodes_hashed_per_msg",
        per_msg(node_total[C_HAMT_NODES]),
    );
    m.insert(
        "state.bytes_hashed_per_msg",
        per_msg(node_total[C_BYTES_HASHED]),
    );
    m.insert("state.blob_puts_per_msg", per_msg(puts_hit + puts_miss));
    m.insert(
        "state.blob_put_hit_ratio",
        ratio(puts_hit, puts_hit + puts_miss),
    );
    m.insert(
        "state.sigcache_hit_ratio",
        ratio(
            node_total[C_SIG_HITS],
            node_total[C_SIG_HITS] + node_total[C_SIG_MISSES],
        ),
    );
    m.insert(
        "state.overlay_read_hit_ratio",
        ratio(
            node_total[C_OVERLAY_HITS],
            node_total[C_OVERLAY_HITS] + node_total[C_OVERLAY_MISSES],
        ),
    );

    m.insert("types.sha256_blocks", log.live_sha as f64);
    m.insert("types.encode_cid_s", span_s("types.encode_cid"));
    m.insert(
        "types.encoded_bytes_per_msg",
        ratio(counts.encoded_bytes, counts.msgs),
    );

    m.insert("consensus.extra_rounds", node_total[C_EXTRA_ROUNDS] as f64);
    m.insert("consensus.orphaned", node_total[C_ORPHANED] as f64);
    m.insert(
        "consensus.block_interval_mean_vms",
        ratio(node_total[C_INTERVAL_MS], log.blocks),
    );

    m.insert("net.gossip_s", span_s("net.gossip"));
    m.insert(
        "net.published_per_msg",
        per_msg(net_a.published - net_b.published),
    );
    m.insert(
        "net.delivered_ratio",
        ratio(
            net_a.delivered - net_b.delivered,
            net_a.scheduled - net_b.scheduled,
        ),
    );
    m.insert("net.topic_lat_p99_vms", topic_lat_p99 as f64);
    m.insert("net.pulls_sent", node_total[C_PULLS_SENT] as f64);
    m.insert("net.pulls_retried", node_total[C_PULLS_RETRIED] as f64);
    m.insert(
        "net.push_hit_ratio",
        ratio(
            node_total[C_RESOLVER_HITS],
            node_total[C_RESOLVER_HITS] + node_total[C_RESOLVER_MISSES],
        ),
    );

    m.insert("actors.checkpoints_cut", log.checkpoints_cut as f64);
    m.insert(
        "actors.checkpoints_committed",
        log.checkpoints_committed as f64,
    );
    m.insert(
        "actors.checkpoint_bytes_per_msg",
        per_msg(log.checkpoint_bytes),
    );
    m.insert(
        "actors.xmsgs_per_checkpoint",
        ratio(log.checkpoint_xmsgs, log.checkpoints_cut),
    );
    m.insert("actors.cross_applied", log.applied.len() as f64);
    m.insert("actors.cross_reverted", log.reverted.len() as f64);

    m.insert("store.wal_append_s", span_s("store.wal_append"));
    m.insert("store.wal_replay_s", span_s("store.wal_replay"));
    m.insert(
        "store.fsyncs_per_msg",
        per_msg(global_after.fsyncs - global_before.fsyncs),
    );
    m.insert(
        "store.journal_bytes_per_msg",
        per_msg(global_after.journal_bytes - global_before.journal_bytes),
    );

    if trace {
        let path = scratch_dir().join(format!("trace-{}.jsonl", cfg.spec.name));
        errors.extend(
            tracer
                .write_jsonl(&path, cfg.spec.name)
                .err()
                .map(|e| format!("trace: {e}")),
        );
    }
    drop(journal);

    Ok(RunOutcome {
        errors,
        attempted,
        failed,
        metrics: m,
        fingerprint: heads,
        tail_pct: commit.map_or(0.0, |c| c.tail_pct),
        measured_s,
    })
}

/// What the joins make of the measured phase's log.
#[derive(Debug, Default)]
struct Joined {
    /// Output-check failures.
    errors: Vec<String>,
    /// Ops committed exactly once.
    committed: u64,
    /// Those of them committed before the injection window closed.
    committed_in_window: u64,
    /// Ops in no committed block: refused at admission, evicted, or still
    /// pending when the run ended.
    not_committed: u64,
    /// Committed cross-net ops that were reverted, not applied.
    reverted: u64,
    /// Per op, due time → commit, in virtual microseconds: due times are
    /// continuous, block times whole ms. An op that never commits misses
    /// every limit: its latency is censored at the end of the run, the
    /// longest it can be.
    commit_lat: Vec<u64>,
    /// Per committed cross-net op, due time → applied at the destination
    /// (censored like `commit_lat` when reverted).
    xnet_lat: Vec<u64>,
    /// Per op, due time → the wave it was submitted ahead of.
    late: Vec<u64>,
}

/// Joins the appended (message CID, block time) and (event, time) pairs
/// back to the ops that caused them, and checks that every op is
/// accounted for exactly once.
fn join(plan: &[PlannedOp], log: &Log, base_vms: u64, end_vms: u64, window_end: u64) -> Joined {
    let ops = plan.len();
    let mut commit_vms = vec![0u64; ops];
    let mut commit_seen = vec![0u8; ops];
    for (cid, ts) in &log.commits {
        if let Some(&i) = log.cid_of.get(cid) {
            commit_vms[i as usize] = *ts;
            commit_seen[i as usize] = commit_seen[i as usize].saturating_add(1);
        }
    }
    let mut queued = vec![0u8; ops];
    let mut settled = vec![0u8; ops];
    let mut applied_vms = vec![0u64; ops];
    let mut is_reverted = vec![false; ops];
    for (i, _) in &log.queued {
        queued[*i as usize] = queued[*i as usize].saturating_add(1);
    }
    for (i, at) in &log.applied {
        settled[*i as usize] = settled[*i as usize].saturating_add(1);
        applied_vms[*i as usize] = *at;
    }
    for (i, _) in &log.reverted {
        settled[*i as usize] = settled[*i as usize].saturating_add(1);
        is_reverted[*i as usize] = true;
    }

    let mut j = Joined::default();
    let since = |at_vms: u64, due_us: u64| (at_vms * 1_000).saturating_sub(due_us);
    for (i, op) in plan.iter().enumerate() {
        let due = base_vms * 1_000 + op.due_us;
        j.late.push(since(log.injected_vms[i], due));
        let censored = since(end_vms, due);
        match commit_seen[i] {
            0 => {
                j.not_committed += 1;
                j.commit_lat.push(censored);
            }
            1 => {
                j.committed += 1;
                j.commit_lat.push(since(commit_vms[i], due));
                if commit_vms[i] <= window_end {
                    j.committed_in_window += 1;
                }
            }
            seen => {
                j.errors
                    .push(format!("op {i} appears in {seen} committed blocks"));
                j.commit_lat.push(censored);
            }
        }
        if op.is_cross() && commit_seen[i] == 1 {
            if queued[i] != 1 || settled[i] != 1 {
                j.errors.push(format!(
                    "cross-net op {i}: queued {} times, applied or reverted {} times",
                    queued[i], settled[i]
                ));
            } else if is_reverted[i] {
                j.reverted += 1;
                j.xnet_lat.push(censored);
            } else {
                j.xnet_lat.push(since(applied_vms[i], due));
            }
        } else if !op.is_cross() && (queued[i] != 0 || settled[i] != 0) {
            j.errors
                .push(format!("local op {i} produced cross-net events"));
        }
    }
    j.errors.truncate(20);
    if j.committed != log.user_msgs {
        j.errors.push(format!(
            "{} user messages were committed, {} of them ops of this run",
            log.user_msgs, j.committed
        ));
    }
    j
}

/// The latency-versus-rate curve of a ramped workload: one point per ramp
/// step, pooling the ops due in that step over every cycle. `commit_lat`
/// is indexed like `plan`. `None` for constant-rate workloads.
fn rate_curve(
    cfg: &WorkloadCfg,
    plan: &[PlannedOp],
    commit_lat: &[u64],
    backlog: &[u64],
) -> Option<Vec<RatePoint>> {
    let Rate::Sawtooth { cycle, .. } = cfg.rate else {
        return None;
    };
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); cycle as usize];
    for (op, l) in plan.iter().zip(commit_lat) {
        let step = (op.due_us / 1_000 / ROUND_MS % cycle) as usize;
        lat[step].push(*l);
    }
    // A step's backlog grew if, summed over the cycles, more was pending
    // at its end than at its start.
    let mut growth = vec![0i64; cycle as usize];
    for (round, pair) in backlog.windows(2).enumerate() {
        growth[round % cycle as usize] += pair[1] as i64 - pair[0] as i64;
    }
    Some(
        lat.iter_mut()
            .enumerate()
            .filter_map(|(step, samples)| {
                samples.sort_unstable();
                let tail = stats::percentile(samples, 99.0)
                    .or_else(|_| stats::percentile(samples, 90.0))
                    .ok()?;
                Some(RatePoint {
                    rate: cfg.rate.at(step as u64) as f64 * 1e3 / ROUND_MS as f64,
                    tail_latency: tail as f64 / 1e3,
                    backlog_grew: growth[step] > 0,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(due_us: u64, dst: u8) -> PlannedOp {
        PlannedOp {
            due_us,
            src: 0,
            dst,
            from: 0,
            to: 1,
            fee: 1,
        }
    }

    /// A hand-built log with one op of every class the workloads are sized
    /// never to produce, next to the two they do.
    #[test]
    fn join_puts_every_op_in_one_class_and_censors_what_never_commits() {
        let plan = [
            op(100_000, 0), // local, committed
            op(200_000, 1), // cross-net, committed and applied
            op(300_000, 0), // never committed
            op(400_000, 1), // cross-net, committed and reverted
        ];
        let cid = |i: u8| Cid::digest(&[i]);
        let mut log = Log {
            injected_vms: vec![1_101, 1_201, 1_301, 1_401],
            commits: vec![(cid(0), 2_000), (cid(1), 2_000), (cid(3), 9_000)],
            queued: vec![(1, 2_000), (3, 9_000)],
            applied: vec![(1, 2_600)],
            reverted: vec![(3, 9_500)],
            user_msgs: 3,
            ..Log::default()
        };
        log.cid_of = (0..4).map(|i| (cid(i), u32::from(i))).collect();

        let j = join(&plan, &log, 1_000, 10_000, 5_000);
        assert_eq!(j.errors, Vec::<String>::new());
        assert_eq!((j.committed, j.committed_in_window), (3, 2));
        assert_eq!((j.not_committed, j.reverted), (1, 1));
        // Due at 1 000 vms + due_us; committed at 2 000 or 9 000 vms; the
        // op that never commits is charged up to the end, 10 000 vms.
        assert_eq!(j.commit_lat, [900_000, 800_000, 8_700_000, 7_600_000]);
        assert_eq!(j.xnet_lat, [1_400_000, 8_600_000]);
        assert_eq!(j.late, [1_000, 1_000, 1_000, 1_000]);
    }

    #[test]
    fn join_reports_ops_seen_twice_or_settled_wrongly() {
        let plan = [op(0, 0), op(0, 1), op(0, 0)];
        let cid = |i: u8| Cid::digest(&[i]);
        let mut log = Log {
            injected_vms: vec![1_000; 3],
            // Op 0 is in two blocks; op 1 is applied twice; op 2, local,
            // shows up as a cross-net event; one commit is of no op.
            commits: vec![
                (cid(0), 2_000),
                (cid(0), 3_000),
                (cid(1), 2_000),
                (cid(2), 2_000),
                (cid(9), 2_000),
            ],
            queued: vec![(1, 2_000), (2, 2_000)],
            applied: vec![(1, 2_500), (1, 2_600)],
            user_msgs: 5,
            ..Log::default()
        };
        log.cid_of = (0..3).map(|i| (cid(i), u32::from(i))).collect();

        let j = join(&plan, &log, 1_000, 4_000, 4_000);
        assert_eq!(j.errors.len(), 4, "{:?}", j.errors);
        assert_eq!(j.commit_lat.len(), plan.len());
    }
}
