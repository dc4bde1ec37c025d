//! The four workloads: their parameters, and the set-up that turns a
//! seed into a funded hierarchy plus a pre-drawn open-loop arrival plan.
//!
//! Everything here runs before the measured phase and is what `setup_s`
//! times: topology spawn, account materialisation (minted at the root,
//! funded top-down below it) and drawing every [`PlannedOp`] from
//! [`hc_workload::OpenLoopGenerator`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hc_chain::MempoolConfig;
use hc_consensus::EngineParams;
use hc_core::{HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode, UserHandle};
use hc_sim::TopologyBuilder;
use hc_store::FsyncPolicy;
use hc_types::{SubnetId, TokenAmount};
use hc_workload::OpenLoopGenerator;

use crate::spec::{WorkloadSpec, WORKLOADS};

/// Virtual milliseconds per injection round: one block time of the
/// default round-robin engine.
pub const ROUND_MS: u64 = 1_000;

/// Highest fee bid drawn (bids are uniform in `1..=MAX_FEE`).
pub const MAX_FEE: u64 = 9;

/// Every node's mempool byte budget.
pub const MEMPOOL_BYTES: usize = 1 << 20;

/// Base of every measured transfer amount, in atto. A cross-net transfer
/// carries `XFER_BASE + op index`, which is how its arrival at the
/// destination is joined back to the op that sent it.
pub const XFER_BASE: u128 = 1_000_000;

/// Arrival rate per subnet as a function of the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// The same number of messages every round.
    Constant(u64),
    /// A linear ramp from `start` to `end` over `cycle` rounds, repeated.
    /// The steps above block capacity build a backlog that the low steps
    /// of the next cycle drain, so no message is ever refused.
    Sawtooth {
        /// Rate at the first round of a cycle.
        start: u64,
        /// Rate at the last round of a cycle.
        end: u64,
        /// Rounds per cycle.
        cycle: u64,
    },
}

impl Rate {
    /// Messages per subnet due in `round`.
    pub fn at(self, round: u64) -> u64 {
        match self {
            Rate::Constant(r) => r,
            Rate::Sawtooth { start, end, cycle } => {
                let k = round % cycle;
                start + (end - start) * k / (cycle - 1).max(1)
            }
        }
    }

    /// Rounds after which the rate pattern repeats.
    pub fn cycle(self) -> u64 {
        match self {
            Rate::Constant(_) => 1,
            Rate::Sawtooth { cycle, .. } => cycle,
        }
    }
}

/// A leaf crash inside the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Round at whose boundary the last leaf is crashed.
    pub crash_round: u64,
    /// Rounds the leaf stays down before it is rejoined.
    pub down_rounds: u64,
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// Rounds sized so the measured phase lasts about this many wall
    /// seconds on the reference container.
    Seconds(f64),
    /// A few rounds of a scaled-down hierarchy: seconds in a debug build.
    Smoke,
}

/// One workload's parameters at one size.
#[derive(Debug, Clone)]
pub struct WorkloadCfg {
    /// Name and rationale.
    pub spec: &'static WorkloadSpec,
    /// Children per subnet.
    pub fanout: usize,
    /// Levels below the root (`0` = rootnet only).
    pub depth: usize,
    /// Logical accounts per subnet.
    pub population: u64,
    /// Zipf exponent of account popularity (`0.0` = uniform).
    pub zipf: f64,
    /// Arrivals per subnet per round.
    pub rate: Rate,
    /// Share of messages addressed to another subnet.
    pub cross_ratio: f64,
    /// `RuntimeConfig::parallelism`.
    pub parallelism: usize,
    /// Messages per block.
    pub block_capacity: usize,
    /// Journal to an on-disk device with fsync and snapshot sync.
    pub durable: bool,
    /// Crash and rejoin the last leaf during the run.
    pub crash: Option<CrashPlan>,
    /// Injection rounds.
    pub rounds: u64,
}

/// Measured rounds per wall second on the reference 2-core container, per
/// workload in [`WORKLOADS`] order. They only size the run: `--seconds`
/// times this gives the round count, so the work is the same on every
/// machine and every commit, and counters repeat exactly.
const NOMINAL_ROUNDS_PER_S: [f64; 4] = [42.0, 16.0, 16.0, 22.0];

impl WorkloadCfg {
    /// The configuration of workload `name` at `size`.
    pub fn named(name: &str, size: Size) -> Option<WorkloadCfg> {
        let idx = WORKLOADS.iter().position(|w| w.name == name)?;
        let smoke = size == Size::Smoke;
        // The 7-subnet tree at a constant rate; the other workloads state
        // what they change.
        let tree = WorkloadCfg {
            spec: &WORKLOADS[idx],
            fanout: 2,
            depth: 2,
            population: if smoke { 48 } else { 256 },
            zipf: 0.0,
            rate: Rate::Constant(if smoke { 60 } else { 300 }),
            cross_ratio: 0.0,
            parallelism: 1,
            block_capacity: if smoke {
                100
            } else {
                EngineParams::default().block_capacity
            },
            durable: false,
            crash: None,
            rounds: 0,
        };
        let mut cfg = match name {
            "root-ramp" => WorkloadCfg {
                fanout: 0,
                depth: 0,
                population: if smoke { 20_000 } else { 1_000_000 },
                zipf: 1.05,
                // The mean stays below block capacity so each cycle's
                // backlog drains; the top steps exceed it by 60 %.
                rate: if smoke {
                    Rate::Sawtooth {
                        start: 20,
                        end: 160,
                        cycle: 20,
                    }
                } else {
                    Rate::Sawtooth {
                        start: 100,
                        end: 800,
                        cycle: 40,
                    }
                },
                ..tree
            },
            "tree-xnet" => WorkloadCfg {
                cross_ratio: 0.25,
                ..tree
            },
            "tree-durable-crash" => WorkloadCfg {
                cross_ratio: 0.05,
                durable: true,
                crash: Some(CrashPlan {
                    crash_round: 12,
                    down_rounds: 4,
                }),
                ..tree
            },
            "flat8-par2" => WorkloadCfg {
                fanout: 8,
                depth: 1,
                zipf: 1.1,
                rate: Rate::Constant(if smoke { 60 } else { 400 }),
                cross_ratio: 0.02,
                parallelism: 2,
                ..tree
            },
            _ => return None,
        };
        let cycle = cfg.rate.cycle();
        let wanted = match size {
            Size::Smoke => 24,
            Size::Seconds(s) => (s * NOMINAL_ROUNDS_PER_S[idx]).ceil().max(1.0) as u64,
        };
        // Whole cycles only, and never so short that the crash, the
        // rejoin and two checkpoint periods do not fit.
        cfg.rounds = wanted.max(24).div_ceil(cycle) * cycle;
        Some(cfg)
    }

    /// Subnets in the hierarchy, the root included.
    pub fn subnet_count(&self) -> usize {
        let mut level = 1usize;
        let mut total = 1usize;
        for _ in 0..self.depth {
            level *= self.fanout;
            total += level;
        }
        total
    }
}

/// One pre-drawn arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// Virtual microseconds after the start of the measured phase at
    /// which the message is due. Arrivals are continuous in time; the
    /// runtime's clock ticks in whole milliseconds.
    pub due_us: u64,
    /// Index of the sender's subnet in [`World::subnets`].
    pub src: u8,
    /// Index of the receiver's subnet; differs from `src` for cross-net.
    pub dst: u8,
    /// Sender's index in its subnet's account table.
    pub from: u32,
    /// Receiver's index in its subnet's account table.
    pub to: u32,
    /// Fee bid.
    pub fee: u8,
}

impl PlannedOp {
    /// The first whole virtual millisecond at or after the due time.
    pub fn due_ms(&self) -> u64 {
        self.due_us.div_ceil(1_000)
    }

    /// Whether the message crosses subnets.
    pub fn is_cross(&self) -> bool {
        self.src != self.dst
    }
}

/// A set-up hierarchy ready for its measured phase.
pub struct World {
    /// The runtime, quiescent, with its event queue drained.
    pub rt: HierarchyRuntime,
    /// The configuration `rt` was built with (what `recover` needs).
    pub config: RuntimeConfig,
    /// Every subnet, root first, then breadth-first spawn order.
    pub subnets: Vec<SubnetId>,
    /// Funded accounts per subnet, indexed like `subnets`.
    pub users: Vec<Vec<UserHandle>>,
    /// The arrival plan, ascending in `due_ms`.
    pub plan: Vec<PlannedOp>,
    /// Directory of the on-disk device, for durable workloads.
    pub journal: Option<JournalDir>,
}

/// A journal directory that is removed when the value is dropped.
#[derive(Debug)]
pub struct JournalDir(pub PathBuf);

impl JournalDir {
    /// A directory under [`scratch_dir`] that no other call in this
    /// process, and no other process, is given. The device that journals
    /// there creates it.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        JournalDir(scratch_dir().join(format!(
            "journal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits under the build
        // directory and is removed by the next clean.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Directory for files a run writes (journals, traces): a sibling of the
/// executable, so it is inside the build directory of whatever checkout
/// the binary was built in.
pub fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("e2e")
}

/// Draws the arrival plan: per round and subnet, `rate.at(round)` ops from
/// that subnet's own seeded generator, each with a due offset uniform
/// within the round. Returns the plan (ascending in due time, over
/// *logical* account indices) — the generators see only the seed.
fn draw_plan(cfg: &WorkloadCfg, seed: u64) -> Vec<PlannedOp> {
    let subnets = cfg.subnet_count();
    let mut gens: Vec<OpenLoopGenerator> = (0..subnets)
        .map(|s| {
            OpenLoopGenerator::new(
                cfg.population,
                cfg.zipf,
                seed ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                MAX_FEE,
            )
        })
        .collect();
    let mut shape = StdRng::seed_from_u64(seed ^ 0x5eed_5ba9_e0ff_5e75);
    let mut plan = Vec::new();
    for round in 0..cfg.rounds {
        let start = plan.len();
        for (s, gen) in gens.iter_mut().enumerate() {
            for _ in 0..cfg.rate.at(round) {
                let op = gen.next_op();
                let cross = subnets > 1 && shape.gen_bool(cfg.cross_ratio);
                let dst = if cross {
                    // Uniform over the other subnets: descendants make it
                    // top-down, ancestors bottom-up, the rest path.
                    let pick = shape.gen_range(0..subnets - 1);
                    pick + usize::from(pick >= s)
                } else {
                    s
                };
                plan.push(PlannedOp {
                    due_us: (round * ROUND_MS + shape.gen_range(0..ROUND_MS)) * 1_000
                        + shape.gen_range(0..1_000u64),
                    src: s as u8,
                    dst: dst as u8,
                    from: op.sender as u32,
                    to: op.receiver as u32,
                    fee: op.fee as u8,
                });
            }
        }
        plan[start..].sort_by_key(|op| op.due_us);
    }
    plan
}

/// Builds workload `cfg` for `seed`: spawns the hierarchy, draws the
/// plan, materialises and funds exactly the accounts the plan touches,
/// and settles to quiescence.
///
/// # Errors
///
/// Returns a description of the first runtime failure.
pub fn setup(cfg: &WorkloadCfg, seed: u64) -> Result<World, String> {
    let journal = cfg.durable.then(JournalDir::fresh);
    let config = RuntimeConfig {
        engine_params: EngineParams {
            block_capacity: cfg.block_capacity,
            ..EngineParams::default()
        },
        parallelism: cfg.parallelism,
        mempool: MempoolConfig {
            capacity_bytes: MEMPOOL_BYTES,
            ..MempoolConfig::default()
        },
        persistence: match &journal {
            Some(dir) => PersistenceConfig::on_disk_with_fsync(&dir.0, FsyncPolicy::Always),
            None => PersistenceConfig::InMemory,
        },
        sync_mode: if cfg.durable {
            SyncMode::Snapshot
        } else {
            SyncMode::Replay
        },
        ..RuntimeConfig::default()
    };
    let topo = TopologyBuilder::new()
        .runtime_config(config.clone())
        .users_per_subnet(0)
        .tree(cfg.fanout, cfg.depth)
        .map_err(|e| format!("topology: {e}"))?;
    let mut rt = topo.rt;
    let banker = topo.banker;
    let mut subnets = vec![SubnetId::root()];
    subnets.extend(topo.subnets);

    // Logical account indices are sparse (a Zipf draw over a million
    // touches a fraction); number the touched ones densely per subnet, in
    // index order so the address assignment depends on the seed alone.
    let mut plan = draw_plan(cfg, seed);
    let mut touched: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); subnets.len()];
    for op in &plan {
        touched[op.src as usize].insert(op.from, 0);
        touched[op.dst as usize].insert(op.to, 0);
    }
    for table in &mut touched {
        for (dense, slot) in table.values_mut().enumerate() {
            *slot = dense as u32;
        }
    }
    for op in &mut plan {
        op.from = touched[op.src as usize][&op.from];
        op.to = touched[op.dst as usize][&op.to];
    }

    let root_balance = TokenAmount::from_whole(100);
    let child_balance = TokenAmount::from_whole(10_000);
    let mut users: Vec<Vec<UserHandle>> = Vec::with_capacity(subnets.len());
    for (subnet, table) in subnets.iter().zip(&touched) {
        let mut handles = Vec::with_capacity(table.len());
        for _ in 0..table.len() {
            let handle = if subnet.is_root() {
                rt.create_user(subnet, root_balance)
            } else {
                rt.create_user(subnet, TokenAmount::ZERO).and_then(|u| {
                    rt.cross_transfer_lazy_with_fee(&banker, &u, child_balance, MAX_FEE)
                        .map(|_| u)
                })
            };
            handles.push(handle.map_err(|e| format!("account: {e}"))?);
        }
        users.push(handles);
        // Settle per subnet so the banker's funding lane never outgrows
        // the mempool's byte budget.
        rt.run_until_quiescent(1_000_000)
            .map_err(|e| format!("funding: {e}"))?;
    }
    if !rt.all_quiescent() {
        return Err("set-up did not reach quiescence".into());
    }
    for (subnet, handles) in subnets.iter().zip(&users).skip(1) {
        if let Some(u) = handles.iter().find(|u| rt.balance(u) != child_balance) {
            return Err(format!("account {u} in {subnet} was not funded"));
        }
    }
    rt.drain_events();

    Ok(World {
        rt,
        config,
        subnets,
        users,
        plan,
        journal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_repeats_and_hits_both_ends() {
        let r = Rate::Sawtooth {
            start: 100,
            end: 800,
            cycle: 40,
        };
        assert_eq!(r.at(0), 100);
        assert_eq!(r.at(39), 800);
        assert_eq!(r.at(40), 100);
        assert_eq!(r.at(79), 800);
        let mean: u64 = (0..40).map(|k| r.at(k)).sum::<u64>() / 40;
        assert!(
            mean < 500,
            "mean rate {mean} must stay under block capacity"
        );
    }

    #[test]
    fn every_declared_workload_has_a_configuration() {
        for w in WORKLOADS {
            let full = WorkloadCfg::named(w.name, Size::Seconds(6.0)).unwrap();
            let smoke = WorkloadCfg::named(w.name, Size::Smoke).unwrap();
            assert_eq!(full.rounds % full.rate.cycle(), 0);
            assert!(smoke.rounds < full.rounds);
            if let Some(c) = full.crash {
                assert!(c.crash_round + c.down_rounds < smoke.rounds);
            }
            // Even the shortest time-sized run plans enough cross-net ops
            // for a p99 with ten samples beyond it (1 000), with room for
            // the draw to fall short.
            let shortest = WorkloadCfg::named(w.name, Size::Seconds(0.001)).unwrap();
            let cross = shortest.rounds as f64
                * shortest.rate.at(0) as f64
                * shortest.subnet_count() as f64
                * shortest.cross_ratio;
            assert!(
                shortest.cross_ratio == 0.0 || cross >= 1_500.0,
                "{}: {cross} cross-net ops planned",
                w.name
            );
        }
        assert!(WorkloadCfg::named("nope", Size::Smoke).is_none());
        let tree = WorkloadCfg::named("tree-xnet", Size::Smoke).unwrap();
        assert_eq!(tree.subnet_count(), 7);
        let flat = WorkloadCfg::named("flat8-par2", Size::Smoke).unwrap();
        assert_eq!(flat.subnet_count(), 9);
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let cfg = WorkloadCfg::named("tree-xnet", Size::Smoke).unwrap();
        let a = draw_plan(&cfg, 7);
        assert_eq!(a, draw_plan(&cfg, 7));
        assert_ne!(a, draw_plan(&cfg, 8));
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        let cross = a.iter().filter(|op| op.is_cross()).count() as f64;
        let share = cross / a.len() as f64;
        assert!((0.2..0.3).contains(&share), "cross share {share}");
    }
}
