//! Chaos integration for the elastic controller: the E13 traffic engine
//! driven into a split, with the freshly spawned child crashed — and its
//! gossip lossy — while the migration funding transfers are still in
//! flight.
//!
//! Invariants, per schedule:
//!
//! * **Reconvergence** — the crashed child rejoins, catches up (catch-up
//!   re-executes every block, so a mismatched state root aborts the
//!   replay), and the whole hierarchy drains to quiescence.
//! * **No stranded migrated funds** — every migration the controller
//!   started settles, the escrow/conservation audits pass, and the summed
//!   balance of the touched account population equals exactly what was
//!   minted into it: splits, migrations, merges, and fund recovery move
//!   value between an account's homes, never create or destroy it.
//! * **Fault transparency** — the faulty run commits the same logical
//!   transfers as the fault-free run of the same seed, so every touched
//!   account ends at the identical summed balance.

use hc_core::{
    audit_quiescent, ChaosStats, ElasticController, ElasticStats, HierarchyRuntime, RuntimeConfig,
    RuntimeError, UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule};
use hc_state::Method;
use hc_types::{SubnetId, TokenAmount};
use hc_workload::{LazyAccounts, OpenLoopGenerator, RampProfile, TrafficOp};

const EPOCH_MS: u64 = 1_000;
const AMOUNT: TokenAmount = TokenAmount::from_atto(1_000);
const INITIAL_BALANCE: u64 = 100;
const POPULATION: u64 = 20_000;

/// The traffic engine wired to a runtime and an elastic controller, with
/// the same inject-wave-poll round structure as `OpenLoop::run`.
struct Scenario {
    rt: HierarchyRuntime,
    ctrl: ElasticController,
    generator: OpenLoopGenerator,
    accounts: LazyAccounts,
}

impl Scenario {
    fn new(seed: u64) -> Self {
        let mut config = RuntimeConfig {
            seed: 0xE13_000 + seed,
            ..RuntimeConfig::default()
        };
        config.engine_params.block_capacity = 25;
        let mut rt = HierarchyRuntime::new(config);
        let operator = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(1_000))
            .unwrap();
        let ctrl = ElasticController::new(operator);
        Scenario {
            rt,
            ctrl,
            generator: OpenLoopGenerator::new(POPULATION, 1.1, 100 + seed, 9),
            accounts: LazyAccounts::new(TokenAmount::from_whole(INITIAL_BALANCE)),
        }
    }

    /// Submits one generated op, routed to the parties' current elastic
    /// homes (mirrors `OpenLoop::run`).
    fn submit(&mut self, op: TrafficOp) -> Result<(), RuntimeError> {
        let root = SubnetId::root();
        let sender = self.accounts.handle(&mut self.rt, op.sender)?;
        let receiver = self.accounts.handle(&mut self.rt, op.receiver)?;
        let from = UserHandle {
            subnet: self.ctrl.home_of(sender.addr, &root),
            ..sender
        };
        let to = UserHandle {
            subnet: self.ctrl.home_of(receiver.addr, &root),
            ..receiver
        };
        if from.subnet == to.subnet {
            self.rt
                .submit_with_fee(&from, to.addr, AMOUNT, Method::Send, op.fee)?;
        } else {
            self.rt
                .cross_transfer_lazy_with_fee(&from, &to, AMOUNT, op.fee)?;
        }
        Ok(())
    }

    /// One injection round: `rate` arrivals, then waves (polling the
    /// controller after each) until one virtual epoch has passed.
    fn round(&mut self, rate: u64) -> Result<(), RuntimeError> {
        for _ in 0..rate {
            let op = self.generator.next_op();
            self.submit(op)?;
        }
        let target = self.rt.now_ms() + EPOCH_MS;
        while self.rt.now_ms() < target {
            self.rt.step_wave()?;
            self.ctrl.poll(&mut self.rt)?;
        }
        Ok(())
    }

    /// Waves (with polls) until the hierarchy is quiescent.
    fn drain(&mut self) {
        let mut waves = 0usize;
        while !self.rt.all_quiescent() {
            self.rt.step_wave().unwrap();
            self.ctrl.poll(&mut self.rt).unwrap();
            waves += 1;
            assert!(waves < 10_000, "the hierarchy must drain to quiescence");
        }
    }

    /// Final summed balance of every touched logical account, keyed by
    /// logical index — the cross-run comparison key (addresses may differ
    /// between runs whose split timing diverged).
    fn balances(&self) -> Vec<(u64, TokenAmount)> {
        self.accounts
            .iter()
            .map(|(idx, h)| {
                let mut total = TokenAmount::ZERO;
                for subnet in self.rt.subnets() {
                    total += self.rt.balance(&UserHandle {
                        subnet: subnet.clone(),
                        ..h.clone()
                    });
                }
                (idx, total)
            })
            .collect()
    }
}

struct Outcome {
    balances: Vec<(u64, TokenAmount)>,
    chaos: ChaosStats,
    elastic: ElasticStats,
}

/// One schedule: ramp until the controller splits, then (faulty runs
/// only) crash the new child and chew its gossip while the migration
/// funding is in flight, ride the window out, resume traffic against the
/// migrated hierarchy, and drain.
fn run_schedule(seed: u64, faults: bool) -> Outcome {
    let mut s = Scenario::new(seed);

    // Ramp until the first split. The fault plan is only installed after,
    // so this phase is bit-identical between the clean and faulty runs of
    // a seed.
    let ramp = RampProfile::Linear {
        start: 40,
        end: 120,
    };
    let mut rounds = 0u64;
    while s.ctrl.stats().splits == 0 {
        assert!(rounds < 40, "seed {seed}: the ramp must trigger a split");
        s.round(ramp.rate_at(rounds, 40)).unwrap();
        rounds += 1;
    }
    let child = s.ctrl.children().next().unwrap().clone();
    let stats = s.ctrl.stats();
    assert!(
        stats.migrations_settled < stats.migrations_started,
        "seed {seed}: the crash window must open during an in-flight migration"
    );

    let t = s.rt.now_ms();
    if faults {
        s.rt.extend_faults(FaultPlan {
            rules: vec![
                FaultRule::new(
                    t,
                    t + 9_000,
                    FaultKind::Loss {
                        topic: Some(child.topic()),
                        from: None,
                        to: None,
                        rate: 0.35,
                    },
                ),
                FaultRule::new(
                    t + 400,
                    t + 5_000,
                    FaultKind::Crash {
                        subnet: child.clone(),
                    },
                ),
            ],
        });
    }

    // Ride out the fault window with no fresh arrivals: the migration
    // funding is queued at the parent SCA while the child is down, lands
    // exactly once after catch-up, and only then flips routing. The loop
    // shape is identical in the clean run (both guards are simply false).
    while s.rt.now_ms() < t + 9_000 || s.rt.is_crashed(&child) || s.rt.is_catching_up(&child) {
        s.rt.step_wave().unwrap();
        s.ctrl.poll(&mut s.rt).unwrap();
    }

    // Post-fault traffic exercises the migrated routing.
    for _ in 0..8 {
        s.round(60).unwrap();
    }
    s.drain();

    audit_quiescent(&s.rt).unwrap();
    let elastic = s.ctrl.stats();
    assert_eq!(
        elastic.migrations_settled, elastic.migrations_started,
        "seed {seed}: every migration the controller started must settle"
    );
    let balances = s.balances();
    // Transfers, migrations, merges, and recovery move value between
    // touched accounts and their homes; none of it leaks. The population's
    // summed balance is exactly what was minted into it.
    let mut total = TokenAmount::ZERO;
    for (_, b) in &balances {
        total += *b;
    }
    assert_eq!(
        total,
        TokenAmount::from_whole(INITIAL_BALANCE * s.accounts.materialized()),
        "seed {seed}: funds were stranded or duplicated"
    );

    Outcome {
        balances,
        chaos: s.rt.chaos_stats(),
        elastic,
    }
}

/// The headline: crash + loss inside the migration window change nothing
/// observable — same final balances as the fault-free run of the seed.
#[test]
fn crash_and_loss_during_migration_window_strand_no_funds() {
    let clean = run_schedule(0, false);
    let faulty = run_schedule(0, true);

    assert_eq!(clean.chaos.crashes, 0);
    assert_eq!(faulty.chaos.crashes, 1);
    assert_eq!(faulty.chaos.rejoins, 1);
    assert_eq!(faulty.chaos.catch_ups_completed, 1);
    assert!(faulty.elastic.splits >= 1);
    assert!(faulty.elastic.migrations_settled >= 1);
    assert_eq!(
        clean.balances, faulty.balances,
        "the faulty run must commit exactly the clean run's transfers"
    );
}

/// The CI sweep: ten seeded schedules, each crashing the child inside its
/// migration window, each upholding the no-stranded-funds invariants
/// asserted inside `run_schedule`.
#[test]
fn elastic_chaos_sweep_preserves_funds_across_seeds() {
    for seed in 0..10 {
        let outcome = run_schedule(seed, true);
        assert_eq!(outcome.chaos.crashes, 1, "seed {seed}");
        assert_eq!(outcome.chaos.catch_ups_completed, 1, "seed {seed}");
        assert!(outcome.elastic.splits >= 1, "seed {seed}");
    }
}
