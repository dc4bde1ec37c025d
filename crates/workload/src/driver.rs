//! Drivers that inject generated traffic into a [`HierarchyRuntime`].
//!
//! Two regimes:
//!
//! * [`ClosedBatch`] — the closed-loop shape of experiments E1, E3, E6 and
//!   E10: submit a fixed fee-less batch per subnet up front, then drain to
//!   quiescence.
//! * [`OpenLoop`] — the scaling regime: per round, inject
//!   [`RampProfile::rate_at`] Zipf-routed messages over a lazily
//!   materialized population (millions of logical accounts), step the
//!   hierarchy one wave, and optionally poll an [`ElasticController`] so
//!   the topology reshapes itself under the load. Arrivals never wait for
//!   service — sustained overload is the point.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hc_chain::PushOutcome;
use hc_core::{ElasticController, HierarchyRuntime, RuntimeError, UserHandle};
use hc_state::Method;
use hc_types::{SubnetId, TokenAmount};

use crate::accounts::LazyAccounts;
use crate::generator::{OpenLoopGenerator, RampProfile};

/// A closed-loop batch: a fixed number of messages per subnet, submitted
/// up front from a pre-built population, then drained.
#[derive(Debug, Clone)]
pub struct ClosedBatch {
    /// Messages to submit per subnet.
    pub msgs_per_subnet: usize,
    /// Fraction of cross-net messages, `0.0..=1.0`.
    pub cross_ratio: f64,
    /// Transfer amount (atto) per message.
    pub amount: TokenAmount,
    /// Generator seed.
    pub seed: u64,
}

impl Default for ClosedBatch {
    fn default() -> Self {
        ClosedBatch {
            msgs_per_subnet: 200,
            cross_ratio: 0.0,
            amount: TokenAmount::from_atto(1_000),
            seed: 7,
        }
    }
}

/// What a [`ClosedBatch`] run measured, all in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Messages submitted.
    pub submitted: usize,
    /// User messages executed successfully (across the hierarchy).
    pub executed_ok: u64,
    /// User messages that failed.
    pub failed: u64,
    /// Cross-net messages applied at their destinations.
    pub cross_applied: u64,
    /// Virtual milliseconds elapsed during the run.
    pub elapsed_ms: u64,
    /// Blocks produced during the run.
    pub blocks: u64,
    /// Aggregate throughput: successful user messages per virtual second,
    /// summed over subnets (subnets run in parallel).
    pub aggregate_tps: f64,
}

impl ClosedBatch {
    /// Submits the batch into every subnet's mempool and drives the
    /// hierarchy until it drains. `subnets` fixes the submission order;
    /// `users` maps each subnet to its pre-built population (subnets with
    /// no users are skipped).
    ///
    /// # Errors
    ///
    /// Propagates submission/step failures.
    pub fn run(
        &self,
        rt: &mut HierarchyRuntime,
        subnets: &[SubnetId],
        users: &BTreeMap<SubnetId, Vec<UserHandle>>,
    ) -> Result<BatchReport, RuntimeError> {
        let mut rng = StdRng::seed_from_u64(self.seed);

        let stats_before: Vec<_> = subnets
            .iter()
            .map(|s| rt.node(s).map(|n| n.stats()).unwrap_or_default())
            .collect();
        let t0 = rt.now_ms();

        let mut submitted = 0usize;
        for subnet in subnets {
            let locals = users.get(subnet).cloned().unwrap_or_default();
            if locals.is_empty() {
                continue;
            }
            for i in 0..self.msgs_per_subnet {
                let from = &locals[i % locals.len()];
                let cross = self.cross_ratio > 0.0 && rng.gen_bool(self.cross_ratio.min(1.0));
                // Cross targets must live in a *different* subnet that has
                // users (the root may carry none in subnet-only sweeps).
                let candidates: Vec<&SubnetId> = subnets
                    .iter()
                    .filter(|s| *s != subnet && users.get(s).is_some_and(|u| !u.is_empty()))
                    .collect();
                if cross && !candidates.is_empty() {
                    let other = candidates[rng.gen_range(0..candidates.len())];
                    let peers = &users[other];
                    let to = &peers[rng.gen_range(0..peers.len())];
                    rt.cross_transfer_lazy(from, to, self.amount)?;
                } else {
                    let to = &locals[rng.gen_range(0..locals.len())];
                    let (to_addr, value, method) = if to.addr != from.addr {
                        (to.addr, self.amount, Method::Send)
                    } else {
                        (
                            from.addr,
                            TokenAmount::ZERO,
                            Method::PutData {
                                key: b"ping".to_vec(),
                                data: i.to_le_bytes().to_vec(),
                            },
                        )
                    };
                    rt.submit(from, to_addr, value, method)?;
                }
                submitted += 1;
            }
        }

        rt.run_until_quiescent(1_000_000)?;

        let mut executed_ok = 0;
        let mut failed = 0;
        let mut cross_applied = 0;
        let mut blocks = 0;
        let mut aggregate_tps = 0.0;
        for (s, before) in subnets.iter().zip(stats_before) {
            let Some(node) = rt.node(s) else { continue };
            let after = node.stats();
            executed_ok += after.user_msgs_ok - before.user_msgs_ok;
            failed += after.user_msgs_failed - before.user_msgs_failed;
            cross_applied += after.cross_applied - before.cross_applied;
            blocks += after.blocks - before.blocks;
            let interval = after.total_interval_ms - before.total_interval_ms;
            if interval > 0 {
                aggregate_tps +=
                    (after.user_msgs_ok - before.user_msgs_ok) as f64 * 1_000.0 / interval as f64;
            }
        }
        Ok(BatchReport {
            submitted,
            executed_ok,
            failed,
            cross_applied,
            elapsed_ms: rt.now_ms() - t0,
            blocks,
            aggregate_tps,
        })
    }
}

/// The open-loop engine configuration.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Logical account population (lazily materialized; must be ≥ 2).
    pub population: u64,
    /// Zipf exponent of account popularity (`0.0` = uniform).
    pub zipf_exponent: f64,
    /// Injection rounds to run (one `step_wave` per round).
    pub rounds: u64,
    /// Arrival rate per round.
    pub ramp: RampProfile,
    /// Transfer amount per message.
    pub amount: TokenAmount,
    /// Balance minted into each account on first touch.
    pub initial_balance: TokenAmount,
    /// Generator seed.
    pub seed: u64,
    /// When `> 0`, fee bids are uniform in `1..=max_fee`.
    pub max_fee: u64,
    /// Virtual milliseconds one injection round spans (one epoch at the
    /// default block time). Waves run until the clock crosses it, so a
    /// deep hierarchy — whose ancestor/descendant subnets never share a
    /// wave — still gives every subnet its block cadence each round.
    pub epoch_ms: u64,
    /// Wave bound on the post-injection drain phase.
    pub drain_bound: usize,
}

impl Default for OpenLoop {
    fn default() -> Self {
        OpenLoop {
            population: 1_000_000,
            zipf_exponent: 1.05,
            rounds: 40,
            ramp: RampProfile::Constant(50),
            amount: TokenAmount::from_atto(1_000),
            initial_balance: TokenAmount::from_whole(100),
            seed: 7,
            max_fee: 9,
            epoch_ms: 1_000,
            drain_bound: 10_000,
        }
    }
}

/// What an [`OpenLoop`] run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopReport {
    /// Messages submitted across all rounds.
    pub submitted: u64,
    /// Submissions admitted into a mempool.
    pub admitted: u64,
    /// Submissions bounced by admission control (pool full, bid too low).
    pub rejected: u64,
    /// Submissions deduplicated as already-seen.
    pub duplicates: u64,
    /// User messages committed during the injection rounds, per round —
    /// the sustained-throughput curve.
    pub committed_per_round: Vec<u64>,
    /// User messages committed during the post-injection drain.
    pub drained_committed: u64,
    /// Logical accounts actually materialized (working-set size).
    pub accounts_materialized: u64,
    /// The materialized `(logical index, root address)` pairs,
    /// index-ascending — the key for cross-run balance comparisons.
    pub touched: Vec<(u64, hc_types::Address)>,
    /// Largest aggregate mempool occupancy observed, in bytes.
    pub peak_mempool_bytes: u64,
    /// Virtual milliseconds elapsed (injection + drain).
    pub elapsed_ms: u64,
    /// Whether the hierarchy fully drained within the bound.
    pub drained: bool,
}

impl OpenLoopReport {
    /// Total user messages committed (injection rounds + drain).
    pub fn committed(&self) -> u64 {
        self.committed_per_round.iter().sum::<u64>() + self.drained_committed
    }

    /// Mean committed messages per round over the last `window` injection
    /// rounds — the sustained throughput at the ramp's peak.
    pub fn sustained_tail(&self, window: usize) -> f64 {
        if self.committed_per_round.is_empty() || window == 0 {
            return 0.0;
        }
        let n = window.min(self.committed_per_round.len());
        let tail = &self.committed_per_round[self.committed_per_round.len() - n..];
        tail.iter().sum::<u64>() as f64 / n as f64
    }
}

impl OpenLoop {
    /// Runs the open loop against `rt`, optionally letting `ctrl` reshape
    /// the hierarchy between waves.
    ///
    /// Per round: inject `ramp.rate_at(round)` ops (senders and receivers
    /// drawn from the Zipf popularity, materialized at the root on first
    /// touch, routed to their current elastic home), run one block wave,
    /// poll the controller, and record the committed-message delta. After
    /// the last round, waves continue until the hierarchy is quiescent or
    /// `drain_bound` is hit.
    ///
    /// # Errors
    ///
    /// Propagates submission/step/controller failures.
    pub fn run(
        &self,
        rt: &mut HierarchyRuntime,
        mut ctrl: Option<&mut ElasticController>,
    ) -> Result<OpenLoopReport, RuntimeError> {
        let root = SubnetId::root();
        let mut generator =
            OpenLoopGenerator::new(self.population, self.zipf_exponent, self.seed, self.max_fee);
        let mut accounts = LazyAccounts::new(self.initial_balance);

        let mut last_ok: BTreeMap<SubnetId, u64> = BTreeMap::new();
        let t0 = rt.now_ms();
        let mut report = OpenLoopReport {
            submitted: 0,
            admitted: 0,
            rejected: 0,
            duplicates: 0,
            committed_per_round: Vec::with_capacity(self.rounds as usize),
            drained_committed: 0,
            accounts_materialized: 0,
            touched: Vec::new(),
            peak_mempool_bytes: 0,
            elapsed_ms: 0,
            drained: false,
        };

        for round in 0..self.rounds {
            let rate = self.ramp.rate_at(round, self.rounds);
            for _ in 0..rate {
                let op = generator.next_op();
                let sender = accounts.handle(rt, op.sender)?;
                let receiver = accounts.handle(rt, op.receiver)?;
                let from_home = match ctrl {
                    Some(ref c) => c.home_of(sender.addr, &root),
                    None => root.clone(),
                };
                let to_home = match ctrl {
                    Some(ref c) => c.home_of(receiver.addr, &root),
                    None => root.clone(),
                };
                let from = UserHandle {
                    subnet: from_home.clone(),
                    addr: sender.addr,
                };
                let outcome = if from_home == to_home {
                    rt.submit_with_fee(&from, receiver.addr, self.amount, Method::Send, op.fee)?
                        .1
                } else {
                    let to = UserHandle {
                        subnet: to_home,
                        addr: receiver.addr,
                    };
                    rt.cross_transfer_lazy_with_fee(&from, &to, self.amount, op.fee)?
                        .1
                };
                report.submitted += 1;
                match outcome {
                    PushOutcome::Admitted => report.admitted += 1,
                    PushOutcome::Duplicate => report.duplicates += 1,
                    PushOutcome::Invalid | PushOutcome::Full => report.rejected += 1,
                }
            }

            // One epoch of virtual time: ancestor and descendant subnets
            // never share a wave, so a single wave would under-serve deep
            // hierarchies. Run waves until the clock crosses the epoch.
            let target = rt.now_ms() + self.epoch_ms;
            loop {
                rt.step_wave()?;
                if let Some(c) = ctrl.as_deref_mut() {
                    c.poll(rt)?;
                }
                if rt.now_ms() >= target {
                    break;
                }
            }

            report
                .committed_per_round
                .push(commit_delta(rt, &mut last_ok));
            let bytes = rt.pool_stats().mempool_bytes;
            report.peak_mempool_bytes = report.peak_mempool_bytes.max(bytes);
        }

        // Drain: no new arrivals; keep waving (and letting the controller
        // merge now-cold children) until quiescent or the bound trips.
        let mut waves = 0usize;
        while !rt.all_quiescent() && waves < self.drain_bound {
            rt.step_wave()?;
            if let Some(c) = ctrl.as_deref_mut() {
                c.poll(rt)?;
            }
            waves += 1;
        }
        report.drained = rt.all_quiescent();
        report.drained_committed = commit_delta(rt, &mut last_ok);
        report.accounts_materialized = accounts.materialized();
        report.touched = accounts.iter().map(|(i, h)| (i, h.addr)).collect();
        report.elapsed_ms = rt.now_ms() - t0;
        Ok(report)
    }
}

/// Sums `user_msgs_ok` growth across every live subnet since the previous
/// call, updating the baseline. Subnets retired since the last call simply
/// stop contributing; fresh subnets contribute from zero.
fn commit_delta(rt: &HierarchyRuntime, last_ok: &mut BTreeMap<SubnetId, u64>) -> u64 {
    let mut delta = 0u64;
    let snapshot: Vec<(SubnetId, u64)> = rt
        .subnets()
        .map(|s| {
            let ok = rt.node(s).map(|n| n.stats().user_msgs_ok).unwrap_or(0);
            (s.clone(), ok)
        })
        .collect();
    for (s, ok) in snapshot {
        let prev = last_ok.get(&s).copied().unwrap_or(0);
        delta += ok.saturating_sub(prev);
        last_ok.insert(s, ok);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::sa::SaConfig;
    use hc_core::RuntimeConfig;

    /// The root plus two sibling subnets, `per_subnet` funded users in
    /// each, settled.
    fn flat2(
        per_subnet: usize,
    ) -> (
        HierarchyRuntime,
        Vec<SubnetId>,
        BTreeMap<SubnetId, Vec<UserHandle>>,
    ) {
        let whole = TokenAmount::from_whole;
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let banker = rt.create_user(&root, whole(1_000_000)).unwrap();
        let mut subnets = vec![root];
        for _ in 0..2 {
            let validator = (banker.clone(), whole(5));
            let subnet = rt
                .spawn_subnet(&banker, SaConfig::default(), whole(10), &[validator])
                .unwrap();
            subnets.push(subnet);
        }
        let mut users: BTreeMap<SubnetId, Vec<UserHandle>> = BTreeMap::new();
        for subnet in &subnets {
            for _ in 0..per_subnet {
                let user = if subnet.is_root() {
                    rt.create_user(subnet, whole(1_000)).unwrap()
                } else {
                    let user = rt.create_user(subnet, TokenAmount::ZERO).unwrap();
                    rt.cross_transfer(&banker, &user, whole(1_000)).unwrap();
                    user
                };
                users.entry(subnet.clone()).or_default().push(user);
            }
        }
        rt.run_until_quiescent(100_000).unwrap();
        (rt, subnets, users)
    }

    #[test]
    fn closed_batch_local_drains_and_counts() {
        let (mut rt, subnets, users) = flat2(3);
        let report = ClosedBatch {
            msgs_per_subnet: 50,
            ..ClosedBatch::default()
        }
        .run(&mut rt, &subnets, &users)
        .unwrap();
        assert_eq!(report.submitted, 150); // root + 2 subnets
        assert_eq!(report.executed_ok, 150);
        assert_eq!(report.failed, 0);
        assert!(report.aggregate_tps > 0.0);
        hc_core::audit_quiescent(&rt).unwrap();
    }

    #[test]
    fn closed_batch_cross_delivers_and_conserves() {
        let (mut rt, subnets, users) = flat2(2);
        let report = ClosedBatch {
            msgs_per_subnet: 20,
            cross_ratio: 0.5,
            ..ClosedBatch::default()
        }
        .run(&mut rt, &subnets, &users)
        .unwrap();
        assert!(report.cross_applied > 0, "some cross traffic must flow");
        hc_core::audit_quiescent(&rt).unwrap();
    }

    #[test]
    fn open_loop_static_commits_and_is_deterministic() {
        let run = || {
            let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
            OpenLoop {
                population: 10_000,
                rounds: 6,
                ramp: RampProfile::Constant(20),
                drain_bound: 2_000,
                ..OpenLoop::default()
            }
            .run(&mut rt, None)
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce bit-identical reports");
        assert_eq!(a.submitted, 120);
        assert_eq!(a.admitted, 120);
        assert!(a.drained);
        assert_eq!(a.committed(), 120);
        // Lazy materialization: far fewer accounts than the population.
        assert!(a.accounts_materialized < 300);
    }

    #[test]
    fn open_loop_ramp_tracks_rate() {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let report = OpenLoop {
            population: 1_000,
            rounds: 4,
            ramp: RampProfile::Linear { start: 0, end: 30 },
            drain_bound: 2_000,
            ..OpenLoop::default()
        }
        .run(&mut rt, None)
        .unwrap();
        // 0 + 10 + 20 + 30 arrivals.
        assert_eq!(report.submitted, 60);
        assert_eq!(report.committed(), 60);
        assert_eq!(report.committed_per_round.len(), 4);
    }
}
