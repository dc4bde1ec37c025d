//! E13 — elastic scale-out under an open-loop load ramp.
//!
//! The paper's core promise is that the hierarchy *grows* to absorb load
//! (§III-C): when one subnet saturates, spawn a child, migrate the hot
//! accounts and their funds down, and serve the same traffic across more
//! chains. This experiment quantifies that promise end to end: a seeded
//! open-loop ramp (Zipfian popularity over a huge lazily-materialized
//! account population) is driven twice on the same seed — once against a
//! static single-subnet hierarchy, once with the
//! [`hc_core::ElasticController`] polled between waves — and the
//! sustained committed-messages-per-round tail at the ramp's peak is
//! compared. Elasticity must win by ≥2× while preserving every logical
//! account's summed balance across its homes.

use std::collections::BTreeMap;

use hc_core::{ElasticController, HierarchyRuntime, RuntimeConfig, RuntimeError};
use hc_types::{Address, SubnetId, TokenAmount};
use hc_workload::{OpenLoop, RampProfile};

use crate::table::{f2, Table};

/// E13 parameters.
#[derive(Debug, Clone)]
pub struct E13Params {
    /// Logical account population (lazily materialized).
    pub population: u64,
    /// Zipf exponent of account popularity.
    pub zipf_exponent: f64,
    /// Injection rounds.
    pub rounds: u64,
    /// Arrival rate at the first round.
    pub start_rate: u64,
    /// Arrival rate at the last round (the ramp's peak).
    pub peak_rate: u64,
    /// Messages per block — the per-subnet service ceiling the ramp must
    /// exceed for elasticity to matter.
    pub block_capacity: usize,
    /// Rounds in the sustained-throughput tail window.
    pub tail_window: usize,
    /// Seed shared by both runs.
    pub seed: u64,
}

impl Default for E13Params {
    fn default() -> Self {
        E13Params {
            population: 1_000_000,
            zipf_exponent: 1.1,
            rounds: 120,
            start_rate: 10,
            peak_rate: 250,
            block_capacity: 40,
            tail_window: 20,
            seed: 31,
        }
    }
}

impl E13Params {
    /// The reduced size the tests and the scale-out guard run (`report`
    /// always runs [`E13Params::default`]): a
    /// 100k-account ramp from 5 to 150 msgs/round against 25-msg blocks,
    /// enough to saturate the root several times over.
    pub fn quick() -> Self {
        E13Params {
            population: 100_000,
            rounds: 60,
            start_rate: 5,
            peak_rate: 150,
            block_capacity: 25,
            tail_window: 12,
            ..E13Params::default()
        }
    }
}

/// One E13 run (static or elastic).
#[derive(Debug, Clone, PartialEq)]
pub struct E13Row {
    /// `"static"` or `"elastic"`.
    pub mode: &'static str,
    /// Mean committed user messages per round over the ramp's tail.
    pub sustained_peak: f64,
    /// Total user messages committed (injection + drain).
    pub committed: u64,
    /// Messages submitted (open loop: independent of service).
    pub submitted: u64,
    /// Subnets alive at the end of the run.
    pub subnets_final: usize,
    /// Child subnets the controller spawned.
    pub splits: u64,
    /// Accounts whose routing migrated to a child.
    pub migrations: u64,
    /// Logical accounts materialized (working set of the Zipf draw).
    pub accounts: u64,
    /// Virtual ms for injection plus drain.
    pub elapsed_ms: u64,
}

/// The outcome of the E13 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Outcome {
    /// The static and elastic rows.
    pub rows: Vec<E13Row>,
    /// `sustained_peak(elastic) / sustained_peak(static)`.
    pub speedup: f64,
    /// Whether every logical account's summed balance across its homes in
    /// the elastic run equals its static-run balance.
    pub balances_match: bool,
}

fn runtime(params: &E13Params) -> HierarchyRuntime {
    let mut config = RuntimeConfig {
        seed: params.seed,
        ..RuntimeConfig::default()
    };
    config.engine_params.block_capacity = params.block_capacity;
    HierarchyRuntime::new(config)
}

fn workload(params: &E13Params) -> OpenLoop {
    OpenLoop {
        population: params.population,
        zipf_exponent: params.zipf_exponent,
        rounds: params.rounds,
        ramp: RampProfile::Linear {
            start: params.start_rate,
            end: params.peak_rate,
        },
        seed: params.seed,
    }
}

/// Sums `addr`'s balance over every subnet it has a home in.
fn summed_balance(rt: &HierarchyRuntime, addr: Address) -> TokenAmount {
    let mut total = TokenAmount::ZERO;
    for subnet in rt.subnets() {
        if let Some(acc) = rt.node(subnet).and_then(|n| n.state().accounts().get(addr)) {
            total += acc.balance;
        }
    }
    total
}

/// Runs the E13 comparison: same seed, static vs elastic.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e13_run(params: &E13Params) -> Result<E13Outcome, RuntimeError> {
    // Static baseline: all traffic lands on the root, forever.
    let mut static_rt = runtime(params);
    let static_report = workload(params).run(&mut static_rt, None)?;

    // Elastic run: an operator bankrolls splits; the controller is polled
    // every wave. The operator is created *first* so the workload's lazy
    // account materialization sees the same creation order in both runs
    // (logical index is the cross-run key, not the address).
    let mut elastic_rt = runtime(params);
    let operator = elastic_rt.create_user(&SubnetId::root(), TokenAmount::from_whole(1_000))?;
    let mut ctrl = ElasticController::new(operator);
    let elastic_report = workload(params).run(&mut elastic_rt, Some(&mut ctrl))?;

    // Balance parity, keyed by logical account index: the elastic run may
    // have spread an account over several homes (root + children it was
    // migrated to), but the *sum* must equal the static run's balance —
    // migration moves funds, it never mints or burns them.
    let static_by_idx: BTreeMap<u64, Address> = static_report.touched.iter().copied().collect();
    let mut balances_match = static_report.touched.len() == elastic_report.touched.len();
    for (idx, elastic_addr) in &elastic_report.touched {
        let Some(static_addr) = static_by_idx.get(idx) else {
            balances_match = false;
            break;
        };
        let static_total = summed_balance(&static_rt, *static_addr);
        let elastic_total = summed_balance(&elastic_rt, *elastic_addr);
        if static_total != elastic_total {
            balances_match = false;
            break;
        }
    }

    let stats = ctrl.stats();
    let rows = vec![
        E13Row {
            mode: "static",
            sustained_peak: static_report.sustained_tail(params.tail_window),
            committed: static_report.committed(),
            submitted: static_report.submitted,
            subnets_final: static_rt.subnets().count(),
            splits: 0,
            migrations: 0,
            accounts: static_report.accounts_materialized,
            elapsed_ms: static_report.elapsed_ms,
        },
        E13Row {
            mode: "elastic",
            sustained_peak: elastic_report.sustained_tail(params.tail_window),
            committed: elastic_report.committed(),
            submitted: elastic_report.submitted,
            subnets_final: elastic_rt.subnets().count(),
            splits: stats.splits,
            migrations: stats.migrations_settled,
            accounts: elastic_report.accounts_materialized,
            elapsed_ms: elastic_report.elapsed_ms,
        },
    ];
    let speedup = if rows[0].sustained_peak > 0.0 {
        rows[1].sustained_peak / rows[0].sustained_peak
    } else {
        0.0
    };
    Ok(E13Outcome {
        rows,
        speedup,
        balances_match,
    })
}

/// Renders the E13 comparison.
pub fn table(outcome: &E13Outcome) -> Table {
    let mut t = Table::new(
        "E13: sustained throughput under a load ramp, static vs elastic hierarchy",
        &[
            "mode",
            "sustained msgs/round",
            "committed",
            "submitted",
            "subnets",
            "splits",
            "migrations",
            "accounts",
            "elapsed ms",
        ],
    );
    for r in &outcome.rows {
        t.row(&[
            r.mode.to_string(),
            f2(r.sustained_peak),
            r.committed.to_string(),
            r.submitted.to_string(),
            r.subnets_final.to_string(),
            r.splits.to_string(),
            r.migrations.to_string(),
            r.accounts.to_string(),
            r.elapsed_ms.to_string(),
        ]);
    }
    t.note(&format!(
        "speedup {:.2}x, balances match: {}",
        outcome.speedup, outcome.balances_match
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_beats_static_and_preserves_balances() {
        let outcome = e13_run(&E13Params::quick()).unwrap();
        assert!(
            outcome.speedup >= 2.0,
            "elastic sustained throughput must be >= 2x static, got {:.2}x\n{:?}",
            outcome.speedup,
            outcome.rows
        );
        assert!(outcome.balances_match, "migration must preserve balances");
        assert!(outcome.rows[1].splits >= 1, "the controller must split");
        assert!(outcome.rows[1].migrations >= 1);
    }

    #[test]
    fn e13_is_bit_identical_across_runs() {
        let a = e13_run(&E13Params::quick()).unwrap();
        let b = e13_run(&E13Params::quick()).unwrap();
        assert_eq!(a, b);
    }
}
