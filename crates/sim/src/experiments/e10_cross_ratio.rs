//! E10 — cross-traffic sensitivity (ablation of the paper's premise).
//!
//! Hierarchical consensus wins when most traffic is subnet-local and only
//! a fraction crosses subnet boundaries (the paper's motivating use cases
//! spawn subnets precisely to localize traffic). This ablation sweeps the
//! cross-net fraction of an otherwise fixed workload and measures how
//! aggregate throughput and drain time degrade as more messages take the
//! slow checkpointed routes.

use hc_core::RuntimeError;
use hc_types::SubnetId;
use hc_workload::ClosedBatch;

use crate::table::{f2, Table};
use crate::topology::TopologyBuilder;

/// E10 parameters.
#[derive(Debug, Clone)]
pub struct E10Params {
    /// Cross-net fractions to sweep.
    pub cross_ratios: Vec<f64>,
    /// Sibling subnets carrying the load.
    pub subnets: usize,
    /// Messages per subnet.
    pub msgs_per_subnet: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for E10Params {
    fn default() -> Self {
        E10Params {
            cross_ratios: vec![0.0, 0.1, 0.25, 0.5, 0.9],
            subnets: 4,
            msgs_per_subnet: 200,
            seed: 31,
        }
    }
}

/// One sweep point of E10.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Row {
    /// Fraction of cross-net messages.
    pub cross_ratio: f64,
    /// Aggregate throughput (successful user msgs / virtual second).
    pub tps: f64,
    /// Virtual ms until the whole workload (including cross-net
    /// settlement) drained.
    pub drain_ms: u64,
    /// Cross-net messages applied at destinations.
    pub cross_applied: u64,
    /// Checkpoints the root committed while draining.
    pub checkpoints: u64,
}

/// Runs the E10 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e10_run(params: &E10Params) -> Result<Vec<E10Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &ratio in &params.cross_ratios {
        let mut topo = TopologyBuilder::new()
            .users_per_subnet(3)
            .flat(params.subnets)?;
        topo.users.remove(&SubnetId::root());
        let ckpts_before = topo
            .rt
            .node(&SubnetId::root())
            .unwrap()
            .stats()
            .checkpoints_committed;
        let subnets = topo.all_subnets();
        let report = ClosedBatch {
            msgs_per_subnet: params.msgs_per_subnet,
            cross_ratio: ratio,
            seed: params.seed,
        }
        .run(&mut topo.rt, &subnets, &topo.users)?;
        let ckpts_after = topo
            .rt
            .node(&SubnetId::root())
            .unwrap()
            .stats()
            .checkpoints_committed;
        rows.push(E10Row {
            cross_ratio: ratio,
            tps: report.aggregate_tps,
            drain_ms: report.elapsed_ms,
            cross_applied: report.cross_applied,
            checkpoints: ckpts_after - ckpts_before,
        });
    }
    Ok(rows)
}

/// Renders E10 rows.
pub fn table(rows: &[E10Row]) -> Table {
    let mut t = Table::new(
        "E10: throughput sensitivity to the cross-net traffic fraction",
        &[
            "cross ratio",
            "tps",
            "drain ms",
            "cross applied",
            "checkpoints",
        ],
    );
    for r in rows {
        t.row(&[
            f2(r.cross_ratio),
            f2(r.tps),
            r.drain_ms.to_string(),
            r.cross_applied.to_string(),
            r.checkpoints.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_traffic_slows_drain_but_everything_settles() {
        let rows = e10_run(&E10Params {
            cross_ratios: vec![0.0, 0.5],
            subnets: 2,
            msgs_per_subnet: 60,
            seed: 5,
        })
        .unwrap();
        let local = &rows[0];
        let heavy = &rows[1];
        assert_eq!(local.cross_applied, 0);
        assert!(heavy.cross_applied > 0);
        // Cross traffic must wait for checkpoints: draining takes longer.
        assert!(heavy.drain_ms > local.drain_ms);
    }
}
