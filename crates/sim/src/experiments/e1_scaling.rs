//! E1 — horizontal scale-out (paper §I/§II claim).
//!
//! Fixed per-subnet capacity, growing numbers of subnets, identical
//! per-subnet load. The hierarchical deployment processes subnets in
//! parallel (virtual time), so aggregate throughput should grow
//! near-linearly, while the single-rootnet baseline handling the *same
//! total load* stays capped at one chain's capacity.

use hc_core::RuntimeError;
use hc_workload::ClosedBatch;

use crate::table::{f2, Table};
use crate::topology::TopologyBuilder;

/// E1 parameters.
#[derive(Debug, Clone)]
pub struct E1Params {
    /// Subnet counts to sweep.
    pub subnet_counts: Vec<usize>,
    /// Messages submitted per subnet.
    pub msgs_per_subnet: usize,
    /// Users per subnet.
    pub users_per_subnet: usize,
    /// Block capacity (messages); chosen so every chain saturates and the
    /// sweep measures capacity, not idle slack.
    pub block_capacity: usize,
    /// Seed.
    pub seed: u64,
    /// Worker threads for wave-parallel block production (host-side
    /// speed only — virtual-time results are identical at any setting).
    pub parallelism: usize,
}

impl Default for E1Params {
    fn default() -> Self {
        E1Params {
            subnet_counts: vec![1, 2, 4, 8, 16, 32, 64],
            msgs_per_subnet: 400,
            users_per_subnet: 4,
            block_capacity: 100,
            seed: 11,
            parallelism: 1,
        }
    }
}

/// One sweep point of E1.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Row {
    /// Number of subnets (the same total load is also run on the rootnet
    /// alone as baseline).
    pub subnets: usize,
    /// Aggregate hierarchical throughput (user msgs / virtual second).
    pub hierarchy_tps: f64,
    /// Baseline throughput with all load on the rootnet.
    pub rootnet_tps: f64,
    /// `hierarchy_tps / rootnet_tps`.
    pub speedup: f64,
    /// Virtual time the hierarchy needed to drain the load, ms.
    pub hierarchy_ms: u64,
    /// Virtual time the rootnet baseline needed, ms.
    pub rootnet_ms: u64,
}

/// Runs the E1 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e1_run(params: &E1Params) -> Result<Vec<E1Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &n in &params.subnet_counts {
        let config = hc_core::RuntimeConfig {
            engine_params: hc_consensus::EngineParams {
                block_capacity: params.block_capacity,
                ..hc_consensus::EngineParams::default()
            },
            ..hc_core::RuntimeConfig::default()
        };
        // Hierarchical deployment: n subnets, load in each (none on root,
        // isolating subnet capacity).
        let mut topo = TopologyBuilder::new()
            .users_per_subnet(params.users_per_subnet)
            .runtime_config(config.clone())
            .parallelism(params.parallelism)
            .flat(n)?;
        // Remove the root's users from the load by zeroing its user list.
        topo.users.remove(&hc_types::SubnetId::root());
        let subnets = topo.all_subnets();
        let report = ClosedBatch {
            msgs_per_subnet: params.msgs_per_subnet,
            seed: params.seed,
            ..ClosedBatch::default()
        }
        .run(&mut topo.rt, &subnets, &topo.users)?;

        // Baseline: the same total load (n × msgs) on the rootnet alone.
        let mut base = TopologyBuilder::new()
            .users_per_subnet(params.users_per_subnet)
            .runtime_config(config)
            .flat(0)?;
        let base_report = ClosedBatch {
            msgs_per_subnet: params.msgs_per_subnet * n,
            seed: params.seed,
            ..ClosedBatch::default()
        }
        .run(&mut base.rt, &[hc_types::SubnetId::root()], &base.users)?;

        rows.push(E1Row {
            subnets: n,
            hierarchy_tps: report.aggregate_tps,
            rootnet_tps: base_report.aggregate_tps,
            speedup: if base_report.aggregate_tps > 0.0 {
                report.aggregate_tps / base_report.aggregate_tps
            } else {
                0.0
            },
            hierarchy_ms: report.elapsed_ms,
            rootnet_ms: base_report.elapsed_ms,
        });
    }
    Ok(rows)
}

/// Renders E1 rows.
pub fn table(rows: &[E1Row]) -> Table {
    let mut t = Table::new(
        "E1: throughput scale-out vs number of subnets",
        &[
            "subnets",
            "hierarchy tps",
            "rootnet tps",
            "speedup",
            "hier drain ms",
            "root drain ms",
        ],
    );
    for r in rows {
        t.row(&[
            r.subnets.to_string(),
            f2(r.hierarchy_tps),
            f2(r.rootnet_tps),
            f2(r.speedup),
            r.hierarchy_ms.to_string(),
            r.rootnet_ms.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_subnets() {
        let rows = e1_run(&E1Params {
            subnet_counts: vec![1, 4],
            msgs_per_subnet: 120,
            users_per_subnet: 2,
            block_capacity: 30,
            seed: 3,
            parallelism: 1,
        })
        .unwrap();
        assert_eq!(rows.len(), 2);
        // 4 subnets beat 1 subnet in aggregate throughput…
        assert!(
            rows[1].hierarchy_tps > 2.0 * rows[0].hierarchy_tps,
            "{} vs {}",
            rows[1].hierarchy_tps,
            rows[0].hierarchy_tps
        );
        // …and beat the single-chain baseline handling the same load.
        assert!(rows[1].speedup > 2.0, "speedup {}", rows[1].speedup);
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let base = E1Params {
            subnet_counts: vec![4],
            msgs_per_subnet: 60,
            users_per_subnet: 2,
            block_capacity: 30,
            seed: 3,
            parallelism: 2,
        };
        let two_threads = e1_run(&base).unwrap();
        let eight_threads = e1_run(&E1Params {
            parallelism: 8,
            ..base
        })
        .unwrap();
        // The wave schedule is a function of virtual time only, so thread
        // count changes host-side wall clock and nothing else.
        assert_eq!(two_threads, eight_threads);
    }
}
