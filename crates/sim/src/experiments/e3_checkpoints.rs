//! E3 — checkpoint load on the parent chain (paper §III-B).
//!
//! Every child commits one checkpoint per period into the parent chain.
//! Expected shape: parent load (messages and bytes per virtual second)
//! grows linearly with the child count and inversely with the period, and
//! is *independent of the children's internal transaction volume* — the
//! scalability core of the design.

use hc_core::RuntimeError;
use hc_types::SubnetId;
use hc_workload::ClosedBatch;

use crate::table::{f2, Table};
use crate::topology::TopologyBuilder;

/// E3 parameters.
#[derive(Debug, Clone)]
pub struct E3Params {
    /// Child counts to sweep.
    pub child_counts: Vec<usize>,
    /// Checkpoint periods (epochs) to sweep.
    pub periods: Vec<u64>,
    /// Child blocks to simulate per point.
    pub child_blocks: usize,
    /// Internal (never cross-net) messages per child, to demonstrate
    /// independence from internal volume.
    pub internal_msgs: usize,
}

impl Default for E3Params {
    fn default() -> Self {
        E3Params {
            child_counts: vec![1, 2, 4, 8, 16, 32, 64],
            periods: vec![5, 10, 20],
            child_blocks: 60,
            internal_msgs: 100,
        }
    }
}

/// One sweep point of E3.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Row {
    /// Number of children.
    pub children: usize,
    /// Checkpoint period, epochs.
    pub period: u64,
    /// Checkpoints the parent committed.
    pub checkpoints: u64,
    /// Bytes of checkpoints committed on the parent chain.
    pub bytes: u64,
    /// Parent-chain checkpoint bytes per virtual second.
    pub bytes_per_s: f64,
    /// Internal child messages executed (do not appear on the parent).
    pub child_internal_msgs: u64,
}

/// Runs the E3 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e3_run(params: &E3Params) -> Result<Vec<E3Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &period in &params.periods {
        for &children in &params.child_counts {
            let mut topo = TopologyBuilder::new()
                .users_per_subnet(2)
                .checkpoint_period(period)
                .flat(children)?;
            // Internal-only load inside the children.
            topo.users.remove(&SubnetId::root());
            let subnets = topo.all_subnets();
            ClosedBatch {
                msgs_per_subnet: params.internal_msgs,
                ..ClosedBatch::default()
            }
            .run(&mut topo.rt, &subnets, &topo.users)?;

            let root_before = topo.rt.node(&SubnetId::root()).unwrap().stats();
            let t0 = topo.rt.now_ms();
            // Drive every child through the same number of blocks.
            for _ in 0..params.child_blocks {
                for s in &topo.subnets.clone() {
                    topo.rt.tick_subnet(s)?;
                }
            }
            topo.rt.run_until_quiescent(100_000)?;

            let root_after = topo.rt.node(&SubnetId::root()).unwrap().stats();
            let elapsed_ms = (topo.rt.now_ms() - t0).max(1);
            let internal: u64 = topo
                .subnets
                .iter()
                .map(|s| topo.rt.node(s).unwrap().stats().user_msgs_ok)
                .sum();
            rows.push(E3Row {
                children,
                period,
                checkpoints: root_after.checkpoints_committed - root_before.checkpoints_committed,
                bytes: root_after.checkpoint_bytes - root_before.checkpoint_bytes,
                bytes_per_s: (root_after.checkpoint_bytes - root_before.checkpoint_bytes) as f64
                    * 1_000.0
                    / elapsed_ms as f64,
                child_internal_msgs: internal,
            });
        }
    }
    Ok(rows)
}

/// Renders E3 rows.
pub fn table(rows: &[E3Row]) -> Table {
    let mut t = Table::new(
        "E3: parent-chain checkpoint load vs children and period",
        &[
            "children",
            "period",
            "checkpoints",
            "bytes",
            "bytes/s",
            "child internal msgs",
        ],
    );
    for r in rows {
        t.row(&[
            r.children.to_string(),
            r.period.to_string(),
            r.checkpoints.to_string(),
            r.bytes.to_string(),
            f2(r.bytes_per_s),
            r.child_internal_msgs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_load_scales_with_children_not_internal_volume() {
        let rows = e3_run(&E3Params {
            child_counts: vec![1, 4],
            periods: vec![5],
            child_blocks: 20,
            internal_msgs: 50,
        })
        .unwrap();
        let one = &rows[0];
        let four = &rows[1];
        // More children → proportionally more checkpoints on the parent.
        assert!(four.checkpoints >= 3 * one.checkpoints);
        // Internal volume never reaches the parent: checkpoint count is
        // driven by blocks/period only.
        assert!(one.checkpoints >= (20 / 5) - 1);
    }

    #[test]
    fn longer_period_means_fewer_checkpoints() {
        let rows = e3_run(&E3Params {
            child_counts: vec![2],
            periods: vec![5, 20],
            child_blocks: 40,
            internal_msgs: 0,
        })
        .unwrap();
        assert!(rows[0].checkpoints > rows[1].checkpoints);
    }
}
