//! The benchmark's declaration: workloads, end-to-end metrics with their
//! worsening bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same thing for the driver; a test keeps the
//! two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Whether the metric is a function of the seed alone: everything but
    /// wall-clock times, rates per wall second, memory, and the two
    /// ratios of wall times.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self.unit, "s" | "1/s" | "MB")
            && !matches!(
                self.name,
                "trace_overhead_share" | "core.unattributed_share"
            )
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the hierarchy sees. Every one is
/// defined, and non-zero, on every workload. `vms` is virtual
/// milliseconds on the runtime's simulated clock, `1/vs` per virtual
/// second.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("commit_tput_wall", "1/s", Higher, 0.25),
    e2e("commit_tput_virt", "1/vs", Higher, 0.02),
    e2e("commit_lat_p50_vms", "vms", Lower, 0.05),
    e2e("commit_lat_p99_vms", "vms", Lower, 0.05),
    e2e("sha256_per_msg", "count", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics from the traced run. The first group are end-to-end
/// in nature but defined on some workloads only (zero elsewhere), which
/// is why they carry no bound; the rest are named after the crate that
/// does the work.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("xnet_lat_p50_vms", "vms", Lower),
    layer("xnet_lat_p99_vms", "vms", Lower),
    layer("rate_at_limit_virt", "1/vs", Higher),
    layer("outage_vms", "vms", Lower),
    layer("failed_share", "ratio", Lower),
    layer("trace_overhead_share", "ratio", Lower),
    layer("workload.submitted", "count", Higher),
    layer("workload.accounts_materialized", "count", Lower),
    layer("workload.gen_late_p99_vms", "vms", Lower),
    layer("workload.commit_lat_samples", "count", Higher),
    layer("workload.xnet_lat_samples", "count", Higher),
    layer("core.submit_s", "s", Lower),
    layer("core.xsubmit_s", "s", Lower),
    layer("core.step_wave_s", "s", Lower),
    layer("core.drain_events_s", "s", Lower),
    layer("core.recover_s", "s", Lower),
    layer("core.rejoin_catchup_s", "s", Lower),
    layer("core.waves", "count", Lower),
    layer("core.wave_width_mean", "count", Higher),
    layer("core.tput_virt_per_subnet", "1/vs", Higher),
    layer("core.blocks_caught_up", "count", Lower),
    layer("core.snapshot_installs", "count", Higher),
    layer("core.unattributed_share", "ratio", Lower),
    layer("chain.admit_s", "s", Lower),
    layer("chain.select_s", "s", Lower),
    layer("chain.schedule_s", "s", Lower),
    layer("chain.execute_s", "s", Lower),
    layer("chain.blocks", "count", Lower),
    layer("chain.msgs_per_block", "count", Higher),
    layer("chain.mempool_admitted", "count", Higher),
    layer("chain.mempool_evicted", "count", Lower),
    layer("chain.mempool_rejected_full", "count", Lower),
    layer("chain.mempool_high_water_bytes", "B", Lower),
    layer("chain.sched_lanes_per_block", "count", Higher),
    layer("chain.sched_critical_path_share", "ratio", Lower),
    layer("state.flush_s", "s", Lower),
    layer("state.persist_s", "s", Lower),
    layer("state.hamt_nodes_hashed_per_msg", "count", Lower),
    layer("state.bytes_hashed_per_msg", "B", Lower),
    layer("state.blob_puts_per_msg", "count", Lower),
    layer("state.blob_put_hit_ratio", "ratio", Higher),
    layer("state.sigcache_hit_ratio", "ratio", Higher),
    layer("state.overlay_read_hit_ratio", "ratio", Higher),
    layer("types.sha256_blocks", "count", Lower),
    layer("types.encode_cid_s", "s", Lower),
    layer("types.encoded_bytes_per_msg", "B", Lower),
    layer("consensus.extra_rounds", "count", Lower),
    layer("consensus.orphaned", "count", Lower),
    layer("consensus.block_interval_mean_vms", "vms", Lower),
    layer("net.gossip_s", "s", Lower),
    layer("net.published_per_msg", "count", Lower),
    layer("net.delivered_ratio", "ratio", Higher),
    layer("net.topic_lat_p99_vms", "vms", Lower),
    layer("net.pulls_sent", "count", Lower),
    layer("net.pulls_retried", "count", Lower),
    layer("net.push_hit_ratio", "ratio", Higher),
    layer("actors.checkpoints_cut", "count", Lower),
    layer("actors.checkpoints_committed", "count", Lower),
    layer("actors.checkpoint_bytes_per_msg", "B", Lower),
    layer("actors.xmsgs_per_checkpoint", "count", Higher),
    layer("actors.cross_applied", "count", Higher),
    layer("actors.cross_reverted", "count", Lower),
    layer("store.wal_append_s", "s", Lower),
    layer("store.wal_replay_s", "s", Lower),
    layer("store.fsyncs_per_msg", "count", Lower),
    layer("store.journal_bytes_per_msg", "B", Lower),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The counters `tests/counter_gate.rs` holds against the committed
/// golden file. All are deterministic per message and lower-is-better, so
/// the gate is machine-independent.
pub const GATED: &[&str] = &[
    "sha256_per_msg",
    "store.fsyncs_per_msg",
    "state.blob_puts_per_msg",
    "net.published_per_msg",
    "actors.checkpoint_bytes_per_msg",
];

/// Share by which a gated counter may exceed its golden value.
pub const GATE_BOUND: f64 = 0.02;

/// One declared workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
}

/// The four workloads. Each loads a different set of layers, so an
/// optimisation has one workload that exercises it and one that does not.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "root-ramp",
        why: "rootnet only, 1M Zipf accounts, sawtooth rate ramp past block capacity: mempool, execution and a large hot HAMT; no checkpoints, gossip or journal",
    },
    WorkloadSpec {
        name: "tree-xnet",
        why: "7-subnet 3-level tree, 25% cross-net traffic: SCA, checkpoints, gossip, resolver and cross-msg pool carry the cost; small cold HAMT",
    },
    WorkloadSpec {
        name: "tree-durable-crash",
        why: "same tree journaled to disk with fsync, a leaf crashes and snapshot-rejoins, then the whole runtime recovers: store write and read paths",
    },
    WorkloadSpec {
        name: "flat8-par2",
        why: "root plus 8 siblings with a hot Zipf head at parallelism 2: the only workload on the threaded wave, signature and lane paths",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        for name in GATED {
            assert!(metric(name).is_some(), "gated metric {name} undeclared");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
