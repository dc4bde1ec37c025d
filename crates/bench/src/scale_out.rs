//! F13 harness: elastic scale-out under an open-loop load ramp, plus the
//! bounded-mempool overload burst.
//!
//! Two deterministic scenarios back the tier-1 guard in
//! `tests/scale_out_guard.rs`:
//!
//! * [`scale_out`] — the E13 comparison from [`hc_sim::experiments`]: one
//!   seeded Zipfian ramp driven against a static hierarchy and against
//!   the [`hc_core::ElasticController`], returning sustained-throughput
//!   rows, the speedup, and the balance-parity verdict.
//! * [`overload_burst`] — a flood of `factor`× the configured mempool
//!   byte budget into a single subnet with no block production, probing
//!   that the admission controller's memory bound holds at the high-water
//!   mark while eviction stays deterministic.

use hc_core::{HierarchyRuntime, RuntimeConfig};
use hc_sim::experiments::{e13_run, E13Outcome, E13Params};
use hc_state::Method;
use hc_types::{SubnetId, TokenAmount};

/// Runs the static-vs-elastic ramp comparison (E13).
///
/// # Panics
///
/// Panics if the underlying simulation errors — the workload is
/// deterministic, so any failure is a bug, not noise.
pub fn scale_out(params: &E13Params) -> E13Outcome {
    e13_run(params).expect("scale-out workload must run to completion")
}

/// What the overload burst observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstReport {
    /// The configured mempool byte budget.
    pub capacity_bytes: u64,
    /// Most bytes the pool ever held at once.
    pub high_water_bytes: u64,
    /// Bytes still held when the burst ended.
    pub final_bytes: u64,
    /// Messages pushed at the pool.
    pub submitted: u64,
    /// Messages the pool admitted (some later evicted).
    pub admitted: u64,
    /// Admitted messages evicted to stay under the byte budget.
    pub evicted: u64,
    /// Messages refused outright because they were the lowest priority.
    pub rejected_full: u64,
    /// Messages pending when the burst ended.
    pub final_pending: u64,
}

/// Byte budget used by [`overload_burst`] — small enough that the flood
/// overruns it by the requested factor in a fraction of a second.
pub const BURST_CAPACITY_BYTES: usize = 64 * 1024;

/// Floods the root mempool with roughly `factor`× its configured byte
/// budget of fee-carrying transfers — no blocks are produced, so nothing
/// drains — and reports the occupancy counters. The guard asserts the
/// high-water mark never exceeds the budget.
pub fn overload_burst(factor: u64) -> BurstReport {
    let mut config = RuntimeConfig {
        seed: 0xF13,
        ..RuntimeConfig::default()
    };
    config.mempool.capacity_bytes = BURST_CAPACITY_BYTES;
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    // A sender pool wide enough that eviction must pick among many lanes,
    // deep enough that lane tails form.
    let users: Vec<_> = (0..32)
        .map(|_| {
            rt.create_user(&root, TokenAmount::from_whole(100))
                .expect("root accepts new users")
        })
        .collect();

    let mut submitted = 0u64;
    let mut msg_bytes = 0u64;
    let budget = (BURST_CAPACITY_BYTES as u64) * factor;
    loop {
        let i = submitted as usize % users.len();
        let to = users[(i + 1) % users.len()].addr;
        // Cycle fees so eviction has a real priority gradient.
        let fee = 1 + submitted % 9;
        rt.submit_with_fee(&users[i], to, TokenAmount::from_atto(1), Method::Send, fee)
            .expect("submission is signed locally and cannot fail");
        submitted += 1;
        if msg_bytes == 0 {
            // Wire size of one burst message, measured off the first push
            // (they are all identically shaped).
            msg_bytes = rt.pool_stats().mempool_bytes.max(1);
        }
        if submitted * msg_bytes >= budget {
            break;
        }
    }

    let stats = rt.pool_stats();
    BurstReport {
        capacity_bytes: BURST_CAPACITY_BYTES as u64,
        high_water_bytes: stats.mempool.high_water_bytes,
        final_bytes: stats.mempool_bytes,
        submitted,
        admitted: stats.mempool.admitted,
        evicted: stats.mempool.evicted,
        rejected_full: stats.mempool.rejected_full,
        final_pending: stats.mempool_pending,
    }
}
