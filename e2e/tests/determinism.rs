//! Two smoke runs with one seed agree on every deterministic metric and
//! on the per-subnet (head, state-root) fingerprint; another seed gives
//! another fingerprint; and tracing changes no count. The traced run is
//! the reference because it computes every metric, end-to-end and
//! per-layer, in one pass.
//!
//! One `#[test]` on purpose: `sha256_per_msg` differences a process-wide
//! counter, so runs must not overlap in this process.

use hc_e2e::run::{run, RunOutcome};
use hc_e2e::spec::WORKLOADS;
use hc_e2e::workloads::{Size, WorkloadCfg};

/// Counts taken from the layer replay, which only the traced run has.
const REPLAY_ONLY: [&str; 3] = [
    "chain.sched_lanes_per_block",
    "chain.sched_critical_path_share",
    "types.encoded_bytes_per_msg",
];

fn smoke(name: &str, seed: u64, trace: bool) -> RunOutcome {
    let cfg = WorkloadCfg::named(name, Size::Smoke).expect("declared workload");
    let outcome = run(&cfg, seed, trace).expect("run completes");
    assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
    assert_eq!(outcome.failed, 0, "{name}: no operation may fail");
    outcome
}

#[test]
fn same_seed_same_numbers_other_seed_other_chain() {
    for w in WORKLOADS {
        let a = smoke(w.name, 11, true);
        let b = smoke(w.name, 11, true);
        let c = smoke(w.name, 12, true);
        assert_eq!(a.deterministic(), b.deterministic(), "{}", w.name);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name);
        assert_ne!(a.fingerprint, c.fingerprint, "{}", w.name);
        assert!(a.deterministic().len() > 40);

        // The traced run publishes the per-layer counts, so what the
        // tracer and the replay do (their own journal, network, pool and
        // blob store) must not leak into any of them.
        let untraced = smoke(w.name, 11, false);
        let mut traced = a.deterministic();
        traced.retain(|name, _| !REPLAY_ONLY.contains(name));
        let mut plain = untraced.deterministic();
        plain.retain(|name, _| !REPLAY_ONLY.contains(name));
        assert_eq!(traced, plain, "{}: tracing changed a count", w.name);
        assert_eq!(a.fingerprint, untraced.fingerprint, "{}", w.name);
    }
}
