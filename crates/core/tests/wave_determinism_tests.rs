//! Wave-execution determinism: `step_wave` must replay the hierarchy
//! bit-identically to the sequential `step` loop — per-subnet head CIDs,
//! state roots, stats, and the CIDs of the checkpoints each parent's
//! chain commits — at every thread count.
//!
//! The equivalence holds when network jitter and loss are disabled (the
//! shared network otherwise consumes RNG draws in publish order, which
//! waves reorder); thread count alone never changes anything.

mod common;

use common::{drive_sequential, fingerprint, flat8};
use hc_core::HierarchyRuntime;
use hc_types::SubnetId;

/// Drives the runtime with `step_wave` until quiescent; returns the
/// largest wave observed.
fn drive_waves(rt: &mut HierarchyRuntime) -> usize {
    let mut widest = 0;
    for _ in 0..200_000 {
        if rt.all_quiescent() {
            return widest;
        }
        let reports = rt.step_wave().unwrap();
        assert!(!reports.is_empty(), "a wave always produces blocks");
        widest = widest.max(reports.len());
    }
    panic!("wave drain did not quiesce");
}

#[test]
fn step_wave_matches_sequential_at_every_parallelism() {
    let (mut reference, _) = flat8(1);
    drive_sequential(&mut reference);
    let expected = fingerprint(&reference);
    assert!(
        expected.iter().any(|f| !f.checkpoints.is_empty()),
        "load must exercise the checkpoint flow"
    );

    for threads in [1usize, 2, 8] {
        let (mut rt, _) = flat8(threads);
        let widest = drive_waves(&mut rt);
        assert!(
            widest >= 4,
            "8 flat subnets must co-wave (widest {widest}) at parallelism {threads}"
        );
        assert_eq!(
            fingerprint(&rt),
            expected,
            "wave drain diverged at parallelism {threads}"
        );
        assert_eq!(rt.now_ms(), reference.now_ms());
        // Snapshot persistence runs in the sequential routing phase, so
        // the content store's counters are thread-count invariant too.
        assert_eq!(
            rt.store_stats(),
            reference.store_stats(),
            "store counters diverged at parallelism {threads}"
        );
    }
}

#[test]
fn sig_cache_never_changes_results() {
    // Signature verdicts memoized on the messages elide redundant
    // verifications only; every consensus-critical output — head CIDs,
    // state roots, stats, committed checkpoints — must be bit-identical
    // sequentially and under wave parallelism.
    let (mut reference, _) = flat8(1);
    drive_sequential(&mut reference);
    let expected = fingerprint(&reference);

    for threads in [1usize, 4] {
        let (mut rt, _) = flat8(threads);
        drive_waves(&mut rt);
        assert_eq!(
            fingerprint(&rt),
            expected,
            "signature verdicts diverged results at parallelism {threads}"
        );
        assert_eq!(rt.now_ms(), reference.now_ms());
        let stats = rt.sig_cache_stats();
        assert!(
            stats.hits > 0,
            "block production must read the verdicts admission left on the messages: {stats:?}"
        );
    }
}

#[test]
fn waves_never_mix_parents_and_children() {
    // A parent and child due at the same instant must land in different
    // waves — checkpoint submission and top-down delivery couple them.
    let (mut rt, subnets) = flat8(4);
    let root = SubnetId::root();
    for _ in 0..2_000 {
        if rt.all_quiescent() {
            break;
        }
        let reports = rt.step_wave().unwrap();
        let members: Vec<&SubnetId> = reports.iter().map(|r| &r.subnet).collect();
        if members.contains(&&root) {
            assert_eq!(
                members.len(),
                1,
                "the root shares a wave with its children: {members:?}"
            );
        }
    }
    assert!(subnets.iter().all(|s| rt.node(s).is_some()));
}
