//! Wave-execution determinism: `step_wave` must replay the hierarchy
//! bit-identically to the sequential `step` loop — per-subnet head CIDs,
//! state roots, stats, and archived checkpoint CIDs — at every thread
//! count.
//!
//! The equivalence holds when network jitter and loss are disabled (the
//! shared network otherwise consumes RNG draws in publish order, which
//! waves reorder); thread count alone never changes anything.

mod common;

use common::fingerprint;
use hc_core::{HierarchyRuntime, RuntimeConfig, UserHandle};
use hc_net::NetConfig;
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Builds the same 8-subnet flat tree under load in every call:
/// construction and funding are driven sequentially so the runs differ
/// only in how the final drain is stepped.
fn build_world(parallelism: usize) -> (HierarchyRuntime, Vec<SubnetId>) {
    build_world_with_cache(parallelism, hc_state::DEFAULT_SIG_CACHE_CAPACITY)
}

fn build_world_with_cache(
    parallelism: usize,
    sig_cache_capacity: usize,
) -> (HierarchyRuntime, Vec<SubnetId>) {
    let config = RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        parallelism,
        sig_cache_capacity,
        ..RuntimeConfig::default()
    };
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000)).unwrap();

    let mut subnets = Vec::new();
    let mut pairs: Vec<(UserHandle, UserHandle)> = Vec::new();
    for _ in 0..8 {
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let subnet = rt
            .spawn_subnet(
                &alice,
                hc_actors::sa::SaConfig::default(),
                whole(10),
                &[(validator, whole(5))],
            )
            .unwrap();
        let a = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        let b = rt.create_user(&subnet, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &a, whole(50)).unwrap();
        rt.cross_transfer(&alice, &b, whole(50)).unwrap();
        subnets.push(subnet);
        pairs.push((a, b));
    }
    // Drain the funding traffic sequentially in every world so the load
    // below starts from one identical snapshot.
    drive_sequential(&mut rt);

    // Load: intra-subnet transfers plus sibling-to-sibling cross-net
    // transfers (bottom-up through the root), all lazily queued so the
    // drain itself commits them.
    for (i, (a, b)) in pairs.iter().enumerate() {
        rt.submit(a, b.addr, whole(3), hc_state::Method::Send)
            .unwrap();
        rt.submit(b, a.addr, whole(2), hc_state::Method::Send)
            .unwrap();
        let (next_a, _) = &pairs[(i + 1) % pairs.len()];
        rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
    }
    (rt, subnets)
}

fn drive_sequential(rt: &mut HierarchyRuntime) {
    for _ in 0..200_000 {
        if rt.all_quiescent() {
            return;
        }
        rt.step().unwrap();
    }
    panic!("sequential drain did not quiesce");
}

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
    let (mut reference, _) = build_world(1);
    drive_sequential(&mut reference);
    let expected = fingerprint(&reference);
    assert!(
        expected.iter().any(|f| !f.checkpoints.is_empty()),
        "load must exercise the checkpoint flow"
    );

    for threads in [1usize, 2, 8] {
        let (mut rt, _) = build_world(threads);
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
    // The verified-signature cache elides redundant verifications only;
    // every consensus-critical output — head CIDs, state roots, stats,
    // archived checkpoints — must be bit-identical with the cache off and
    // on, sequentially and under wave parallelism.
    let (mut reference, _) = build_world_with_cache(1, 0);
    drive_sequential(&mut reference);
    let expected = fingerprint(&reference);
    assert_eq!(
        reference.sig_cache_stats(),
        hc_state::SigCacheStats::default(),
        "a disabled cache must count nothing"
    );

    for (threads, capacity) in [(1usize, 1024usize), (4, 1024), (4, 1)] {
        let (mut rt, _) = build_world_with_cache(threads, capacity);
        drive_waves(&mut rt);
        assert_eq!(
            fingerprint(&rt),
            expected,
            "sig cache diverged results at parallelism {threads}, capacity {capacity}"
        );
        assert_eq!(rt.now_ms(), reference.now_ms());
        let stats = rt.sig_cache_stats();
        assert!(
            stats.hits > 0,
            "admission-verified messages must hit the cache at block production \
             (capacity {capacity}): {stats:?}"
        );
    }
}

#[test]
fn waves_never_mix_parents_and_children() {
    // A parent and child due at the same instant must land in different
    // waves — checkpoint submission and top-down sync couple them.
    let (mut rt, subnets) = build_world(4);
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
