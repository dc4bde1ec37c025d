//! The parallel-execution guard (tier-1): on 1 000 transfers over disjoint
//! account pairs the deterministic access-set schedule must expose enough
//! parallelism that four workers carry no more than a quarter of the block
//! each, and production + validation must stay bit-identical — receipts,
//! block, gas, and state roots — at every tested parallelism.
//!
//! Deliberately wall-clock-free: single-CPU CI cannot assert speedup, so
//! the guard pins the schedule's *structure* (the critical path four
//! workers would execute, which is the speedup bound) instead, and the
//! heap work of the sequential produce + validate under absolute ceilings
//! — the measured counts plus 2 %, counted by [`hc_types::CountingAlloc`],
//! this binary's global allocator, in the style of `msg_pipeline_guard.rs`.
//!
//! This file intentionally holds a single `#[test]`: the allocation
//! counters are process-global, and a lone test keeps the measured region
//! free of allocations from harness siblings.

use hc_bench::exec_block::{genesis, produce, schedule_of, validate, workload};
use hc_types::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MSGS: usize = 1_000;

/// Measured: 12 913 allocations for the sequential produce + validate of
/// the 1 000 transfers (12.91 per message), plus 2 %. It was 13 915
/// (13.92) while the account table kept a map of its own beside the HAMT
/// and a set of the accounts each block touched; 17 915
/// (17.91) while the tree's first flush inserted its accounts one `set`
/// at a time, splitting leaves as they filled; 18 929
/// (18.93) while the payload root collected the message CIDs into a
/// vector and built each level of a Merkle tree over them, and 24 929
/// (24.93) while deriving a sealed message's envelope CID encoded the
/// envelope again.
const MAX_ALLOCS: u64 = 13_171;

/// Measured: 4 747 494 bytes allocated for the sequential produce +
/// validate of the 1 000 transfers (4 747 per message), the same in debug
/// and release, plus 2 %. It was 4 865 526 (4 866) while the account
/// table kept a map of its own beside the HAMT; 4 897 526 (4 898) while
/// the tree's first
/// flush inserted its accounts one `set` at a time; 5 027 189 (5 027) while the payload root
/// built a Merkle tree, and 5 403 189 (5 403) while the envelope was
/// encoded again for its CID.
const MAX_ALLOC_BYTES: u64 = 4_842_443;

#[test]
fn disjoint_block_schedules_flat_and_replays_bit_identically() {
    let msgs = workload(MSGS, 0);

    // Schedule structure: every message its own lane, and the deterministic
    // LPT assignment spreads them evenly — four workers, a quarter each.
    let schedule = schedule_of(&msgs);
    let stats = schedule.stats();
    assert_eq!(stats.messages, MSGS);
    assert_eq!(stats.serial, 0, "transfers never enter the serial lane");
    assert_eq!(stats.lanes, MSGS, "disjoint pairs must not share lanes");
    let critical_path = schedule.critical_path(4);
    assert!(
        critical_path <= MSGS / 4,
        "4-worker critical path {critical_path} exceeds 25% of {MSGS}"
    );

    // Reference: sequential production and validation, allocations
    // counted.
    let mut base = genesis(MSGS);
    base.flush();
    let mut reference_tree = base.clone();
    let mut validator = base.clone();
    let payload = msgs.clone();
    let before = CountingAlloc::counts();
    let reference = produce(&mut reference_tree, payload, 1);
    let reference_root = reference_tree.flush();
    let receipts = validate(&mut validator, &reference.block, 1);
    let after = CountingAlloc::counts();
    let (calls, bytes) = (after.calls - before.calls, after.bytes - before.bytes);
    eprintln!(
        "exec_block at {MSGS} msgs, sequential produce + validate: {calls} allocations \
         ({:.2} per message) of {bytes} B ({:.0} B per message)",
        calls as f64 / MSGS as f64,
        bytes as f64 / MSGS as f64
    );
    assert!(
        reference.receipts.iter().all(|r| r.exit.is_ok()),
        "the disjoint workload must fully succeed"
    );
    assert_eq!(
        receipts, reference.receipts,
        "sequential validation diverged"
    );
    assert_eq!(validator.flush(), reference_root);
    assert!(
        calls <= MAX_ALLOCS,
        "produce + validate made {calls} allocations, ceiling {MAX_ALLOCS}"
    );
    assert!(
        bytes <= MAX_ALLOC_BYTES,
        "produce + validate allocated {bytes} B, ceiling {MAX_ALLOC_BYTES}"
    );

    for parallelism in [2, 4, 8] {
        let mut tree = base.clone();
        let produced = produce(&mut tree, msgs.clone(), parallelism);
        assert_eq!(
            produced.receipts, reference.receipts,
            "receipts diverged at parallelism {parallelism}"
        );
        assert_eq!(
            produced.block, reference.block,
            "block diverged at parallelism {parallelism}"
        );
        assert_eq!(produced.gas_used(), reference.gas_used());
        assert_eq!(tree.flush(), reference_root);

        let mut validator = base.clone();
        let receipts = validate(&mut validator, &reference.block, parallelism);
        assert_eq!(
            receipts, reference.receipts,
            "validation receipts diverged at parallelism {parallelism}"
        );
        assert_eq!(validator.flush(), reference_root);
    }
}
