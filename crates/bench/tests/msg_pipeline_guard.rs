//! Tier-1 work guard for the message-path crypto pipeline.
//!
//! Over the 10 000-message end-to-end workload (admission → block
//! production → block validation), the memoized, batch-verified pipeline
//! must produce receipts and a state root bit-identical to the same APIs
//! at `ExecOptions::default()` without counters, and must stay
//! under absolute ceilings of SHA-256 compressions, allocations and bytes
//! allocated. Each ceiling is the measured count plus 2 % — the same style
//! of gate as `e2e/golden/smoke.json` — on a deterministic work counter:
//! [`hc_types::sha256_block_count`] counts every compression-function
//! invocation in the process, [`hc_types::CountingAlloc`] (this binary's
//! global allocator) every allocation, so neither can flake on machine
//! noise; wall-clock is printed for context.
//!
//! This file intentionally holds a single `#[test]`: the counters are
//! process-global, and a lone test keeps the measured region free of
//! concurrent hashing and allocation from harness siblings.

use std::time::Instant;

use hc_bench::msg_pipeline::{end_to_end, pipeline_end_to_end_with_stats, workload};
use hc_chain::ExecOptions;
use hc_types::crypto::sha256_block_count;
use hc_types::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MSGS: usize = 10_000;

/// Measured: 59 373 compressions for the 10 000 messages (5.94 per
/// message), plus 2 %. It was 59 411 while the account HAMT's leaves
/// framed every entry with length prefixes and the tree's first flush
/// inserted its accounts one `set` at a time; 71 911 (7.19) while each message had an
/// envelope CID, two more compressions continuing its body's hasher with
/// the signature, and the payload root absorbed that CID rather than the
/// message CID and the signature; 86 908 (8.69) while a block's payload
/// root was a binary Merkle tree over the message CIDs, two compressions
/// per interior node; 96 908 (9.69) while a sealed message's envelope CID
/// re-encoded the envelope and re-hashed the body from scratch.
const MAX_SHA256_BLOCKS: u64 = 60_560;

/// Measured: 68 183 allocations for the 10 000 messages (6.82 per
/// message), plus 2 %. It was 69 049 (6.90) while the account table kept
/// a map of its own beside the HAMT and a set of the accounts each block
/// touched; 69 067 (6.91) while the tree's first flush
/// inserted its accounts one `set` at a time; 79 083 (7.91) while the payload root
/// collected the message CIDs and built each level of a Merkle tree;
/// 141 583 (14.16) while the envelope was encoded a second time, and the
/// signature appended to the body's buffer, to derive its CID and wire
/// size.
const MAX_ALLOCS: u64 = 69_546;

/// Measured: 26 130 025 bytes allocated for the 10 000 messages (2 613 per
/// message), plus 2 %. It was 26 263 361 (2 626) while the account table
/// kept a map of its own beside the HAMT, 26 262 913 before accounts kept
/// their HAMT routes and leaves were built in one pass, 28 358 241 (2 836)
/// while a sealed message's
/// memo also held its envelope CID, 29 649 032 (2 965) while the payload
/// root built a Merkle tree, and 35 009 032 (3 501) before the envelope
/// was hashed in the body's pass.
const MAX_ALLOC_BYTES: u64 = 26_652_625;

#[test]
fn pipeline_matches_the_default_path_under_its_hashing_ceiling() {
    let msgs = workload(MSGS);

    let reference = end_to_end(&msgs, None, ExecOptions::default().parallelism);

    let blocks_before = sha256_block_count();
    let allocs_before = CountingAlloc::counts();
    let wall = Instant::now();
    let (pipeline, stats) = pipeline_end_to_end_with_stats(&msgs, 4);
    let pipeline_ms = wall.elapsed().as_millis();
    let allocs = CountingAlloc::counts();
    let pipeline_blocks = sha256_block_count() - blocks_before;
    let (calls, bytes) = (
        allocs.calls - allocs_before.calls,
        allocs.bytes - allocs_before.bytes,
    );

    let per_msg = |n: u64| n as f64 / MSGS as f64;
    eprintln!(
        "msg_pipeline at {MSGS} msgs: {pipeline_blocks} sha256 blocks \
         ({:.2} per message, {pipeline_ms} ms), {calls} allocations \
         ({:.2} per message) of {bytes} B ({:.0} B per message), verdicts {stats:?}",
        per_msg(pipeline_blocks),
        per_msg(calls),
        per_msg(bytes)
    );

    assert_eq!(pipeline, reference, "pipeline changed observable results");
    assert_eq!(
        (stats.misses, stats.hits),
        (MSGS as u64, 2 * MSGS as u64),
        "admission must verify each message once, production and validation never"
    );
    assert!(
        pipeline_blocks <= MAX_SHA256_BLOCKS,
        "pipeline hashed {pipeline_blocks} sha256 blocks, ceiling {MAX_SHA256_BLOCKS}"
    );
    assert!(
        calls <= MAX_ALLOCS,
        "pipeline made {calls} allocations, ceiling {MAX_ALLOCS}"
    );
    assert!(
        bytes <= MAX_ALLOC_BYTES,
        "pipeline allocated {bytes} B, ceiling {MAX_ALLOC_BYTES}"
    );
}
