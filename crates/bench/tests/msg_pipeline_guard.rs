//! Tier-1 work guard for the message-path crypto pipeline.
//!
//! Over the 10 000-message end-to-end workload (admission → block
//! production → block validation), the memoized/cached/batch-verified
//! pipeline must produce receipts and a state root bit-identical to the
//! same APIs at `ExecOptions::default()` without a cache, and must stay
//! under an absolute ceiling of SHA-256 compressions per message. The
//! ceiling is the measured count plus 2 % — the same style of gate as
//! `e2e/golden/smoke.json` — on [`hc_types::sha256_block_count`], a
//! deterministic work proxy counting every compression-function invocation
//! in the process, so it cannot flake on machine noise; wall-clock is
//! printed for context.
//!
//! This file intentionally holds a single `#[test]`: the block counter is
//! process-global, and a lone test keeps the measured region free of
//! concurrent hashing from harness siblings.

use std::time::Instant;

use hc_bench::msg_pipeline::{end_to_end, pipeline_end_to_end_with_stats, workload};
use hc_chain::ExecOptions;
use hc_types::crypto::sha256_block_count;

const MSGS: usize = 10_000;

/// Measured: 96 916 compressions for the 10 000 messages (9.69 per
/// message), plus 2 %.
const MAX_SHA256_BLOCKS: u64 = 98_854;

#[test]
fn pipeline_matches_the_default_path_under_its_hashing_ceiling() {
    let msgs = workload(MSGS);

    let reference = end_to_end(&msgs, None, ExecOptions::default().parallelism);

    let blocks_before = sha256_block_count();
    let wall = Instant::now();
    let (pipeline, stats) = pipeline_end_to_end_with_stats(&msgs, 4);
    let pipeline_ms = wall.elapsed().as_millis();
    let pipeline_blocks = sha256_block_count() - blocks_before;

    eprintln!(
        "msg_pipeline at {MSGS} msgs: {pipeline_blocks} sha256 blocks \
         ({:.2} per message, {pipeline_ms} ms), cache {stats:?}",
        pipeline_blocks as f64 / MSGS as f64
    );

    assert_eq!(pipeline, reference, "pipeline changed observable results");
    assert_eq!(
        stats.hits,
        2 * MSGS as u64,
        "production and validation must both run entirely off the cache"
    );
    assert!(
        pipeline_blocks <= MAX_SHA256_BLOCKS,
        "pipeline hashed {pipeline_blocks} sha256 blocks, ceiling {MAX_SHA256_BLOCKS}"
    );
}
