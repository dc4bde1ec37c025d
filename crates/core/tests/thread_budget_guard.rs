//! Thread-budget guard (tier-1): threads are a counted currency.
//!
//! The wave determinism suite's eight-sibling load is drained wave by
//! wave and every thread `hc_chain::fan_out` spawns is counted
//! ([`hc_chain::threads_spawned`]). At `parallelism` 1 nothing is spawned.
//! At `parallelism` 2 a wave's blocks share the two workers: a wave of two
//! or more members spawns one thread and its blocks run their lanes on the
//! thread that runs them; a lone block spends both workers on its lanes,
//! one thread per parallel segment of two or more lanes. The drain must
//! stay within that budget and at the measured count — a block that took
//! every worker for itself inside a wave of two or more would spawn again
//! for its lanes.
//!
//! This file intentionally holds a single `#[test]`: the counter is
//! process-wide, and a lone test keeps the measured region free of
//! fan-outs from harness siblings.

mod common;

use common::flat8;
use hc_chain::{threads_spawned, Schedule, Segment};

/// Measured: the threads the drain spawns at `parallelism` 2 — one per
/// wave of two or more members. Blocks that each took both workers inside
/// those waves spawned 75: every parallel segment of several lanes added a
/// thread.
const SPAWNED_AT_TWO: u64 = 13;

/// Drains the flat8 load at `parallelism` by waves; returns the threads
/// spawned and the budget at two workers: one per wave of two or more
/// members, plus one per parallel segment of two or more lanes in a lone
/// block.
fn drain(parallelism: usize) -> (u64, u64) {
    let (mut rt, _) = flat8(parallelism);
    let before = threads_spawned();
    let mut budget = 0;
    for _ in 0..200_000 {
        if rt.all_quiescent() {
            return (threads_spawned() - before, budget);
        }
        let reports = rt.step_wave().unwrap();
        budget += match reports.as_slice() {
            [lone] => {
                let node = rt.node(&lone.subnet).expect("a lone block's node runs");
                let block = node.chain().head_block().expect("it just produced");
                let schedule = Schedule::build(&block.signed_msgs);
                schedule
                    .segments()
                    .iter()
                    .filter(|s| matches!(s, Segment::Parallel(lanes) if lanes.len() >= 2))
                    .count() as u64
            }
            _ => 1,
        };
    }
    panic!("wave drain did not quiesce");
}

#[test]
fn a_wave_spends_its_threads_once() {
    let (sequential, _) = drain(1);
    assert_eq!(sequential, 0, "parallelism 1 spawns nothing");

    let (spawned, budget) = drain(2);
    eprintln!("flat8 drain at parallelism 2: {spawned} threads spawned, budget {budget}");
    assert!(
        spawned <= budget,
        "the drain spawned {spawned} threads, over its budget of {budget}"
    );
    assert_eq!(
        spawned, SPAWNED_AT_TWO,
        "the drain's thread count moved from the measured {SPAWNED_AT_TWO}"
    );
}
