//! Tier-1 admission-scaling guard: admitting a message into a pool that
//! already holds 100 000 one-message lanes costs at most 10× what it costs
//! into an empty pool.
//!
//! An admission is one signature verification plus O(log n) bookkeeping:
//! the pool keeps its message count instead of summing its lanes, and
//! memoizes each message's wire size instead of re-encoding it. A pool
//! that walked every lane per push would put this ratio in the hundreds at
//! 100 000 lanes. Both sides push the same freshly signed messages, each
//! fully verified; the ratio compares the fastest of several rounds per
//! side, so one preempted round cannot fail the guard.
//!
//! This file intentionally holds a single `#[test]`: it measures wall
//! time, and a lone test keeps harness siblings off the other core.

use std::time::{Duration, Instant};

use hc_chain::Mempool;
use hc_state::{Message, SealedMessage};
use hc_types::{Address, Keypair, Nonce, TokenAmount};

/// Lanes in the full pool, one message each.
const LANES: u64 = 100_000;
/// Pushes timed per round.
const BATCH: u64 = 2_000;
/// Rounds per side; the fastest counts.
const ROUNDS: u64 = 5;
/// Allowed cost of a push into the full pool, in pushes into an empty one.
const MAX_RATIO: f64 = 10.0;

/// The first message of `sender`. One key signs for every sender: the
/// pool checks signatures, not key ownership (the VM does).
fn message(sender: u64, key: &Keypair) -> SealedMessage {
    SealedMessage::sign(
        Message::transfer(
            Address::new(1_000 + sender),
            Address::new(1),
            TokenAmount::from_atto(1),
            Nonce::ZERO,
        ),
        key,
    )
}

fn time_pushes(pool: &mut Mempool, batch: Vec<SealedMessage>) -> Duration {
    let start = Instant::now();
    for m in batch {
        assert!(pool.push_sealed(m));
    }
    start.elapsed()
}

#[test]
fn admission_cost_does_not_grow_with_the_pool() {
    let key = Keypair::from_seed([0x3d; 32]);
    let mut full = Mempool::new();
    for sender in 0..LANES {
        assert!(full.push_sealed(message(sender, &key)));
    }
    assert_eq!(full.len(), LANES as usize);

    let (mut into_empty, mut into_full) = (Duration::MAX, Duration::MAX);
    for round in 0..ROUNDS {
        let first = LANES + round * BATCH;
        let batch: Vec<SealedMessage> = (first..first + BATCH)
            .map(|sender| message(sender, &key))
            .collect();
        // Clones of never-verified values: both sides verify in full.
        into_empty = into_empty.min(time_pushes(&mut Mempool::new(), batch.clone()));
        into_full = into_full.min(time_pushes(&mut full, batch));
    }
    let ratio = into_full.as_secs_f64() / into_empty.as_secs_f64();
    eprintln!(
        "{BATCH} pushes: {into_empty:?} into an empty pool, {into_full:?} into {LANES} lanes \
         ({ratio:.2}x)"
    );
    assert!(
        ratio <= MAX_RATIO,
        "a push into {LANES} lanes costs {ratio:.1}x a push into an empty pool, bound {MAX_RATIO}x"
    );
}
