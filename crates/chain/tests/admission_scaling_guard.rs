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
//! Beside it, a memory-shape guard: a pool that admits and includes
//! 200 000 messages from 100 senders ends holding one floor per sender
//! and nothing else — the pool remembers senders, not messages.
//!
//! The time guard also gates the heap work of a push into the full pool:
//! allocations and bytes allocated per push, under ceilings of the
//! measured figures plus 2 %, counted by [`hc_types::CountingAlloc`], this
//! binary's global allocator, in the style of `exec_block_guard.rs`.
//!
//! The time guard measures wall time, so the two tests take one lock
//! and never run at once: no harness sibling competes for the other core,
//! and no sibling's allocations reach the process-wide counts.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hc_chain::Mempool;
use hc_state::{Message, SealedMessage};
use hc_types::{Address, CountingAlloc, Keypair, Nonce, TokenAmount};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Lanes in the full pool, one message each.
const LANES: u64 = 100_000;
/// Pushes timed per round.
const BATCH: u64 = 2_000;
/// Rounds per side; the fastest counts.
const ROUNDS: u64 = 5;
/// Allowed cost of a push into the full pool, in pushes into an empty one.
const MAX_RATIO: f64 = 10.0;
/// Measured: 1.333 allocations per push into the full pool (13 330 over
/// the 10 000 timed pushes), plus 2 %.
const MAX_ALLOCS_PER_PUSH: f64 = 1.36;
/// Measured: 352.4 bytes allocated per push into the full pool (3 524 424
/// B over the 10 000 timed pushes), plus 2 %.
const MAX_BYTES_PER_PUSH: f64 = 359.5;
/// Senders in the memory-shape guard.
const SENDERS: u64 = 100;
/// Blocks in the memory-shape guard, one message per sender each.
const BLOCKS: u64 = 2_000;

/// Held by each test for its whole run, so they never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// The message of `sender` at `nonce`. One key signs for every sender: the
/// pool checks signatures, not key ownership (the VM does).
fn message_at(sender: u64, nonce: u64, key: &Keypair) -> SealedMessage {
    SealedMessage::sign(
        Message::transfer(
            Address::new(1_000 + sender),
            Address::new(1),
            TokenAmount::from_atto(1),
            Nonce::new(nonce),
        ),
        key,
    )
}

/// The first message of `sender`.
fn message(sender: u64, key: &Keypair) -> SealedMessage {
    message_at(sender, 0, key)
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let key = Keypair::from_seed([0x3d; 32]);
    let mut full = Mempool::new();
    for sender in 0..LANES {
        assert!(full.push_sealed(message(sender, &key)));
    }
    assert_eq!(full.len(), LANES as usize);

    let (mut into_empty, mut into_full) = (Duration::MAX, Duration::MAX);
    let (mut calls, mut bytes) = (0, 0);
    for round in 0..ROUNDS {
        let first = LANES + round * BATCH;
        let batch: Vec<SealedMessage> = (first..first + BATCH)
            .map(|sender| message(sender, &key))
            .collect();
        // Clones of never-verified values: both sides verify in full.
        into_empty = into_empty.min(time_pushes(&mut Mempool::new(), batch.clone()));
        let before = CountingAlloc::counts();
        into_full = into_full.min(time_pushes(&mut full, batch));
        let after = CountingAlloc::counts();
        calls += after.calls - before.calls;
        bytes += after.bytes - before.bytes;
    }
    let pushes = (ROUNDS * BATCH) as f64;
    let (calls, bytes) = (calls as f64 / pushes, bytes as f64 / pushes);
    eprintln!("a push into the full pool: {calls:.3} allocations of {bytes:.1} B");
    assert!(
        calls <= MAX_ALLOCS_PER_PUSH,
        "a push into {LANES} lanes made {calls:.3} allocations, ceiling {MAX_ALLOCS_PER_PUSH}"
    );
    assert!(
        bytes <= MAX_BYTES_PER_PUSH,
        "a push into {LANES} lanes allocated {bytes:.1} B, ceiling {MAX_BYTES_PER_PUSH}"
    );
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

#[test]
fn dedup_memory_is_one_floor_per_sender() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let key = Keypair::from_seed([0x3e; 32]);
    let mut pool = Mempool::new();
    for block in 0..BLOCKS {
        for sender in 0..SENDERS {
            assert!(pool.push_sealed(message_at(sender, block, &key)));
        }
        let picked = pool.select(SENDERS as usize);
        assert_eq!(picked.len(), SENDERS as usize);
        pool.remove_included(picked.iter());
        // Every message executes: the account nonce moves one past it.
        for m in &picked {
            pool.set_floor(m.message().from, Nonce::new(block + 1));
        }
    }
    assert_eq!(pool.stats().admitted, SENDERS * BLOCKS);
    assert!(pool.is_empty());
    assert_eq!(
        pool.committed_senders(),
        SENDERS as usize,
        "{} included messages left more than one floor per sender",
        SENDERS * BLOCKS
    );
    // Every included nonce stays refused.
    assert!(!pool.push_sealed(message_at(0, 0, &key)));
    assert!(!pool.push_sealed(message_at(SENDERS - 1, BLOCKS - 1, &key)));
}
