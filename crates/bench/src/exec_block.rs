//! The parallel block-execution experiment: one transfer workload swept
//! across conflict ratios, produced and validated at several `parallelism`
//! settings.
//!
//! The workload dials contention with a single knob: `conflict_pct` percent
//! of the block's messages come from one hot sender (they chain into a
//! single dependency lane), the rest each move value between a private pair
//! of accounts nobody else touches (one singleton lane each). At 0% the
//! access-set [`Schedule`] is embarrassingly parallel;
//! at 100% it degenerates to the sequential chain and the engine can do no
//! better than one worker.
//!
//! The determinism guard in `tests/exec_block_guard.rs` pins the schedule's
//! critical path on the disjoint workload and asserts receipts, blocks, and
//! state roots bit-identical at every parallelism; wall-clock is an
//! `hc-e2e --workload flat8-par2` row (`chain.execute_s`).

use hc_actors::ScaConfig;
use hc_chain::{
    execute_block_with, produce_block_with, Block, ExecOptions, ExecutedBlock, Schedule,
};
use hc_state::{Message, Receipt, SealedMessage, StateTree};
use hc_types::{Address, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount};

/// The hot sender every conflicting message spends from.
pub const HOT_SENDER: Address = Address::new(50);

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x78; // 'x' for exec-block
    Keypair::from_seed(seed)
}

/// A funded genesis for a `pairs`-message workload: the hot sender plus one
/// private `(sender, recipient)` account pair per message slot.
pub fn genesis(pairs: usize) -> StateTree {
    let hot = (
        HOT_SENDER,
        keypair(0).public(),
        TokenAmount::from_whole(1_000_000),
    );
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        std::iter::once(hot).chain((0..2 * pairs as u64).map(|i| {
            (
                Address::new(100 + i),
                keypair(1 + i).public(),
                TokenAmount::from_whole(1_000),
            )
        })),
    )
}

/// Deterministic workload of `n` transfers at `conflict_pct` percent
/// contention: message `i` spends from the hot sender when
/// `i % 100 < conflict_pct` (dense nonces, one shared dependency chain) and
/// otherwise from its own pair sender (nonce 0, touching accounts no other
/// message reads or writes).
pub fn workload(n: usize, conflict_pct: u32) -> Vec<SealedMessage> {
    let mut hot_nonce = 0u64;
    (0..n)
        .map(|i| {
            let recipient = Address::new(100 + 2 * i as u64 + 1);
            if (i as u32) % 100 < conflict_pct {
                let nonce = hot_nonce;
                hot_nonce += 1;
                Message::transfer(
                    HOT_SENDER,
                    recipient,
                    TokenAmount::from_atto(1),
                    Nonce::new(nonce),
                )
                .sign(&keypair(0))
                .into()
            } else {
                let sender_idx = 2 * i as u64;
                Message::transfer(
                    Address::new(100 + sender_idx),
                    recipient,
                    TokenAmount::from_atto(1),
                    Nonce::ZERO,
                )
                .sign(&keypair(1 + sender_idx))
                .into()
            }
        })
        .collect()
}

/// Produces a block over `msgs` on `tree` at the given engine parallelism.
pub fn produce(
    tree: &mut StateTree,
    msgs: Vec<SealedMessage>,
    parallelism: usize,
) -> ExecutedBlock {
    produce_block_with(
        tree,
        SubnetId::root(),
        ChainEpoch::new(1),
        Cid::NIL,
        vec![],
        msgs,
        &keypair(0),
        1_000,
        ExecOptions {
            sig_cache: None,
            parallelism,
        },
    )
}

/// Validates `block` on `tree` at the given engine parallelism.
pub fn validate(tree: &mut StateTree, block: &Block, parallelism: usize) -> Vec<Receipt> {
    execute_block_with(
        tree,
        block,
        ExecOptions {
            sig_cache: None,
            parallelism,
        },
    )
    .expect("workload block validates")
}

/// The schedule a workload induces — lane structure and critical paths are
/// pure functions of the payload.
pub fn schedule_of(msgs: &[SealedMessage]) -> Schedule {
    Schedule::build(msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_knob_shapes_the_schedule() {
        let n = 200;
        // Disjoint: one singleton lane per message.
        let s = schedule_of(&workload(n, 0)).stats();
        assert_eq!((s.messages, s.lanes, s.longest_lane), (n, n, 1));
        // Fully hot: one chain, no parallelism to extract.
        let s = schedule_of(&workload(n, 100)).stats();
        assert_eq!((s.messages, s.lanes, s.longest_lane), (n, 1, n));
        // Half hot: the hot lane holds half the block.
        let s = schedule_of(&workload(n, 50)).stats();
        assert_eq!(s.longest_lane, n / 2);
        assert_eq!(s.lanes, 1 + n / 2);
    }

    #[test]
    fn every_workload_message_succeeds() {
        let mut tree = genesis(64);
        tree.flush();
        let executed = produce(&mut tree, workload(64, 30), 4);
        assert!(executed.receipts.iter().all(|r| r.exit.is_ok()));
    }
}
