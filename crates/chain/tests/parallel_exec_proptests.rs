//! Property tests of the parallel execution engine's determinism guarantee:
//! for any payload — swept from fully disjoint account pairs to
//! all-same-sender, salted with forged signatures, bad nonces, unknown
//! senders, over-balance transfers, and serial (system-touching) barrier
//! messages — block production and validation yield bit-identical receipts,
//! blocks, gas, and state roots at every `parallelism` setting, equal to
//! what [`sequential_oracle`] computes without the engine: the messages
//! applied one after another to a bare tree through the public vm API.

use proptest::prelude::*;

use hc_actors::ScaConfig;
use hc_chain::{execute_block_with, produce_block_with, ExecOptions, Schedule};
use hc_state::{
    apply_implicit, apply_sealed, ImplicitMsg, Message, Method, Receipt, SealedMessage, StateTree,
};
use hc_types::{Address, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount};

const USERS: u64 = 24;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x5c;
    Keypair::from_seed(seed)
}

fn genesis() -> StateTree {
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..USERS).map(|i| {
            (
                Address::new(100 + i),
                keypair(i).public(),
                TokenAmount::from_whole(1_000),
            )
        }),
    )
}

/// One generated payload entry before conflict-mode shaping.
type Op = (u64, u64, u8, u32);

/// Materialises a payload from generated ops under a conflict mode:
/// 0 = round-robin senders (mostly disjoint pairs → many lanes),
/// 1 = generated senders (mixed conflicts),
/// 2 = single sender (fully serialised dependency chain).
fn build_payload(ops: &[Op], mode: usize) -> Vec<SealedMessage> {
    let mut nonces = [0u64; USERS as usize];
    ops.iter()
        .enumerate()
        .map(|(idx, &(from_sel, to_sel, kind, atto))| {
            let from = match mode {
                0 => idx as u64 % USERS,
                1 => from_sel % USERS,
                _ => 0,
            };
            // Every entry burns the sender's nonce slot, like a proposer
            // draining a per-sender queue; entries whose authentication
            // fails leave the on-chain nonce behind the tracker, so later
            // entries cascade into deterministic nonce rejections. That
            // is exactly the kind of failure the sweep must keep
            // bit-identical across parallelism settings.
            let nonce = nonces[from as usize];
            nonces[from as usize] += 1;
            let key = keypair(from);
            match kind {
                // Forged signature: wrong key, fails verification.
                5 => Message::transfer(
                    Address::new(100 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_atto(u128::from(atto) + 1),
                    Nonce::new(nonce),
                )
                .sign(&keypair(from + 77))
                .into(),
                // Bad nonce: skips ahead, rejected deterministically.
                6 => Message::transfer(
                    Address::new(100 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_atto(u128::from(atto) + 1),
                    Nonce::new(nonce + 7),
                )
                .sign(&key)
                .into(),
                // Unknown sender: no such account, rejected before the
                // signature is even checked.
                7 => Message::transfer(
                    Address::new(500 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_atto(u128::from(atto) + 1),
                    Nonce::ZERO,
                )
                .sign(&key)
                .into(),
                // Over-balance transfer: authenticates, then fails.
                8 => Message::transfer(
                    Address::new(100 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_whole(1_000_000),
                    Nonce::new(nonce),
                )
                .sign(&key)
                .into(),
                // Serial barrier: touches the SCA, never enters a lane.
                9 => Message {
                    from: Address::new(100 + from),
                    to: Address::SCA,
                    value: TokenAmount::ZERO,
                    nonce: Nonce::new(nonce),
                    method: Method::SaveState { state: Cid::NIL },
                }
                .sign(&key)
                .into(),
                // Honest transfer (most of the weight range).
                _ => Message::transfer(
                    Address::new(100 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_atto(u128::from(atto) + 1),
                    Nonce::new(nonce),
                )
                .sign(&key)
                .into(),
            }
        })
        .collect()
}

const EPOCH: ChainEpoch = ChainEpoch::new(1);

/// The implicit part of every payload here: one system message, so the
/// implicit-first order is part of what is compared.
fn implicit() -> Vec<ImplicitMsg> {
    vec![ImplicitMsg::SweepAtomicTimeouts { timeout: 10 }]
}

/// The oracle: the block's messages applied in block order to a bare tree.
/// It shares the vm with the engine and nothing else — no schedule, no
/// lanes, no overlays, no `fan_out` — so "N workers ≡ sequential" is
/// checked against independent code at every worker count, 1 included.
fn sequential_oracle(signed: &[SealedMessage]) -> (Vec<Receipt>, Cid) {
    let mut tree = genesis();
    let mut receipts = Vec::new();
    for m in &implicit() {
        receipts.push(apply_implicit(&mut tree, EPOCH, m));
    }
    for m in signed {
        receipts.push(apply_sealed(&mut tree, EPOCH, m, m.verify_signature()));
    }
    (receipts, tree.flush())
}

/// Produces `msgs` at `parallelism`, validates the block on a fresh tree,
/// checks both against the oracle's receipts and root, and returns the
/// block.
fn produce_and_validate_against_oracle(
    msgs: &[SealedMessage],
    (oracle_receipts, oracle_root): &(Vec<Receipt>, Cid),
    parallelism: usize,
) -> hc_chain::Block {
    let opts = ExecOptions {
        sig_cache: None,
        parallelism,
    };
    let mut tree = genesis();
    let produced = produce_block_with(
        &mut tree,
        SubnetId::root(),
        EPOCH,
        Cid::NIL,
        implicit(),
        msgs.to_vec(),
        &keypair(99),
        1_000,
        opts,
    );
    assert_eq!(&produced.receipts, oracle_receipts, "at {parallelism}");
    assert_eq!(produced.block.header.state_root, *oracle_root);
    assert_eq!(tree.flush(), *oracle_root);
    assert_eq!(
        produced.gas_used(),
        oracle_receipts.iter().map(|r| r.gas_used).sum::<u64>()
    );

    // Validation replays on the same engine to the same state; a
    // from-scratch root rebuild agrees with the incremental one.
    let mut validator = genesis();
    let receipts = execute_block_with(&mut validator, &produced.block, opts).unwrap();
    assert_eq!(&receipts, oracle_receipts, "validation at {parallelism}");
    assert_eq!(validator.flush(), *oracle_root);
    assert_eq!(validator.recompute_root(), *oracle_root);
    produced.block
}

/// One worker is the same engine, not a second loop: a same-sender chain
/// (one lane, block order), a serial barrier splitting the lanes, and a
/// forged signature whose verdict is decided before execution all come out
/// as the oracle says.
#[test]
fn one_worker_matches_the_oracle_across_a_barrier_a_chain_and_a_forgery() {
    // (from, to, kind): 9 = serial barrier, 5 = forged signature.
    let ops: Vec<Op> = vec![
        (0, 1, 0, 10),
        (0, 2, 0, 20),
        (3, 4, 0, 30),
        (5, 0, 9, 0),
        (0, 3, 0, 40),
        (6, 7, 5, 50),
        (6, 8, 0, 60),
    ];
    let msgs = build_payload(&ops, 1);
    let stats = Schedule::build(&msgs).stats();
    assert_eq!(stats.serial, 1);
    assert_eq!(stats.segments, 3);
    let oracle = sequential_oracle(&msgs);
    let failed: Vec<usize> = (0..oracle.0.len())
        .filter(|&i| !oracle.0[i].exit.is_ok())
        .collect();
    // Implicit receipt first; the forgery fails, and so does the honest
    // message queued behind it on the same sender (its nonce never moved).
    assert_eq!(failed, vec![6, 7]);
    produce_and_validate_against_oracle(&msgs, &oracle, 1);
}

proptest! {
    /// Receipts, the produced block, gas and the resulting state root equal
    /// the sequential oracle at parallelism {1, 2, 4, 8} — and therefore
    /// each other — at every conflict ratio from disjoint pairs to
    /// all-same-sender.
    #[test]
    fn every_worker_count_matches_the_sequential_oracle(
        ops in prop::collection::vec(
            (0u64..USERS, 0u64..USERS, 0u8..10, 1u32..1_000_000),
            1..48,
        ),
        mode in 0usize..3,
    ) {
        let msgs = build_payload(&ops, mode);

        // The schedule covers the payload exactly, whatever its shape.
        let stats = Schedule::build(&msgs).stats();
        prop_assert_eq!(stats.messages, msgs.len());

        let oracle = sequential_oracle(&msgs);
        let blocks: Vec<hc_chain::Block> = [1usize, 2, 4, 8]
            .iter()
            .map(|&p| produce_and_validate_against_oracle(&msgs, &oracle, p))
            .collect();
        for block in &blocks[1..] {
            prop_assert_eq!(block, &blocks[0]);
        }
    }
}
