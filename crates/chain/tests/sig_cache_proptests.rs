//! Property tests of the crypto pipeline's equivalence guarantee: for any
//! transfer schedule, block production and validation yield bit-identical
//! receipts, blocks, and state roots with the signature verdicts memoized
//! on the messages or not, the verification counters on or off, and at
//! any pre-verification parallelism — including schedules salted with
//! messages whose signatures are invalid. Along the way the verdict memo
//! must be sound: a failed verification never sets it, a decoded copy
//! starts without it, and nothing but the value remembers a verdict.

use proptest::prelude::*;

use hc_actors::ScaConfig;
use hc_chain::{execute_block_with, produce_block_with, Block, ExecOptions, Mempool};
use hc_state::{Message, Method, SealedMessage, SigCache, StateTree};
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, Signature,
    SubnetId, TokenAmount,
};

const USERS: u64 = 3;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x7a;
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

/// A forged tag: the signature does not verify.
const FORGED: u64 = 0;
/// A valid signature by a key the sender does not own: it verifies, and
/// the VM rejects it.
const WRONG_SIGNER: u64 = 1;

/// Builds a sealed transfer of the given kind ([`FORGED`],
/// [`WRONG_SIGNER`], or anything else for an honest one).
fn transfer(from: u64, nonce: u64, atto: u64, kind: u64) -> SealedMessage {
    let key = if kind == WRONG_SIGNER {
        keypair(from + 77)
    } else {
        keypair(from)
    };
    let mut signed = Message {
        from: Address::new(100 + from),
        to: Address::new(100 + (from + 1) % USERS),
        value: TokenAmount::from_atto(u128::from(atto)),
        nonce: Nonce::new(nonce),
        method: Method::Send,
    }
    .sign(&key);
    if kind == FORGED {
        signed.signature = Signature::new_unchecked(key.public(), [0x5a; 32]);
    }
    signed.into()
}

proptest! {
    /// Receipts, the produced block, and the resulting state root are
    /// identical across {memo warm, memo cold} × {no cache, cache} ×
    /// parallelism {1, 4}, and every cache counts exactly one full
    /// verification per valid signature it saw cold.
    #[test]
    fn pipeline_options_never_change_results(
        schedule in prop::collection::vec(
            (0u64..USERS, 1u64..1_000_000, 0u64..4),
            1..25,
        ),
    ) {
        let mut nonces = [0u64; USERS as usize];
        let msgs: Vec<SealedMessage> = schedule
            .iter()
            .map(|(u, atto, kind)| {
                // Rejected messages burn the nonce slot anyway: the payload
                // keeps per-sender nonce order so only signature validity
                // differs between schedule entries.
                let m = transfer(*u, nonces[*u as usize], *atto, *kind);
                nonces[*u as usize] += 1;
                m
            })
            .collect();
        let valid: Vec<bool> = schedule.iter().map(|(_, _, kind)| *kind != FORGED).collect();
        let forged = valid.iter().filter(|v| !**v).count() as u64;
        let verifying = msgs.len() as u64 - forged;
        let proposer = keypair(99);

        // Admission verifies each message once and keeps the passing
        // verdict on the admitted value.
        let admission_cache = SigCache::default();
        let mut pool = Mempool::new().with_sig_cache(admission_cache.clone());
        let admitted = msgs.iter().filter(|m| pool.push_sealed(SealedMessage::clone(m))).count();
        prop_assert_eq!(admitted as u64, verifying);
        prop_assert!(pool.iter().all(SealedMessage::is_verified));
        prop_assert_eq!(admission_cache.stats().misses, msgs.len() as u64);

        // Memo-warm copies: a verdict memoized where verification passed,
        // never where it failed.
        let warm = msgs.clone();
        for (m, ok) in warm.iter().zip(&valid) {
            prop_assert_eq!(m.verify_signature(), *ok);
            prop_assert_eq!(m.is_verified(), *ok);
        }
        prop_assert!(msgs.iter().all(|m| !m.is_verified()), "an earlier clone stays cold");

        // Reference: cold messages, no counters, sequential verification.
        let mut ref_tree = genesis();
        let reference = produce_block_with(
            &mut ref_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            msgs.clone(),
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        let ref_root = ref_tree.flush();
        prop_assert!(
            reference.receipts.iter().zip(&schedule).all(|(r, (_, _, kind))| {
                *kind > WRONG_SIGNER || !r.exit.is_ok()
            }),
            "forged and wrong-signer messages are rejected"
        );
        for (m, ok) in reference.block.signed_msgs.iter().zip(&valid) {
            prop_assert_eq!(m.is_verified(), *ok, "production memoizes passing verdicts only");
        }
        // The block as a peer or the journal hands it over: no verdicts.
        let bytes = reference.block.canonical_bytes();
        let decode = || Block::decode(&bytes).unwrap();
        prop_assert!(decode().signed_msgs.iter().all(|m| !m.is_verified()));

        for memo_warm in [true, false] {
            for with_cache in [false, true] {
                for parallelism in [1usize, 4] {
                    let cache = SigCache::default();
                    let opts = ExecOptions {
                        sig_cache: with_cache.then_some(&cache),
                        parallelism,
                    };
                    let (payload, block) = if memo_warm {
                        (warm.clone(), reference.block.clone())
                    } else {
                        (msgs.clone(), decode())
                    };
                    let mut tree = genesis();
                    let produced = produce_block_with(
                        &mut tree,
                        SubnetId::root(),
                        ChainEpoch::new(1),
                        Cid::NIL,
                        vec![],
                        payload,
                        &proposer,
                        1_000,
                        opts,
                    );
                    prop_assert_eq!(&produced.receipts, &reference.receipts);
                    prop_assert_eq!(&produced.block, &reference.block);
                    prop_assert_eq!(tree.flush(), ref_root);

                    // Validation replays to the same state under the same
                    // options.
                    let mut validator = genesis();
                    let receipts = execute_block_with(&mut validator, &block, opts).unwrap();
                    prop_assert_eq!(&receipts, &reference.receipts);
                    prop_assert_eq!(validator.flush(), ref_root);

                    let stats = cache.stats();
                    if !with_cache {
                        prop_assert_eq!(stats, hc_state::SigCacheStats::default());
                    } else if memo_warm {
                        // Both passes read the memo; forgeries fail twice.
                        prop_assert_eq!(stats.hits, 2 * verifying);
                        prop_assert_eq!(stats.misses, 2 * forged);
                    } else {
                        // Production and validation each hold their own
                        // cold copy: each verifies every message in full.
                        prop_assert_eq!(stats.hits, 0);
                        prop_assert_eq!(stats.misses, 2 * (verifying + forged));
                    }
                }
            }
        }
    }
}
