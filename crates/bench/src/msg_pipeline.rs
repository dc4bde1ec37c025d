//! The message-path crypto pipeline experiment: admission → block
//! production → block validation over one workload, driven through the
//! real APIs ([`end_to_end`]).
//!
//! Sealed messages have their CIDs and their signature verdict memoized at
//! admission, so production and validation read the verdicts off the
//! values (counted as hits when counters are wired); signatures that
//! arrive without one are batch pre-verified across worker threads. The
//! guard in `tests/msg_pipeline_guard.rs` checks that this changes
//! *nothing* observable against the same APIs at [`ExecOptions::default`]
//! without counters, and caps the pipeline's
//! [`hc_types::crypto::sha256_block_count`] per message — a deterministic
//! work proxy immune to machine noise; wall-clock is `hc-e2e`'s
//! `commit_tput_wall`.

use hc_actors::ScaConfig;
use hc_chain::{execute_block_with, produce_block_with, ExecOptions, Mempool};
use hc_state::{
    Message, Method, Receipt, SealedMessage, SigCache, SigCacheStats, SignedMessage, StateTree,
};
use hc_types::{Address, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount};

/// Senders in the workload.
pub const USERS: u64 = 16;

/// Size of the contract writes mixed into the workload, in bytes. Large
/// enough that encoding cost is visible, small enough to stay
/// message-shaped.
pub const PUT_BYTES: usize = 256;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x6d; // 'm' for message-pipeline
    Keypair::from_seed(seed)
}

/// A funded genesis for the workload's senders.
pub fn genesis() -> StateTree {
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..USERS).map(|i| {
            (
                Address::new(100 + i),
                keypair(i).public(),
                TokenAmount::from_whole(1_000_000),
            )
        }),
    )
}

/// Deterministic workload of `n` signed messages: round-robin across
/// [`USERS`] senders with dense nonces, three transfers to every
/// [`PUT_BYTES`]-byte contract write.
pub fn workload(n: usize) -> Vec<SignedMessage> {
    let mut nonces = vec![0u64; USERS as usize];
    (0..n)
        .map(|i| {
            let u = (i as u64) % USERS;
            let nonce = nonces[u as usize];
            nonces[u as usize] += 1;
            let (to, value, method) = if i % 4 == 0 {
                (
                    Address::new(100 + u),
                    TokenAmount::ZERO,
                    Method::PutData {
                        key: vec![(i / 4 % 200) as u8].into(),
                        data: vec![0xAB; PUT_BYTES].into(),
                    },
                )
            } else {
                (
                    Address::new(100 + (u + 1) % USERS),
                    TokenAmount::from_atto(1),
                    Method::Send,
                )
            };
            Message {
                from: Address::new(100 + u),
                to,
                value,
                nonce: Nonce::new(nonce),
                method,
            }
            .sign(&keypair(u))
        })
        .collect()
}

/// What a full admission → produce → validate pass observed: the
/// consensus-visible outputs, which must not depend on the counters or
/// the worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Receipts of the executed payload, in execution order.
    pub receipts: Vec<Receipt>,
    /// State root after the validator applied the block.
    pub state_root: Cid,
}

/// Full pass over `msgs`: sealed admission through the [`Mempool`],
/// production via [`produce_block_with`] on a fresh producer state, and
/// validation via [`execute_block_with`] on a fresh validator state, with
/// signatures pre-verified on `parallelism` threads.
///
/// With `cache` given, the mempool, the producer and the validator all
/// count on it — the single-node model: the validator executes the block
/// the producer built on the same node, so it reads the verdicts admission
/// memoized on the messages exactly like this.
pub fn end_to_end(
    msgs: &[SignedMessage],
    cache: Option<&SigCache>,
    parallelism: usize,
) -> RunOutcome {
    let mut pool = match cache {
        Some(c) => Mempool::new().with_sig_cache(c.clone()),
        None => Mempool::new(),
    };
    for m in msgs {
        pool.push_sealed(SealedMessage::new(m.clone()));
    }
    let selected = pool.select(usize::MAX);

    let opts = ExecOptions {
        sig_cache: cache,
        parallelism,
    };
    let mut producer = genesis();
    let executed = produce_block_with(
        &mut producer,
        SubnetId::root(),
        ChainEpoch::new(1),
        Cid::NIL,
        vec![],
        selected,
        &keypair(0),
        1_000,
        opts,
    );
    let mut validator = genesis();
    let receipts = execute_block_with(&mut validator, &executed.block, opts).expect("valid block");
    RunOutcome {
        receipts,
        state_root: validator.flush(),
    }
}

/// [`end_to_end`] over fresh verification counters, also returning them.
pub fn pipeline_end_to_end_with_stats(
    msgs: &[SignedMessage],
    parallelism: usize,
) -> (RunOutcome, SigCacheStats) {
    let cache = SigCache::default();
    let outcome = end_to_end(msgs, Some(&cache), parallelism);
    (outcome, cache.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_pipeline_agrees_with_the_uncached_default() {
        let msgs = workload(200);
        let reference = end_to_end(&msgs, None, ExecOptions::default().parallelism);
        for parallelism in [1, 4] {
            let (outcome, stats) = pipeline_end_to_end_with_stats(&msgs, parallelism);
            assert_eq!(
                outcome, reference,
                "divergence at parallelism {parallelism}"
            );
            // Admission misses once per message; production and
            // validation both read the memoized verdicts.
            assert_eq!(stats.misses, 200);
            assert_eq!(stats.hits, 400);
        }
    }
}
