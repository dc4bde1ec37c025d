//! A node's signature-verification counters.
//!
//! A signature verdict lives on the value and nowhere else: a message
//! admitted to the mempool is verified there once, and block production
//! and validation on the same node read the verdict memoized on the
//! [`SealedMessage`] (see its module docs). A value that reaches a node
//! *cold* — a block decoded from the journal on recovery, or pulled from a
//! peer on catch-up — carries no verdict and is verified in full, once;
//! no cold value arrives twice (DESIGN.md §10 "Signature verdicts").
//!
//! [`SigCache::verify_sealed`] is that one check, counted: a hit when the
//! value already carries a verdict, a miss when it is verified in full.
//! Handles are cheaply cloneable and share one pair of counters, so a
//! node's mempool and executor count together.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sealed::SealedMessage;

/// Running verification counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Verdicts read off the value's memo, without a verification.
    pub hits: u64,
    /// Full verifications.
    pub misses: u64,
}

impl SigCacheStats {
    /// Accumulates `other` into `self` (aggregation across nodes).
    pub fn merge(&mut self, other: SigCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A node's verification counters. Cloning yields another handle to the
/// same counters.
#[derive(Debug, Clone, Default)]
pub struct SigCache {
    counters: Arc<Counters>,
}

impl SigCache {
    /// Creates fresh counters. `_capacity` is ignored; kept because
    /// `e2e/src/replay.rs` names it. ROADMAP's "Benchmark round two" item
    /// deletes it.
    pub fn new(_capacity: usize) -> Self {
        Self::default()
    }

    /// Returns the signature verdict for `sealed`, exactly what
    /// [`SealedMessage::verify_signature`] returns (which memoizes a pass
    /// on the value), and counts a hit when the value already carried a
    /// verdict, a miss otherwise.
    pub fn verify_sealed(&self, sealed: &SealedMessage) -> bool {
        if sealed.is_verified() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        sealed.verify_signature()
    }

    /// Counters so far.
    pub fn stats(&self) -> SigCacheStats {
        SigCacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, Method, SignedMessage};
    use hc_types::{
        Address, CanonicalDecode, CanonicalEncode, Keypair, Nonce, Signature, TokenAmount,
    };

    fn sealed(nonce: u64, kp: &Keypair) -> SealedMessage {
        Message {
            from: Address::new(100),
            to: Address::new(101),
            value: TokenAmount::from_whole(1),
            nonce: Nonce::new(nonce),
            method: Method::Send,
        }
        .sign(kp)
        .into()
    }

    #[test]
    fn a_cold_copy_is_verified_again() {
        let cache = SigCache::default();
        let kp = Keypair::from_seed([0xa0; 32]);
        let bytes = sealed(0, &kp).signed().canonical_bytes();
        // Two values decoded from the same bytes: neither carries a
        // verdict, and nothing but the value remembers one.
        for _ in 0..2 {
            let decoded = SignedMessage::decode(&bytes).expect("decodes");
            assert!(cache.verify_sealed(&SealedMessage::new(decoded)));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn a_memoized_verdict_is_a_hit() {
        let cache = SigCache::default();
        let kp = Keypair::from_seed([0xa4; 32]);
        let m = sealed(0, &kp);
        assert!(m.verify_signature());
        assert!(cache.verify_sealed(&m.clone()), "clones carry the verdict");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    #[test]
    fn invalid_signatures_are_never_memoized() {
        let cache = SigCache::default();
        let kp = Keypair::from_seed([0xa1; 32]);
        let mut bad = sealed(0, &kp).into_signed();
        bad.signature = Signature::new_unchecked(kp.public(), [0u8; 32]);
        let bad = SealedMessage::new(bad);
        assert!(!cache.verify_sealed(&bad));
        assert!(!cache.verify_sealed(&bad), "failure re-verifies every time");
        assert!(!bad.is_verified());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn tampered_tag_misses_even_after_a_valid_verdict() {
        let cache = SigCache::default();
        let kp = Keypair::from_seed([0xa2; 32]);
        let good = sealed(0, &kp);
        assert!(cache.verify_sealed(&good));
        // Same message, forged tag: a new value, full verification, rejected.
        let mut forged = good.signed().clone();
        forged.signature = Signature::new_unchecked(kp.public(), [7u8; 32]);
        assert!(!cache.verify_sealed(&SealedMessage::new(forged)));
        assert_eq!(cache.stats().hits, 0);
    }
}
