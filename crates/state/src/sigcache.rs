//! A bounded, node-local cache of signatures verified from cold values.
//!
//! A signature verdict normally lives on the value: a message admitted to
//! the mempool is verified there once, and block production and
//! validation on the same node read the verdict memoized on the
//! [`SealedMessage`] (see its module docs). Values that reach a node
//! *cold* carry no verdict — blocks decoded from the journal on recovery,
//! blocks pulled from peers on catch-up — and the same message can arrive
//! that way more than once. The cache remembers the verdicts
//! [`SigCache::verify_sealed`] reached on such values, keyed by the exact
//! `(signer, message CID, signature tag)` triple, so a node pays for one
//! full verification per triple.
//!
//! # Trust model
//!
//! The cache stores only triples that *passed* full verification, and a
//! lookup requires the exact triple — signer, memoized message CID, and raw
//! signature tag. A hit therefore implies the same signer produced the same
//! tag over the same content that already verified; a tampered message or
//! forged tag changes the key and takes the miss path, which is a full
//! verification. Untrusted inputs are never trusted uncached, and negative
//! verdicts are never cached (a signer registered later may turn a failure
//! into a success, and caching failures would let an attacker pin them).
//!
//! Bounded FIFO eviction keeps memory O(capacity); an evicted entry simply
//! re-verifies on next sight. Handles are cheaply cloneable and share one
//! cache (the [`CidStore`](crate::CidStore) pattern), so a node's mempool
//! and executor consult the same verdicts. The counters are atomics beside
//! the lock: a verdict read off the value's memo counts as a hit without
//! touching the set.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hc_types::{Cid, PublicKey};

use crate::sealed::SealedMessage;

/// Default number of verified signatures a node remembers — a few blocks'
/// worth of distinct messages for the busiest configurations. A key is
/// 96 B and is held twice, in the set and in the FIFO; at 65 536 entries
/// both have grown to 131 072 slots, so a full cache holds ≈ 24 MiB
/// per node (12.1 MiB of set buckets with their control bytes, 12 MiB of
/// queue).
pub const DEFAULT_SIG_CACHE_CAPACITY: usize = 65_536;

/// The exact identity of one verified signature.
type SigKey = (PublicKey, Cid, [u8; 32]);

/// Running counters of cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Verdicts answered without a full verification: read off the
    /// value's memo, or found in the cache.
    pub hits: u64,
    /// Lookups that fell through to full verification.
    pub misses: u64,
    /// Verified signatures inserted.
    pub inserts: u64,
    /// Entries evicted by the FIFO bound.
    pub evictions: u64,
}

impl SigCacheStats {
    /// Accumulates `other` into `self` (aggregation across nodes).
    pub fn merge(&mut self, other: SigCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

#[derive(Debug, Default)]
struct Entries {
    set: HashSet<SigKey>,
    order: VecDeque<SigKey>,
}

#[derive(Debug)]
struct Inner {
    entries: Mutex<Entries>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// A bounded verified-signature cache. Cloning yields another handle to the
/// same cache.
#[derive(Debug, Clone)]
pub struct SigCache {
    inner: Arc<Inner>,
}

impl SigCache {
    /// Creates an empty cache holding at most `capacity` verdicts
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SigCache {
            inner: Arc::new(Inner {
                entries: Mutex::new(Entries::default()),
                capacity: capacity.max(1),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Returns the signature verdict for `sealed`: `true` if the value
    /// already carries a passing verdict or this exact `(signer, msg_cid,
    /// tag)` triple already passed verification here, otherwise the result
    /// of a full verification — remembered when it succeeds. This is the
    /// path for values that arrive cold (decoded blocks).
    ///
    /// By construction this returns exactly what
    /// [`SealedMessage::verify_signature`] would, so callers may substitute
    /// it freely without changing receipts.
    pub fn verify_sealed(&self, sealed: &SealedMessage) -> bool {
        self.verdict(sealed, true)
    }

    /// [`SigCache::verify_sealed`] that records nothing: the cache is read
    /// only when the value carries no verdict, and a full verification's
    /// result stays on the value alone. Mempool admission uses this — the
    /// admitted value carries its verdict on to block production.
    pub fn lookup_or_verify(&self, sealed: &SealedMessage) -> bool {
        self.verdict(sealed, false)
    }

    fn verdict(&self, sealed: &SealedMessage, record: bool) -> bool {
        if sealed.is_verified() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let key: SigKey = (
            sealed.signature().signer(),
            sealed.msg_cid(),
            *sealed.signature().tag(),
        );
        if self.lock().set.contains(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            sealed.mark_verified();
            return true;
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        // Full verification outside the lock: the expensive path must not
        // serialize concurrent pre-verification workers.
        let ok = sealed.verify_signature();
        if ok && record {
            self.insert(key);
        }
        ok
    }

    fn insert(&self, key: SigKey) {
        let mut entries = self.lock();
        if !entries.set.insert(key) {
            return;
        }
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
        entries.order.push_back(key);
        if entries.order.len() > self.inner.capacity {
            if let Some(old) = entries.order.pop_front() {
                entries.set.remove(&old);
                self.inner.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.inner.entries.lock().expect("sig cache lock")
    }

    /// Counters so far.
    pub fn stats(&self) -> SigCacheStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SigCacheStats {
            hits: load(&self.inner.hits),
            misses: load(&self.inner.misses),
            inserts: load(&self.inner.inserts),
            evictions: load(&self.inner.evictions),
        }
    }

    /// Number of verdicts currently held.
    pub fn len(&self) -> usize {
        self.lock().set.len()
    }

    /// Returns `true` when no verdicts are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The FIFO bound.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

impl Default for SigCache {
    fn default() -> Self {
        SigCache::new(DEFAULT_SIG_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, Method};
    use hc_types::{Address, Keypair, Nonce, Signature, TokenAmount};

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

    /// A copy of `m` as it would arrive decoded: same content, no verdict.
    fn cold(m: &SealedMessage) -> SealedMessage {
        SealedMessage::new(m.signed().clone())
    }

    #[test]
    fn second_sight_is_a_hit_and_skips_verification() {
        let cache = SigCache::new(8);
        let kp = Keypair::from_seed([0xa0; 32]);
        let m = sealed(0, &kp);
        assert!(cache.verify_sealed(&m));
        // A cold copy hits the set, and the hit warms its memo.
        let again = cold(&m);
        assert!(cache.verify_sealed(&again));
        assert!(again.is_verified());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_memoized_verdict_is_a_hit_without_an_entry() {
        let cache = SigCache::new(8);
        let kp = Keypair::from_seed([0xa4; 32]);
        let m = sealed(0, &kp);
        assert!(m.verify_signature());
        assert!(cache.verify_sealed(&m));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 0, 0));
        assert!(cache.is_empty(), "a memo read never touches the set");
    }

    #[test]
    fn lookup_or_verify_records_nothing() {
        let cache = SigCache::new(8);
        let kp = Keypair::from_seed([0xa5; 32]);
        let m = sealed(0, &kp);
        assert!(cache.lookup_or_verify(&m));
        assert!(m.is_verified(), "the verdict stays on the value");
        assert!(cache.is_empty());
        // A cold copy misses again: nothing was recorded.
        assert!(cache.lookup_or_verify(&cold(&m)));
        // But it reads what a recording verification left behind.
        assert!(cache.verify_sealed(&cold(&m)));
        assert!(cache.lookup_or_verify(&cold(&m)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 3, 1));
    }

    #[test]
    fn invalid_signatures_are_never_cached() {
        let cache = SigCache::new(8);
        let kp = Keypair::from_seed([0xa1; 32]);
        let mut bad = sealed(0, &kp).into_signed();
        bad.signature = Signature::new_unchecked(kp.public(), [0u8; 32]);
        let bad = SealedMessage::new(bad);
        assert!(!cache.verify_sealed(&bad));
        assert!(!cache.verify_sealed(&bad), "failure re-verifies every time");
        assert!(!bad.is_verified());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn tampered_tag_misses_even_after_a_valid_entry() {
        let cache = SigCache::new(8);
        let kp = Keypair::from_seed([0xa2; 32]);
        let good = sealed(0, &kp);
        assert!(cache.verify_sealed(&good));
        // Same message, forged tag: key differs, miss path, rejected.
        let mut forged = good.signed().clone();
        forged.signature = Signature::new_unchecked(kp.public(), [7u8; 32]);
        assert!(!cache.verify_sealed(&SealedMessage::new(forged)));
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let cache = SigCache::new(2);
        let kp = Keypair::from_seed([0xa3; 32]);
        let first = sealed(0, &kp);
        assert!(cache.verify_sealed(&first));
        assert!(cache.verify_sealed(&sealed(1, &kp)));
        assert!(cache.verify_sealed(&sealed(2, &kp))); // evicts nonce 0
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted entry still verifies — via the miss path.
        assert!(cache.verify_sealed(&cold(&first)));
        assert_eq!(cache.stats().hits, 0);
    }
}
