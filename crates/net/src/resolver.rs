//! The cross-net content-resolution protocol (paper §IV-C).
//!
//! Checkpoints carry only the *CIDs* of cross-message groups
//! (`CrossMsgMeta`), so a destination subnet must fetch the raw messages
//! before it can apply them. Two paths exist:
//!
//! * **push** — "as the checkpoints and CrossMsgMetas move up the
//!   hierarchy, miners publish to the pubsub topic of the corresponding
//!   subnet the whole DAG belonging to the CID". Peers may cache or
//!   discard pushed content.
//! * **pull** — a destination that cannot resolve a CID locally "can
//!   resolve the messages behind the CID by sending a pull request to the
//!   originating subnet"; any peer holding the content answers with a
//!   *resolve* message on the requester's topic, giving every other pool
//!   a chance to cache it too.
//!
//! [`Resolver`] implements the per-node state machine over these three
//! message kinds, backed by a validated, bounded [`ContentCache`]. On a
//! lossy transport a pull can vanish in either direction, so every
//! outstanding pull carries a per-request timeout with capped exponential
//! backoff and a retry budget ([`RetryPolicy`]); requests that exhaust
//! the budget are *abandoned* and surfaced in
//! [`ResolverStats::pulls_abandoned`] — degraded, never silently lost.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hc_actors::{CrossMsg, FundCertificate, MsgGroup};
use hc_types::{ChainEpoch, Cid, SubnetId};

/// Default bound on cached cross-message groups per node. Each group is
/// typically a checkpoint window's worth of messages; a thousand windows
/// is far beyond any retention the protocol needs.
pub const DEFAULT_CONTENT_CACHE_CAPACITY: usize = 1024;

/// Upper bound on raw blobs per [`ResolutionMsg::BlobBatch`] reply. Large
/// snapshot closures are served across several request/reply rounds so a
/// single lost message never costs more than one batch of progress.
pub const BLOB_BATCH_CAP: usize = 16;

/// Protocol messages exchanged on subnet topics.
///
/// `Push` and `Resolve` carry raw messages beside a *claimed* CID: what
/// crosses the network is never trusted, so the receiving [`ContentCache`]
/// derives the group's digest itself — once — before holding it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResolutionMsg {
    /// Proactive announcement of a message group (sent towards the
    /// destination subnet's topic as a checkpoint is signed).
    Push {
        /// The group's committed CID.
        cid: Cid,
        /// The raw messages.
        msgs: Vec<CrossMsg>,
    },
    /// Request for the content behind `cid`, published on the *source*
    /// subnet's topic; answers go to `reply_topic`.
    Pull {
        /// The CID to resolve.
        cid: Cid,
        /// Topic of the requesting subnet.
        reply_topic: String,
    },
    /// Answer to a pull, published on the requesting subnet's topic.
    Resolve {
        /// The resolved CID.
        cid: Cid,
        /// The raw messages.
        msgs: Vec<CrossMsg>,
    },
    /// A fund certificate riding the same topics: the direct-message
    /// acceleration for slow cross-net routes (paper §IV-A). Handled by
    /// the node runtime, not the resolver cache.
    Certificate(Box<FundCertificate>),
    /// Request for a subnet's finalized blocks from `from_epoch` onward,
    /// published on the subnet's own topic by a node catching up after a
    /// crash. Peers answer with a bounded [`ResolutionMsg::BlockBatch`]
    /// on `reply_topic`. Handled by the node runtime, not the resolver.
    BlockPull {
        /// The subnet whose chain is being synced.
        subnet: SubnetId,
        /// First epoch the requester is missing.
        from_epoch: ChainEpoch,
        /// Topic the batch reply goes to.
        reply_topic: String,
    },
    /// Answer to a [`ResolutionMsg::BlockPull`]: a bounded run of
    /// consecutive finalized blocks in canonical encoding (the requester
    /// re-validates and re-executes each one, so a corrupt batch cannot
    /// poison it). Handled by the node runtime, not the resolver.
    BlockBatch {
        /// The subnet the blocks belong to.
        subnet: SubnetId,
        /// Canonical bytes of consecutive blocks, oldest first.
        blocks: Vec<Vec<u8>>,
    },
    /// Request for raw content-addressed blobs (snapshot manifests and
    /// state chunks), published on the subnet's own topic by a node
    /// bootstrapping from a snapshot. Peers answer with a bounded
    /// [`ResolutionMsg::BlobBatch`] on `reply_topic`; at most
    /// [`BLOB_BATCH_CAP`] CIDs per request. Handled by the node runtime,
    /// not the resolver.
    BlobPull {
        /// The blobs being fetched, by CID.
        cids: Vec<Cid>,
        /// Topic the batch reply goes to.
        reply_topic: String,
    },
    /// Answer to a [`ResolutionMsg::BlobPull`]: the raw blob bytes, in
    /// request order, omitting any the peer does not hold. The requester
    /// verifies each blob hashes to a CID it asked for, so a corrupt or
    /// misdirected batch cannot poison its store. Handled by the node
    /// runtime, not the resolver.
    BlobBatch {
        /// Raw blob bytes; each must hash to a requested CID.
        blobs: Vec<Vec<u8>>,
    },
}

/// A validated, bounded content-addressable cache of cross-message groups.
///
/// Network-borne inserts are only accepted when the messages actually hash
/// to the claimed CID, so cache poisoning is impossible; what is held is a
/// sealed [`MsgGroup`], handed out as a shared clone whose digest nobody
/// downstream derives again. The cache holds at most `capacity`
/// groups (FIFO eviction — the protocol's access pattern is a moving
/// window over checkpoint epochs, so oldest-first is also
/// least-likely-needed); `capacity == 0` disables the bound.
///
/// Entries can be **pinned**: eviction skips pinned CIDs, so content a
/// still-outstanding pull is waiting to consume cannot be displaced by
/// unrelated traffic arriving between the resolve and the consumer's next
/// poll. While every resident entry is pinned the capacity bound is soft —
/// correctness of in-flight requests beats the memory cap.
#[derive(Debug, Clone)]
pub struct ContentCache {
    entries: BTreeMap<Cid, MsgGroup>,
    /// Insertion order, oldest first, for FIFO eviction.
    order: VecDeque<Cid>,
    /// CIDs exempt from eviction (in-flight pulls; may be absent from
    /// `entries` until their content arrives).
    pinned: BTreeSet<Cid>,
    capacity: usize,
    evictions: u64,
}

impl Default for ContentCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CONTENT_CACHE_CAPACITY)
    }
}

impl ContentCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to `capacity` groups (`0` =
    /// unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        ContentCache {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            pinned: BTreeSet::new(),
            capacity,
            evictions: 0,
        }
    }

    /// Exempts `cid` from eviction until [`ContentCache::unpin`]. Pinning
    /// a CID whose content has not arrived yet is the normal case: the pin
    /// protects the entry from the moment it is inserted.
    pub fn pin(&mut self, cid: Cid) {
        self.pinned.insert(cid);
    }

    /// Lifts an eviction exemption (idempotent).
    pub fn unpin(&mut self, cid: &Cid) {
        self.pinned.remove(cid);
    }

    /// Returns `true` if `cid` is currently exempt from eviction.
    pub fn is_pinned(&self, cid: &Cid) -> bool {
        self.pinned.contains(cid)
    }

    /// Inserts raw messages claimed to be the group behind `cid`. A CID
    /// already held settles it first — the resident group was verified when
    /// it came in, so a redelivery hashes nothing, stores nothing and does
    /// not disturb the eviction order. Otherwise the messages are sealed
    /// (the one derivation of their digest) and accepted only if it is
    /// `cid`. Returns `true` when the cache holds `cid` afterwards.
    pub fn insert(&mut self, cid: Cid, msgs: Vec<CrossMsg>) -> bool {
        if self.entries.contains_key(&cid) {
            return true;
        }
        let group = MsgGroup::seal(msgs);
        if group.cid() != cid {
            return false;
        }
        self.insert_sealed(group);
        true
    }

    /// Inserts a group under its own digest — there is nothing to check —
    /// idempotently, like [`ContentCache::insert`].
    fn insert_sealed(&mut self, group: MsgGroup) {
        let cid = group.cid();
        if self.entries.contains_key(&cid) {
            return;
        }
        self.entries.insert(cid, group);
        self.order.push_back(cid);
        if self.capacity > 0 {
            while self.entries.len() > self.capacity {
                // Oldest first, but never a pinned entry: an in-flight
                // pull's content must survive until its consumer reads it.
                let Some(pos) = self.order.iter().position(|c| !self.pinned.contains(c)) else {
                    break; // everything resident is pinned: soft bound
                };
                let oldest = self.order.remove(pos).expect("position is in range");
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// Looks up a group.
    pub fn get(&self, cid: &Cid) -> Option<&MsgGroup> {
        self.entries.get(cid)
    }

    /// Returns `true` if the CID is cached.
    pub fn contains(&self, cid: &Cid) -> bool {
        self.entries.contains_key(cid)
    }

    /// Number of cached groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Groups evicted to keep the cache within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Timeout and backoff schedule for outstanding pull requests.
///
/// Attempt `n` (1-based) times out after
/// `min(base_timeout_ms * backoff^(n-1), max_timeout_ms)` virtual ms;
/// after `max_attempts` sends the request is abandoned (and counted in
/// [`ResolverStats::pulls_abandoned`]). `max_attempts == 0` retries
/// forever.
///
/// When `jitter_pct > 0`, every timeout is stretched by a deterministic
/// seeded jitter in `[0, timeout * jitter_pct / 100]`, drawn from the
/// fault RNG domain keyed by `(seed, request, attempt)` — after a
/// region heal, the surviving peers see the backlog of retries spread
/// out instead of a synchronized thundering herd. `jitter_pct == 0`
/// (the default) is bit-identical to the jitter-less schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt, in virtual ms.
    pub base_timeout_ms: u64,
    /// Multiplier applied per retry (>= 1).
    pub backoff: u32,
    /// Upper bound on a single attempt's timeout.
    pub max_timeout_ms: u64,
    /// Retry budget (`0` = unbounded).
    pub max_attempts: u32,
    /// Deterministic backoff jitter as a percentage of each attempt's
    /// timeout (`0` = none, `50` = up to +50%).
    pub jitter_pct: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout_ms: 400,
            backoff: 2,
            max_timeout_ms: 6_400,
            max_attempts: 0,
            jitter_pct: 0,
        }
    }
}

impl RetryPolicy {
    /// Timeout of the `attempt`-th send (1-based), capped. Jitter-free.
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        let mut t = self.base_timeout_ms.max(1);
        for _ in 1..attempt {
            t = t.saturating_mul(u64::from(self.backoff.max(1)));
            if t >= self.max_timeout_ms {
                return self.max_timeout_ms.max(1);
            }
        }
        t.min(self.max_timeout_ms.max(1))
    }

    /// [`RetryPolicy::timeout_for`] plus the deterministic seeded jitter:
    /// `seed` is the owner's jitter seed, `salt` identifies the request
    /// (e.g. the CID's leading bytes), and the same `(seed, salt,
    /// attempt)` always yields the same stretch. With `jitter_pct == 0`
    /// no RNG is constructed and the result equals `timeout_for`.
    pub fn jittered_timeout_for(&self, attempt: u32, seed: u64, salt: u64) -> u64 {
        let t = self.timeout_for(attempt);
        if self.jitter_pct == 0 {
            return t;
        }
        let bound = t.saturating_mul(u64::from(self.jitter_pct)) / 100;
        if bound == 0 {
            return t;
        }
        let mut rng = StdRng::seed_from_u64(
            seed ^ crate::pubsub::FAULT_RNG_DOMAIN
                ^ salt
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(u64::from(attempt)),
        );
        t + rng.gen_range(0..=bound)
    }
}

/// The retry state of one request under a [`RetryPolicy`]: how many
/// sends it has had and when the next is due. The default is a request
/// never sent and due at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Backoff {
    attempts: u32,
    next_at_ms: u64,
}

/// What [`Backoff::step`] — and, for a pull, [`Resolver::should_pull`] —
/// decided at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffStep {
    /// Send now; this is the `n`-th (1-based) send.
    Send(u32),
    /// The last send's timeout has not elapsed.
    Wait,
    /// The last send timed out and the policy's budget allows no more.
    /// The backoff stays exhausted; what that means — abandoning the
    /// request, or cooling down and starting over — is the caller's.
    Exhausted,
}

impl Backoff {
    /// A request with no sends yet, first due at `at_ms`.
    pub fn due_at(at_ms: u64) -> Self {
        Backoff {
            attempts: 0,
            next_at_ms: at_ms,
        }
    }

    /// Advances the schedule to `now_ms`: a due request within budget is
    /// sent again and its next timeout armed, jittered by
    /// [`RetryPolicy::jittered_timeout_for`] under `(seed(), salt)` — the
    /// seed is asked for only when a send is made.
    pub fn step(
        &mut self,
        policy: &RetryPolicy,
        now_ms: u64,
        seed: impl FnOnce() -> u64,
        salt: u64,
    ) -> BackoffStep {
        if now_ms < self.next_at_ms {
            return BackoffStep::Wait;
        }
        if policy.max_attempts > 0 && self.attempts >= policy.max_attempts {
            return BackoffStep::Exhausted;
        }
        self.attempts += 1;
        self.next_at_ms = now_ms + policy.jittered_timeout_for(self.attempts, seed(), salt);
        BackoffStep::Send(self.attempts)
    }
}

/// Counters of one node's resolution activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Push announcements accepted into the cache.
    pub pushes_cached: u64,
    /// Push/resolve payloads rejected for CID mismatch.
    pub rejected: u64,
    /// Pull requests answered from the cache.
    pub pulls_served: u64,
    /// Pull requests received for unknown content (ignored; another peer
    /// may serve them).
    pub pulls_missed: u64,
    /// Resolve replies accepted into the cache.
    pub resolves_cached: u64,
    /// Local lookups answered from cache.
    pub cache_hits: u64,
    /// Local lookups that required a pull request.
    pub cache_misses: u64,
    /// First-attempt pull requests sent.
    pub pulls_sent: u64,
    /// Retries sent after a pull timed out.
    pub pulls_retried: u64,
    /// Pulls abandoned after exhausting the retry budget — degraded
    /// requests are reported here, never silently dropped.
    pub pulls_abandoned: u64,
    /// Cache entries evicted to stay within capacity.
    pub evictions: u64,
}

impl ResolverStats {
    /// Folds another node's counters into this one (hierarchy-wide
    /// aggregation, mirroring `SigCacheStats::merge`).
    pub fn merge(&mut self, other: ResolverStats) {
        self.pushes_cached += other.pushes_cached;
        self.rejected += other.rejected;
        self.pulls_served += other.pulls_served;
        self.pulls_missed += other.pulls_missed;
        self.resolves_cached += other.resolves_cached;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pulls_sent += other.pulls_sent;
        self.pulls_retried += other.pulls_retried;
        self.pulls_abandoned += other.pulls_abandoned;
        self.evictions += other.evictions;
    }
}

/// The per-node content-resolution state machine.
///
/// `handle` consumes an incoming [`ResolutionMsg`] and optionally produces
/// a reply `(topic, message)` the caller publishes; `lookup_or_pull`
/// serves local consumers (the cross-msg pool); `should_pull` gates pull
/// publication behind the per-request timeout/backoff schedule.
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    cache: ContentCache,
    policy: RetryPolicy,
    /// Seed of the deterministic backoff jitter (see
    /// [`RetryPolicy::jittered_timeout_for`]); irrelevant while the
    /// policy's `jitter_pct` is 0.
    jitter_seed: u64,
    /// Outstanding pulls.
    pending: BTreeMap<Cid, Backoff>,
    /// Pulls given up on; forgotten when their content arrives after all.
    abandoned: BTreeSet<Cid>,
    stats: ResolverStats,
}

impl Resolver {
    /// Creates a resolver with an empty cache and the default
    /// [`RetryPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a resolver with an explicit retry policy and the seed its
    /// deterministic backoff jitter derives from (typically the run seed
    /// mixed with a node identity).
    pub fn with_policy_seeded(policy: RetryPolicy, jitter_seed: u64) -> Self {
        Resolver {
            policy,
            jitter_seed,
            ..Self::default()
        }
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &ContentCache {
        &self.cache
    }

    /// Activity counters.
    pub fn stats(&self) -> ResolverStats {
        let mut stats = self.stats;
        stats.evictions = self.cache.evictions();
        stats
    }

    /// Seeds the cache with a group this node holds sealed — one its own
    /// SCA cut, served from the content registry — settling any
    /// outstanding pull for it.
    pub fn seed(&mut self, group: MsgGroup) {
        self.settle(&group.cid());
        self.cache.insert_sealed(group);
    }

    /// Forgets the pull for content the cache now holds.
    fn settle(&mut self, cid: &Cid) {
        self.pending.remove(cid);
        self.abandoned.remove(cid);
    }

    /// Validated insert of network-borne content that also settles any
    /// outstanding pull for `cid`.
    fn accept(&mut self, cid: Cid, msgs: Vec<CrossMsg>) -> bool {
        let held = self.cache.insert(cid, msgs);
        if held {
            self.settle(&cid);
        }
        held
    }

    /// Decides whether an unresolved `cid` warrants publishing a pull at
    /// `now_ms`: the first call sends immediately, later calls wait out
    /// the capped exponential backoff, and once the budget is spent the
    /// request is abandoned — `Exhausted` from then on, with exactly one
    /// `pulls_abandoned` tick per CID; the caller should surface the
    /// degradation, not loop.
    pub fn should_pull(&mut self, cid: Cid, now_ms: u64) -> BackoffStep {
        if self.cache.contains(&cid) {
            return BackoffStep::Wait;
        }
        if self.abandoned.contains(&cid) {
            return BackoffStep::Exhausted;
        }
        // The per-request jitter salt is the CID's leading bytes, so
        // distinct outstanding pulls de-synchronize from each other while
        // the whole schedule stays a pure function of the seed.
        let salt = u64::from_le_bytes(cid.as_bytes()[..8].try_into().expect("32-byte cid"));
        let (pull, seed) = (self.pending.entry(cid).or_default(), self.jitter_seed);
        let step = pull.step(&self.policy, now_ms, || seed, salt);
        match step {
            BackoffStep::Wait => {}
            BackoffStep::Send(1) => {
                // Pin before the content exists: whenever the resolve
                // lands, it must survive eviction until consumed.
                self.cache.pin(cid);
                self.stats.pulls_sent += 1;
            }
            BackoffStep::Send(_) => self.stats.pulls_retried += 1,
            BackoffStep::Exhausted => {
                self.pending.remove(&cid);
                self.abandoned.insert(cid);
                self.cache.unpin(&cid);
                self.stats.pulls_abandoned += 1;
            }
        }
        step
    }

    /// Outstanding (non-abandoned) pull requests.
    pub fn pending_pulls(&self) -> usize {
        self.pending.len()
    }

    /// Processes an incoming protocol message. Returns an optional reply
    /// to publish as `(topic, message)`.
    pub fn handle(&mut self, msg: ResolutionMsg) -> Option<(String, ResolutionMsg)> {
        match msg {
            ResolutionMsg::Push { cid, msgs } => {
                if self.accept(cid, msgs) {
                    self.stats.pushes_cached += 1;
                } else {
                    self.stats.rejected += 1;
                }
                None
            }
            ResolutionMsg::Pull { cid, reply_topic } => match self.cache.get(&cid) {
                Some(msgs) => {
                    self.stats.pulls_served += 1;
                    Some((
                        reply_topic,
                        ResolutionMsg::Resolve {
                            cid,
                            msgs: msgs.to_vec(),
                        },
                    ))
                }
                None => {
                    self.stats.pulls_missed += 1;
                    None
                }
            },
            ResolutionMsg::Resolve { cid, msgs } => {
                if self.accept(cid, msgs) {
                    self.stats.resolves_cached += 1;
                } else {
                    self.stats.rejected += 1;
                }
                None
            }
            // Certificates, block-sync, and blob-sync traffic are consumed
            // by the node runtime before the resolver sees them; strays
            // are ignored.
            ResolutionMsg::Certificate(_)
            | ResolutionMsg::BlockPull { .. }
            | ResolutionMsg::BlockBatch { .. }
            | ResolutionMsg::BlobPull { .. }
            | ResolutionMsg::BlobBatch { .. } => None,
        }
    }

    /// Local lookup for the cross-msg pool: returns the cached group (a
    /// shared clone), or the [`ResolutionMsg::Pull`] to publish on
    /// `source_topic`. Callers on a lossy transport gate the publish
    /// through [`Resolver::should_pull`].
    pub fn lookup_or_pull(
        &mut self,
        cid: Cid,
        reply_topic: &str,
    ) -> Result<MsgGroup, ResolutionMsg> {
        match self.cache.get(&cid) {
            Some(msgs) => {
                self.stats.cache_hits += 1;
                let msgs = msgs.clone();
                // The consumer has the content; the in-flight pin (if any)
                // has done its job.
                self.cache.unpin(&cid);
                Ok(msgs)
            }
            None => {
                self.stats.cache_misses += 1;
                Err(ResolutionMsg::Pull {
                    cid,
                    reply_topic: reply_topic.to_owned(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::HcAddress;
    use hc_types::merkle::merkle_root;
    use hc_types::{Address, SubnetId, TokenAmount};

    /// A resolver under `policy`, its cache bounded to `capacity` groups.
    fn resolver(policy: RetryPolicy, capacity: usize) -> Resolver {
        Resolver {
            policy,
            cache: ContentCache::with_capacity(capacity),
            ..Resolver::default()
        }
    }

    fn group(n: u64) -> (Cid, Vec<CrossMsg>) {
        let msgs: Vec<CrossMsg> = (0..n)
            .map(|i| {
                CrossMsg::transfer(
                    HcAddress::new(
                        SubnetId::root().child(Address::new(9)),
                        Address::new(100 + i),
                    ),
                    HcAddress::new(SubnetId::root(), Address::new(200 + i)),
                    TokenAmount::from_atto(i as u128 + 1),
                )
            })
            .collect();
        (merkle_root(&msgs), msgs)
    }

    #[test]
    fn cache_rejects_mismatched_content() {
        let mut cache = ContentCache::new();
        let (cid, msgs) = group(3);
        let (_, other) = group(2);
        assert!(!cache.insert(cid, other));
        assert!(cache.insert(cid, msgs.clone()));
        assert_eq!(&**cache.get(&cid).unwrap(), msgs.as_slice());
        // Idempotent re-insert.
        assert!(cache.insert(cid, msgs.clone()));
        assert_eq!(cache.len(), 1);
        // A held CID is settled before anything is looked at: whatever
        // arrives under it is reported as held, and the verified group
        // stays.
        assert!(cache.insert(cid, group(2).1));
        assert_eq!(&**cache.get(&cid).unwrap(), msgs.as_slice());
    }

    #[test]
    fn cache_evicts_oldest_beyond_capacity() {
        let mut cache = ContentCache::with_capacity(2);
        let groups: Vec<_> = (1..=3).map(group).collect();
        for (cid, msgs) in &groups {
            assert!(cache.insert(*cid, msgs.clone()));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // Oldest (group 1) is gone; 2 and 3 remain.
        assert!(!cache.contains(&groups[0].0));
        assert!(cache.contains(&groups[1].0));
        assert!(cache.contains(&groups[2].0));
        // Re-inserting a cached group does not evict anything.
        assert!(cache.insert(groups[2].0, groups[2].1.clone()));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let mut cache = ContentCache::with_capacity(0);
        for i in 1..=50 {
            let (cid, msgs) = group(i);
            assert!(cache.insert(cid, msgs));
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn push_then_local_hit() {
        let mut r = Resolver::new();
        let (cid, msgs) = group(2);
        assert!(r
            .handle(ResolutionMsg::Push {
                cid,
                msgs: msgs.clone()
            })
            .is_none());
        assert_eq!(&*r.lookup_or_pull(cid, "/root/msgs").unwrap(), msgs);
        let stats = r.stats();
        assert_eq!(stats.pushes_cached, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 0);
    }

    #[test]
    fn miss_produces_pull_and_resolve_round_trip() {
        let mut requester = Resolver::new();
        let mut source = Resolver::new();
        let (cid, msgs) = group(4);
        source.seed(MsgGroup::seal(msgs.clone()));

        // Requester misses locally → emits a pull.
        let pull = requester.lookup_or_pull(cid, "/root/a5/msgs").unwrap_err();
        assert!(matches!(pull, ResolutionMsg::Pull { .. }));

        // Source answers on the reply topic.
        let (topic, resolve) = source.handle(pull).expect("source serves the pull");
        assert_eq!(topic, "/root/a5/msgs");

        // Requester ingests the resolve; the content is now local.
        assert!(requester.handle(resolve).is_none());
        assert_eq!(&*requester.lookup_or_pull(cid, "x").unwrap(), msgs);
        assert_eq!(source.stats().pulls_served, 1);
        assert_eq!(requester.stats().resolves_cached, 1);
    }

    #[test]
    fn pull_for_unknown_content_is_ignored() {
        let mut r = Resolver::new();
        let (cid, _) = group(1);
        let reply = r.handle(ResolutionMsg::Pull {
            cid,
            reply_topic: "t".into(),
        });
        assert!(reply.is_none());
        assert_eq!(r.stats().pulls_missed, 1);
    }

    #[test]
    fn poisoned_push_is_rejected() {
        let mut r = Resolver::new();
        let (cid, _) = group(2);
        let (_, wrong) = group(3);
        r.handle(ResolutionMsg::Push { cid, msgs: wrong });
        assert!(!r.cache().contains(&cid));
        assert_eq!(r.stats().rejected, 1);
    }

    #[test]
    fn retry_policy_backoff_is_capped() {
        let p = RetryPolicy {
            base_timeout_ms: 100,
            backoff: 3,
            max_timeout_ms: 1_000,
            max_attempts: 5,
            jitter_pct: 0,
        };
        assert_eq!(p.timeout_for(1), 100);
        assert_eq!(p.timeout_for(2), 300);
        assert_eq!(p.timeout_for(3), 900);
        assert_eq!(p.timeout_for(4), 1_000); // capped
        assert_eq!(p.timeout_for(40), 1_000); // no overflow
    }

    #[test]
    fn should_pull_follows_timeout_and_backoff() {
        let policy = RetryPolicy {
            base_timeout_ms: 100,
            backoff: 2,
            max_timeout_ms: 1_000,
            max_attempts: 0,
            jitter_pct: 0,
        };
        let mut r = Resolver::with_policy_seeded(policy, 0);
        let (cid, _) = group(1);
        assert_eq!(r.should_pull(cid, 0), BackoffStep::Send(1));
        // In flight: wait out the first 100ms timeout.
        assert_eq!(r.should_pull(cid, 50), BackoffStep::Wait);
        assert_eq!(r.should_pull(cid, 99), BackoffStep::Wait);
        // Timed out: retry with doubled timeout (200ms from now).
        assert_eq!(r.should_pull(cid, 100), BackoffStep::Send(2));
        assert_eq!(r.should_pull(cid, 299), BackoffStep::Wait);
        assert_eq!(r.should_pull(cid, 300), BackoffStep::Send(3));
        let stats = r.stats();
        assert_eq!(stats.pulls_sent, 1);
        assert_eq!(stats.pulls_retried, 2);
        assert_eq!(stats.pulls_abandoned, 0);
    }

    #[test]
    fn budget_exhaustion_abandons_exactly_once() {
        let policy = RetryPolicy {
            base_timeout_ms: 10,
            backoff: 1,
            max_timeout_ms: 10,
            max_attempts: 2,
            jitter_pct: 0,
        };
        let mut r = Resolver::with_policy_seeded(policy, 0);
        let (cid, _) = group(2);
        assert_eq!(r.should_pull(cid, 0), BackoffStep::Send(1));
        assert_eq!(r.should_pull(cid, 10), BackoffStep::Send(2));
        // Budget (2 attempts) spent → abandoned, counted once.
        assert_eq!(r.should_pull(cid, 20), BackoffStep::Exhausted);
        assert_eq!(r.should_pull(cid, 30_000), BackoffStep::Exhausted);
        assert_eq!(r.stats().pulls_abandoned, 1);
        assert_eq!(r.pending_pulls(), 0);
    }

    #[test]
    fn resolve_settles_outstanding_pull() {
        let mut r = Resolver::new();
        let (cid, msgs) = group(3);
        assert_eq!(r.should_pull(cid, 0), BackoffStep::Send(1));
        assert_eq!(r.pending_pulls(), 1);
        r.handle(ResolutionMsg::Resolve { cid, msgs });
        assert_eq!(r.pending_pulls(), 0);
        // Content now cached → no further pulls wanted.
        assert_eq!(r.should_pull(cid, 10_000), BackoffStep::Wait);
    }

    /// Regression (in-flight eviction): at capacity 1, a resolve that
    /// lands for an outstanding pull used to be evictable by any unrelated
    /// push arriving before the consumer's next poll — the pool would
    /// re-pull forever under steady traffic. In-flight CIDs are now pinned
    /// until consumed.
    #[test]
    fn pending_pull_content_survives_eviction_at_capacity_one() {
        let mut r = resolver(RetryPolicy::default(), 1);
        let (wanted_cid, wanted_msgs) = group(3);
        let (noise1_cid, noise1) = group(1);
        let (noise2_cid, noise2) = group(2);

        // The pool misses and a pull goes out.
        assert!(r.lookup_or_pull(wanted_cid, "t").is_err());
        assert_eq!(r.should_pull(wanted_cid, 0), BackoffStep::Send(1));
        assert!(r.cache().is_pinned(&wanted_cid));

        // Unrelated traffic fills the one-slot cache...
        r.handle(ResolutionMsg::Push {
            cid: noise1_cid,
            msgs: noise1,
        });
        // ...then the awaited resolve lands (evicting the noise)...
        r.handle(ResolutionMsg::Resolve {
            cid: wanted_cid,
            msgs: wanted_msgs.clone(),
        });
        assert!(!r.cache().contains(&noise1_cid));
        // ...and more noise arrives before the pool polls again. The
        // pinned entry must not be the eviction victim.
        r.handle(ResolutionMsg::Push {
            cid: noise2_cid,
            msgs: noise2,
        });
        assert!(r.cache().contains(&wanted_cid), "pinned entry was evicted");

        // The consumer finally reads it — pin released, entry becomes an
        // ordinary FIFO citizen again.
        assert_eq!(&*r.lookup_or_pull(wanted_cid, "t").unwrap(), wanted_msgs);
        assert!(!r.cache().is_pinned(&wanted_cid));
        let (noise3_cid, noise3) = group(4);
        r.handle(ResolutionMsg::Push {
            cid: noise3_cid,
            msgs: noise3,
        });
        assert!(!r.cache().contains(&wanted_cid), "unpinned entry evicts");
        assert!(r.cache().contains(&noise3_cid));
    }

    /// Abandoning a pull lifts its pin: nothing keeps dead requests'
    /// content alive.
    #[test]
    fn abandoned_pull_releases_its_pin() {
        let mut r = resolver(
            RetryPolicy {
                base_timeout_ms: 10,
                backoff: 1,
                max_timeout_ms: 10,
                max_attempts: 1,
                jitter_pct: 0,
            },
            1,
        );
        let (cid, _) = group(5);
        assert_eq!(r.should_pull(cid, 0), BackoffStep::Send(1));
        assert!(r.cache().is_pinned(&cid));
        assert_eq!(r.should_pull(cid, 10), BackoffStep::Exhausted);
        assert!(!r.cache().is_pinned(&cid));
    }

    #[test]
    fn block_sync_messages_pass_through_resolver() {
        let mut r = Resolver::new();
        assert!(r
            .handle(ResolutionMsg::BlockPull {
                subnet: SubnetId::root(),
                from_epoch: ChainEpoch::new(4),
                reply_topic: "t".into(),
            })
            .is_none());
        assert!(r
            .handle(ResolutionMsg::BlockBatch {
                subnet: SubnetId::root(),
                blocks: vec![vec![1, 2, 3]],
            })
            .is_none());
        assert!(r
            .handle(ResolutionMsg::BlobPull {
                cids: vec![Cid::digest(b"chunk")],
                reply_topic: "t".into(),
            })
            .is_none());
        assert!(r
            .handle(ResolutionMsg::BlobBatch {
                blobs: vec![b"chunk".to_vec()],
            })
            .is_none());
        assert_eq!(r.stats(), ResolverStats::default());
    }

    #[test]
    fn zero_jitter_is_bit_identical_to_plain_backoff() {
        let policy = RetryPolicy {
            base_timeout_ms: 100,
            backoff: 2,
            max_timeout_ms: 1_000,
            max_attempts: 0,
            jitter_pct: 0,
        };
        // Whatever seed the owner carries, jitter_pct == 0 must reproduce
        // the pure schedule exactly — the jitter RNG is never built.
        for seed in [0u64, 1, 0xdead_beef] {
            for attempt in 1..=6 {
                assert_eq!(
                    policy.jittered_timeout_for(attempt, seed, 42),
                    policy.timeout_for(attempt),
                );
            }
        }
        // And the resolvers behave identically end to end.
        let drive = |r: &mut Resolver| -> Vec<BackoffStep> {
            let (cid, _) = group(77);
            let times = (0..2_000).step_by(50);
            times.map(|now| r.should_pull(cid, now)).collect()
        };
        let mut plain = Resolver::with_policy_seeded(policy, 0);
        let mut seeded = Resolver::with_policy_seeded(policy, 0xfeed);
        assert_eq!(drive(&mut plain), drive(&mut seeded));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_desynchronizing() {
        let policy = RetryPolicy {
            base_timeout_ms: 100,
            backoff: 2,
            max_timeout_ms: 1_000,
            max_attempts: 0,
            jitter_pct: 50,
        };
        for attempt in 1..=6 {
            let base = policy.timeout_for(attempt);
            let jittered = policy.jittered_timeout_for(attempt, 7, 99);
            // Bounded stretch, never a shrink.
            assert!(jittered >= base);
            assert!(jittered <= base + base / 2);
            // Pure function of (seed, salt, attempt).
            assert_eq!(jittered, policy.jittered_timeout_for(attempt, 7, 99));
        }
        // Different seeds or salts de-synchronize: across the whole
        // schedule at least one attempt must differ.
        let schedule = |seed: u64, salt: u64| -> Vec<u64> {
            (1..=8)
                .map(|a| policy.jittered_timeout_for(a, seed, salt))
                .collect()
        };
        assert_ne!(schedule(1, 99), schedule(2, 99));
        assert_ne!(schedule(1, 99), schedule(1, 100));
    }
}
