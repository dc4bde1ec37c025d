//! The cross-net content-resolution protocol (paper §IV-C).
//!
//! Checkpoints carry only the *CIDs* of cross-message groups
//! (`CrossMsgMeta`), so a destination subnet must fetch the raw messages
//! before it can apply them. Two paths exist:
//!
//! * **push** — "as the checkpoints and CrossMsgMetas move up the
//!   hierarchy, miners publish to the pubsub topic of the corresponding
//!   subnet the whole DAG belonging to the CID". Peers may cache or
//!   discard pushed content: a node keeps a pushed group only if it lies
//!   on the group's way up to the subnet that opens it ([`keeps_push`]);
//!   every other subscriber of the topic drops it unhashed.
//! * **pull** — a destination that cannot resolve a CID locally "can
//!   resolve the messages behind the CID by sending a pull request to the
//!   originating subnet"; any peer holding the content answers with a
//!   *resolve* message on the requester's topic. Only a node that pulled
//!   the CID — its pull outstanding or abandoned — takes the reply; the
//!   other subscribers of that topic drop it unhashed.
//!
//! Content is held only until it is used: [`Resolver::lookup_or_pull`]
//! and [`Resolver::take`] hand a group out of the cache, and the CID is
//! remembered (within [`CONTENT_CACHE_CAPACITY`]) so that a copy arriving
//! afterwards — a retried pull's second reply, a duplicated push — is
//! neither hashed nor stored. The groups a node's own subnet cut are not
//! kept here at all: the state tree's registry holds them, and
//! [`Resolver::handle`] serves a pull from it when the cache misses, so
//! the cache holds only content that came over the network.
//!
//! [`Resolver`] implements the per-node state machine over these three
//! message kinds, backed by a validated, bounded [`ContentCache`]. On a
//! lossy transport a pull can vanish in either direction, so every
//! outstanding pull carries a per-request timeout with capped exponential
//! backoff and a retry budget ([`RetryPolicy`]); requests that exhaust
//! the budget are *abandoned* and surfaced in
//! [`ResolverStats::pulls_abandoned`] — degraded, never silently lost.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hc_actors::{CrossMsg, FundCertificate, MsgGroup};
use hc_types::{ChainEpoch, Cid, SubnetId};

/// Bound on cached cross-message groups per node, and on the CIDs of used
/// groups it remembers. Each group is typically a checkpoint window's
/// worth of messages; a thousand windows is far beyond any retention the
/// protocol needs.
pub const CONTENT_CACHE_CAPACITY: usize = 1024;

/// Upper bound on raw blobs per [`ResolutionMsg::BlobBatch`] reply. Large
/// snapshot closures are served across several request/reply rounds so a
/// single lost message never costs more than one batch of progress.
pub const BLOB_BATCH_CAP: usize = 16;

/// Protocol messages exchanged on subnet topics.
///
/// `Push` and `Resolve` carry raw messages beside a *claimed* CID: what
/// crosses the network is never trusted, so the receiving [`ContentCache`]
/// derives the group's digest itself — once — before holding it.
#[derive(Debug, Clone, PartialEq)]
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
/// sealed [`MsgGroup`], handed out once, with the digest nobody downstream
/// derives again. The cache holds at most
/// [`CONTENT_CACHE_CAPACITY`] groups (FIFO eviction — the protocol's
/// access pattern is a moving window over checkpoint epochs, so
/// oldest-first is also least-likely-needed).
///
/// Entries can be **pinned**: eviction skips pinned CIDs, so content a
/// still-outstanding pull is waiting to consume cannot be displaced by
/// unrelated traffic arriving between the resolve and the consumer's next
/// poll. While every other resident entry is pinned the capacity bound is
/// soft — correctness of in-flight requests beats the memory cap — and a
/// group just inserted is never its own victim.
///
/// A group leaves the cache when it is used ([`ContentCache::take`]); the
/// cache then remembers its CID, the last [`CONTENT_CACHE_CAPACITY`] of
/// them, so a late copy can be told apart without hashing it.
#[derive(Debug, Clone, Default)]
pub struct ContentCache {
    entries: BTreeMap<Cid, MsgGroup>,
    /// Insertion order, oldest first, for FIFO eviction.
    order: VecDeque<Cid>,
    /// CIDs exempt from eviction (in-flight pulls; may be absent from
    /// `entries` until their content arrives).
    pinned: BTreeSet<Cid>,
    /// CIDs of the groups `take` handed out, and their order, oldest first.
    used: BTreeSet<Cid>,
    used_order: VecDeque<Cid>,
    evictions: u64,
}

impl ContentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
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
        self.entries.insert(cid, group);
        self.order.push_back(cid);
        while self.entries.len() > CONTENT_CACHE_CAPACITY {
            // Oldest first, but never a pinned entry — an in-flight pull's
            // content must survive until its consumer reads it — and never
            // the group this call reports as held.
            let evictable = |c: &Cid| *c != cid && !self.pinned.contains(c);
            let Some(pos) = self.order.iter().position(evictable) else {
                break; // everything else resident is pinned: soft bound
            };
            let oldest = self.order.remove(pos).expect("position is in range");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        true
    }

    /// Looks up a group.
    pub fn get(&self, cid: &Cid) -> Option<&MsgGroup> {
        self.entries.get(cid)
    }

    /// Hands the group under `cid` out of the cache, if it is held, and
    /// lifts its pin. Either way the CID is remembered as used: its
    /// consumer is done with it.
    pub fn take(&mut self, cid: &Cid) -> Option<MsgGroup> {
        let group = self.entries.remove(cid);
        if group.is_some() {
            let pos = self.order.iter().position(|c| c == cid);
            self.order.remove(pos.expect("a held CID is in the order"));
        }
        self.pinned.remove(cid);
        if self.used.insert(*cid) {
            self.used_order.push_back(*cid);
            if self.used_order.len() > CONTENT_CACHE_CAPACITY {
                let oldest = self.used_order.pop_front().expect("over capacity");
                self.used.remove(&oldest);
            }
        }
        group
    }

    /// Returns `true` if a group under `cid` was handed out by
    /// [`ContentCache::take`] (among the last [`CONTENT_CACHE_CAPACITY`]).
    pub fn was_used(&self, cid: &Cid) -> bool {
        self.used.contains(cid)
    }

    /// The CIDs of the held groups, in CID order.
    pub fn cids(&self) -> impl Iterator<Item = &Cid> {
        self.entries.keys()
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

    /// Groups evicted to keep the cache within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Whether the node of subnet `here` keeps a pushed group `msgs`. Let F
/// be the group's source subnet, T its destination and O = F ∧ T the
/// subnet that opens it (applies it, or turns it around): a node keeps it
/// only on the way up from F to O — O itself, or an ancestor of F strictly
/// below O, whose own cut pushes it on. Every other subscriber of the
/// topic (a path group's destination, a sibling following its parent's
/// topic, F itself) drops it before hashing it. The subnets are read off
/// the claimed messages — every message of a group shares them — so a
/// group this judges wrongly is one that would not hash to its CID.
pub fn keeps_push(here: &SubnetId, msgs: &[CrossMsg]) -> bool {
    let Some(first) = msgs.first() else {
        return false;
    };
    let from = &first.from.subnet;
    let opener = from.common_ancestor(&first.to.subnet);
    *here == opener || (here.is_ancestor_of(from) && opener.is_ancestor_of(here))
}

/// Timeout and backoff schedule for outstanding pull requests.
///
/// Attempt `n` (1-based) times out after
/// `min(base_timeout_ms * backoff^(n-1), max_timeout_ms)` virtual ms;
/// after `max_attempts` sends the request is abandoned (and counted in
/// [`ResolverStats::pulls_abandoned`]). `max_attempts == 0` retries
/// forever.
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
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout_ms: 400,
            backoff: 2,
            max_timeout_ms: 6_400,
            max_attempts: 0,
        }
    }
}

impl RetryPolicy {
    /// Timeout of the `attempt`-th send (1-based), capped.
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
    /// sent again and its next timeout armed by
    /// [`RetryPolicy::timeout_for`].
    pub fn step(&mut self, policy: &RetryPolicy, now_ms: u64) -> BackoffStep {
        if now_ms < self.next_at_ms {
            return BackoffStep::Wait;
        }
        if policy.max_attempts > 0 && self.attempts >= policy.max_attempts {
            return BackoffStep::Exhausted;
        }
        self.attempts += 1;
        self.next_at_ms = now_ms + policy.timeout_for(self.attempts);
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
    /// Pull requests answered, from the cache or the node's registry.
    pub pulls_served: u64,
    /// Pull requests received for unknown content (ignored; another peer
    /// may serve them).
    pub pulls_missed: u64,
    /// Resolve replies accepted into the cache (a reply this node did not
    /// pull for, or one arriving after the group was used, is not).
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

    /// Creates a resolver with an explicit retry policy.
    pub fn with_policy(policy: RetryPolicy) -> Self {
        Resolver {
            policy,
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

    /// Hands a group out of the cache for a forwarding node's cut, which
    /// carries its meta on up and re-pushes it: the group's last use
    /// here, whether or not its push arrived. Counts no lookup.
    pub fn take(&mut self, cid: &Cid) -> Option<MsgGroup> {
        self.cache.take(cid)
    }

    /// Whether this node pulled `cid`: the pull is outstanding or was
    /// abandoned.
    fn pulled(&self, cid: &Cid) -> bool {
        self.pending.contains_key(cid) || self.abandoned.contains(cid)
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
        let step = self
            .pending
            .entry(cid)
            .or_default()
            .step(&self.policy, now_ms);
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
    /// to publish as `(topic, message)`. A pull is served from the cache
    /// first, then from `own` — the groups the node's own subnet cut, which
    /// its state tree's registry holds and the cache does not.
    pub fn handle<'g>(
        &mut self,
        msg: ResolutionMsg,
        own: impl FnOnce(&Cid) -> Option<&'g MsgGroup>,
    ) -> Option<(String, ResolutionMsg)> {
        match msg {
            // A copy of a group already used, that nothing pulled again,
            // is late: dropped before it is hashed.
            ResolutionMsg::Push { cid, .. } if self.cache.was_used(&cid) && !self.pulled(&cid) => {
                None
            }
            ResolutionMsg::Push { cid, msgs } => {
                if self.accept(cid, msgs) {
                    self.stats.pushes_cached += 1;
                } else {
                    self.stats.rejected += 1;
                }
                None
            }
            ResolutionMsg::Pull { cid, reply_topic } => {
                let Some(group) = self.cache.get(&cid).or_else(|| own(&cid)) else {
                    self.stats.pulls_missed += 1;
                    return None;
                };
                self.stats.pulls_served += 1;
                let msgs = group.to_vec();
                Some((reply_topic, ResolutionMsg::Resolve { cid, msgs }))
            }
            // A reply is taken only by a node that pulled the CID: not by
            // the other subscribers of the requester's topic, and not once
            // the content arrived (a retried pull's second reply).
            ResolutionMsg::Resolve { cid, .. } if !self.pulled(&cid) => None,
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

    /// Local lookup for the cross-msg pool: takes the cached group out of
    /// the cache (its in-flight pin, if any, has done its job), or
    /// registers the pull and returns the [`ResolutionMsg::Pull`] to
    /// publish on the source's topic. Callers on a lossy transport gate
    /// the publish through [`Resolver::should_pull`].
    pub fn lookup_or_pull(
        &mut self,
        cid: Cid,
        reply_topic: &str,
    ) -> Result<MsgGroup, ResolutionMsg> {
        if !self.cache.contains(&cid) {
            self.stats.cache_misses += 1;
            if !self.abandoned.contains(&cid) {
                self.pending.entry(cid).or_default();
            }
            return Err(ResolutionMsg::Pull {
                cid,
                reply_topic: reply_topic.to_owned(),
            });
        }
        self.stats.cache_hits += 1;
        Ok(self.cache.take(&cid).expect("held"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::HcAddress;
    use hc_types::{Address, SubnetId, TokenAmount};

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
        (MsgGroup::seal(msgs.clone()).cid(), msgs)
    }

    /// The `i`-th of a run of distinct one-message groups, cheap enough to
    /// fill a cache to [`CONTENT_CACHE_CAPACITY`].
    fn filler(i: u64) -> (Cid, Vec<CrossMsg>) {
        let msgs = vec![CrossMsg::transfer(
            HcAddress::new(SubnetId::root().child(Address::new(7)), Address::new(1)),
            HcAddress::new(SubnetId::root(), Address::new(2)),
            TokenAmount::from_atto(u128::from(i) + 1),
        )];
        (MsgGroup::seal(msgs.clone()).cid(), msgs)
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

    /// Regression: with every resident entry pinned, the eviction loop used
    /// to pick the group just inserted as its victim, and `insert` still
    /// reported it as held. The bound goes soft instead.
    #[test]
    fn an_insert_over_a_pinned_full_cache_is_held() {
        let mut cache = ContentCache::new();
        for i in 0..CONTENT_CACHE_CAPACITY as u64 {
            let (cid, msgs) = filler(i);
            cache.pin(cid);
            assert!(cache.insert(cid, msgs));
        }
        let (cid, msgs) = group(2);
        assert!(cache.insert(cid, msgs));
        assert!(cache.contains(&cid), "reported as held, then evicted");
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), CONTENT_CACHE_CAPACITY + 1);
    }

    #[test]
    fn cache_evicts_oldest_beyond_capacity() {
        let mut cache = ContentCache::new();
        let groups: Vec<_> = (0..=CONTENT_CACHE_CAPACITY as u64).map(filler).collect();
        for (cid, msgs) in &groups {
            assert!(cache.insert(*cid, msgs.clone()));
        }
        assert_eq!(cache.len(), CONTENT_CACHE_CAPACITY);
        assert_eq!(cache.evictions(), 1);
        // Oldest is gone; the next and the newest remain.
        assert!(!cache.contains(&groups[0].0));
        assert!(cache.contains(&groups[1].0));
        let (last_cid, last_msgs) = groups.last().unwrap();
        assert!(cache.contains(last_cid));
        // Re-inserting a cached group does not evict anything.
        assert!(cache.insert(*last_cid, last_msgs.clone()));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn push_then_local_hit() {
        let mut r = Resolver::new();
        let (cid, msgs) = group(2);
        assert!(r
            .handle(
                ResolutionMsg::Push {
                    cid,
                    msgs: msgs.clone()
                },
                |_| None
            )
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
        // The source's own subnet cut the group: its registry holds it.
        let registry = MsgGroup::seal(msgs.clone());
        let own = |c: &Cid| (*c == cid).then_some(&registry);

        // Requester misses locally → registers the pull and emits it.
        let pull = requester.lookup_or_pull(cid, "/root/a5/msgs").unwrap_err();
        assert!(matches!(pull, ResolutionMsg::Pull { .. }));
        assert_eq!(requester.pending_pulls(), 1);

        // Source answers on the reply topic — twice, as a retried pull is —
        // from its registry; the group never enters its cache.
        let (topic, resolve) = source
            .handle(pull.clone(), own)
            .expect("source serves the pull");
        assert_eq!(topic, "/root/a5/msgs");
        let (_, second) = source
            .handle(pull.clone(), own)
            .expect("source serves the retry");
        assert!(source.cache().is_empty());

        // A bystander on the requester's topic pulled nothing: it drops
        // the reply.
        let mut bystander = Resolver::new();
        assert!(bystander.handle(resolve.clone(), |_| None).is_none());
        assert!(bystander.cache().is_empty());
        assert_eq!(bystander.stats(), ResolverStats::default());

        // Requester ingests the resolve; the content is now local, until
        // it is used.
        assert!(requester.handle(resolve, |_| None).is_none());
        assert_eq!(requester.pending_pulls(), 0);
        assert_eq!(&*requester.lookup_or_pull(cid, "x").unwrap(), msgs);
        assert!(requester.cache().is_empty());

        // The retry's reply arrives after the use: not taken.
        assert!(requester.handle(second, |_| None).is_none());
        assert!(requester.cache().is_empty());
        assert_eq!(source.stats().pulls_served, 2);
        assert_eq!(requester.stats().resolves_cached, 1);
        assert_eq!(requester.stats().rejected, 0);

        // A cached copy wins over `own`: a node holding the group from the
        // network serves that, whatever its registry would answer.
        let mut relay = Resolver::new();
        relay.handle(
            ResolutionMsg::Push {
                cid,
                msgs: msgs.clone(),
            },
            |_| None,
        );
        let decoy = MsgGroup::seal(group(2).1);
        let (_, reply) = relay
            .handle(pull, |_| Some(&decoy))
            .expect("relay serves the pull");
        assert_eq!(reply, ResolutionMsg::Resolve { cid, msgs });
        assert_eq!(relay.stats().pulls_served, 1);
    }

    /// A group from F to T is kept by O = F ∧ T and by F's ancestors
    /// strictly below O; every other subscriber of the topic drops it.
    #[test]
    fn a_push_is_kept_only_on_its_way_up() {
        let id = |route: &[u64]| {
            route
                .iter()
                .fold(SubnetId::root(), |s, a| s.child(Address::new(*a)))
        };
        let group = |from: &SubnetId, to: &SubnetId| {
            vec![CrossMsg::transfer(
                HcAddress::new(from.clone(), Address::new(1)),
                HcAddress::new(to.clone(), Address::new(2)),
                TokenAmount::from_atto(1),
            )]
        };
        let (root, a, b) = (id(&[]), id(&[1]), id(&[2]));
        let (a1, a2, b1, a1x) = (id(&[1, 1]), id(&[1, 2]), id(&[2, 1]), id(&[1, 1, 1]));

        // Bottom-up a1x → root: the root opens it, a1 and a forward it.
        let up = group(&a1x, &root);
        for (here, kept) in [(&root, true), (&a, true), (&a1, true), (&a1x, false)] {
            assert_eq!(keeps_push(here, &up), kept, "{here}");
        }
        for here in [&b, &a2, &b1] {
            assert!(!keeps_push(here, &up), "{here}");
        }
        // Path a1 → b1: the root turns it around; the destination and its
        // parent drop it.
        let path = group(&a1, &b1);
        for (here, kept) in [(&root, true), (&a, true), (&b, false), (&b1, false)] {
            assert_eq!(keeps_push(here, &path), kept, "{here}");
        }
        // Path a1 → a2 opens at a; nothing above it keeps it.
        let near = group(&a1, &a2);
        for (here, kept) in [(&a, true), (&root, false), (&a2, false), (&a1, false)] {
            assert_eq!(keeps_push(here, &near), kept, "{here}");
        }
        assert!(!keeps_push(&root, &[]));
    }

    /// A forwarding node's cut is the group's last use there, whether or
    /// not its push came first: a push arriving after the cut is dropped
    /// unhashed.
    #[test]
    fn a_forwarded_group_is_dropped_after_the_cut() {
        let mut r = Resolver::new();
        let (cid, msgs) = group(2);
        r.handle(
            ResolutionMsg::Push {
                cid,
                msgs: msgs.clone(),
            },
            |_| None,
        );
        assert_eq!(&*r.take(&cid).expect("pushed before the cut"), msgs);
        let (late, late_msgs) = group(3);
        assert!(r.take(&late).is_none());
        for (cid, msgs) in [(cid, msgs), (late, late_msgs)] {
            r.handle(ResolutionMsg::Push { cid, msgs }, |_| None);
        }
        assert!(r.cache().is_empty());
        assert_eq!(r.stats().pushes_cached, 1);
        // A node that pulls a used CID again takes the content again.
        assert!(r.lookup_or_pull(late, "t").is_err());
        let (_, late_msgs) = group(3);
        r.handle(
            ResolutionMsg::Resolve {
                cid: late,
                msgs: late_msgs,
            },
            |_| None,
        );
        assert!(r.cache().contains(&late));
    }

    #[test]
    fn pull_for_unknown_content_is_ignored() {
        let mut r = Resolver::new();
        let (cid, _) = group(1);
        let reply = r.handle(
            ResolutionMsg::Pull {
                cid,
                reply_topic: "t".into(),
            },
            |_| None,
        );
        assert!(reply.is_none());
        assert_eq!(r.stats().pulls_missed, 1);
    }

    #[test]
    fn poisoned_push_is_rejected() {
        let mut r = Resolver::new();
        let (cid, _) = group(2);
        let (_, wrong) = group(3);
        r.handle(ResolutionMsg::Push { cid, msgs: wrong }, |_| None);
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
        };
        let mut r = Resolver::with_policy(policy);
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
        };
        let mut r = Resolver::with_policy(policy);
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
        r.handle(ResolutionMsg::Resolve { cid, msgs }, |_| None);
        assert_eq!(r.pending_pulls(), 0);
        // Content now cached → no further pulls wanted.
        assert_eq!(r.should_pull(cid, 10_000), BackoffStep::Wait);
    }

    /// Regression (in-flight eviction): a resolve that lands for an
    /// outstanding pull used to be evictable by any unrelated push
    /// arriving before the consumer's next poll — under steady traffic the
    /// pool would re-pull forever. In-flight CIDs are now pinned until
    /// consumed.
    #[test]
    fn pending_pull_content_survives_eviction_at_capacity() {
        let mut r = Resolver::new();
        let (wanted_cid, wanted_msgs) = group(3);
        let push = |r: &mut Resolver, i: u64| {
            let (cid, msgs) = filler(i);
            r.handle(ResolutionMsg::Push { cid, msgs }, |_| None);
            cid
        };

        // The pool misses and a pull goes out.
        assert!(r.lookup_or_pull(wanted_cid, "t").is_err());
        assert_eq!(r.should_pull(wanted_cid, 0), BackoffStep::Send(1));
        assert!(r.cache().is_pinned(&wanted_cid));

        // The awaited resolve lands first, so it is the oldest entry...
        r.handle(
            ResolutionMsg::Resolve {
                cid: wanted_cid,
                msgs: wanted_msgs.clone(),
            },
            |_| None,
        );
        // ...then unrelated traffic overfills the cache before the pool
        // polls again. The pinned entry must not be the eviction victim.
        let noise: Vec<Cid> = (0..CONTENT_CACHE_CAPACITY as u64)
            .map(|i| push(&mut r, i))
            .collect();
        assert_eq!(r.cache().evictions(), 1);
        assert!(r.cache().contains(&wanted_cid), "pinned entry was evicted");
        assert!(!r.cache().contains(&noise[0]));

        // The consumer finally reads it — the entry leaves the cache with
        // its pin, and the next push evicts nothing.
        assert_eq!(&*r.lookup_or_pull(wanted_cid, "t").unwrap(), wanted_msgs);
        assert!(!r.cache().is_pinned(&wanted_cid));
        assert!(!r.cache().contains(&wanted_cid));
        let last = push(&mut r, CONTENT_CACHE_CAPACITY as u64);
        assert!(r.cache().contains(&last));
        assert_eq!(r.cache().evictions(), 1);
    }

    /// Abandoning a pull lifts its pin: nothing keeps dead requests'
    /// content alive.
    #[test]
    fn abandoned_pull_releases_its_pin() {
        let mut r = Resolver::with_policy(RetryPolicy {
            base_timeout_ms: 10,
            backoff: 1,
            max_timeout_ms: 10,
            max_attempts: 1,
        });
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
            .handle(
                ResolutionMsg::BlockPull {
                    subnet: SubnetId::root(),
                    from_epoch: ChainEpoch::new(4),
                    reply_topic: "t".into(),
                },
                |_| None
            )
            .is_none());
        assert!(r
            .handle(
                ResolutionMsg::BlockBatch {
                    subnet: SubnetId::root(),
                    blocks: vec![vec![1, 2, 3]],
                },
                |_| None
            )
            .is_none());
        assert!(r
            .handle(
                ResolutionMsg::BlobPull {
                    cids: vec![Cid::digest(b"chunk")],
                    reply_topic: "t".into(),
                },
                |_| None
            )
            .is_none());
        assert!(r
            .handle(
                ResolutionMsg::BlobBatch {
                    blobs: vec![b"chunk".to_vec()],
                },
                |_| None
            )
            .is_none());
        assert_eq!(r.stats(), ResolverStats::default());
    }
}
