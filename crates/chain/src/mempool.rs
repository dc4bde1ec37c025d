//! Message pools.
//!
//! Per the paper (§IV-B), "nodes in subnets keep two types of message
//! pools: an internal pool to track unverified messages originating in and
//! targeting the subnet, and a cross-msg pool that listens to unverified
//! cross-msgs directed at (or traversing) the subnet".
//!
//! * [`Mempool`] is the internal pool: signed user messages in per-sender
//!   nonce lanes, selected fee-priority-first into block proposals, with a
//!   bounded-memory admission controller that evicts the lowest-fee lane
//!   tails deterministically under overload.
//! * [`CrossMsgPool`] is the cross-msg pool: top-down messages pulled from
//!   the parent SCA (applied in nonce order), and bottom-up metas awaiting
//!   content resolution before they can be proposed.
//!
//! # Admission control
//!
//! The fee attached at admission is *node-local gossip metadata* — a
//! priority bid, like priority fees relayed alongside transactions before
//! consensus. It is not part of the canonically encoded [`hc_state::Message`],
//! is not covered by the signature, and never reaches execution; it only
//! orders the pool. Occupancy is accounted in canonical wire bytes of the
//! signed message, so the configured [`MempoolConfig::capacity_bytes`] is a
//! real memory bound: the pool never holds more admitted bytes than that,
//! no matter how hard it is flooded.
//!
//! Eviction picks the globally lowest-priority *lane tail* (the
//! highest-nonce message of some sender), ordered by fee ascending with the
//! message CID as the deterministic tie-break. Evicting tails (never heads)
//! keeps every surviving lane a dense nonce prefix, so admission order
//! cannot strand an executable message behind an evicted one. The incoming
//! message itself participates: if it *is* the lowest-priority tail, it is
//! the one refused.

use std::collections::{BTreeMap, BinaryHeap, HashMap};

use hc_actors::{CrossMsg, CrossMsgMeta, MsgGroup};
use hc_state::{SealedMessage, SigCache, SignedMessage};
use hc_types::{Address, CanonicalEncode, ChainEpoch, Cid, Nonce, SubnetId};

/// How many epochs an admitted CID stays in the dedup set after its
/// admission epoch. Replays older than this are caught by account-nonce
/// validation at execution time, so the set can forget them.
pub const DEFAULT_SEEN_HORIZON_EPOCHS: u64 = 256;

/// Admission-control knobs for [`Mempool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Memory budget for pending messages, in canonical wire bytes of the
    /// signed messages held. `0` means unbounded (the pre-admission-control
    /// behaviour).
    pub capacity_bytes: usize,
    /// Epochs an admitted CID stays in the dedup set past its admission
    /// epoch.
    pub seen_horizon_epochs: u64,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            capacity_bytes: 0,
            seen_horizon_epochs: DEFAULT_SEEN_HORIZON_EPOCHS,
        }
    }
}

/// Admission/eviction counters of one [`Mempool`] (mergeable into a
/// runtime-wide aggregate, like `SigCacheStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Messages admitted (verified, deduped, and kept — at least until a
    /// later admission evicted them).
    pub admitted: u64,
    /// Messages refused because their CID was already admitted within the
    /// dedup horizon.
    pub rejected_duplicate: u64,
    /// Messages refused because their signature did not verify.
    pub rejected_invalid: u64,
    /// Messages refused by admission control: the pool was over budget and
    /// the incoming message itself was the lowest-priority tail.
    pub rejected_full: u64,
    /// Previously admitted messages evicted to admit higher-priority ones.
    pub evicted: u64,
    /// Highest occupancy observed, in bytes (never exceeds the configured
    /// capacity).
    pub high_water_bytes: u64,
    /// Highest occupancy observed, in messages.
    pub high_water_msgs: u64,
}

impl MempoolStats {
    /// Folds another pool's counters into this one. Counters sum;
    /// high-water marks sum too, so a runtime-wide aggregate bounds the
    /// hierarchy's total pool memory.
    pub fn merge(&mut self, other: MempoolStats) {
        self.admitted += other.admitted;
        self.rejected_duplicate += other.rejected_duplicate;
        self.rejected_invalid += other.rejected_invalid;
        self.rejected_full += other.rejected_full;
        self.evicted += other.evicted;
        self.high_water_bytes += other.high_water_bytes;
        self.high_water_msgs += other.high_water_msgs;
    }
}

/// What [`Mempool::push_sealed_with_fee`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Verified and admitted (possibly evicting lower-priority messages).
    Admitted,
    /// Refused: CID already admitted within the dedup horizon.
    Duplicate,
    /// Refused: signature verification failed.
    Invalid,
    /// Refused by admission control: the pool is at capacity and this
    /// message was the lowest-priority candidate.
    Full,
}

impl PushOutcome {
    /// `true` when the message is now pending in the pool.
    pub fn is_admitted(self) -> bool {
        self == PushOutcome::Admitted
    }
}

/// One pending message with its admission metadata.
#[derive(Debug, Clone)]
struct PoolEntry {
    msg: SealedMessage,
    fee: u64,
    bytes: usize,
}

/// The internal pool of pending signed user messages.
#[derive(Debug, Clone)]
pub struct Mempool {
    /// Per-sender nonce lanes holding sealed messages (CIDs derived at
    /// admission travel into block assembly and execution) plus their
    /// admission fee and byte accounting.
    by_sender: BTreeMap<Address, BTreeMap<Nonce, PoolEntry>>,
    /// Message CIDs already admitted, tagged with the chain epoch current
    /// at admission (dedup with bounded memory — see
    /// [`Mempool::advance_epoch`]).
    seen: HashMap<Cid, ChainEpoch>,
    /// Admission-control configuration.
    config: MempoolConfig,
    /// Bytes currently held (sum of entry `bytes`).
    occupancy_bytes: usize,
    /// The chain epoch the pool currently considers "now".
    current_epoch: ChainEpoch,
    /// Verified-signature cache populated at admission and shared with the
    /// node's executor; `None` verifies every admission fully.
    sig_cache: Option<SigCache>,
    /// Admission/eviction counters.
    stats: MempoolStats,
    /// Admissions per sender since the last [`Mempool::take_activity`]
    /// drain — the hotness signal the elastic controller samples.
    activity: BTreeMap<Address, u64>,
    /// `(sender, nonce)` pairs dropped by admission control since the last
    /// [`Mempool::drain_evictions`] — the submitter consults this to
    /// rewind signing cursors so a dropped nonce can be re-signed instead
    /// of leaving a permanent gap in the sender's lane.
    evicted_log: Vec<(Address, Nonce)>,
}

impl Default for Mempool {
    fn default() -> Self {
        Mempool {
            by_sender: BTreeMap::new(),
            seen: HashMap::new(),
            config: MempoolConfig::default(),
            occupancy_bytes: 0,
            current_epoch: ChainEpoch::GENESIS,
            sig_cache: None,
            stats: MempoolStats::default(),
            activity: BTreeMap::new(),
            evicted_log: Vec::new(),
        }
    }
}

impl Mempool {
    /// Creates an empty unbounded pool with the default dedup horizon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool with the given admission-control config.
    pub fn with_config(config: MempoolConfig) -> Self {
        Mempool {
            config,
            ..Self::default()
        }
    }

    /// Creates an empty pool that remembers admitted CIDs for `horizon`
    /// epochs past their admission epoch.
    pub fn with_seen_horizon(horizon: u64) -> Self {
        Self::with_config(MempoolConfig {
            seen_horizon_epochs: horizon,
            ..MempoolConfig::default()
        })
    }

    /// Wires in a verified-signature cache: admission verdicts are cached
    /// so the executor (sharing the handle) skips re-verification, and
    /// re-gossiped messages that fell out of the dedup horizon re-admit
    /// with a lookup instead of a full verification.
    pub fn with_sig_cache(mut self, cache: SigCache) -> Self {
        self.sig_cache = Some(cache);
        self
    }

    /// Admits a message after signature pre-validation, at fee 0.
    /// Duplicates and messages with unverifiable signatures are refused.
    ///
    /// Returns `true` if the message was admitted.
    pub fn push(&mut self, msg: SignedMessage) -> bool {
        self.push_sealed(SealedMessage::new(msg))
    }

    /// [`Mempool::push`] for an already-sealed message (keeps CIDs derived
    /// by the caller, e.g. the submission path that reports the CID back).
    pub fn push_sealed(&mut self, msg: SealedMessage) -> bool {
        self.push_sealed_with_fee(msg, 0).is_admitted()
    }

    /// Admits a message with a priority fee bid.
    ///
    /// The dedup check runs *before* signature verification: a replayed
    /// duplicate costs one memoized CID read, not a full verification.
    /// Deduplication keys on the message CID — what the signature covers
    /// and receipts are keyed by — so a replay with a mangled signature is
    /// refused just like an exact duplicate. `seen` is only populated by
    /// *verified* admissions: an attacker cannot block a valid message by
    /// pre-sending a forgery of it. Messages evicted by admission control
    /// are forgotten by the dedup set, so a later re-submission (when the
    /// pool has drained) is admitted again.
    pub fn push_sealed_with_fee(&mut self, msg: SealedMessage, fee: u64) -> PushOutcome {
        let cid = msg.msg_cid();
        if self.seen.contains_key(&cid) {
            self.stats.rejected_duplicate += 1;
            return PushOutcome::Duplicate;
        }
        let verified = match &self.sig_cache {
            Some(cache) => cache.verify_sealed(&msg),
            None => msg.verify_signature(),
        };
        if !verified {
            self.stats.rejected_invalid += 1;
            return PushOutcome::Invalid;
        }
        let bytes = msg.signed().canonical_bytes().len();
        let from = msg.message().from;
        let nonce = msg.message().nonce;

        // Insert first, then restore the byte budget by evicting the
        // globally lowest-priority lane tails. The incoming message
        // competes on equal terms: if it is itself the lowest-priority
        // tail it is the one refused, which is what makes the admitted
        // set independent of arrival order for equal-size messages.
        self.seen.insert(cid, self.current_epoch);
        self.occupancy_bytes += bytes;
        self.by_sender
            .entry(from)
            .or_default()
            .insert(nonce, PoolEntry { msg, fee, bytes });

        let mut survived = true;
        while self.config.capacity_bytes > 0 && self.occupancy_bytes > self.config.capacity_bytes {
            let (victim_addr, victim_nonce, victim_cid) = self
                .lowest_priority_tail()
                .expect("over-budget pool has at least one tail");
            if victim_cid == cid {
                survived = false;
            } else {
                self.stats.evicted += 1;
            }
            self.evict(victim_addr, victim_nonce, victim_cid);
        }
        if !survived {
            self.stats.rejected_full += 1;
            return PushOutcome::Full;
        }
        self.stats.admitted += 1;
        *self.activity.entry(from).or_default() += 1;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.occupancy_bytes as u64);
        self.stats.high_water_msgs = self.stats.high_water_msgs.max(self.len() as u64);
        PushOutcome::Admitted
    }

    /// The lowest-priority lane tail: among every sender's highest-nonce
    /// entry, the one with the lowest `(fee, msg CID)`.
    fn lowest_priority_tail(&self) -> Option<(Address, Nonce, Cid)> {
        self.by_sender
            .iter()
            .filter_map(|(addr, lane)| {
                lane.iter()
                    .next_back()
                    .map(|(nonce, e)| ((e.fee, e.msg.msg_cid()), (*addr, *nonce)))
            })
            .min_by_key(|(priority, _)| *priority)
            .map(|((_, cid), (addr, nonce))| (addr, nonce, cid))
    }

    /// Removes one entry, un-remembering its CID from the dedup set (an
    /// evicted message may be legitimately re-submitted later).
    fn evict(&mut self, addr: Address, nonce: Nonce, cid: Cid) {
        if let Some(lane) = self.by_sender.get_mut(&addr) {
            if let Some(entry) = lane.remove(&nonce) {
                self.occupancy_bytes -= entry.bytes;
            }
            if lane.is_empty() {
                self.by_sender.remove(&addr);
            }
        }
        self.seen.remove(&cid);
        self.evicted_log.push((addr, nonce));
    }

    /// Drains the `(sender, nonce)` pairs dropped by admission control
    /// since the last call. Dropped nonces never execute; a submitter that
    /// tracks signing cursors must rewind each sender's cursor to the
    /// lowest drained nonce, or every later message from that sender is
    /// permanently gated behind the gap.
    pub fn drain_evictions(&mut self) -> Vec<(Address, Nonce)> {
        std::mem::take(&mut self.evicted_log)
    }

    /// Advances the pool's notion of the current chain epoch and prunes
    /// dedup entries admitted more than the horizon ago. Without this the
    /// `seen` set grows without bound for the lifetime of the node; with
    /// it, replays inside the horizon are still refused here while older
    /// replays fall through to the account-nonce check at execution time
    /// (stale nonces never execute).
    pub fn advance_epoch(&mut self, epoch: ChainEpoch) {
        if epoch <= self.current_epoch {
            return;
        }
        self.current_epoch = epoch;
        let horizon = self.config.seen_horizon_epochs;
        self.seen
            .retain(|_, admitted| epoch.since(*admitted) <= horizon);
    }

    /// Number of CIDs currently held for dedup (testing/diagnostics).
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.by_sender.values().map(BTreeMap::len).sum()
    }

    /// Returns `true` if no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.by_sender.values().all(BTreeMap::is_empty)
    }

    /// Bytes currently held (canonical wire bytes of pending messages).
    pub fn occupancy_bytes(&self) -> usize {
        self.occupancy_bytes
    }

    /// Pending messages queued by `sender`.
    pub fn pending_for(&self, sender: &Address) -> usize {
        self.by_sender.get(sender).map_or(0, BTreeMap::len)
    }

    /// Iterates every pending message, senders in address order and each
    /// sender's lane in nonce order.
    pub fn iter(&self) -> impl Iterator<Item = &SealedMessage> + '_ {
        self.by_sender
            .values()
            .flat_map(|lane| lane.values().map(|e| &e.msg))
    }

    /// Admission/eviction counters.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Drains the per-sender admission counters accumulated since the last
    /// call — the load signal the elastic controller samples at checkpoint
    /// boundaries.
    pub fn take_activity(&mut self) -> BTreeMap<Address, u64> {
        std::mem::take(&mut self.activity)
    }

    /// Selects up to `max` messages for a block proposal: fee-priority
    /// order across senders, each sender's messages strictly in nonce
    /// order. A lane position's priority is the highest fee *at or after*
    /// it in the lane (suffix max) — child-pays-for-parent, so a high-fee
    /// message deep in a nonce lane lifts its lower-fee predecessors into
    /// the auction instead of starving behind them. Ties across lanes
    /// break on the current lane-head's message CID (lowest first).
    ///
    /// Runs in `O(pending + (senders + selected) · log senders)` per call
    /// via one suffix-max sweep plus a max-heap over lane heads.
    pub fn select(&self, max: usize) -> Vec<SealedMessage> {
        // Precompute each lane's suffix-max fee so every head exposes the
        // best fee still gated behind it; the heap holds lane heads keyed
        // by (priority, reversed CID) and re-arms a lane with its
        // successor after each pop.
        let lanes: Vec<Vec<(u64, &PoolEntry)>> = self
            .by_sender
            .values()
            .map(|lane| {
                let mut entries: Vec<(u64, &PoolEntry)> =
                    lane.values().map(|e| (e.fee, e)).collect();
                let mut best = 0u64;
                for slot in entries.iter_mut().rev() {
                    best = best.max(slot.0);
                    slot.0 = best;
                }
                entries
            })
            .collect();
        let mut cursors: Vec<usize> = vec![0; lanes.len()];
        let mut heap: BinaryHeap<(u64, std::cmp::Reverse<Cid>, usize)> = lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| {
                lane.first()
                    .map(|(pri, e)| (*pri, std::cmp::Reverse(e.msg.msg_cid()), i))
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < max {
            let Some((_, _, i)) = heap.pop() else { break };
            let (_, entry) = lanes[i][cursors[i]];
            out.push(entry.msg.clone());
            cursors[i] += 1;
            if let Some((pri, next)) = lanes[i].get(cursors[i]) {
                heap.push((*pri, std::cmp::Reverse(next.msg.msg_cid()), i));
            }
        }
        out
    }

    /// Removes messages that were included in a committed block.
    pub fn remove_included<'a, I: IntoIterator<Item = &'a SealedMessage>>(&mut self, msgs: I) {
        for m in msgs {
            if let Some(q) = self.by_sender.get_mut(&m.message().from) {
                if let Some(entry) = q.remove(&m.message().nonce) {
                    self.occupancy_bytes -= entry.bytes;
                }
            }
            // Keep `seen` so replays of the same CID stay excluded until
            // the dedup horizon passes (see `advance_epoch`).
        }
        self.by_sender.retain(|_, q| !q.is_empty());
    }
}

/// The cross-msg pool: unverified cross-net work for this subnet.
///
/// Top-down messages arrive already ordered by the parent-assigned nonce;
/// the pool releases them strictly in order. Bottom-up metas arrive from
/// committed checkpoints carrying only a CID; they wait in
/// `awaiting_resolution` until the content-resolution protocol supplies the
/// raw messages (paper §IV-C), then become proposable.
#[derive(Debug, Clone, Default)]
pub struct CrossMsgPool {
    /// Top-down messages by nonce, not yet applied.
    top_down: BTreeMap<Nonce, CrossMsg>,
    /// Next top-down nonce to propose (all lower nonces already applied).
    next_top_down: Nonce,
    /// Bottom-up metas whose message groups are not yet resolved.
    awaiting_resolution: BTreeMap<Cid, CrossMsgMeta>,
    /// Resolved groups ready to be proposed, in meta-nonce order.
    ready_bottom_up: BTreeMap<Nonce, (CrossMsgMeta, MsgGroup)>,
    /// Next bottom-up meta nonce to propose.
    next_bottom_up: Nonce,
}

impl CrossMsgPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests top-down messages learned by syncing the parent SCA.
    /// Messages below the already-applied nonce are ignored.
    pub fn ingest_top_down<I: IntoIterator<Item = CrossMsg>>(&mut self, msgs: I) {
        for m in msgs {
            if m.nonce >= self.next_top_down {
                self.top_down.insert(m.nonce, m);
            }
        }
    }

    /// Registers a bottom-up meta that still needs content resolution.
    /// Idempotent against redelivery: a meta whose nonce was already
    /// applied (below `next_bottom_up`) or that is already waiting/ready
    /// is ignored, so duplicated checkpoint commits cannot double-apply a
    /// message group. Returns `true` if the meta was newly registered.
    pub fn ingest_meta(&mut self, meta: CrossMsgMeta) -> bool {
        if meta.nonce < self.next_bottom_up || self.ready_bottom_up.contains_key(&meta.nonce) {
            return false;
        }
        if self.awaiting_resolution.contains_key(&meta.msgs_cid) {
            return false;
        }
        self.awaiting_resolution.insert(meta.msgs_cid, meta);
        true
    }

    /// CIDs the pool needs resolved — what a node publishes *pull*
    /// requests for.
    pub fn unresolved_cids(&self) -> Vec<Cid> {
        self.awaiting_resolution.keys().copied().collect()
    }

    /// The metas still awaiting resolution (source subnet and CID drive
    /// the pull requests).
    pub fn unresolved_metas(&self) -> Vec<CrossMsgMeta> {
        self.awaiting_resolution.values().cloned().collect()
    }

    /// Supplies a resolved group. Returns `true` if a meta was waiting for
    /// exactly this group (by digest and count) and it was accepted.
    pub fn resolve(&mut self, group: MsgGroup) -> bool {
        let cid = group.cid();
        if !self
            .awaiting_resolution
            .get(&cid)
            .is_some_and(|meta| meta.matches(&group))
        {
            return false;
        }
        let meta = self.awaiting_resolution.remove(&cid).expect("checked");
        self.ready_bottom_up.insert(meta.nonce, (meta, group));
        true
    }

    /// Drains the cross-net work proposable right now: the dense prefix of
    /// top-down messages from the next expected nonce, and the dense prefix
    /// of resolved bottom-up groups. Called by the proposer when building a
    /// block (paper Fig. 3).
    pub fn take_proposable(
        &mut self,
        max: usize,
    ) -> (Vec<CrossMsg>, Vec<(CrossMsgMeta, MsgGroup)>) {
        let mut tds = Vec::new();
        while tds.len() < max {
            match self.top_down.remove(&self.next_top_down) {
                Some(m) => {
                    self.next_top_down = self.next_top_down.next();
                    tds.push(m);
                }
                None => break,
            }
        }
        let mut bus = Vec::new();
        while tds.len() + bus.len() < max {
            match self.ready_bottom_up.remove(&self.next_bottom_up) {
                Some(entry) => {
                    self.next_bottom_up = self.next_bottom_up.next();
                    bus.push(entry);
                }
                None => break,
            }
        }
        (tds, bus)
    }

    /// Number of top-down messages waiting.
    pub fn pending_top_down(&self) -> usize {
        self.top_down.len()
    }

    /// Number of metas waiting for resolution or proposal.
    pub fn pending_bottom_up(&self) -> usize {
        self.awaiting_resolution.len() + self.ready_bottom_up.len()
    }

    /// Whether any resolved-but-unapplied bottom-up group carries a
    /// message destined to `subnet` or one of its descendants — in-flight
    /// work that would be stranded if that subnet were killed now.
    pub fn routes_into(&self, subnet: &SubnetId) -> bool {
        self.ready_bottom_up
            .values()
            .flat_map(|(_, msgs)| msgs.iter())
            .any(|m| subnet.is_prefix_of(&m.to.subnet))
    }

    /// The next top-down nonce this pool will release.
    pub fn next_top_down_nonce(&self) -> Nonce {
        self.next_top_down
    }

    /// Records that the top-down message with `nonce` was applied by a
    /// committed block. Advances the release cursor past `nonce` and drops
    /// the (now applied) messages if they were waiting — a no-op when the
    /// block was proposed from this pool, whose
    /// [`CrossMsgPool::take_proposable`] already did both.
    pub fn note_top_down_applied(&mut self, nonce: Nonce) {
        if nonce >= self.next_top_down {
            self.next_top_down = nonce.next();
            // Nothing below the cursor is ever stored, so only a cursor
            // move can leave stale entries behind.
            self.top_down = self.top_down.split_off(&self.next_top_down);
        }
    }

    /// Records that the bottom-up group of `meta` was applied by a
    /// committed block (WAL-replay counterpart of the resolve → propose
    /// flow). Clears the meta from both waiting sets and advances the
    /// bottom-up cursor.
    pub fn note_bottom_up_applied(&mut self, meta: &CrossMsgMeta) {
        self.awaiting_resolution.remove(&meta.msgs_cid);
        self.ready_bottom_up.remove(&meta.nonce);
        if meta.nonce >= self.next_bottom_up {
            self.next_bottom_up = meta.nonce.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::HcAddress;
    use hc_state::{Message, Method};
    use hc_types::{Keypair, SubnetId, TokenAmount};

    fn kp(seed: u8) -> Keypair {
        let mut s = [0u8; 32];
        s[0] = seed;
        s[1] = 0xc2;
        Keypair::from_seed(s)
    }

    fn signed(from: u64, nonce: u64, key: &Keypair) -> SignedMessage {
        Message {
            from: Address::new(from),
            to: Address::new(1),
            value: TokenAmount::ZERO,
            nonce: Nonce::new(nonce),
            method: Method::Send,
        }
        .sign(key)
    }

    #[test]
    fn mempool_dedups_and_rejects_bad_signatures() {
        let mut pool = Mempool::new();
        let k = kp(1);
        let m = signed(100, 0, &k);
        assert!(pool.push(m.clone()));
        assert!(!pool.push(m.clone()), "duplicate refused");
        let mut tampered = signed(100, 1, &k);
        tampered.message.value = TokenAmount::from_whole(9);
        assert!(!pool.push(tampered), "bad signature refused");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn duplicates_are_refused_before_verification() {
        // With a cache wired, admission verdicts are observable: the
        // duplicate must be refused by dedup without touching the cache
        // (the admission-order fix), and a replay of a *tampered* copy of
        // a seen message is refused the same way.
        let cache = hc_state::SigCache::new(16);
        let mut pool = Mempool::new().with_sig_cache(cache.clone());
        let k = kp(8);
        let m = signed(100, 0, &k);
        assert!(pool.push(m.clone()));
        assert_eq!(cache.stats().misses, 1);
        assert!(!pool.push(m.clone()));
        let mut tampered_sig = m.clone();
        tampered_sig.signature = hc_types::Signature::new_unchecked(k.public(), [9u8; 32]);
        assert!(!pool.push(tampered_sig));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "duplicates must not reach the verifier"
        );
        // An unrelated forgery still pays (and fails) full verification.
        let mut forged = signed(100, 1, &k);
        forged.message.value = TokenAmount::from_whole(7);
        assert!(!pool.push(forged));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 1, "failed verdicts are not cached");
    }

    fn push_fee(pool: &mut Mempool, from: u64, nonce: u64, key: &Keypair, fee: u64) -> PushOutcome {
        pool.push_sealed_with_fee(SealedMessage::new(signed(from, nonce, key)), fee)
    }

    #[test]
    fn select_orders_by_fee_within_nonce_lanes() {
        let mut pool = Mempool::new();
        let ka = kp(2);
        let kb = kp(3);
        // Sender A: high-fee head, low-fee tail. Sender B: flat mid fees.
        assert!(push_fee(&mut pool, 100, 0, &ka, 5).is_admitted());
        assert!(push_fee(&mut pool, 100, 1, &ka, 1).is_admitted());
        assert!(push_fee(&mut pool, 200, 0, &kb, 3).is_admitted());
        assert!(push_fee(&mut pool, 200, 1, &kb, 3).is_admitted());
        let picked: Vec<(u64, u64)> = pool
            .select(10)
            .iter()
            .map(|m| (m.message().from.id(), m.message().nonce.value()))
            .collect();
        // A's fee-1 tail is gated behind its fee-5 head, so it drops to
        // the back once the head is taken; B's lane flows in between.
        assert_eq!(picked, vec![(100, 0), (200, 0), (200, 1), (100, 1)]);
        // Selection does not mutate the pool; removal after inclusion does.
        assert_eq!(pool.len(), 4);
        let selected = pool.select(4);
        pool.remove_included(selected.iter());
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.occupancy_bytes(), 0);
        // Replays of included messages stay excluded.
        assert!(!pool.push_sealed(selected[0].clone()));
    }

    #[test]
    fn select_breaks_fee_ties_by_message_cid() {
        let mut pool = Mempool::new();
        let keys: Vec<Keypair> = (0..4).map(|i| kp(10 + i)).collect();
        let mut cids = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let sealed = SealedMessage::new(signed(100 + i as u64, 0, k));
            cids.push(sealed.msg_cid());
            assert!(pool.push_sealed_with_fee(sealed, 7).is_admitted());
        }
        cids.sort();
        let picked: Vec<Cid> = pool.select(10).iter().map(|m| m.msg_cid()).collect();
        assert_eq!(picked, cids, "equal fees select in ascending CID order");
    }

    /// Canonical wire size of one test message (they are all identically
    /// shaped, so this is the per-message byte cost).
    fn msg_bytes() -> usize {
        SealedMessage::new(signed(1, 0, &kp(1)))
            .signed()
            .canonical_bytes()
            .len()
    }

    #[test]
    fn eviction_enforces_byte_bound_lowest_fee_first() {
        let cap = 2 * msg_bytes();
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
            ..MempoolConfig::default()
        });
        let (ka, kb, kc) = (kp(2), kp(3), kp(4));
        assert!(push_fee(&mut pool, 100, 0, &ka, 5).is_admitted());
        let low = SealedMessage::new(signed(200, 0, &kb));
        assert!(pool.push_sealed_with_fee(low.clone(), 1).is_admitted());
        assert!(pool.occupancy_bytes() <= cap);
        // A third, higher-fee message evicts the fee-1 tail.
        assert!(push_fee(&mut pool, 300, 0, &kc, 3).is_admitted());
        assert_eq!(pool.len(), 2);
        assert!(pool.occupancy_bytes() <= cap);
        assert_eq!(pool.pending_for(&Address::new(200)), 0);
        let stats = pool.stats();
        assert_eq!(
            (stats.admitted, stats.evicted, stats.rejected_full),
            (3, 1, 0)
        );
        assert!(stats.high_water_bytes <= cap as u64);
        // An incoming message that is itself the lowest priority is the
        // one refused...
        let kd = kp(5);
        assert_eq!(push_fee(&mut pool, 400, 0, &kd, 0), PushOutcome::Full);
        assert_eq!(pool.stats().rejected_full, 1);
        assert_eq!(pool.len(), 2);
        // ...and the evicted message was forgotten by dedup, so it can be
        // re-admitted once there is room again.
        let head = pool.select(1);
        pool.remove_included(head.iter());
        assert!(pool.push_sealed_with_fee(low, 1).is_admitted());
    }

    #[test]
    fn eviction_takes_lane_tails_never_heads() {
        let cap = 2 * msg_bytes();
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
            ..MempoolConfig::default()
        });
        let (ka, kb) = (kp(6), kp(7));
        // A's lane: cheap head, expensive tail. The tail — not the cheap
        // head — is what competes at eviction time, so a mid-fee arrival
        // from B loses to it and is refused: surviving lanes stay dense
        // nonce prefixes.
        assert!(push_fee(&mut pool, 100, 0, &ka, 1).is_admitted());
        assert!(push_fee(&mut pool, 100, 1, &ka, 9).is_admitted());
        assert_eq!(push_fee(&mut pool, 200, 0, &kb, 5), PushOutcome::Full);
        assert_eq!(pool.pending_for(&Address::new(100)), 2);
        // Reversed fee shape: now A's tail is the cheapest and gives way.
        let mut pool2 = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
            ..MempoolConfig::default()
        });
        assert!(push_fee(&mut pool2, 100, 0, &ka, 9).is_admitted());
        assert!(push_fee(&mut pool2, 100, 1, &ka, 1).is_admitted());
        assert!(push_fee(&mut pool2, 200, 0, &kb, 5).is_admitted());
        assert_eq!(pool2.pending_for(&Address::new(100)), 1);
        assert_eq!(pool2.pending_for(&Address::new(200)), 1);
        assert_eq!(pool2.stats().evicted, 1);
    }

    #[test]
    fn activity_counters_accumulate_and_drain() {
        let mut pool = Mempool::new();
        let ka = kp(2);
        let kb = kp(3);
        for n in 0..3 {
            assert!(push_fee(&mut pool, 100, n, &ka, 0).is_admitted());
        }
        assert!(push_fee(&mut pool, 200, 0, &kb, 0).is_admitted());
        let activity = pool.take_activity();
        assert_eq!(activity.get(&Address::new(100)), Some(&3));
        assert_eq!(activity.get(&Address::new(200)), Some(&1));
        assert!(pool.take_activity().is_empty(), "drained");
        // Rejections don't count as activity.
        assert!(!pool.push(signed(100, 0, &ka)));
        assert!(pool.take_activity().is_empty());
    }

    #[test]
    fn mempool_seen_set_prunes_beyond_horizon() {
        let mut pool = Mempool::with_seen_horizon(2);
        let k = kp(7);
        let m = SealedMessage::new(signed(100, 0, &k));
        assert!(pool.push_sealed(m.clone()));
        pool.remove_included([&m]);
        // Replays within the horizon are still refused and remembered.
        pool.advance_epoch(ChainEpoch::new(2));
        assert!(!pool.push_sealed(m.clone()));
        assert_eq!(pool.seen_len(), 1);
        // Epoch regressions never resurrect or prune anything.
        pool.advance_epoch(ChainEpoch::new(1));
        assert_eq!(pool.seen_len(), 1);
        // Beyond the horizon the CID is forgotten — bounded memory; the
        // stale account nonce catches any replay at execution time.
        pool.advance_epoch(ChainEpoch::new(3));
        assert_eq!(pool.seen_len(), 0);
        assert!(pool.push_sealed(m));
    }

    fn td(nonce: u64) -> CrossMsg {
        let mut m = CrossMsg::transfer(
            HcAddress::new(SubnetId::root(), Address::new(1)),
            HcAddress::new(SubnetId::root().child(Address::new(9)), Address::new(2)),
            TokenAmount::from_whole(1),
        );
        m.nonce = Nonce::new(nonce);
        m
    }

    #[test]
    fn cross_pool_releases_dense_topdown_prefix_only() {
        let mut pool = CrossMsgPool::new();
        pool.ingest_top_down([td(0), td(2)]); // gap at nonce 1
        let (tds, _) = pool.take_proposable(10);
        assert_eq!(tds.len(), 1);
        assert_eq!(tds[0].nonce, Nonce::new(0));
        // The gap blocks nonce 2 until 1 arrives.
        pool.ingest_top_down([td(1)]);
        let (tds, _) = pool.take_proposable(10);
        assert_eq!(tds.len(), 2);
        assert_eq!(pool.pending_top_down(), 0);
        assert_eq!(pool.next_top_down_nonce(), Nonce::new(3));
        // Stale re-ingestion is ignored.
        pool.ingest_top_down([td(0)]);
        assert_eq!(pool.pending_top_down(), 0);
    }

    #[test]
    fn cross_pool_resolution_flow() {
        let mut pool = CrossMsgPool::new();
        let src = SubnetId::root().child(Address::new(9));
        let msgs = MsgGroup::seal(vec![td(0)]);
        let mut meta = CrossMsgMeta::for_group(src.clone(), SubnetId::root(), &msgs);
        meta.nonce = Nonce::new(0);
        pool.ingest_meta(meta.clone());
        assert_eq!(pool.unresolved_cids(), vec![meta.msgs_cid]);
        // Nothing proposable before resolution.
        assert!(pool.take_proposable(10).1.is_empty());
        // Content no meta waits for is refused — a group is only ever
        // known by the digest of what it holds.
        assert!(!pool.resolve(MsgGroup::seal(vec![td(5)])));
        // So is the right content for a meta that lies about its count.
        let mut miscounted = CrossMsgPool::new();
        miscounted.ingest_meta(CrossMsgMeta {
            count: 2,
            ..meta.clone()
        });
        assert!(!miscounted.resolve(msgs.clone()));
        // Correct content unlocks proposal.
        assert!(pool.resolve(msgs.clone()));
        let (_, bus) = pool.take_proposable(10);
        assert_eq!(bus.len(), 1);
        assert_eq!(bus[0].0, meta);
        assert_eq!(pool.pending_bottom_up(), 0);
    }

    #[test]
    fn cross_pool_ignores_redelivered_and_applied_metas() {
        let mut pool = CrossMsgPool::new();
        let src = SubnetId::root().child(Address::new(9));
        let msgs = MsgGroup::seal(vec![td(0)]);
        let mut meta = CrossMsgMeta::for_group(src.clone(), SubnetId::root(), &msgs);
        meta.nonce = Nonce::new(0);
        // First delivery registers; duplicated deliveries (the network may
        // re-deliver a checkpoint commit under duplication faults) are
        // no-ops at every stage of the meta's life.
        assert!(pool.ingest_meta(meta.clone()));
        assert!(!pool.ingest_meta(meta.clone()), "awaiting: dup ignored");
        assert_eq!(pool.pending_bottom_up(), 1);
        assert!(pool.resolve(msgs.clone()));
        assert!(!pool.ingest_meta(meta.clone()), "ready: dup ignored");
        assert_eq!(pool.pending_bottom_up(), 1);
        let (_, bus) = pool.take_proposable(10);
        assert_eq!(bus.len(), 1);
        // Applied: the nonce cursor has moved past it — a late redelivery
        // cannot re-queue the group for a second application.
        assert!(!pool.ingest_meta(meta.clone()), "applied: dup ignored");
        assert_eq!(pool.pending_bottom_up(), 0);
        assert!(pool.take_proposable(10).1.is_empty());
    }

    #[test]
    fn cross_pool_bottom_up_respects_meta_nonce_order() {
        let mut pool = CrossMsgPool::new();
        let src = SubnetId::root().child(Address::new(9));
        let g0 = MsgGroup::seal(vec![td(0)]);
        let g1 = MsgGroup::seal(vec![td(1)]);
        let mut m0 = CrossMsgMeta::for_group(src.clone(), SubnetId::root(), &g0);
        m0.nonce = Nonce::new(0);
        let mut m1 = CrossMsgMeta::for_group(src.clone(), SubnetId::root(), &g1);
        m1.nonce = Nonce::new(1);
        pool.ingest_meta(m0.clone());
        pool.ingest_meta(m1.clone());
        // Resolve out of order: only the dense prefix is proposable.
        assert!(pool.resolve(g1));
        assert!(pool.take_proposable(10).1.is_empty());
        assert!(pool.resolve(g0));
        let (_, bus) = pool.take_proposable(10);
        assert_eq!(bus.len(), 2);
        assert_eq!(bus[0].0.nonce, Nonce::new(0));
        assert_eq!(bus[1].0.nonce, Nonce::new(1));
    }
}
