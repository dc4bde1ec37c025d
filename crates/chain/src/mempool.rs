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
//! An admission costs one signature verification and no scan of the pool:
//! the message count is kept, not recounted; the wire size is memoized by
//! the one encoding that derived the message CID; and the passing verdict
//! is memoized on the admitted value, which block production then reads
//! instead of verifying again.
//!
//! # Deduplication
//!
//! The pool remembers senders, not messages. Each sender that has had a
//! message included in a committed block has a *floor*: the nonce its
//! account expects next in the committed state, which the node copies in
//! through [`Mempool::set_floor`]. A message below its sender's floor can
//! never execute, and a second message at a `(sender, nonce)` already
//! pending loses to the first admitted; both are refused as duplicates
//! before verification. Only an authenticated message advances an
//! account nonce, so a message a block carried but execution rejected —
//! a forgery, a foreign key, a nonce gap — cannot shut a valid message
//! out. Dedup memory is one entry per committed sender, however many
//! messages they sent.
//!
//! Eviction picks the globally lowest-priority *lane tail* (the
//! highest-nonce message of some sender), ordered by fee ascending with the
//! message CID as the deterministic tie-break. Evicting tails (never heads)
//! keeps every surviving lane a dense nonce prefix, so admission order
//! cannot strand an executable message behind an evicted one. The incoming
//! message itself participates: if it *is* the lowest-priority tail, it is
//! the one refused.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use hc_actors::{CrossMsg, CrossMsgMeta, MsgGroup};
use hc_state::{SealedMessage, SigCache, SignedMessage};
use hc_types::{Address, Cid, Nonce, SubnetId};

/// Admission-control knobs for [`Mempool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolConfig {
    /// Memory budget for pending messages, in canonical wire bytes of the
    /// signed messages held. `0` means unbounded (the pre-admission-control
    /// behaviour).
    pub capacity_bytes: usize,
}

/// Admission/eviction counters of one [`Mempool`] (mergeable into a
/// runtime-wide aggregate, like `SigCacheStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Messages admitted (verified, deduped, and kept — at least until a
    /// later admission evicted them).
    pub admitted: u64,
    /// Messages refused because their nonce is below their sender's floor
    /// (a nonce already spent), or another message is pending at their
    /// `(sender, nonce)`.
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
    /// Refused: the nonce is below the sender's floor (already spent), or
    /// another message is already pending at the same `(sender, nonce)`.
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

/// One pending message with its admission fee (its byte cost is the
/// message's memoized wire size).
#[derive(Debug, Clone)]
struct PoolEntry {
    msg: SealedMessage,
    fee: u64,
}

/// One sender's pending messages, sorted by nonce. A deque sized to its
/// contents rather than a map: most lanes hold a message or two, and a
/// B-tree leaf reserves room for eleven entries.
type Lane = VecDeque<PoolEntry>;

/// Where `nonce` sits in `lane`: `Ok` at its entry, `Err` where it would
/// be inserted.
fn nonce_slot(lane: &Lane, nonce: Nonce) -> Result<usize, usize> {
    lane.binary_search_by_key(&nonce, |e| e.msg.message().nonce)
}

/// The internal pool of pending signed user messages.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    /// Per-sender nonce lanes holding sealed messages (CIDs derived at
    /// admission travel into block assembly and execution) plus their
    /// admission fee.
    by_sender: BTreeMap<Address, Lane>,
    /// Messages held across every lane.
    count: usize,
    /// Each committed sender's floor: the nonce its account expects next.
    /// Only [`Mempool::set_floor`] writes one.
    floors: HashMap<Address, Nonce>,
    /// Admission-control configuration.
    config: MempoolConfig,
    /// Bytes currently held (sum of the entries' wire sizes).
    occupancy_bytes: usize,
    /// The node's verification counters, which count every admission's
    /// verdict.
    sig_cache: SigCache,
    /// Admission/eviction counters.
    stats: MempoolStats,
    /// Admissions per sender since the last [`Mempool::take_activity`]
    /// drain — the hotness signal the elastic controller samples.
    activity: BTreeMap<Address, u64>,
}

impl Mempool {
    /// Creates an empty unbounded pool.
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

    /// Counts admissions on the node's verification counters. The verdict
    /// admission reaches travels on the admitted value to block
    /// production.
    pub fn with_sig_cache(mut self, cache: SigCache) -> Self {
        self.sig_cache = cache;
        self
    }

    /// Hands the pool to a restarted node: `cache` becomes its
    /// verification counters, and every held message forgets its verdict,
    /// so the new node verifies each one itself before proposing it — a
    /// verdict never crosses nodes.
    pub fn rehome(&mut self, cache: SigCache) {
        self.sig_cache = cache;
        for entry in self.by_sender.values_mut().flat_map(|lane| lane.iter_mut()) {
            entry.msg.forget_verdict();
        }
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
    /// The dedup checks run *before* signature verification: a replayed
    /// duplicate costs a map lookup, not a full verification. A message
    /// below its sender's floor — a replay of an executed message, or any
    /// other message at a spent nonce — is refused, and so is one at a
    /// pending `(sender, nonce)` slot, so a conflicting message never
    /// displaces the pending one (the first admitted wins). Floors follow
    /// committed account nonces: an attacker cannot block a valid message
    /// by getting a forgery of it into a block. A message evicted by
    /// admission control frees its slot, so a later re-submission (when
    /// the pool has drained) is admitted again.
    ///
    /// A fresh value is verified in full once, here, and carries the
    /// passing verdict into block production.
    pub fn push_sealed_with_fee(&mut self, msg: SealedMessage, fee: u64) -> PushOutcome {
        let from = msg.message().from;
        let nonce = msg.message().nonce;
        let included = self.floors.get(&from).is_some_and(|floor| nonce < *floor);
        let slot_taken = self
            .by_sender
            .get(&from)
            .is_some_and(|lane| nonce_slot(lane, nonce).is_ok());
        if included || slot_taken {
            self.stats.rejected_duplicate += 1;
            return PushOutcome::Duplicate;
        }
        if !self.sig_cache.verify_sealed(&msg) {
            self.stats.rejected_invalid += 1;
            return PushOutcome::Invalid;
        }
        // Insert first, then restore the byte budget by evicting the
        // globally lowest-priority lane tails. The incoming message
        // competes on equal terms: if it is itself the lowest-priority
        // tail it is the one refused, which is what makes the admitted
        // set independent of arrival order for equal-size messages.
        self.occupancy_bytes += msg.wire_len();
        self.count += 1;
        let lane = self
            .by_sender
            .entry(from)
            .or_insert_with(|| Lane::with_capacity(1));
        let at = nonce_slot(lane, nonce).expect_err("the slot was checked free");
        lane.insert(at, PoolEntry { msg, fee });

        let mut survived = true;
        while self.config.capacity_bytes > 0 && self.occupancy_bytes > self.config.capacity_bytes {
            let victim = self
                .lowest_priority_tail()
                .expect("over-budget pool has at least one tail");
            if victim == (from, nonce) {
                survived = false;
            } else {
                self.stats.evicted += 1;
            }
            self.take(victim.0, victim.1);
        }
        if !survived {
            self.stats.rejected_full += 1;
            return PushOutcome::Full;
        }
        self.stats.admitted += 1;
        *self.activity.entry(from).or_default() += 1;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.occupancy_bytes as u64);
        self.stats.high_water_msgs = self.stats.high_water_msgs.max(self.count as u64);
        PushOutcome::Admitted
    }

    /// The lowest-priority lane tail: among every sender's highest-nonce
    /// entry, the one with the lowest `(fee, msg CID)`.
    fn lowest_priority_tail(&self) -> Option<(Address, Nonce)> {
        self.by_sender
            .iter()
            .filter_map(|(addr, lane)| {
                lane.back().map(|e| {
                    let priority = (e.fee, e.msg.msg_cid());
                    (priority, (*addr, e.msg.message().nonce))
                })
            })
            .min_by_key(|(priority, _)| *priority)
            .map(|(_, slot)| slot)
    }

    /// Removes the entry at `(addr, nonce)` if one is held, settling the
    /// byte and message counts and dropping the lane once it is empty.
    fn take(&mut self, addr: Address, nonce: Nonce) {
        let Some(lane) = self.by_sender.get_mut(&addr) else {
            return;
        };
        if let Some(entry) = nonce_slot(lane, nonce).ok().and_then(|at| lane.remove(at)) {
            self.occupancy_bytes -= entry.msg.wire_len();
            self.count -= 1;
        }
        if lane.is_empty() {
            self.by_sender.remove(&addr);
        }
    }

    /// The nonce this pool would admit next from `sender`, whose account
    /// expects `committed` next in the node's committed state: one past its
    /// lane's tail while it has messages pending, else the higher of its
    /// floor and `committed`. An evicted tail frees its nonce again, so a
    /// sender signing here never leaves a gap. A tail at the last nonce
    /// (only a forgery gets there) saturates instead of overflowing.
    pub fn next_nonce(&self, sender: Address, committed: Nonce) -> Nonce {
        match self.by_sender.get(&sender).and_then(Lane::back) {
            Some(tail) => Nonce::new(tail.msg.message().nonce.value().saturating_add(1)),
            None => self
                .floors
                .get(&sender)
                .map_or(committed, |f| committed.max(*f)),
        }
    }

    /// Number of senders with a floor — every sender the node has set one
    /// for, which is all the dedup state the pool keeps.
    pub fn committed_senders(&self) -> usize {
        self.floors.len()
    }

    /// Number of pending messages. O(1): the count is kept, not recounted.
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.count,
            self.by_sender.values().map(Lane::len).sum::<usize>(),
            "the kept message count drifted from the lanes"
        );
        self.count
    }

    /// Returns `true` if no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes currently held (canonical wire bytes of pending messages).
    pub fn occupancy_bytes(&self) -> usize {
        self.occupancy_bytes
    }

    /// Pending messages queued by `sender`.
    pub fn pending_for(&self, sender: &Address) -> usize {
        self.by_sender.get(sender).map_or(0, Lane::len)
    }

    /// Iterates every pending message, senders in address order and each
    /// sender's lane in nonce order.
    pub fn iter(&self) -> impl Iterator<Item = &SealedMessage> + '_ {
        self.by_sender
            .values()
            .flat_map(|lane| lane.iter().map(|e| &e.msg))
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
                let mut entries: Vec<(u64, &PoolEntry)> = lane.iter().map(|e| (e.fee, e)).collect();
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

    /// Frees the `(sender, nonce)` slot of each message a committed block
    /// included. Floors stay as they are: a block also carries messages
    /// execution rejected, so only the committed account nonce, passed to
    /// [`Mempool::set_floor`], may move one.
    pub fn remove_included<'a, I: IntoIterator<Item = &'a SealedMessage>>(&mut self, msgs: I) {
        for m in msgs {
            self.take(m.message().from, m.message().nonce);
        }
    }

    /// Raises `sender`'s floor to `next`, the nonce its account expects
    /// next in the committed state: every lower nonce is spent, so a
    /// message below it is refused as a duplicate. A floor never moves
    /// down: a restarted node inherits its peers' pool and replays history
    /// from genesis, and the replayed state must not reopen nonces its
    /// peers have already spent.
    pub fn set_floor(&mut self, sender: Address, next: Nonce) {
        let floor = self.floors.entry(sender).or_insert(next);
        *floor = (*floor).max(next);
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

    /// Ingests top-down messages the parent committed for this subnet.
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

    /// The top-down messages still waiting, in nonce order — what a
    /// crashed node leaves for the node that replaces it.
    pub fn into_top_down(self) -> Vec<CrossMsg> {
        self.top_down.into_values().collect()
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
        signed_to(from, nonce, 1, key)
    }

    fn signed_to(from: u64, nonce: u64, to: u64, key: &Keypair) -> SignedMessage {
        Message {
            from: Address::new(from),
            to: Address::new(to),
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
        // The counters make admission's verifications observable: the
        // duplicate must be refused by dedup without reaching the verifier
        // (the admission-order fix), and a replay of a *tampered* copy of
        // a seen message is refused the same way.
        let cache = hc_state::SigCache::default();
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
    }

    #[test]
    fn admission_verifies_once_and_production_reads_the_verdict() {
        let cache = hc_state::SigCache::default();
        let mut pool = Mempool::new().with_sig_cache(cache.clone());
        let k = kp(9);
        for n in 0..3 {
            assert!(pool.push(signed(100, n, &k)));
        }
        let selected = pool.select(10);
        assert!(selected.iter().all(SealedMessage::is_verified));
        for m in &selected {
            assert!(cache.verify_sealed(m));
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (3, 3),
            "one full verification per message, read back as a hit"
        );
    }

    #[test]
    fn a_same_nonce_conflict_keeps_the_first_and_leaks_nothing() {
        let k = kp(11);
        let a = SealedMessage::new(signed_to(100, 0, 1, &k));
        let b = SealedMessage::new(signed_to(100, 0, 2, &k));
        let bytes = a.wire_len();

        let mut pool = Mempool::new();
        assert!(pool.push_sealed(a.clone()));
        assert_eq!(
            pool.push_sealed_with_fee(b.clone(), u64::MAX),
            PushOutcome::Duplicate,
            "a later message at a pending (sender, nonce) is refused"
        );
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.occupancy_bytes(), bytes);
        assert_eq!(pool.select(10), vec![a.clone()], "the first admitted wins");
        assert_eq!(pool.stats().rejected_duplicate, 1);
        pool.remove_included([&a]);
        assert_eq!((pool.len(), pool.occupancy_bytes()), (0, 0));
    }

    #[test]
    fn a_same_nonce_conflict_cannot_wedge_a_capped_pool() {
        // Room for one and a half messages. Letting `b` replace `a` left
        // the pool's books at two messages with one held: `b` was refused
        // as `Full`, `a` was gone with no eviction record, and every later
        // push was refused too.
        let k = kp(12);
        let cap = msg_bytes() * 3 / 2;
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
        });
        let a = SealedMessage::new(signed_to(100, 0, 1, &k));
        assert!(pool.push_sealed(a.clone()));
        let b = SealedMessage::new(signed_to(100, 0, 2, &k));
        assert_eq!(pool.push_sealed_with_fee(b, 0), PushOutcome::Duplicate);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.occupancy_bytes(), a.wire_len());
        assert_eq!(
            pool.next_nonce(Address::new(100), Nonce::ZERO),
            Nonce::new(1),
            "nothing was evicted: the pending message is the lane's tail"
        );
        // The pool keeps working: the pending message is proposed, and the
        // sender's next nonce is admitted.
        let head = pool.select(1);
        assert_eq!(head, vec![a]);
        pool.remove_included(head.iter());
        assert!(push_fee(&mut pool, 100, 1, &k, 0).is_admitted());
        assert_eq!(pool.stats().rejected_full, 0);
    }

    fn push_fee(pool: &mut Mempool, from: u64, nonce: u64, key: &Keypair, fee: u64) -> PushOutcome {
        pool.push_sealed_with_fee(SealedMessage::new(signed(from, nonce, key)), fee)
    }

    /// Settles `m` as a node does once a block that included it executed
    /// it: its slot frees up, and its sender's floor becomes the account
    /// nonce execution left, one past `m`'s.
    fn commit(pool: &mut Mempool, m: &SealedMessage) {
        pool.remove_included([m]);
        pool.set_floor(m.message().from, m.message().nonce.next());
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
        for m in &selected {
            commit(&mut pool, m);
        }
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
        SealedMessage::new(signed(1, 0, &kp(1))).wire_len()
    }

    #[test]
    fn eviction_enforces_byte_bound_lowest_fee_first() {
        let cap = 2 * msg_bytes();
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
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
    fn a_committed_message_stays_refused_after_any_number_of_epochs() {
        let mut pool = Mempool::new();
        let k = kp(7);
        let m = SealedMessage::new(signed(100, 0, &k));
        assert!(pool.push_sealed(m.clone()));
        commit(&mut pool, &m);
        // A thousand more blocks, each including another sender's message:
        // nothing about the first sender expires.
        let other = kp(8);
        for n in 0..1_000 {
            let next = SealedMessage::new(signed(200, n, &other));
            assert!(pool.push_sealed(next.clone()));
            commit(&mut pool, &next);
        }
        assert_eq!(pool.push_sealed_with_fee(m, 0), PushOutcome::Duplicate);
        assert_eq!(pool.committed_senders(), 2, "one floor per sender");
        assert!(pool.is_empty());
    }

    #[test]
    fn a_different_message_at_a_committed_nonce_is_refused() {
        let k = kp(13);
        let a = SealedMessage::new(signed_to(100, 0, 1, &k));
        let b = SealedMessage::new(signed_to(100, 0, 2, &k));
        assert_ne!(a.msg_cid(), b.msg_cid());
        let mut pool = Mempool::new();
        assert!(pool.push_sealed(a.clone()));
        commit(&mut pool, &a);
        assert_eq!(
            pool.push_sealed_with_fee(b, u64::MAX),
            PushOutcome::Duplicate,
            "a new CID at an included nonce can never execute"
        );
        assert_eq!(pool.stats().rejected_duplicate, 1);
        assert!(push_fee(&mut pool, 100, 1, &k, 0).is_admitted());
    }

    #[test]
    fn a_forgery_never_moves_the_floor() {
        let cache = hc_state::SigCache::default();
        let mut pool = Mempool::new().with_sig_cache(cache.clone());
        let k = kp(14);
        let first = SealedMessage::new(signed(100, 0, &k));
        assert!(pool.push_sealed(first.clone()));
        commit(&mut pool, &first);
        // A forgery at the next, fresh nonce is verified and refused.
        let mut forged = signed(100, 1, &k);
        forged.message.value = TokenAmount::from_whole(7);
        assert_eq!(
            pool.push_sealed_with_fee(SealedMessage::new(forged), u64::MAX),
            PushOutcome::Invalid
        );
        // A forgery at an included nonce never reaches the verifier.
        let mut stale = signed_to(100, 0, 3, &k);
        stale.message.value = TokenAmount::from_whole(7);
        let misses = cache.stats().misses;
        assert_eq!(
            pool.push_sealed_with_fee(SealedMessage::new(stale), 0),
            PushOutcome::Duplicate
        );
        assert_eq!(cache.stats().misses, misses);
        // The valid message at the forged nonce is still admitted.
        assert!(push_fee(&mut pool, 100, 1, &k, 0).is_admitted());
        assert_eq!(pool.committed_senders(), 1);
    }

    #[test]
    fn inclusion_alone_moves_no_floor() {
        // A block carries messages execution rejects: here one signed by a
        // key the sender's account does not hold, at the last nonce. Its
        // slot frees up, but no floor moves until the node copies the
        // account nonce in, which the rejection left at zero.
        let (owner, other) = (kp(15), kp(16));
        let hijack = SealedMessage::new(signed(100, u64::MAX, &other));
        let mut pool = Mempool::new();
        assert!(pool
            .push_sealed_with_fee(hijack.clone(), u64::MAX)
            .is_admitted());
        pool.remove_included([&hijack]);
        assert_eq!((pool.len(), pool.committed_senders()), (0, 0));
        pool.set_floor(Address::new(100), Nonce::ZERO);
        assert!(push_fee(&mut pool, 100, 0, &owner, 0).is_admitted());
        assert!(pool.push_sealed(hijack), "a rejected nonce is not spent");
        assert_eq!(
            pool.next_nonce(Address::new(100), Nonce::ZERO),
            Nonce::new(u64::MAX),
            "a forged tail at the last nonce saturates"
        );
    }

    #[test]
    fn next_nonce_on_an_empty_lane_is_the_floor_or_the_account_nonce() {
        let mut pool = Mempool::new();
        let sender = Address::new(100);
        assert_eq!(pool.next_nonce(sender, Nonce::new(4)), Nonce::new(4));
        pool.set_floor(sender, Nonce::new(7));
        assert_eq!(
            pool.next_nonce(sender, Nonce::new(4)),
            Nonce::new(7),
            "a floor above the account nonce wins"
        );
        assert_eq!(pool.next_nonce(sender, Nonce::new(9)), Nonce::new(9));
    }

    #[test]
    fn next_nonce_is_one_past_the_lanes_tail() {
        let mut pool = Mempool::new();
        let k = kp(17);
        pool.set_floor(Address::new(100), Nonce::new(2));
        for n in 2..5 {
            assert!(push_fee(&mut pool, 100, n, &k, 0).is_admitted());
        }
        assert_eq!(
            pool.next_nonce(Address::new(100), Nonce::new(2)),
            Nonce::new(5)
        );
        let head = pool.select(1);
        pool.remove_included(head.iter());
        assert_eq!(
            pool.next_nonce(Address::new(100), Nonce::new(3)),
            Nonce::new(5)
        );
    }

    #[test]
    fn next_nonce_returns_an_evicted_tails_nonce() {
        let cap = 2 * msg_bytes();
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: cap,
        });
        let (ka, kb, kc) = (kp(18), kp(19), kp(20));
        let (a, b) = (Address::new(100), Address::new(200));
        assert!(push_fee(&mut pool, 100, 0, &ka, 5).is_admitted());
        assert!(push_fee(&mut pool, 100, 1, &ka, 1).is_admitted());
        assert_eq!(pool.next_nonce(a, Nonce::ZERO), Nonce::new(2));
        // A higher bid evicts A's cheap tail: A signs at that nonce again.
        assert!(push_fee(&mut pool, 200, 0, &kb, 3).is_admitted());
        assert_eq!(pool.stats().evicted, 1);
        assert_eq!(pool.next_nonce(a, Nonce::ZERO), Nonce::new(1));
        // An arrival refused as `Full` leaves its nonce free too.
        assert_eq!(push_fee(&mut pool, 200, 1, &kb, 0), PushOutcome::Full);
        assert_eq!(pool.next_nonce(b, Nonce::ZERO), Nonce::new(1));
        // So does an evicted lane's last message.
        assert!(push_fee(&mut pool, 300, 0, &kc, 9).is_admitted());
        assert_eq!(pool.pending_for(&b), 0);
        assert_eq!(pool.next_nonce(b, Nonce::ZERO), Nonce::ZERO);
    }

    #[test]
    fn a_floor_never_moves_down() {
        // A restarted node inherits its peers' pool and replays history
        // from genesis: the replayed account nonce passes below the floor
        // the peers set, and must not reopen the nonces between.
        let k = kp(21);
        let sender = Address::new(100);
        let mut pool = Mempool::new();
        pool.set_floor(sender, Nonce::new(5));
        pool.set_floor(sender, Nonce::new(2));
        assert_eq!(pool.next_nonce(sender, Nonce::new(2)), Nonce::new(5));
        assert_eq!(push_fee(&mut pool, 100, 3, &k, 0), PushOutcome::Duplicate);
        pool.set_floor(sender, Nonce::new(6));
        assert_eq!(pool.next_nonce(sender, Nonce::new(2)), Nonce::new(6));
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
