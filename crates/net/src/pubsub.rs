//! Simulated topic pub-sub.
//!
//! A [`Network`] carries opaque payloads between subscribers of named
//! topics under a configurable delay/loss model. Delivery is pull-based
//! against virtual time: `publish` schedules deliveries, `poll` returns the
//! messages whose delivery time has passed — which makes the network
//! composable with the discrete-event simulator and fully deterministic
//! under a seed.
//!
//! On top of the base delay/loss model, a seeded [`FaultPlan`] can inject
//! named partitions, targeted loss, bounded duplication, and adversarial
//! reordering (see [`crate::fault`]). Fault decisions draw from a
//! dedicated, domain-separated RNG stream, so the empty plan leaves the
//! base behaviour bit-identical.
//!
//! A [`RegionMap`] (see [`crate::region`]) layers geography *under* the
//! per-topic model: deliveries crossing a non-identity region pair gain
//! extra delay/jitter/loss drawn from the same domain-separated fault
//! stream, and region-scoped disaster rules (outage, partition, degrade)
//! resolve placements against the map. The uniform map draws nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultPlan, PartitionPolicy};
use crate::region::RegionMap;

/// Domain separation for the fault-decision RNG stream: fault draws must
/// never perturb the base delay/loss stream. Shared with the resolver's
/// seeded backoff jitter, which belongs to the same fault domain.
pub(crate) const FAULT_RNG_DOMAIN: u64 = 0x6661_756c_7421; // "fault!"

/// Delay and loss model of the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Base one-way propagation delay in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Uniform jitter added on top of the base delay, `[0, jitter_ms]`.
    pub jitter_ms: u64,
    /// Probability that a given delivery is dropped (per subscriber).
    pub drop_rate: f64,
    /// Scheduled fault injection (partitions, targeted loss, duplication,
    /// reordering, crash windows). The default — [`FaultPlan::none`] —
    /// schedules nothing and is bit-identical to the pre-chaos network.
    pub faults: FaultPlan,
    /// Geo-aware placement and inter-region link matrix. The default —
    /// [`RegionMap::uniform`] — draws no extra randomness, adds no delay,
    /// and is bit-identical to the region-less network.
    pub regions: RegionMap,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_delay_ms: 50,
            jitter_ms: 20,
            drop_rate: 0.0,
            faults: FaultPlan::none(),
            regions: RegionMap::uniform(),
        }
    }
}

/// Handle identifying one subscription of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriberId(u64);

impl SubscriberId {
    /// Builds a subscriber id from its raw value — only meaningful for
    /// ids previously handed out by [`Network::subscribe`] (fault plans
    /// reference subscribers this way).
    pub const fn from_raw(raw: u64) -> Self {
        SubscriberId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Aggregate traffic statistics.
///
/// Every candidate delivery is accounted for exactly once:
/// `attempts == scheduled + dropped + partition_dropped +
/// targeted_dropped + offline_dropped + region_dropped + region_lost`,
/// and after a full drain `scheduled + duplicated == delivered +
/// redelivered + offline_cleared` (plus whatever
/// [`Network::pending_deliveries`] still holds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages published.
    pub published: u64,
    /// Candidate per-subscriber deliveries considered (publishes fanned
    /// out over topic membership, minus the publisher's excluded copy).
    pub attempts: u64,
    /// Per-subscriber deliveries scheduled (fault-injected duplicate
    /// copies are *not* counted here — see [`NetStats::duplicated`]).
    pub scheduled: u64,
    /// Deliveries dropped by the base loss model.
    pub dropped: u64,
    /// Unique deliveries actually polled by subscribers. Fault-injected
    /// duplicate copies polled by subscribers accumulate in
    /// [`NetStats::redelivered`], never here, so `delivered` can be
    /// reconciled against `scheduled` even under duplication faults.
    pub delivered: u64,
    /// Extra copies scheduled by duplication faults.
    pub duplicated: u64,
    /// Duplicate copies polled by subscribers.
    pub redelivered: u64,
    /// Deliveries whose delay was inflated by a reorder fault.
    pub reordered: u64,
    /// Deliveries severed by a [`PartitionPolicy::Drop`] partition.
    pub partition_dropped: u64,
    /// Deliveries deferred to heal time by a
    /// [`PartitionPolicy::HoldUntilHeal`] partition.
    pub partition_held: u64,
    /// Deliveries dropped by targeted loss rules.
    pub targeted_dropped: u64,
    /// Deliveries skipped because the subscriber was offline (crashed).
    pub offline_dropped: u64,
    /// Pending deliveries discarded when a subscriber's inbox was
    /// cleared at crash time.
    pub offline_cleared: u64,
    /// Deliveries blackholed by a region disaster: an active
    /// [`crate::fault::RegionOutage`] touching either endpoint's region,
    /// or an active [`crate::fault::RegionPartition`] with
    /// [`PartitionPolicy::Drop`].
    pub region_dropped: u64,
    /// Deliveries deferred to heal time by an active
    /// [`crate::fault::RegionPartition`] with
    /// [`PartitionPolicy::HoldUntilHeal`].
    pub region_held: u64,
    /// Deliveries dropped by inter-region link loss — the static
    /// [`crate::RegionLink::loss_rate`] matrix or an active
    /// [`crate::fault::RegionDegrade`] inflation.
    pub region_lost: u64,
}

/// Delivered-latency summary of one topic, measured per unique delivery
/// as `deliver_at_ms - sent_at_ms` (pull cadence does not affect it).
/// Fault-injected duplicate copies are not counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicLatency {
    /// Unique deliveries measured.
    pub count: u64,
    /// Median delivery latency in virtual ms (nearest-rank).
    pub p50_ms: u64,
    /// 99th-percentile delivery latency in virtual ms (nearest-rank).
    pub p99_ms: u64,
    /// Worst delivery latency in virtual ms.
    pub max_ms: u64,
}

#[derive(Debug)]
struct Pending<P> {
    deliver_at_ms: u64,
    /// Publish time, kept so poll can histogram the delivered latency.
    sent_at_ms: u64,
    /// Interned topic id (index into `Inner::latency`).
    topic: u32,
    payload: P,
    /// `true` for fault-injected duplicate copies: polled copies count
    /// into `redelivered`, never `delivered`.
    duplicate: bool,
}

#[derive(Debug)]
struct Inner<P> {
    config: NetConfig,
    rng: StdRng,
    /// Fault-decision stream, domain-separated from `rng` so an empty
    /// fault plan leaves the base delay/loss stream untouched.
    fault_rng: StdRng,
    next_id: u64,
    /// topic -> subscriber ids.
    topics: HashMap<String, Vec<SubscriberId>>,
    /// subscriber -> pending deliveries ordered by delivery time.
    inboxes: BTreeMap<SubscriberId, VecDeque<Pending<P>>>,
    /// Subscribers currently offline (crashed nodes): publishes skip
    /// them entirely.
    offline: BTreeSet<SubscriberId>,
    /// Multiset of the delivery times of every pending message, maintained
    /// incrementally on publish/poll so the wave scheduler's
    /// [`Network::next_delivery_ms`] is an O(1) first-key read instead of
    /// an O(total-queued) scan over every inbox.
    pending_times: BTreeMap<u64, usize>,
    /// Topic name → interned id (index into `latency`).
    topic_ids: HashMap<String, u32>,
    /// Per-topic exact latency histogram (latency ms → unique deliveries),
    /// indexed by interned topic id.
    latency: Vec<BTreeMap<u64, u64>>,
    stats: NetStats,
}

impl<P> Inner<P> {
    fn note_scheduled(&mut self, deliver_at_ms: u64) {
        *self.pending_times.entry(deliver_at_ms).or_insert(0) += 1;
    }

    fn note_delivered(&mut self, deliver_at_ms: u64) {
        match self.pending_times.get_mut(&deliver_at_ms) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.pending_times.remove(&deliver_at_ms);
            }
            None => unreachable!("delivered a message that was never scheduled"),
        }
    }
}

/// What an active partition decided for one delivery.
enum PartitionGate {
    Pass,
    Drop,
    Hold(u64),
}

/// A simulated pub-sub network. Cloning yields another handle to the same
/// network (nodes share it).
#[derive(Debug, Clone)]
pub struct Network<P> {
    inner: Arc<Mutex<Inner<P>>>,
}

impl<P: Clone> Network<P> {
    /// Creates a network with the given delay/loss model and RNG seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Network {
            inner: Arc::new(Mutex::new(Inner {
                config,
                rng: StdRng::seed_from_u64(seed),
                fault_rng: StdRng::seed_from_u64(seed ^ FAULT_RNG_DOMAIN),
                next_id: 0,
                topics: HashMap::new(),
                inboxes: BTreeMap::new(),
                offline: BTreeSet::new(),
                pending_times: BTreeMap::new(),
                topic_ids: HashMap::new(),
                latency: Vec::new(),
                stats: NetStats::default(),
            })),
        }
    }

    /// Subscribes a new endpoint to `topic`, returning its handle.
    pub fn subscribe(&self, topic: &str) -> SubscriberId {
        let mut inner = self.inner.lock();
        let id = SubscriberId(inner.next_id);
        inner.next_id += 1;
        inner.topics.entry(topic.to_owned()).or_default().push(id);
        inner.inboxes.insert(id, VecDeque::new());
        id
    }

    /// Adds an existing subscriber to another topic (nodes of a child
    /// subnet also follow their parent's topic, paper §II).
    pub fn join(&self, sub: SubscriberId, topic: &str) {
        let mut inner = self.inner.lock();
        let subs = inner.topics.entry(topic.to_owned()).or_default();
        if !subs.contains(&sub) {
            subs.push(sub);
        }
    }

    /// Publishes `payload` on `topic` at virtual time `now_ms`, scheduling
    /// a delivery per subscriber (minus losses). `exclude` suppresses the
    /// publisher's own copy. Returns the number of deliveries scheduled.
    ///
    /// The delivery's *origin* (used by origin-scoped fault rules) is
    /// taken from `exclude`; use [`Network::publish_from`] to state an
    /// origin without suppressing the publisher's own copy.
    pub fn publish(
        &self,
        topic: &str,
        payload: P,
        now_ms: u64,
        exclude: Option<SubscriberId>,
    ) -> usize {
        self.publish_from(topic, payload, now_ms, exclude, exclude)
    }

    /// [`Network::publish`] with an explicit origin: `origin` identifies
    /// the publishing subscriber for partition/loss rules that scope by
    /// sender, independent of whether its own copy is suppressed. The
    /// catch-up path of a rejoining node publishes on its own topic with
    /// `exclude: None` (it *wants* the self-delivered copy) but still
    /// states itself as origin so asymmetric faults can target it.
    pub fn publish_from(
        &self,
        topic: &str,
        payload: P,
        now_ms: u64,
        exclude: Option<SubscriberId>,
        origin: Option<SubscriberId>,
    ) -> usize {
        let mut inner = self.inner.lock();
        inner.stats.published += 1;
        let subs = inner.topics.get(topic).cloned().unwrap_or_default();
        let faulty = !inner.config.faults.is_none();
        let uniform = inner.config.regions.is_uniform();
        // Intern the topic for the per-topic latency histogram.
        let topic_id = match inner.topic_ids.get(topic).copied() {
            Some(id) => id,
            None => {
                let id = inner.latency.len() as u32;
                inner.topic_ids.insert(topic.to_owned(), id);
                inner.latency.push(BTreeMap::new());
                id
            }
        };
        // The origin's region, and the active region-scoped disaster rules
        // resolved against the map once per publish. Region names a rule
        // carries but the map never declared match nothing.
        let from_region = origin.map_or(0, |o| inner.config.regions.region_of(o));
        let mut outage_regions: Vec<usize> = Vec::new();
        let mut region_parts: Vec<(usize, usize, u64, PartitionPolicy)> = Vec::new();
        let mut degrades: Vec<(usize, usize, u64, f64)> = Vec::new();
        if faulty {
            for o in &inner.config.faults.region_outages {
                if o.active(now_ms) {
                    if let Some(i) = inner.config.regions.region_index(&o.region) {
                        outage_regions.push(i);
                    }
                }
            }
            for p in &inner.config.faults.region_partitions {
                if p.active(now_ms) {
                    if let (Some(a), Some(b)) = (
                        inner.config.regions.region_index(&p.a),
                        inner.config.regions.region_index(&p.b),
                    ) {
                        region_parts.push((a, b, p.heal_ms, p.policy));
                    }
                }
            }
            for d in &inner.config.faults.region_degrades {
                if d.from_ms <= now_ms && now_ms < d.until_ms {
                    if let (Some(f), Some(t)) = (
                        inner.config.regions.region_index(&d.from),
                        inner.config.regions.region_index(&d.to),
                    ) {
                        degrades.push((f, t, d.extra_delay_ms, d.loss_rate));
                    }
                }
            }
        }
        let mut scheduled = 0;
        for sub in subs {
            if Some(sub) == exclude {
                continue;
            }
            inner.stats.attempts += 1;
            let to_region = inner.config.regions.region_of(sub);
            // Offline (crashed) subscribers never receive publishes. The
            // check draws no randomness, so it is safe outside the fault
            // gate: crash tests work without an active `FaultPlan`.
            if inner.offline.contains(&sub) {
                inner.stats.offline_dropped += 1;
                continue;
            }
            let mut hold_until: Option<u64> = None;
            if faulty {
                // Named partitions: the first active partition severing
                // this (origin, dest) pair decides the delivery's fate.
                let gate = inner
                    .config
                    .faults
                    .partitions
                    .iter()
                    .find(|p| p.active(now_ms) && p.severs(topic, origin, sub))
                    .map(|p| match p.policy {
                        PartitionPolicy::Drop => PartitionGate::Drop,
                        PartitionPolicy::HoldUntilHeal => PartitionGate::Hold(p.heal_ms),
                    })
                    .unwrap_or(PartitionGate::Pass);
                match gate {
                    PartitionGate::Drop => {
                        inner.stats.partition_dropped += 1;
                        continue;
                    }
                    PartitionGate::Hold(heal_ms) => {
                        inner.stats.partition_held += 1;
                        hold_until = Some(heal_ms);
                    }
                    PartitionGate::Pass => {}
                }
                // Whole-region outage: anything to or from a dark region
                // is blackholed for the window (the crash–rejoin of the
                // region's nodes is driven separately by `hc-core`).
                if outage_regions
                    .iter()
                    .any(|&r| r == from_region || r == to_region)
                {
                    inner.stats.region_dropped += 1;
                    continue;
                }
                // Inter-region partition: the first active rule whose pair
                // this delivery crosses (either direction) decides.
                let crossed = region_parts
                    .iter()
                    .find(|(a, b, _, _)| {
                        (from_region == *a && to_region == *b)
                            || (from_region == *b && to_region == *a)
                    })
                    .map(|&(_, _, heal_ms, policy)| (heal_ms, policy));
                if let Some((heal_ms, policy)) = crossed {
                    match policy {
                        PartitionPolicy::Drop => {
                            inner.stats.region_dropped += 1;
                            continue;
                        }
                        PartitionPolicy::HoldUntilHeal => {
                            inner.stats.region_held += 1;
                            hold_until = Some(hold_until.map_or(heal_ms, |h| h.max(heal_ms)));
                        }
                    }
                }
                // Targeted/asymmetric loss.
                let loss_rates: Vec<f64> = inner
                    .config
                    .faults
                    .losses
                    .iter()
                    .filter(|r| r.matches(now_ms, topic, origin, sub))
                    .map(|r| r.rate)
                    .collect();
                let lost = loss_rates
                    .into_iter()
                    .any(|rate| rate > 0.0 && inner.fault_rng.gen_bool(rate.clamp(0.0, 1.0)));
                if lost {
                    inner.stats.targeted_dropped += 1;
                    continue;
                }
            }
            // Static inter-region link loss. Gated on the link actually
            // carrying loss, so uniform maps and identity links draw
            // nothing from the fault stream.
            let link = if uniform {
                crate::region::RegionLink::IDENTITY
            } else {
                inner.config.regions.link(from_region, to_region)
            };
            if link.loss_rate > 0.0 && inner.fault_rng.gen_bool(link.loss_rate.clamp(0.0, 1.0)) {
                inner.stats.region_lost += 1;
                continue;
            }
            // Base loss/delay model — drawn from the base stream in the
            // exact pre-chaos order.
            let drop_rate = inner.config.drop_rate;
            if drop_rate > 0.0 && inner.rng.gen_bool(drop_rate.clamp(0.0, 1.0)) {
                inner.stats.dropped += 1;
                continue;
            }
            let jitter_ms = inner.config.jitter_ms;
            let jitter = if jitter_ms > 0 {
                inner.rng.gen_range(0..=jitter_ms)
            } else {
                0
            };
            let mut deliver_at_ms = now_ms + inner.config.base_delay_ms + jitter;
            if !link.is_identity() {
                // The link's bandwidth factor scales the *base* portion
                // (a slow pipe stretches every transfer), then the pair's
                // fixed propagation delay and jitter stack on top. Region
                // jitter comes from the fault stream so the base stream
                // stays untouched.
                let scaled =
                    (inner.config.base_delay_ms + jitter) * u64::from(link.delay_factor_pct) / 100;
                let region_jitter = if link.jitter_ms > 0 {
                    inner.fault_rng.gen_range(0..=link.jitter_ms)
                } else {
                    0
                };
                deliver_at_ms = now_ms + scaled + link.extra_delay_ms + region_jitter;
            }
            if faulty && !degrades.is_empty() {
                // Degraded trans-oceanic links: every active matching rule
                // stacks its latency inflation; loss draws short-circuit.
                let mut extra = 0u64;
                let mut lost = false;
                for &(f, t, extra_delay_ms, rate) in &degrades {
                    if f == from_region && t == to_region {
                        if rate > 0.0 && inner.fault_rng.gen_bool(rate.clamp(0.0, 1.0)) {
                            lost = true;
                            break;
                        }
                        extra += extra_delay_ms;
                    }
                }
                if lost {
                    inner.stats.region_lost += 1;
                    continue;
                }
                deliver_at_ms += extra;
            }
            if faulty {
                // Adversarial reordering: inflate the delay within the
                // rule's window so later publishes can overtake this one.
                let reorder = inner
                    .config
                    .faults
                    .reorders
                    .iter()
                    .find(|r| r.matches(now_ms, topic))
                    .map(|r| (r.rate, r.max_extra_delay_ms));
                if let Some((rate, max_extra)) = reorder {
                    if rate > 0.0 && inner.fault_rng.gen_bool(rate.clamp(0.0, 1.0)) {
                        deliver_at_ms += inner.fault_rng.gen_range(1..=max_extra.max(1));
                        inner.stats.reordered += 1;
                    }
                }
                if let Some(heal_ms) = hold_until {
                    deliver_at_ms = deliver_at_ms.max(heal_ms);
                }
            }
            inner
                .inboxes
                .get_mut(&sub)
                .expect("subscriber has inbox")
                .push_back(Pending {
                    deliver_at_ms,
                    sent_at_ms: now_ms,
                    topic: topic_id,
                    payload: payload.clone(),
                    duplicate: false,
                });
            inner.note_scheduled(deliver_at_ms);
            inner.stats.scheduled += 1;
            scheduled += 1;
            if faulty {
                // Bounded duplication: extra flagged copies, each with
                // its own spread so copies interleave with other traffic.
                let dup = inner
                    .config
                    .faults
                    .duplications
                    .iter()
                    .find(|r| r.matches(now_ms, topic))
                    .map(|r| (r.rate, r.max_copies, r.spread_ms));
                if let Some((rate, max_copies, spread_ms)) = dup {
                    if rate > 0.0 && inner.fault_rng.gen_bool(rate.clamp(0.0, 1.0)) {
                        let copies = inner.fault_rng.gen_range(1..=max_copies.max(1));
                        for _ in 0..copies {
                            let extra = if spread_ms > 0 {
                                inner.fault_rng.gen_range(0..=spread_ms)
                            } else {
                                0
                            };
                            let mut copy_at = deliver_at_ms + extra;
                            if let Some(heal_ms) = hold_until {
                                copy_at = copy_at.max(heal_ms);
                            }
                            inner
                                .inboxes
                                .get_mut(&sub)
                                .expect("subscriber has inbox")
                                .push_back(Pending {
                                    deliver_at_ms: copy_at,
                                    sent_at_ms: now_ms,
                                    topic: topic_id,
                                    payload: payload.clone(),
                                    duplicate: true,
                                });
                            inner.note_scheduled(copy_at);
                            inner.stats.duplicated += 1;
                        }
                    }
                }
            }
        }
        scheduled
    }

    /// Returns the messages for `sub` whose delivery time has passed.
    pub fn poll(&self, sub: SubscriberId, now_ms: u64) -> Vec<P> {
        let mut inner = self.inner.lock();
        let Some(inbox) = inner.inboxes.get_mut(&sub) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut taken_times = Vec::new();
        let mut measured = Vec::new();
        let mut redelivered = 0u64;
        let mut remaining = VecDeque::with_capacity(inbox.len());
        while let Some(p) = inbox.pop_front() {
            if p.deliver_at_ms <= now_ms {
                taken_times.push(p.deliver_at_ms);
                if p.duplicate {
                    redelivered += 1;
                } else {
                    measured.push((p.topic, p.deliver_at_ms - p.sent_at_ms));
                }
                out.push(p.payload);
            } else {
                remaining.push_back(p);
            }
        }
        *inbox = remaining;
        for t in taken_times {
            inner.note_delivered(t);
        }
        for (topic, latency_ms) in measured {
            *inner.latency[topic as usize].entry(latency_ms).or_insert(0) += 1;
        }
        inner.stats.delivered += out.len() as u64 - redelivered;
        inner.stats.redelivered += redelivered;
        out
    }

    /// Marks a subscriber offline (crashed) or back online. Publishes
    /// skip offline subscribers entirely (counted in
    /// [`NetStats::offline_dropped`]); already-queued deliveries stay
    /// queued unless [`Network::clear_inbox`] discards them.
    pub fn set_offline(&self, sub: SubscriberId, offline: bool) {
        let mut inner = self.inner.lock();
        if offline {
            inner.offline.insert(sub);
        } else {
            inner.offline.remove(&sub);
        }
    }

    /// Discards every pending delivery of `sub` (a crashed node loses
    /// its in-flight inbox). Returns the number of discarded deliveries.
    pub fn clear_inbox(&self, sub: SubscriberId) -> usize {
        let mut inner = self.inner.lock();
        let Some(inbox) = inner.inboxes.get_mut(&sub) else {
            return 0;
        };
        let times: Vec<u64> = std::mem::take(inbox)
            .into_iter()
            .map(|p| p.deliver_at_ms)
            .collect();
        for t in &times {
            inner.note_delivered(*t);
        }
        inner.stats.offline_cleared += times.len() as u64;
        times.len()
    }

    /// Merges additional fault rules into the live plan (tests learn
    /// subscriber ids only after building the network).
    pub fn extend_faults(&self, plan: FaultPlan) {
        self.inner.lock().config.faults.merge(plan);
    }

    /// Earliest pending delivery time across all subscribers, if any — the
    /// simulator uses this to advance virtual time without busy-waiting.
    /// Reads the incrementally maintained delivery-time multiset, so the
    /// cost is O(1) rather than a scan of every queued message.
    pub fn next_delivery_ms(&self) -> Option<u64> {
        let inner = self.inner.lock();
        inner.pending_times.keys().next().copied()
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().stats
    }

    /// Places a subscriber in a named region of the live map (declaring
    /// the region if needed). Runtimes call this at boot, after
    /// subscribing each node.
    pub fn place_in_region(&self, sub: SubscriberId, region: &str) {
        self.inner.lock().config.regions.place(sub, region);
    }

    /// A snapshot of the live region map.
    pub fn region_map(&self) -> RegionMap {
        self.inner.lock().config.regions.clone()
    }

    /// The region name a subscriber is placed in.
    pub fn region_name_of(&self, sub: SubscriberId) -> String {
        let inner = self.inner.lock();
        inner.config.regions.region_name_of(sub).to_owned()
    }

    /// Delivered-latency summary for `topic` (p50/p99/max over every
    /// unique delivery polled so far), or `None` before the first one.
    pub fn topic_latency(&self, topic: &str) -> Option<TopicLatency> {
        let inner = self.inner.lock();
        let id = *inner.topic_ids.get(topic)?;
        let hist = &inner.latency[id as usize];
        let count: u64 = hist.values().sum();
        if count == 0 {
            return None;
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (&lat, &c) in hist {
                seen += c;
                if seen >= rank {
                    return lat;
                }
            }
            *hist.keys().next_back().expect("non-empty histogram")
        };
        Some(TopicLatency {
            count,
            p50_ms: quantile(0.50),
            p99_ms: quantile(0.99),
            max_ms: *hist.keys().next_back().expect("non-empty histogram"),
        })
    }

    /// Deliveries scheduled but not yet polled (nor cleared), across all
    /// subscribers — the remainder term of the [`NetStats`] ledger.
    pub fn pending_deliveries(&self) -> u64 {
        let inner = self.inner.lock();
        inner.pending_times.values().map(|&c| c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DupRule, LossRule, Partition, ReorderRule};

    fn net(drop_rate: f64) -> Network<&'static str> {
        Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate,
                ..NetConfig::default()
            },
            7,
        )
    }

    #[test]
    fn delivery_respects_virtual_time() {
        let n = net(0.0);
        let a = n.subscribe("/root/msgs");
        assert_eq!(n.publish("/root/msgs", "hello", 0, None), 1);
        // Too early.
        assert!(n.poll(a, 99).is_empty());
        assert_eq!(n.poll(a, 100), vec!["hello"]);
        // Consumed.
        assert!(n.poll(a, 200).is_empty());
    }

    #[test]
    fn all_topic_subscribers_receive_except_excluded() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        let c = n.subscribe("other");
        assert_eq!(n.publish("t", "x", 0, Some(a)), 1);
        assert!(n.poll(a, 1_000).is_empty());
        assert_eq!(n.poll(b, 1_000), vec!["x"]);
        assert!(n.poll(c, 1_000).is_empty());
    }

    #[test]
    fn join_adds_existing_subscriber_to_topic() {
        let n = net(0.0);
        let a = n.subscribe("child");
        n.join(a, "parent");
        n.join(a, "parent"); // idempotent
        n.publish("parent", "p", 0, None);
        assert_eq!(n.poll(a, 1_000), vec!["p"]);
    }

    #[test]
    fn losses_are_counted() {
        let n = net(1.0);
        let a = n.subscribe("t");
        assert_eq!(n.publish("t", "x", 0, None), 0);
        assert!(n.poll(a, 10_000).is_empty());
        let stats = n.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn publishing_to_unknown_topic_is_a_noop() {
        let n = net(0.0);
        assert_eq!(n.publish("nobody", "x", 0, None), 0);
    }

    #[test]
    fn next_delivery_tracks_earliest_pending() {
        let n = net(0.0);
        let _a = n.subscribe("t");
        assert_eq!(n.next_delivery_ms(), None);
        n.publish("t", "x", 500, None);
        n.publish("t", "y", 0, None);
        assert_eq!(n.next_delivery_ms(), Some(100));
    }

    #[test]
    fn next_delivery_stays_consistent_across_poll() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        // Same delivery time for two subscribers: polling one of them must
        // not clear the other's pending slot from the multiset.
        n.publish("t", "x", 0, None); // due at 100 for both a and b
        n.publish("t", "y", 400, None); // due at 500 for both
        assert_eq!(n.next_delivery_ms(), Some(100));
        assert_eq!(n.poll(a, 100), vec!["x"]);
        assert_eq!(n.next_delivery_ms(), Some(100)); // b's copy still queued
        assert_eq!(n.poll(b, 100), vec!["x"]);
        assert_eq!(n.next_delivery_ms(), Some(500));
        n.poll(a, 10_000);
        n.poll(b, 10_000);
        assert_eq!(n.next_delivery_ms(), None);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let n: Network<u32> = Network::new(
                NetConfig {
                    base_delay_ms: 10,
                    jitter_ms: 50,
                    drop_rate: 0.3,
                    ..NetConfig::default()
                },
                1234,
            );
            let a = n.subscribe("t");
            for i in 0..50 {
                n.publish("t", i, i as u64 * 10, None);
            }
            n.poll(a, 10_000)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_fault_plan_matches_faultless_stream() {
        // A plan whose rules exist but never match must still leave the
        // base stream identical: fault draws come from the fault stream.
        let run = |faults: FaultPlan| {
            let n: Network<u32> = Network::new(
                NetConfig {
                    base_delay_ms: 10,
                    jitter_ms: 50,
                    drop_rate: 0.3,
                    faults,
                    ..NetConfig::default()
                },
                99,
            );
            let a = n.subscribe("t");
            for i in 0..100 {
                n.publish("t", i, i as u64 * 7, None);
            }
            n.poll(a, 100_000)
        };
        let mut inert = FaultPlan::none();
        inert.losses.push(LossRule {
            from_ms: 1_000_000, // never active
            until_ms: u64::MAX,
            topic: None,
            from: None,
            to: None,
            rate: 1.0,
        });
        assert_eq!(run(FaultPlan::none()), run(inert));
    }

    #[test]
    fn drop_partition_severs_topic_until_heal() {
        let n = net(0.0);
        let a = n.subscribe("t");
        n.extend_faults(FaultPlan {
            partitions: vec![Partition {
                name: "blackout".into(),
                from_ms: 0,
                heal_ms: 1_000,
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            }],
            ..FaultPlan::none()
        });
        assert_eq!(n.publish("t", "lost", 500, None), 0);
        // After heal, traffic flows again.
        assert_eq!(n.publish("t", "ok", 1_000, None), 1);
        assert_eq!(n.poll(a, 2_000), vec!["ok"]);
        let stats = n.stats();
        assert_eq!(stats.partition_dropped, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn hold_partition_defers_delivery_to_heal_time() {
        let n = net(0.0);
        let a = n.subscribe("t");
        n.extend_faults(FaultPlan {
            partitions: vec![Partition {
                name: "queueing".into(),
                from_ms: 0,
                heal_ms: 5_000,
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::HoldUntilHeal,
            }],
            ..FaultPlan::none()
        });
        n.publish("t", "held", 0, None);
        // Normal delivery time passed, but the partition holds it.
        assert!(n.poll(a, 4_999).is_empty());
        assert_eq!(n.next_delivery_ms(), Some(5_000));
        assert_eq!(n.poll(a, 5_000), vec!["held"]);
        assert_eq!(n.stats().partition_held, 1);
    }

    #[test]
    fn targeted_loss_hits_only_selected_destination() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.extend_faults(FaultPlan {
            losses: vec![LossRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: None,
                from: None,
                to: Some(a),
                rate: 1.0,
            }],
            ..FaultPlan::none()
        });
        assert_eq!(n.publish("t", "x", 0, None), 1);
        assert!(n.poll(a, 1_000).is_empty());
        assert_eq!(n.poll(b, 1_000), vec!["x"]);
        assert_eq!(n.stats().targeted_dropped, 1);
    }

    #[test]
    fn asymmetric_loss_requires_matching_origin() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.extend_faults(FaultPlan {
            losses: vec![LossRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: None,
                from: Some(a),
                to: None,
                rate: 1.0,
            }],
            ..FaultPlan::none()
        });
        // Published *by* a: lost.
        assert_eq!(n.publish_from("t", "from-a", 0, Some(a), Some(a)), 0);
        // Published by an unknown origin: the asymmetric rule does not
        // match, traffic flows.
        assert_eq!(n.publish("t", "anon", 0, None), 2);
        assert_eq!(n.poll(b, 1_000), vec!["anon"]);
        let _ = n.poll(a, 1_000);
    }

    #[test]
    fn duplication_is_bounded_flagged_and_not_double_counted() {
        let n: Network<u32> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                ..NetConfig::default()
            },
            7,
        );
        let a = n.subscribe("t");
        n.extend_faults(FaultPlan {
            duplications: vec![DupRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: Some("t".into()),
                rate: 1.0,
                max_copies: 3,
                spread_ms: 40,
            }],
            ..FaultPlan::none()
        });
        for i in 0..20u32 {
            n.publish("t", i, u64::from(i) * 10, None);
        }
        let got = n.poll(a, 100_000);
        let stats = n.stats();
        // Every original arrived exactly once in `delivered`; every extra
        // copy is accounted separately.
        assert_eq!(stats.delivered, 20);
        assert!(stats.duplicated >= 20); // rate 1.0: at least one copy each
        assert!(stats.duplicated <= 60); // bounded by max_copies
        assert_eq!(stats.redelivered, stats.duplicated);
        assert_eq!(got.len() as u64, stats.delivered + stats.redelivered);
    }

    #[test]
    fn reordering_inflates_delay_within_window() {
        let n = net(0.0);
        let a = n.subscribe("t");
        n.extend_faults(FaultPlan {
            reorders: vec![ReorderRule {
                from_ms: 0,
                until_ms: u64::MAX,
                topic: None,
                rate: 1.0,
                max_extra_delay_ms: 500,
            }],
            ..FaultPlan::none()
        });
        n.publish("t", "slow", 0, None);
        // Base delay is 100; the reorder rule adds at least 1ms.
        assert!(n.poll(a, 100).is_empty());
        let got = n.poll(a, 1_000);
        assert_eq!(got, vec!["slow"]);
        assert_eq!(n.stats().reordered, 1);
    }

    #[test]
    fn offline_subscribers_are_skipped_and_inboxes_clearable() {
        let n = net(0.0);
        let a = n.subscribe("t");
        // Offline handling works even without an active fault plan, so
        // direct crash/rejoin driving does not require one.
        n.publish("t", "queued", 0, None);
        n.set_offline(a, true);
        assert_eq!(n.publish("t", "skipped", 0, None), 0);
        assert_eq!(n.clear_inbox(a), 1);
        assert_eq!(n.next_delivery_ms(), None);
        n.set_offline(a, false);
        n.publish("t", "back", 200, None);
        assert_eq!(n.poll(a, 1_000), vec!["back"]);
        let stats = n.stats();
        assert_eq!(stats.offline_dropped, 1);
        assert_eq!(stats.offline_cleared, 1);
    }

    #[test]
    fn placed_but_linkless_region_map_is_bit_identical() {
        // Placing subscribers in regions without any non-identity link
        // must not perturb a single delivery time: the map is still
        // behaviourally uniform and draws nothing.
        let run = |place: bool| {
            let mut config = NetConfig {
                base_delay_ms: 10,
                jitter_ms: 50,
                drop_rate: 0.3,
                ..NetConfig::default()
            };
            if place {
                config.regions = RegionMap::named(&["us-east", "eu-west"]);
            }
            let n: Network<u32> = Network::new(config, 4242);
            let a = n.subscribe("t");
            if place {
                n.place_in_region(a, "eu-west");
            }
            for i in 0..100 {
                n.publish("t", i, u64::from(i) * 7, None);
            }
            n.poll(a, 1_000_000)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn region_links_shape_delay_asymmetrically() {
        let mut regions = RegionMap::named(&["us", "eu"]);
        regions.set_link(
            "us",
            "eu",
            crate::region::RegionLink {
                extra_delay_ms: 70,
                jitter_ms: 0,
                loss_rate: 0.0,
                delay_factor_pct: 200,
            },
        );
        let n: Network<&'static str> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate: 0.0,
                regions,
                ..NetConfig::default()
            },
            7,
        );
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.place_in_region(a, "us");
        n.place_in_region(b, "eu");
        // us → eu: base 100 scaled ×2 plus 70 propagation = 270.
        n.publish_from("t", "east", 0, Some(a), Some(a));
        assert!(n.poll(b, 269).is_empty());
        assert_eq!(n.poll(b, 270), vec!["east"]);
        // eu → us was never configured: plain base delay.
        n.publish_from("t", "west", 1_000, Some(b), Some(b));
        assert_eq!(n.poll(a, 1_100), vec!["west"]);
        // Same-region traffic is untouched too.
        let a2 = n.subscribe("t");
        n.place_in_region(a2, "us");
        n.publish_from("t", "local", 2_000, Some(a), Some(a));
        assert_eq!(n.poll(a2, 2_100), vec!["local"]);
    }

    #[test]
    fn region_link_loss_is_counted_and_ledger_balances() {
        let mut regions = RegionMap::named(&["us", "eu"]);
        regions.set_link(
            "us",
            "eu",
            crate::region::RegionLink {
                loss_rate: 1.0,
                ..crate::region::RegionLink::IDENTITY
            },
        );
        let n: Network<u32> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate: 0.0,
                regions,
                ..NetConfig::default()
            },
            7,
        );
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.place_in_region(a, "us");
        n.place_in_region(b, "eu");
        // a → b crosses the lossy pair; a's own copy is excluded.
        assert_eq!(n.publish_from("t", 1, 0, Some(a), Some(a)), 0);
        // b → a flows: loss is directional.
        assert_eq!(n.publish_from("t", 2, 0, Some(b), Some(b)), 1);
        assert_eq!(n.poll(a, 1_000), vec![2]);
        assert!(n.poll(b, 1_000).is_empty());
        let stats = n.stats();
        assert_eq!(stats.region_lost, 1);
        assert_eq!(
            stats.attempts,
            stats.scheduled
                + stats.dropped
                + stats.partition_dropped
                + stats.targeted_dropped
                + stats.offline_dropped
                + stats.region_dropped
                + stats.region_lost
        );
    }

    #[test]
    fn region_outage_blackholes_both_directions_until_heal() {
        use crate::fault::RegionOutage;
        let regions = RegionMap::named(&["us", "ap"]);
        let n: Network<&'static str> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate: 0.0,
                regions,
                ..NetConfig::default()
            },
            7,
        );
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.place_in_region(a, "us");
        n.place_in_region(b, "ap");
        n.extend_faults(FaultPlan {
            region_outages: vec![RegionOutage {
                region: "ap".into(),
                from_ms: 0,
                heal_ms: 1_000,
            }],
            ..FaultPlan::none()
        });
        // Into the dark region: blackholed.
        assert_eq!(n.publish_from("t", "in", 0, Some(a), Some(a)), 0);
        // Out of the dark region: blackholed too.
        assert_eq!(n.publish_from("t", "out", 0, Some(b), Some(b)), 0);
        // After heal, both directions flow.
        assert_eq!(n.publish_from("t", "healed", 1_000, Some(a), Some(a)), 1);
        assert_eq!(n.poll(b, 2_000), vec!["healed"]);
        assert_eq!(n.stats().region_dropped, 2);
    }

    #[test]
    fn region_partition_severs_or_holds_cross_pair_traffic() {
        use crate::fault::RegionPartition;
        let regions = RegionMap::named(&["us", "eu", "ap"]);
        let n: Network<&'static str> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate: 0.0,
                regions,
                ..NetConfig::default()
            },
            7,
        );
        let us = n.subscribe("t");
        let eu = n.subscribe("t");
        let ap = n.subscribe("t");
        n.place_in_region(us, "us");
        n.place_in_region(eu, "eu");
        n.place_in_region(ap, "ap");
        n.extend_faults(FaultPlan {
            region_partitions: vec![RegionPartition {
                name: "atlantic".into(),
                a: "us".into(),
                b: "eu".into(),
                from_ms: 0,
                heal_ms: 5_000,
                policy: PartitionPolicy::HoldUntilHeal,
            }],
            ..FaultPlan::none()
        });
        // us → {eu held, ap flows}.
        assert_eq!(n.publish_from("t", "x", 0, Some(us), Some(us)), 2);
        assert_eq!(n.poll(ap, 4_999), vec!["x"]);
        assert!(n.poll(eu, 4_999).is_empty());
        assert_eq!(n.poll(eu, 5_000), vec!["x"]);
        let stats = n.stats();
        assert_eq!(stats.region_held, 1);
        assert_eq!(stats.region_dropped, 0);
    }

    #[test]
    fn degraded_links_inflate_latency_and_count_losses() {
        use crate::fault::RegionDegrade;
        let regions = RegionMap::named(&["us", "eu"]);
        let n: Network<&'static str> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                drop_rate: 0.0,
                regions,
                ..NetConfig::default()
            },
            7,
        );
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.place_in_region(a, "us");
        n.place_in_region(b, "eu");
        n.extend_faults(FaultPlan {
            region_degrades: vec![
                RegionDegrade {
                    from: "us".into(),
                    to: "eu".into(),
                    from_ms: 0,
                    until_ms: 1_000,
                    extra_delay_ms: 400,
                    loss_rate: 0.0,
                },
                RegionDegrade {
                    from: "eu".into(),
                    to: "us".into(),
                    from_ms: 0,
                    until_ms: 1_000,
                    extra_delay_ms: 0,
                    loss_rate: 1.0,
                },
            ],
            ..FaultPlan::none()
        });
        // us → eu: inflated by 400ms while degraded.
        n.publish_from("t", "slow", 0, Some(a), Some(a));
        assert!(n.poll(b, 499).is_empty());
        assert_eq!(n.poll(b, 500), vec!["slow"]);
        // eu → us: fully lossy while degraded.
        assert_eq!(n.publish_from("t", "gone", 0, Some(b), Some(b)), 0);
        assert_eq!(n.stats().region_lost, 1);
        // Window over: both directions back to base behaviour.
        n.publish_from("t", "fast", 1_000, Some(a), Some(a));
        assert_eq!(n.poll(b, 1_100), vec!["fast"]);
    }

    #[test]
    fn topic_latency_reports_exact_quantiles() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let _ = a;
        assert_eq!(n.topic_latency("t"), None);
        // Base delay 100, no jitter: every delivery takes exactly 100ms
        // regardless of when it is polled.
        for i in 0..10u64 {
            n.publish("t", "m", i * 50, None);
        }
        n.poll(a, 1_000_000);
        let lat = n.topic_latency("t").expect("measured");
        assert_eq!(lat.count, 10);
        assert_eq!(lat.p50_ms, 100);
        assert_eq!(lat.p99_ms, 100);
        assert_eq!(lat.max_ms, 100);
        assert_eq!(n.topic_latency("unknown"), None);
        assert_eq!(n.pending_deliveries(), 0);
    }
}
