//! Simulated topic pub-sub.
//!
//! A [`Network`] carries opaque payloads between subscribers of named
//! topics under a configurable delay/loss model. Delivery is pull-based
//! against virtual time: `publish` schedules deliveries, `poll` returns the
//! messages whose delivery time has passed — which makes the network
//! composable with the discrete-event simulator and fully deterministic
//! under a seed.
//!
//! [`Network::publish`] is the one way in. Per subscriber of the topic it
//! runs three stages over the [`FaultPlan`] rules in force (resolved once
//! per publish, see [`crate::fault`]) and the [`RegionMap`] link between
//! the publisher's and the subscriber's region: a *gate* that yields one
//! verdict — drop, for exactly one counted cause, or pass, possibly held
//! until a partition heals — the *delay*, and the *enqueue* of the
//! delivery plus any fault-injected duplicates. Fault and region decisions
//! draw from a dedicated, domain-separated RNG stream, so the empty plan
//! and the uniform map leave the base behaviour bit-identical.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultKind, FaultPlan};
use crate::region::{RegionLink, RegionMap};

/// Domain separation for the fault-decision RNG stream: fault draws must
/// never perturb the base delay/loss stream.
const FAULT_RNG_DOMAIN: u64 = 0x6661_756c_7421; // "fault!"

/// Delay and loss model of the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Base one-way propagation delay in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Uniform jitter added on top of the base delay, `[0, jitter_ms]`.
    pub jitter_ms: u64,
    /// Probability that a given delivery is dropped (per subscriber).
    pub drop_rate: f64,
    /// Scheduled fault injection. The default — [`FaultPlan::none`] —
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
/// `attempts == outcomes()`, where [`NetStats::outcomes`] sums `scheduled`
/// and the six drop classes `dropped`, `partition_dropped`,
/// `targeted_dropped`, `offline_dropped`, `region_dropped` and
/// `region_lost`; and after a full drain `scheduled + duplicated ==
/// delivered + redelivered + offline_cleared` (plus whatever
/// [`Network::pending_deliveries`] still holds). A hold is counted only
/// for a delivery that was scheduled, once, for the partition whose heal
/// time releases it: `partition_held + region_held <= scheduled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages published.
    pub published: u64,
    /// Candidate per-subscriber deliveries considered (publishes fanned
    /// out over topic membership).
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
    /// Deliveries severed by a named partition with
    /// [`crate::PartitionPolicy::Drop`].
    pub partition_dropped: u64,
    /// Deliveries scheduled at the heal time of a named partition with
    /// [`crate::PartitionPolicy::HoldUntilHeal`].
    pub partition_held: u64,
    /// Deliveries dropped by targeted loss rules.
    pub targeted_dropped: u64,
    /// Deliveries skipped because the subscriber was offline (crashed).
    pub offline_dropped: u64,
    /// Pending deliveries discarded when a subscriber's inbox was
    /// cleared at crash time.
    pub offline_cleared: u64,
    /// Deliveries blackholed by a region disaster: an active
    /// [`crate::FaultKind::RegionOutage`] touching either endpoint's
    /// region, or an active [`crate::FaultKind::RegionPartition`] with
    /// [`crate::PartitionPolicy::Drop`].
    pub region_dropped: u64,
    /// Deliveries scheduled at the heal time of an inter-region partition
    /// with [`crate::PartitionPolicy::HoldUntilHeal`].
    pub region_held: u64,
    /// Deliveries dropped by inter-region link loss — the static
    /// [`crate::RegionLink::loss_rate`] matrix or an active
    /// [`crate::FaultKind::RegionDegrade`] inflation.
    pub region_lost: u64,
}

impl NetStats {
    /// Deliveries scheduled or counted in a drop class: equal to
    /// [`NetStats::attempts`] whenever the ledger closes.
    pub fn outcomes(&self) -> u64 {
        self.scheduled
            + self.dropped
            + self.partition_dropped
            + self.targeted_dropped
            + self.offline_dropped
            + self.region_dropped
            + self.region_lost
    }
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

/// Selects the one [`NetStats`] counter a verdict ticks: the drop class of
/// a delivery that is not scheduled, the held class of one that is.
type Counter = fn(&mut NetStats) -> &mut u64;

/// A severed delivery waiting for its partition to heal: the heal time,
/// and the held class it is counted in once it is scheduled.
type Hold = (u64, Counter);

/// What one publish fixes for all of its deliveries.
struct Publish<'a, P> {
    topic: &'a str,
    /// Interned topic id.
    topic_id: u32,
    payload: &'a P,
    now_ms: u64,
    origin: Option<SubscriberId>,
    /// The origin's region (the default region 0 when unknown).
    from_region: usize,
    /// The plan's rules whose window is open, by index. The stages visit
    /// them kind by kind, each kind in plan order.
    active: Vec<usize>,
}

impl<P> Publish<'_, P> {
    /// Does a rule's optional topic selector cover this publish?
    fn on_topic(&self, selector: &Option<String>) -> bool {
        selector.as_deref().is_none_or(|t| t == self.topic)
    }
}

/// One Bernoulli draw. A rate that is not above zero draws nothing, so
/// inert rules and lossless links leave their stream untouched.
fn roll(rng: &mut StdRng, rate: f64) -> bool {
    rate > 0.0 && rng.gen_bool(rate.clamp(0.0, 1.0))
}

/// A uniform draw from `[0, max_ms]`; a zero bound draws nothing.
fn spread(rng: &mut StdRng, max_ms: u64) -> u64 {
    if max_ms > 0 {
        rng.gen_range(0..=max_ms)
    } else {
        0
    }
}

impl<P: Clone> Inner<P> {
    /// The partitions and outages a delivery crosses: the first cause
    /// that drops it, or the hold it is scheduled under. Draws nothing.
    /// Region names the map never declared match nothing.
    fn severed(
        &self,
        on: &Publish<'_, P>,
        to: SubscriberId,
        to_region: usize,
    ) -> Result<Option<Hold>, Counter> {
        let active = || on.active.iter().map(|&i| &self.config.faults.rules[i]);
        let region = |name: &String| self.config.regions.region_index(name);
        let pair = (on.from_region, to_region);
        // The first named partition the delivery crosses decides its fate:
        // a blacked-out topic, or an island with exactly one end inside
        // (an unknown origin is outside).
        let named = active().find_map(|rule| match &rule.kind {
            FaultKind::Partition {
                topics,
                subscribers,
                policy,
                ..
            } => {
                let inside = |s| subscribers.contains(&s);
                let island = inside(to) != on.origin.is_some_and(inside);
                let crosses = island || topics.iter().any(|t| t == on.topic);
                crosses.then(|| policy.release_at(rule.window))
            }
            _ => None,
        });
        let hold: Option<Hold> = match named {
            Some(None) => return Err(|s| &mut s.partition_dropped),
            Some(Some(heal_ms)) => Some((heal_ms, |s| &mut s.partition_held)),
            None => None,
        };
        let dark = |r: usize| r == pair.0 || r == pair.1;
        let outage = active().any(|rule| match &rule.kind {
            FaultKind::RegionOutage { region: name } => region(name).is_some_and(dark),
            _ => false,
        });
        // So does the first inter-region partition whose pair it crosses,
        // in either direction.
        let regional = active().find_map(|rule| match &rule.kind {
            FaultKind::RegionPartition { a, b, policy, .. } => {
                let (a, b) = (region(a)?, region(b)?);
                (pair == (a, b) || pair == (b, a)).then(|| policy.release_at(rule.window))
            }
            _ => None,
        });
        match regional {
            _ if outage => Err(|s| &mut s.region_dropped),
            Some(None) => Err(|s| &mut s.region_dropped),
            // The later heal releases the delivery, and holds it alone.
            Some(Some(heal_ms))
                if hold.is_none_or(|(named_heal_ms, _)| heal_ms > named_heal_ms) =>
            {
                Ok(Some((heal_ms, |s| &mut s.region_held)))
            }
            _ => Ok(hold),
        }
    }

    /// Stage 1 — the verdict on one candidate delivery: the first cause
    /// that drops it, or the hold (if any) it is scheduled under. The
    /// offline check needs no fault plan, so direct crash/rejoin driving
    /// works on a fault-free network; link loss is gated on the link
    /// carrying loss, so uniform maps draw nothing from the fault stream;
    /// base loss comes last, from the base stream in the exact pre-chaos
    /// order.
    fn gate(
        &mut self,
        on: &Publish<'_, P>,
        to: SubscriberId,
        to_region: usize,
        link: &RegionLink,
    ) -> Result<Option<Hold>, Counter> {
        if self.offline.contains(&to) {
            return Err(|s| &mut s.offline_dropped);
        }
        let hold = self.severed(on, to, to_region)?;
        // Targeted loss: every matching rule draws until one hits.
        let rules = &self.config.faults.rules;
        let mut targeted = on.active.iter().filter_map(|&i| match &rules[i].kind {
            FaultKind::Loss {
                topic,
                from,
                to: dest,
                rate,
            } => {
                let matches = on.on_topic(topic)
                    && from.is_none_or(|f| on.origin == Some(f))
                    && dest.is_none_or(|d| d == to);
                matches.then_some(*rate)
            }
            _ => None,
        });
        if targeted.any(|rate| roll(&mut self.fault_rng, rate)) {
            return Err(|s| &mut s.targeted_dropped);
        }
        if roll(&mut self.fault_rng, link.loss_rate) {
            return Err(|s| &mut s.region_lost);
        }
        if roll(&mut self.rng, self.config.drop_rate) {
            return Err(|s| &mut s.dropped);
        }
        Ok(hold)
    }

    /// Stage 2 — the delay of a delivery that passed the gate, or its loss
    /// on a degraded link (whose draw follows the jitter draws).
    fn delay(
        &mut self,
        on: &Publish<'_, P>,
        to_region: usize,
        link: &RegionLink,
    ) -> Result<u64, Counter> {
        let base_ms = self.config.base_delay_ms + spread(&mut self.rng, self.config.jitter_ms);
        let mut delay_ms = base_ms;
        if !link.is_identity() {
            // The link's bandwidth factor scales the *base* portion (a
            // slow pipe stretches every transfer), then the pair's fixed
            // propagation delay and jitter stack on top. Region jitter
            // comes from the fault stream so the base stream stays
            // untouched.
            delay_ms = base_ms * u64::from(link.delay_factor_pct) / 100
                + link.extra_delay_ms
                + spread(&mut self.fault_rng, link.jitter_ms);
        }
        let (rules, regions) = (&self.config.faults.rules, &self.config.regions);
        let pair = (Some(on.from_region), Some(to_region));
        let mut reorder = None;
        for rule in on.active.iter().map(|&i| &rules[i]) {
            match &rule.kind {
                // Every degrade on this directed pair stacks its latency;
                // the first loss draw that hits ends the delivery.
                FaultKind::RegionDegrade {
                    from,
                    to,
                    extra_delay_ms,
                    loss_rate,
                } if (regions.region_index(from), regions.region_index(to)) == pair => {
                    if roll(&mut self.fault_rng, *loss_rate) {
                        return Err(|s| &mut s.region_lost);
                    }
                    delay_ms += extra_delay_ms;
                }
                // The first reorder rule on this topic applies, after the
                // degrades.
                FaultKind::Reorder {
                    topic,
                    rate,
                    max_extra_delay_ms,
                } if on.on_topic(topic) => {
                    reorder.get_or_insert((*rate, *max_extra_delay_ms));
                }
                _ => {}
            }
        }
        if let Some((rate, max_extra_delay_ms)) = reorder {
            if roll(&mut self.fault_rng, rate) {
                delay_ms += self.fault_rng.gen_range(1..=max_extra_delay_ms.max(1));
                self.stats.reordered += 1;
            }
        }
        Ok(delay_ms)
    }

    /// Stage 3 — schedules the delivery and, under the first duplication
    /// rule on this topic, its flagged extra copies, each with its own
    /// spread so copies interleave with other traffic.
    fn enqueue(&mut self, on: &Publish<'_, P>, to: SubscriberId, deliver_at_ms: u64) {
        self.push(on, to, deliver_at_ms, false);
        self.stats.scheduled += 1;
        let rules = &self.config.faults.rules;
        let duplicate = on.active.iter().find_map(|&i| match &rules[i].kind {
            FaultKind::Duplicate {
                topic,
                rate,
                max_copies,
                spread_ms,
            } if on.on_topic(topic) => Some((*rate, *max_copies, *spread_ms)),
            _ => None,
        });
        if let Some((rate, max_copies, spread_ms)) = duplicate {
            if roll(&mut self.fault_rng, rate) {
                for _ in 0..self.fault_rng.gen_range(1..=max_copies.max(1)) {
                    // A never-healing hold pins the original at the end of
                    // time; its copies stay there with it.
                    let extra_ms = spread(&mut self.fault_rng, spread_ms);
                    self.push(on, to, deliver_at_ms.saturating_add(extra_ms), true);
                    self.stats.duplicated += 1;
                }
            }
        }
    }

    fn push(&mut self, on: &Publish<'_, P>, to: SubscriberId, deliver_at_ms: u64, duplicate: bool) {
        let inbox = self.inboxes.get_mut(&to).expect("subscriber has inbox");
        inbox.push_back(Pending {
            deliver_at_ms,
            sent_at_ms: on.now_ms,
            topic: on.topic_id,
            payload: on.payload.clone(),
            duplicate,
        });
        *self.pending_times.entry(deliver_at_ms).or_insert(0) += 1;
    }
}

impl<P> Inner<P> {
    /// The interned id of `topic` (index into the latency histograms).
    fn intern(&mut self, topic: &str) -> u32 {
        if let Some(&id) = self.topic_ids.get(topic) {
            return id;
        }
        let id = self.latency.len() as u32;
        self.topic_ids.insert(topic.to_owned(), id);
        self.latency.push(BTreeMap::new());
        id
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
    /// a delivery per subscriber of the topic (minus losses) — the
    /// publisher's own copy included, if it subscribes. Returns the number
    /// of deliveries scheduled.
    ///
    /// `origin` states the publishing subscriber: origin-scoped fault
    /// rules and the region link matrix see it as the sender; `None` is
    /// an unknown sender in the default region.
    pub fn publish(
        &self,
        topic: &str,
        payload: P,
        now_ms: u64,
        origin: Option<SubscriberId>,
    ) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.stats.published += 1;
        let subs = inner.topics.get(topic).cloned().unwrap_or_default();
        let rules = inner.config.faults.rules.iter().enumerate();
        let open = rules.filter(|(_, rule)| rule.window.contains(now_ms));
        let on = Publish {
            active: open.map(|(i, _)| i).collect(),
            from_region: origin.map_or(0, |o| inner.config.regions.region_of(o)),
            topic_id: inner.intern(topic),
            payload: &payload,
            topic,
            origin,
            now_ms,
        };
        let mut scheduled = 0;
        for to in subs {
            inner.stats.attempts += 1;
            let to_region = inner.config.regions.region_of(to);
            let link = inner.config.regions.link(on.from_region, to_region);
            let passed = inner.gate(&on, to, to_region, &link);
            match passed.and_then(|hold| Ok((hold, inner.delay(&on, to_region, &link)?))) {
                Ok((hold, delay_ms)) => {
                    let mut deliver_at_ms = now_ms + delay_ms;
                    if let Some((until_ms, held)) = hold {
                        deliver_at_ms = deliver_at_ms.max(until_ms);
                        *held(&mut inner.stats) += 1;
                    }
                    inner.enqueue(&on, to, deliver_at_ms);
                    scheduled += 1;
                }
                Err(dropped) => *dropped(&mut inner.stats) += 1,
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
    use crate::fault::{FaultKind, FaultRule, PartitionPolicy, Window};

    /// A one-rule plan.
    fn plan(window: Window, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            rules: vec![FaultRule { window, kind }],
        }
    }

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
    fn all_topic_subscribers_receive_the_publisher_included() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        let c = n.subscribe("other");
        assert_eq!(n.publish("t", "x", 0, Some(a)), 2);
        assert_eq!(n.poll(a, 1_000), vec!["x"]);
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
        let inert = plan(
            Window::new(1_000_000, u64::MAX), // never active
            FaultKind::Loss {
                topic: None,
                from: None,
                to: None,
                rate: 1.0,
            },
        );
        assert_eq!(run(FaultPlan::none()), run(inert));
    }

    #[test]
    fn drop_partition_severs_topic_until_heal() {
        let n = net(0.0);
        let a = n.subscribe("t");
        n.extend_faults(plan(
            Window::new(0, 1_000),
            FaultKind::Partition {
                name: "blackout".into(),
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::Drop,
            },
        ));
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
        n.extend_faults(plan(
            Window::new(0, 5_000),
            FaultKind::Partition {
                name: "queueing".into(),
                topics: vec!["t".into()],
                subscribers: Vec::new(),
                policy: PartitionPolicy::HoldUntilHeal,
            },
        ));
        n.publish("t", "held", 0, None);
        // Normal delivery time passed, but the partition holds it.
        assert!(n.poll(a, 4_999).is_empty());
        assert_eq!(n.next_delivery_ms(), Some(5_000));
        assert_eq!(n.poll(a, 5_000), vec!["held"]);
        assert_eq!(n.stats().partition_held, 1);
    }

    #[test]
    fn a_hold_is_counted_once_and_only_for_a_scheduled_delivery() {
        let n: Network<&'static str> = Network::new(
            NetConfig {
                base_delay_ms: 100,
                jitter_ms: 0,
                regions: RegionMap::named(&["us", "eu"]),
                ..NetConfig::default()
            },
            7,
        );
        let [a, b, c] = [(); 3].map(|()| n.subscribe("t"));
        n.place_in_region(c, "eu");
        let hold = PartitionPolicy::HoldUntilHeal;
        n.extend_faults(FaultPlan {
            rules: vec![
                FaultRule {
                    window: Window::new(0, 2_000),
                    kind: FaultKind::Partition {
                        name: "queueing".into(),
                        topics: vec!["t".into()],
                        subscribers: Vec::new(),
                        policy: hold,
                    },
                },
                FaultRule {
                    window: Window::new(0, 5_000),
                    kind: FaultKind::RegionPartition {
                        name: "atlantic".into(),
                        a: "us".into(),
                        b: "eu".into(),
                        policy: hold,
                    },
                },
                FaultRule {
                    window: Window::new(0, u64::MAX),
                    kind: FaultKind::Loss {
                        topic: None,
                        from: None,
                        to: Some(a),
                        rate: 1.0,
                    },
                },
            ],
        });
        // a: held, then lost — never scheduled, so never counted as held.
        // b: held by the named partition. c: held by both, released by the
        // later (region) heal and counted for that one alone.
        assert_eq!(n.publish("t", "x", 0, Some(b)), 2);
        assert_eq!(n.poll(b, 2_000), vec!["x"]);
        assert!(n.poll(c, 4_999).is_empty());
        assert_eq!(n.poll(c, 5_000), vec!["x"]);
        let stats = n.stats();
        assert_eq!(
            (stats.partition_held, stats.region_held, stats.scheduled),
            (1, 1, 2)
        );
        assert_eq!(stats.targeted_dropped, 1);
    }

    #[test]
    fn targeted_loss_hits_only_selected_destination() {
        let n = net(0.0);
        let a = n.subscribe("t");
        let b = n.subscribe("t");
        n.extend_faults(plan(
            Window::new(0, u64::MAX),
            FaultKind::Loss {
                topic: None,
                from: None,
                to: Some(a),
                rate: 1.0,
            },
        ));
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
        n.extend_faults(plan(
            Window::new(0, u64::MAX),
            FaultKind::Loss {
                topic: None,
                from: Some(a),
                to: None,
                rate: 1.0,
            },
        ));
        // Published *by* a: lost, a's own copy too.
        assert_eq!(n.publish("t", "from-a", 0, Some(a)), 0);
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
        n.extend_faults(plan(
            Window::new(0, u64::MAX),
            FaultKind::Duplicate {
                topic: Some("t".into()),
                rate: 1.0,
                max_copies: 3,
                spread_ms: 40,
            },
        ));
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
        n.extend_faults(plan(
            Window::new(0, u64::MAX),
            FaultKind::Reorder {
                topic: None,
                rate: 1.0,
                max_extra_delay_ms: 500,
            },
        ));
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
        n.publish("t", "east", 0, Some(a));
        assert!(n.poll(b, 269).is_empty());
        assert_eq!(n.poll(b, 270), vec!["east"]);
        // The publisher's own copy never leaves the region.
        assert_eq!(n.poll(a, 100), vec!["east"]);
        // eu → us was never configured: plain base delay.
        n.publish("t", "west", 1_000, Some(b));
        assert_eq!(n.poll(a, 1_100), vec!["west"]);
        // Same-region traffic is untouched too.
        let a2 = n.subscribe("t");
        n.place_in_region(a2, "us");
        n.publish("t", "local", 2_000, Some(a));
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
        // a → b crosses the lossy pair; only a's own copy is scheduled.
        assert_eq!(n.publish("t", 1, 0, Some(a)), 1);
        // b → a flows: loss is directional.
        assert_eq!(n.publish("t", 2, 0, Some(b)), 2);
        assert_eq!(n.poll(a, 1_000), vec![1, 2]);
        assert_eq!(n.poll(b, 1_000), vec![2]);
        let stats = n.stats();
        assert_eq!(stats.region_lost, 1);
        assert_eq!(stats.attempts, stats.outcomes());
    }

    #[test]
    fn region_outage_blackholes_both_directions_until_heal() {
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
        n.extend_faults(plan(
            Window::new(0, 1_000),
            FaultKind::RegionOutage {
                region: "ap".into(),
            },
        ));
        // Into the dark region: blackholed (a's own copy stays home).
        assert_eq!(n.publish("t", "in", 0, Some(a)), 1);
        // Out of the dark region: blackholed too, b's own copy included.
        assert_eq!(n.publish("t", "out", 0, Some(b)), 0);
        // After heal, both directions flow.
        assert_eq!(n.publish("t", "healed", 1_000, Some(a)), 2);
        assert_eq!(n.poll(b, 2_000), vec!["healed"]);
        assert_eq!(n.stats().region_dropped, 3);
    }

    #[test]
    fn region_partition_severs_or_holds_cross_pair_traffic() {
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
        n.extend_faults(plan(
            Window::new(0, 5_000),
            FaultKind::RegionPartition {
                name: "atlantic".into(),
                a: "us".into(),
                b: "eu".into(),
                policy: PartitionPolicy::HoldUntilHeal,
            },
        ));
        // us → {us flows, eu held, ap flows}.
        assert_eq!(n.publish("t", "x", 0, Some(us)), 3);
        assert_eq!(n.poll(ap, 4_999), vec!["x"]);
        assert!(n.poll(eu, 4_999).is_empty());
        assert_eq!(n.poll(eu, 5_000), vec!["x"]);
        let stats = n.stats();
        assert_eq!(stats.region_held, 1);
        assert_eq!(stats.region_dropped, 0);
    }

    #[test]
    fn degraded_links_inflate_latency_and_count_losses() {
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
        let degrade = |from: &str, to: &str, extra_delay_ms, loss_rate| FaultRule {
            window: Window::new(0, 1_000),
            kind: FaultKind::RegionDegrade {
                from: from.into(),
                to: to.into(),
                extra_delay_ms,
                loss_rate,
            },
        };
        n.extend_faults(FaultPlan {
            rules: vec![degrade("us", "eu", 400, 0.0), degrade("eu", "us", 0, 1.0)],
        });
        // us → eu: inflated by 400ms while degraded.
        n.publish("t", "slow", 0, Some(a));
        assert!(n.poll(b, 499).is_empty());
        assert_eq!(n.poll(b, 500), vec!["slow"]);
        // eu → us: fully lossy while degraded (b's own copy stays home).
        assert_eq!(n.publish("t", "gone", 0, Some(b)), 1);
        assert_eq!(n.stats().region_lost, 1);
        // Window over: both directions back to base behaviour.
        n.publish("t", "fast", 1_000, Some(a));
        assert_eq!(n.poll(b, 1_100), vec!["gone", "fast"]);
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
