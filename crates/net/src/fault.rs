//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] is one list of [`FaultRule`]s, each a [`FaultKind`] in
//! force for one [`Window`] of virtual time. The plan has no other
//! structure: merging plans appends lists, rules of one kind are visited
//! in list order, and a rule whose window no publish falls in can be
//! removed without moving a draw. Every fault decision draws from a
//! dedicated fault RNG stream (domain-separated from the base delay/loss
//! stream), so two runs under the same seed are bit-identical, and a run
//! with [`FaultPlan::none`] behaves exactly like one on a fault-free
//! network build.

use hc_types::SubnetId;

use crate::pubsub::SubscriberId;

/// A half-open span of virtual milliseconds on the simulator clock: a
/// rule with window `[a, b)` is in force for deliveries published (or, for
/// node faults, steps taken) at `a <= now < b`. An empty or inverted
/// window is never in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Virtual time the rule starts.
    pub from_ms: u64,
    /// Virtual time the rule ends — a partition heals, a crashed node
    /// rejoins (`u64::MAX` = never).
    pub until_ms: u64,
}

impl Window {
    /// The window `[from_ms, until_ms)`.
    pub const fn new(from_ms: u64, until_ms: u64) -> Self {
        Window { from_ms, until_ms }
    }

    /// Returns `true` while the window is open at `now_ms`.
    pub fn contains(&self, now_ms: u64) -> bool {
        self.from_ms <= now_ms && now_ms < self.until_ms
    }
}

/// What happens to a delivery that crosses an active partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// The delivery is dropped outright. Senders must retry past the heal
    /// time to get through.
    #[default]
    Drop,
    /// The delivery is queued and released when the partition heals: its
    /// delivery time is clamped to at least the window's end.
    HoldUntilHeal,
}

impl PartitionPolicy {
    /// When a delivery severed during `window` is released: `Some(heal)`
    /// if it waits for the partition to heal, `None` if it is dropped.
    pub(crate) fn release_at(self, window: Window) -> Option<u64> {
        (self == PartitionPolicy::HoldUntilHeal).then_some(window.until_ms)
    }
}

/// The fault a [`FaultRule`] injects while its window is open. The first
/// six kinds are executed by the network on every publish; [`Crash`] and
/// the node leg of [`RegionOutage`] by the `hc-core` runtime, which owns
/// the crash–rejoin state machine. Rates are probabilities: anything not
/// above zero (NaN included) never fires, anything above one always does.
///
/// [`Crash`]: FaultKind::Crash
/// [`RegionOutage`]: FaultKind::RegionOutage
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A named network partition (`NetStats::partition_dropped` /
    /// `partition_held`). Scope is the union of two selectors: every
    /// delivery on a listed topic is severed (a topic blackout), and the
    /// listed subscribers form an isolated island — a delivery is severed
    /// when exactly one side (origin or destination) is inside it, traffic
    /// within it still flows, and an unknown origin counts as outside.
    /// The first active partition severing a delivery decides its fate.
    Partition {
        /// Human-readable label, surfaced in debug output and reports.
        name: String,
        /// Topics blacked out entirely while active.
        topics: Vec<String>,
        /// Subscribers isolated from everyone outside this set.
        subscribers: Vec<SubscriberId>,
        /// Fate of severed deliveries.
        policy: PartitionPolicy,
    },
    /// Targeted (possibly asymmetric) message loss
    /// (`NetStats::targeted_dropped`). Every selector is optional; `None`
    /// matches anything, and `from: Some(_)` only matches deliveries whose
    /// origin is known.
    Loss {
        /// Restrict to one topic (`None` = every topic).
        topic: Option<String>,
        /// Restrict to deliveries published by this subscriber.
        from: Option<SubscriberId>,
        /// Restrict to deliveries destined for this subscriber.
        to: Option<SubscriberId>,
        /// Per-delivery drop probability.
        rate: f64,
    },
    /// Bounded duplication: a matching delivery is scheduled again up to
    /// `max_copies` extra times, each copy offset by up to `spread_ms`.
    /// Copies are flagged so `NetStats::delivered` never double-counts
    /// them — they accumulate in `duplicated` / `redelivered`. The first
    /// active matching rule applies.
    Duplicate {
        /// Restrict to one topic (`None` = every topic).
        topic: Option<String>,
        /// Probability that a matching delivery is duplicated.
        rate: f64,
        /// Upper bound on extra copies per duplicated delivery (>= 1).
        max_copies: u32,
        /// Extra delay spread applied to each copy, `[0, spread_ms]`.
        spread_ms: u64,
    },
    /// Adversarial reordering (`NetStats::reordered`): a matching
    /// delivery's delay is inflated by up to `max_extra_delay_ms`, letting
    /// later publishes overtake it. The first active matching rule applies.
    Reorder {
        /// Restrict to one topic (`None` = every topic).
        topic: Option<String>,
        /// Probability that a matching delivery is delayed.
        rate: f64,
        /// Upper bound on the extra delay, in virtual ms (>= 1).
        max_extra_delay_ms: u64,
    },
    /// An inter-region partition (`NetStats::region_dropped` /
    /// `region_held`): deliveries crossing between regions `a` and `b`, in
    /// either direction, are severed. Traffic within each region, and
    /// to/from third regions, still flows.
    RegionPartition {
        /// Human-readable label.
        name: String,
        /// One side of the partition (a [`crate::RegionMap`] region name).
        a: String,
        /// The other side.
        b: String,
        /// Fate of severed deliveries.
        policy: PartitionPolicy,
    },
    /// A degraded trans-oceanic link: deliveries from region `from` to
    /// region `to` get `extra_delay_ms` of added latency and an extra
    /// `loss_rate` drop probability (`NetStats::region_lost`) — inflation
    /// *on top of* the static [`crate::RegionLink`] matrix. Directed; add
    /// the reverse rule for a symmetric degradation. Every active matching
    /// rule stacks.
    RegionDegrade {
        /// Origin region name.
        from: String,
        /// Destination region name.
        to: String,
        /// Extra one-way latency while active, in virtual ms.
        extra_delay_ms: u64,
        /// Extra per-delivery drop probability while active.
        loss_rate: f64,
    },
    /// A single-node crash: the runtime kills `subnet`'s node once virtual
    /// time reaches the window's start and rejoins it (through recovery
    /// plus network catch-up) at its end. The network only models the
    /// node's offline span.
    Crash {
        /// The subnet whose node crashes.
        subnet: SubnetId,
    },
    /// A whole-region disaster. Two layers cooperate: the runtime crashes
    /// every node placed in `region` at the window's start (deepest
    /// subnets first) and rejoins them at its end (parents before their
    /// children), while the network blackholes any delivery to or from a
    /// subscriber placed in the region for the whole window
    /// (`NetStats::region_dropped`) — members that cannot safely crash,
    /// such as the rootnet node, still go dark on the wire.
    RegionOutage {
        /// Name of the region that goes dark.
        region: String,
    },
}

/// One scheduled fault: `kind`, in force during `window`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// When the fault is in force.
    pub window: Window,
    /// What it does.
    pub kind: FaultKind,
}

impl FaultRule {
    /// `kind`, in force for `[from_ms, until_ms)`.
    pub fn new(from_ms: u64, until_ms: u64, kind: FaultKind) -> Self {
        FaultRule {
            window: Window::new(from_ms, until_ms),
            kind,
        }
    }
}

/// A complete, seeded, schedulable fault plan: a list of independent
/// rules.
///
/// The default plan is empty ([`FaultPlan::none`]) and is guaranteed to
/// leave the network's behaviour — including its RNG stream —
/// bit-identical to a build without the chaos layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled faults. Rules of one kind are visited in list order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical behaviour to a
    /// fault-free network.
    pub fn none() -> Self {
        Self::default()
    }

    /// Appends another plan's rules to this one (used by tests that learn
    /// subscriber ids only after the network is built).
    pub fn merge(&mut self, other: FaultPlan) {
        self.rules.extend(other.rules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, Network, RegionMap};

    /// A jitter-free network whose only rules are `rules`, with `n`
    /// subscribers of topic "t".
    fn network(rules: Vec<FaultRule>, n: usize) -> (Network<u8>, Vec<SubscriberId>) {
        let config = NetConfig {
            jitter_ms: 0,
            faults: FaultPlan { rules },
            regions: RegionMap::named(&["x", "y"]),
            ..NetConfig::default()
        };
        let net = Network::new(config, 7);
        let subs = (0..n).map(|_| net.subscribe("t")).collect();
        (net, subs)
    }

    fn reorder(window: Window) -> FaultRule {
        FaultRule {
            window,
            kind: FaultKind::Reorder {
                topic: None,
                rate: 1.0,
                max_extra_delay_ms: 5,
            },
        }
    }

    #[test]
    fn the_empty_plan_is_the_default_and_has_no_rules() {
        assert!(FaultPlan::none().rules.is_empty());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::new(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
        assert!(Window::new(0, u64::MAX).contains(u64::MAX - 1));
        // Empty and inverted windows are never open.
        assert!(!Window::new(5, 5).contains(5));
        assert!(!Window::new(9, 3).contains(5));
        // A rule acts on exactly the publishes inside its window.
        let (net, _) = network(vec![reorder(w)], 1);
        for at in [99, 100, 199, 200] {
            net.publish("t", 0, at, None);
        }
        assert_eq!(net.stats().reordered, 2);
    }

    #[test]
    fn subscriber_partitions_sever_only_boundary_crossings() {
        let island = |subscribers| {
            FaultRule::new(
                0,
                u64::MAX,
                FaultKind::Partition {
                    name: "island".into(),
                    topics: Vec::new(),
                    subscribers,
                    policy: PartitionPolicy::Drop,
                },
            )
        };
        // Subscribers get ids 0, 1, 2 in order: a and b inside, c outside.
        let [a, b, c] = [0, 1, 2].map(SubscriberId::from_raw);
        let (net, subs) = network(vec![island(vec![a, b])], 3);
        assert_eq!(subs, [a, b, c]);
        let reached = |origin| {
            net.publish("t", 0, 0, origin);
            subs.iter()
                .map(|s| net.poll(*s, 1_000).len())
                .collect::<Vec<_>>()
        };
        // From inside the island: flows within it, severed at the boundary.
        assert_eq!(reached(Some(a)), [1, 1, 0]);
        // From outside, and from an unknown origin (which counts as
        // outside): the mirror image.
        assert_eq!(reached(Some(c)), [0, 0, 1]);
        assert_eq!(reached(None), [0, 0, 1]);
        assert_eq!(net.stats().partition_dropped, 5);
    }

    #[test]
    fn loss_rule_selectors_are_optional() {
        let [origin, dest, other] = [0, 1, 2].map(SubscriberId::from_raw);
        let loss = |window, topic: Option<&str>, from, to| FaultRule {
            window,
            kind: FaultKind::Loss {
                topic: topic.map(str::to_owned),
                from,
                to,
                rate: 1.0,
            },
        };
        let scoped = loss(Window::new(0, 1_000), Some("t"), Some(origin), Some(dest));
        let (net, subs) = network(vec![scoped], 3);
        assert_eq!(subs, [origin, dest, other]);
        // Every selector matches: only the selected destination loses.
        assert_eq!(net.publish("t", 0, 10, Some(origin)), 2);
        // Another sender, an unknown one, a closed window: nothing lost.
        assert_eq!(net.publish("t", 0, 10, Some(other)), 3);
        assert_eq!(net.publish("t", 0, 10, None), 3);
        assert_eq!(net.publish("t", 0, 2_000, Some(origin)), 3);
        assert_eq!(net.stats().targeted_dropped, 1);
        // Another topic is out of scope; no selector at all matches all.
        let elsewhere = loss(Window::new(0, u64::MAX), Some("y"), None, None);
        assert_eq!(network(vec![elsewhere], 3).0.publish("t", 0, 10, None), 3);
        let everything = loss(Window::new(0, u64::MAX), None, None, None);
        assert_eq!(network(vec![everything], 3).0.publish("t", 0, 10, None), 0);
    }

    #[test]
    fn merge_appends_the_other_plans_rules_in_order() {
        let outage = FaultRule::new(
            10,
            20,
            FaultKind::RegionOutage {
                region: "ap-south".into(),
            },
        );
        let partition = FaultRule::new(
            0,
            5,
            FaultKind::RegionPartition {
                name: "atlantic".into(),
                a: "us-east".into(),
                b: "eu-west".into(),
                policy: PartitionPolicy::HoldUntilHeal,
            },
        );
        let degrade = FaultRule::new(
            0,
            5,
            FaultKind::RegionDegrade {
                from: "us-east".into(),
                to: "eu-west".into(),
                extra_delay_ms: 40,
                loss_rate: 0.1,
            },
        );
        let mut plan = FaultPlan {
            rules: vec![outage.clone()],
        };
        assert_eq!(plan.rules.len(), 1);
        plan.merge(FaultPlan {
            rules: vec![partition.clone(), degrade.clone()],
        });
        assert_eq!(plan.rules, [outage, partition, degrade]);
    }

    #[test]
    fn region_rules_act_inside_their_window_on_their_pair() {
        let rules = vec![
            FaultRule::new(100, 200, FaultKind::RegionOutage { region: "y".into() }),
            FaultRule::new(
                0,
                10,
                FaultKind::RegionPartition {
                    name: "p".into(),
                    a: "x".into(),
                    b: "y".into(),
                    policy: PartitionPolicy::Drop,
                },
            ),
            // Directed: y → x only.
            FaultRule::new(
                20,
                30,
                FaultKind::RegionDegrade {
                    from: "y".into(),
                    to: "x".into(),
                    extra_delay_ms: 1,
                    loss_rate: 1.0,
                },
            ),
            // A region the map never declared matches nothing.
            FaultRule::new(
                0,
                u64::MAX,
                FaultKind::RegionOutage {
                    region: "atlantis".into(),
                },
            ),
            // Node faults are the runtime's to execute.
            FaultRule::new(
                0,
                u64::MAX,
                FaultKind::Crash {
                    subnet: SubnetId::root(),
                },
            ),
        ];
        let (net, subs) = network(rules, 2);
        net.place_in_region(subs[0], "x");
        net.place_in_region(subs[1], "y");
        // (publish time, origin index) → deliveries scheduled, of two.
        let cases = [
            ((0, 0), 1),   // partition severs x → y
            ((9, 1), 1),   // … and y → x
            ((10, 0), 2),  // healed
            ((20, 0), 2),  // the degrade is not x → y
            ((25, 1), 1),  // it is y → x
            ((30, 1), 2),  // until it ends
            ((99, 0), 2),  // before the outage
            ((100, 0), 1), // x → y blackholed, x → x flows
            ((199, 1), 0), // nothing leaves the dark region
            ((200, 1), 2), // healed
        ];
        for ((at, origin), scheduled) in cases {
            assert_eq!(
                net.publish("t", 0, at, Some(subs[origin])),
                scheduled,
                "at {at}"
            );
        }
        let stats = net.stats();
        assert_eq!((stats.region_dropped, stats.region_lost), (5, 1));
    }
}
