//! # hc-net — the P2P substrate: topic pub-sub and content resolution
//!
//! Each subnet owns "a new attack-resilient pubsub topic that peers use as
//! the transport layer to exchange chain-specific messages" (paper §III-A),
//! with topic names derived deterministically from subnet IDs so no
//! discovery service is needed.
//!
//! * [`pubsub`] — a simulated GossipSub: topic-addressed broadcast with a
//!   configurable latency/jitter/loss model, deterministic under a seed.
//!   [`Network::publish`] is the only way in; it runs every delivery
//!   through one gate → delay → enqueue pipeline.
//! * [`resolver`] — the cross-net content-resolution protocol
//!   (paper §IV-C): *push* announcements as checkpoints travel upward,
//!   *pull* requests against the source subnet's topic, and *resolve*
//!   replies, backed by a validated, bounded per-node [`ContentCache`]
//!   with per-request timeout/backoff retry ([`RetryPolicy`], tracked
//!   per request by a [`Backoff`]).
//! * [`fault`] — a seeded, schedulable [`FaultPlan`]: one list of
//!   [`FaultRule`]s, each a [`FaultKind`] (named partition,
//!   targeted/asymmetric loss, bounded duplication, adversarial
//!   reordering, inter-region partition, degraded link, node crash,
//!   whole-region outage) in force for a [`Window`] of virtual time — all
//!   deterministic under the run seed and inert by default.
//! * [`region`] — geo-aware placement: a [`RegionMap`] of named regions,
//!   a per-region-pair latency/jitter matrix with asymmetric
//!   bandwidth/loss multipliers, layered under the per-topic model; the
//!   region-scoped fault kinds resolve their region names against it.
//!
//! # Substitution note (DESIGN.md)
//!
//! The paper's transport is libp2p GossipSub (its reference \[11\]); the
//! protocol logic only relies on topic broadcast with eventual delivery,
//! which is what this simulation provides (plus loss, for the
//! resolution-retry experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod pubsub;
pub mod region;
pub mod resolver;

pub use fault::{FaultKind, FaultPlan, FaultRule, PartitionPolicy, Window};
pub use pubsub::{NetConfig, NetStats, Network, SubscriberId, TopicLatency};
pub use region::{RegionLink, RegionMap};
pub use resolver::{
    keeps_push, Backoff, BackoffStep, ContentCache, ResolutionMsg, Resolver, ResolverStats,
    RetryPolicy, BLOB_BATCH_CAP, CONTENT_CACHE_CAPACITY,
};
