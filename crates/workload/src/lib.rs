//! # hc-workload — seeded traffic engines for the hierarchy
//!
//! Benchmarking a horizontal-scaling framework needs load that looks like
//! the real thing: a huge, heavily skewed account population, arrival
//! rates that ramp past what any single subnet can serve, and a traffic
//! mix that exercises cross-net routing. This crate generates exactly
//! that, deterministically:
//!
//! * [`Zipf`] — O(1) rejection-inversion sampling of account popularity
//!   over millions of ranks.
//! * [`OpenLoopGenerator`] / [`RampProfile`] — a pure, seeded stream of
//!   [`TrafficOp`]s over *logical* account indices, at a rate that is a
//!   function of the round, independent of service progress (open loop).
//! * [`LazyAccounts`] — logical indices materialize into funded on-chain
//!   accounts on first touch, so a million-account population costs only
//!   its Zipfian working set.
//! * [`OpenLoop`] — the driver: inject, wave, poll an optional
//!   [`hc_core::ElasticController`] so the hierarchy splits and merges
//!   under the load, and record the committed-throughput curve
//!   ([`OpenLoopReport`]).
//! * [`ClosedBatch`] — the closed-loop batch shape of the `hc-sim`
//!   experiments E1, E3, E6 and E10: a fixed fee-less batch per subnet,
//!   then drain.
//!
//! Everything is a pure function of the seed and the runtime's own
//! deterministic clock: two runs with the same inputs produce
//! bit-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounts;
pub mod driver;
pub mod generator;
pub mod zipf;

pub use accounts::LazyAccounts;
pub use driver::{BatchReport, ClosedBatch, OpenLoop, OpenLoopReport};
pub use generator::{OpenLoopGenerator, RampProfile, TrafficOp};
pub use zipf::Zipf;
