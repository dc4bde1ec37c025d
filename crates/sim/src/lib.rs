//! # hc-sim — evaluation substrate for hierarchical consensus
//!
//! Deterministic simulation tooling on top of
//! [`hc_core::HierarchyRuntime`]:
//!
//! * [`topology`] — hierarchy builders (flat sibling sets, deep chains,
//!   trees), pre-funded with users.
//! * [`metrics`] — virtual-time throughput/latency measurement helpers.
//! * [`experiments`] — the E1–E10 experiment drivers from DESIGN.md, each
//!   returning printable rows; the `hc-bench` crate's report binary
//!   prints them.
//! * [`table`] — plain-text table rendering for experiment output.
//!
//! Everything runs in *virtual time*: experiments measure protocol
//! behaviour (blocks, epochs, simulated milliseconds), not host wall-clock,
//! so results are exactly reproducible under a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod table;
pub mod topology;

pub use metrics::{measure_delivery, DeliveryMeasurement};
pub use table::Table;
pub use topology::{FlatTopology, TopologyBuilder};
