//! # hc-e2e — the full-stack benchmark
//!
//! One benchmark for the whole hierarchy: seeded open-loop traffic is
//! driven through `hc-core`'s public API on four workloads that each load
//! a different set of crates, end-to-end metrics are measured with
//! tracing off, and a separate traced run splits the time by layer. The
//! crates under test are not modified; everything is observed from
//! outside, through public accessors and by timing public functions.
//!
//! See `README.md` in this directory for the metric definitions, why each
//! workload exists, and how to run, trace and compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
