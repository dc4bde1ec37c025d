//! The experiment drivers from DESIGN.md.
//!
//! Each experiment has a parameter struct (with defaults sized for the
//! report binary; tests shrink them), a `run` function
//! returning structured rows, and a `table` renderer. All measurements are
//! in virtual time, reproducible under the configured seeds.
//!
//! | Id | Claim quantified | Module |
//! |----|------------------|--------|
//! | E1 | horizontal scale-out of throughput | [`e1_scaling`] |
//! | E2 | cross-net latency per message class | [`e2_latency`] |
//! | E3 | checkpoint load on the parent chain | [`e3_checkpoints`] |
//! | E4 | the firewall bounds compromised-subnet damage | [`e4_firewall`] |
//! | E5 | atomic execution cost and fault behaviour | [`e5_atomic`] |
//! | E6 | consensus pluggability trade-offs | [`e6_consensus`] |
//! | E7 | push vs pull content resolution | [`e7_resolution`] |
//! | E8 | collateral lifecycle and slashing | [`e8_collateral`] |
//! | E9 | fund-certificate acceleration | [`e9_certificates`] |
//! | E10 | cross-traffic sensitivity ablation | [`e10_cross_ratio`] |
//! | E13 | elastic scale-out under a load ramp | [`e13_elasticity`] |
//! | E14 | geo placement under region disasters | [`e14_geo`] |

pub mod e10_cross_ratio;
pub mod e13_elasticity;
pub mod e14_geo;
pub mod e1_scaling;
pub mod e2_latency;
pub mod e3_checkpoints;
pub mod e4_firewall;
pub mod e5_atomic;
pub mod e6_consensus;
pub mod e7_resolution;
pub mod e8_collateral;
pub mod e9_certificates;

pub use e10_cross_ratio::{e10_run, E10Params, E10Row};
pub use e13_elasticity::{e13_run, E13Outcome, E13Params, E13Row};
pub use e14_geo::{e14_run, E14Params, E14Row, E14_REGIONS, E14_SCENARIOS};
pub use e1_scaling::{e1_run, E1Params, E1Row};
pub use e2_latency::{e2_run, E2Params, E2Row};
pub use e3_checkpoints::{e3_run, E3Params, E3Row};
pub use e4_firewall::{e4_run, E4Params, E4Row};
pub use e5_atomic::{e5_run, E5Params, E5Row};
pub use e6_consensus::{e6_run, E6Params, E6Row};
pub use e7_resolution::{e7_run, E7Params, E7Row};
pub use e8_collateral::{e8_run, E8Params, E8Row};
pub use e9_certificates::{e9_run, E9Params, E9Row};
