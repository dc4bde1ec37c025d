//! # hc-consensus — pluggable consensus engines for subnets
//!
//! Hierarchical consensus is consensus-agnostic: "each subnet can run its
//! own independent consensus algorithm and set its own security and
//! performance guarantees" (paper §I). This crate provides the engine
//! abstraction ([`Consensus`]) and five engines matching the paper's
//! discussion:
//!
//! | Engine | Model | Finality |
//! |---|---|---|
//! | [`RoundRobinEngine`] | rotating authority proposer | depth 1 |
//! | [`PowEngine`] | mining-power lottery, exponential intervals, wasted discovery intervals counted as orphans (no fork adopted) | probabilistic (depth k) |
//! | [`PosEngine`] | stake-weighted leader election | depth k (checkpoints bound long-range attacks) |
//! | [`TendermintEngine`] | BFT rounds, 2f+1 quorum justification | instant (depth 0) |
//! | [`MirEngine`] | multi-leader BFT with batched parallel proposals | instant (depth 0) |
//!
//! # Substitution note (DESIGN.md)
//!
//! The engines reproduce the *externally observable* properties the
//! hierarchy interacts with — who proposes, block interval distributions,
//! quorum requirements, and finality depth — rather than the wire protocols
//! of Tendermint/MirBFT. That is exactly the interface the paper's
//! framework consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod engines;
pub mod validator;

pub use engine::{make_engine, BlockOpportunity, Consensus, ConsensusError, EngineParams};
pub use engines::{MirEngine, PosEngine, PowEngine, RoundRobinEngine, TendermintEngine};
pub use hc_actors::sa::ConsensusKind;
pub use validator::{Validator, ValidatorSet};
