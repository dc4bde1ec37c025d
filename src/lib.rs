//! # hierarchical-consensus
//!
//! A from-scratch Rust implementation of **"Hierarchical Consensus: A
//! Horizontal Scaling Framework for Blockchains"** (de la Rocha,
//! Kokoris-Kogias, Soares, Vukolić — ICDCS 2022).
//!
//! Instead of sharding one monolithic chain, hierarchical consensus scales
//! *horizontally*: users spawn **subnets** on demand, organized in a tree
//! rooted at the *rootnet*. Each subnet runs its own chain, state, and
//! consensus engine; parents secure children through periodic
//! **checkpoints**; value moves between subnets through **cross-net
//! messages** whose damage radius is bounded by the **firewall** property;
//! and state in different subnets can be updated atomically through a
//! two-phase-commit **atomic execution** protocol.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | subnet IDs, addresses, tokens, CIDs, crypto, Merkle trees |
//! | [`actors`] | the SCA, Subnet Actors, checkpoints, cross-net messages |
//! | [`state`] | per-subnet state tree and message execution (VM) |
//! | [`chain`] | blocks, chain store, message pools |
//! | [`consensus`] | pluggable engines: RoundRobin, PoW, PoS, Tendermint, Mir |
//! | [`net`] | simulated pub-sub, fault injection, content resolution |
//! | [`core`] | the hierarchy runtime, atomic orchestration, audits |
//! | [`sim`] | topologies, workloads, and the E1–E10 experiment drivers |
//!
//! # Quickstart
//!
//! ```
//! use hierarchical_consensus::prelude::*;
//!
//! # fn main() -> Result<(), RuntimeError> {
//! let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
//! let alice = rt.create_user(&SubnetId::root(), TokenAmount::from_whole(1_000))?;
//! let validator = rt.create_user(&SubnetId::root(), TokenAmount::from_whole(100))?;
//!
//! let subnet = rt.spawn_subnet(
//!     &alice,
//!     SaConfig::default(),
//!     TokenAmount::from_whole(10),
//!     &[(validator, TokenAmount::from_whole(5))],
//! )?;
//!
//! let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
//! rt.cross_transfer(&alice, &bob, TokenAmount::from_whole(20))?;
//! rt.run_until_quiescent(1_000)?;
//! assert_eq!(rt.balance(&bob), TokenAmount::from_whole(20));
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable walkthroughs of every paper
//! figure, and `hc-bench` for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hc_actors as actors;
pub use hc_chain as chain;
pub use hc_consensus as consensus;
pub use hc_core as core;
pub use hc_net as net;
pub use hc_sim as sim;
pub use hc_state as state;
pub use hc_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use hc_actors::sa::{ConsensusKind, SaConfig};
    pub use hc_actors::{CrossMsg, HcAddress, ScaConfig};
    pub use hc_core::{
        audit_quiescent, AtomicOrchestrator, AtomicParty, ChaosStats, HierarchyRuntime,
        InvariantBreak, PartyBehavior, RuntimeConfig, RuntimeError, UserHandle,
    };
    pub use hc_state::Method;
    pub use hc_types::{Address, ChainEpoch, Cid, SubnetId, TokenAmount};
}
