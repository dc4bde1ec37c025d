//! # hc-actors — the system actors of hierarchical consensus
//!
//! This crate implements the protocol logic of the paper as deterministic
//! state machines, independent of any particular chain or network substrate:
//!
//! * [`msg`] — cross-net messages ([`CrossMsg`]), their aggregated
//!   metadata ([`CrossMsgMeta`]) and the message group sealed with the
//!   digest that metadata carries ([`MsgGroup`]), the unit of
//!   inter-subnet communication (paper §IV-A).
//! * [`checkpoint`] — checkpoints (`⟨s, proof, prev, children, crossMeta⟩`,
//!   paper §III-B) and their signed envelope.
//! * [`sca`] — the **Subnet Coordinator Actor**: subnet registration and
//!   collateral, checkpoint commitment and aggregation, cross-net message
//!   routing with per-direction nonces, circulating-supply accounting, and
//!   the firewall property (paper §II, §III, §IV).
//! * [`sa`] — the **Subnet Actor**: the user-defined contract governing one
//!   subnet — join/leave/kill policies and the checkpoint signature policy
//!   (paper §III-A).
//! * [`atomic`] — the atomic cross-net execution coordinator, a two-phase
//!   commit orchestrated by the SCA of the least common ancestor
//!   (paper §IV-D).
//! * [`ledger`] — the [`Ledger`] trait through which actors move funds;
//!   implemented by `hc-state`'s account table.
//!
//! The state machines mutate their own fields plus a caller-provided
//! [`Ledger`] and return domain *effects* (e.g. "this cross-message is now
//! committed top-down") that the embedding chain turns into follow-up work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod cert;
pub mod checkpoint;
pub mod ledger;
pub mod msg;
pub mod sa;
pub mod sca;
pub mod snapshot;

pub use atomic::{AtomicExecRegistry, AtomicExecStatus, AtomicExecution, ExecId};
pub use cert::FundCertificate;
pub use checkpoint::{Checkpoint, ChildCheck, SignedCheckpoint};
pub use ledger::Ledger;
pub use msg::{CrossMsg, CrossMsgKind, CrossMsgMeta, HcAddress, MsgGroup};
pub use sa::{JoinPolicy, SaConfig, SaState, ValidatorInfo};
pub use sca::{ScaConfig, ScaError, ScaState, SubnetInfo, SubnetStatus};
pub use snapshot::{BalanceProof, SnapshotTree, StateSnapshot};
