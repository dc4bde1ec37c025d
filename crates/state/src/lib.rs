//! # hc-state — per-subnet state tree and execution (the "VM" substrate)
//!
//! Every subnet chain owns one [`StateTree`]: user accounts (balance, nonce,
//! signing key, key-value contract storage) plus the embedded system actors
//! of hierarchical consensus — the Subnet Coordinator Actor, the Subnet
//! Actors deployed for child subnets, and the atomic-execution coordinator.
//!
//! The [`vm`] module applies messages to the tree: signed user messages
//! ([`SignedMessage`]) and implicit consensus messages ([`ImplicitMsg`],
//! e.g. cross-net messages committed by a block). Execution produces
//! [`Receipt`]s carrying [`VmEvent`]s that the runtime (`hc-core`) reacts to
//! — committed checkpoints, cross-messages to propagate, atomic-execution
//! transitions.
//!
//! # Substitution note (DESIGN.md)
//!
//! This plays the role the Filecoin VM (FVM) plays for the paper's
//! prototype: actor state, nonces, balances, receipts, and a deterministic
//! state root. The actor set is closed (the system actors plus simple
//! key-value user storage), which is all the paper's protocol requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod amt;
pub mod chunk;
pub mod hamt;
pub mod install;
pub mod message;
pub mod parallel;
pub mod params;
mod registry;
pub mod sealed;
pub mod sigcache;
pub mod store;
pub mod tree;
pub mod vm;

pub use access::StateAccess;
pub use amt::{Amt, AmtError, AmtRoot};
pub use chunk::{blob_links, ChunkKey, ChunkManifest, CommitStats, MANIFEST_TAG};
pub use hamt::{Hamt, HamtError, HashWork};
pub use install::InstallError;
pub use message::{AccountInstall, ImplicitMsg, Message, Method, SignedMessage};
pub use parallel::{access_pair, LaneOverlay};
pub use registry::RegistryEntry;
pub use sealed::SealedMessage;
pub use sigcache::{SigCache, SigCacheStats};
pub use store::{CidStore, CidStoreStats};
pub use tree::{AccountState, StateTree};
pub use vm::{apply_implicit, apply_sealed, ExitCode, Receipt, VmEvent};
