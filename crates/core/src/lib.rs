//! # hc-core — the hierarchical consensus framework
//!
//! This crate is the paper's primary contribution: a runtime that manages a
//! hierarchy of subnets, each with its own chain, state, consensus engine,
//! and message pools, and wires together the protocols the other crates
//! provide:
//!
//! * **Subnet lifecycle** (paper §III) — spawning via
//!   [`HierarchyRuntime::spawn_subnet`] (deploy SA → register with the
//!   parent SCA → validators join), collateral management, fraud reporting,
//!   and killing.
//! * **Checkpointing** (paper §III-B) — subnets cut checkpoints every
//!   period, their validators sign them per the Subnet Actor policy, and
//!   the runtime carries them into the parent chain where the SCA commits
//!   them and routes the carried cross-message metadata.
//! * **Cross-net messages** (paper §IV) — top-down commitment with
//!   per-child nonces, bottom-up aggregation in checkpoints, path messages
//!   turning around at the least common ancestor, content resolution over
//!   the pub-sub network, and automatic reverts for failed applications.
//! * **Atomic execution** (paper §IV-D) — the [`atomic::AtomicOrchestrator`]
//!   drives the two-phase commit across subnets end to end.
//! * **Auditing** — [`audit`] checks the hierarchy-wide supply invariants
//!   (escrow coverage, per-edge supply backing, global conservation) that
//!   make the firewall property observable.
//!
//! # Modules
//!
//! * [`runtime`] — [`HierarchyRuntime`]: the struct, construction, the
//!   event loop and the one per-block pipeline (`run_wave`: `pre_tick` →
//!   `fan_out(produce_local)` → `post_tick`; a tick is a wave of one).
//!   Its API continues, by concern, in the private `users`, `lifecycle`
//!   and `stats` modules; `config` holds [`RuntimeConfig`] and the plain
//!   types of the API.
//! * the private `wallet`, `journal` and `subnets` modules — one owner
//!   each: `Wallets` is the only place a signing cursor moves, `Journal`
//!   holds the control log — the one log every committed block and
//!   set-up record goes to — and the one `outward()` predicate that
//!   silences a replay, `Subnets` keeps one record per subnet of
//!   everything that outlives its node.
//! * [`node`] — [`SubnetNode`]: one subnet's chain, state, pools and
//!   engine, and the single copy of what a committed block implies for
//!   its node (construction, commit, skip, event effects, snapshot
//!   install) that live ticks, recovery and catch-up all share.
//! * [`persist`] and the private `recover` module — the journal layout
//!   ([`ControlRecord`], blocks included) and
//!   [`HierarchyRuntime::recover`], which rebuilds the hierarchy from it
//!   in one scan.
//! * [`chaos`] — live node crash–rejoin, peer catch-up and snapshot sync.
//! * [`elastic`], [`atomic`], [`archive`], [`audit`], [`attack`] — the
//!   scale-out controller, 2PC orchestration, the checkpoint archive,
//!   supply audits, and adversarial injection.
//!
//! # Example
//!
//! ```
//! use hc_core::{HierarchyRuntime, RuntimeConfig};
//! use hc_actors::sa::SaConfig;
//! use hc_types::TokenAmount;
//!
//! # fn main() -> Result<(), hc_core::RuntimeError> {
//! let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
//! let alice = rt.create_user(&hc_types::SubnetId::root(), TokenAmount::from_whole(1_000))?;
//! let validator = rt.create_user(&hc_types::SubnetId::root(), TokenAmount::from_whole(100))?;
//!
//! // Spawn a child subnet with one validator.
//! let subnet = rt.spawn_subnet(
//!     &alice,
//!     SaConfig::default(),
//!     TokenAmount::from_whole(10),
//!     &[(validator.clone(), TokenAmount::from_whole(5))],
//! )?;
//!
//! // Fund an address inside the child, top-down.
//! let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
//! rt.cross_transfer(&alice, &bob, TokenAmount::from_whole(20))?;
//! rt.run_until_quiescent(1_000)?;
//! assert_eq!(rt.balance(&bob), TokenAmount::from_whole(20));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod atomic;
pub mod attack;
pub mod audit;
pub mod chaos;
mod config;
pub mod elastic;
mod journal;
mod lifecycle;
pub mod node;
pub mod persist;
mod recover;
pub mod runtime;
mod stats;
mod subnets;
mod users;
mod wallet;

pub use archive::CheckpointArchive;
pub use atomic::{AtomicOrchestrator, AtomicOutcome, AtomicParty, PartyBehavior};
pub use attack::AttackReport;
pub use audit::{audit_escrow, audit_quiescent, SupplyReport};
pub use chaos::{ChaosStats, CrashPhase, SyncMode, BLOCK_BATCH_CAP};
pub use config::{PlacementPolicy, PoolStats, RuntimeConfig, RuntimeError, StepReport, UserHandle};
pub use elastic::{ElasticConfig, ElasticController, ElasticStats};
pub use node::{NodeStats, SubnetNode};
pub use persist::{ControlRecord, DurableOptions, PersistenceConfig};
pub use runtime::HierarchyRuntime;
