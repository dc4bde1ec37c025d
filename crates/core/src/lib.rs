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
//! * **Auditing** — [`HierarchyRuntime::check_invariants`] is the one check
//!   of the safety story (escrow, conservation, checkpoint chains, backing
//!   under the firewall bound, …); debug builds run it after every wave and
//!   every recovery, and [`audit_quiescent`] is it at rest.
//!
//! # Modules
//!
//! * [`runtime`] — [`HierarchyRuntime`]: the struct, construction, the
//!   event loop and the one per-block pipeline (`run_wave`: `pre_tick` →
//!   `fan_out(SubnetNode::produce)` → `post_tick`; a tick is a wave of one),
//!   and `poll_network`: a node, live or catching up, reads its own inbox,
//!   and the runtime checks the certificates it kept against other chains.
//!   Its API continues, by concern, in the private `users`, `lifecycle`
//!   and `stats` modules; `config` holds [`RuntimeConfig`] and the plain
//!   types of the API. The runtime holds no key: a [`UserHandle`]
//!   carries its account's signing key, and `submit` signs with it at
//!   the nonce the node accepts next; a [`SubnetNode`] holds the keys of
//!   the validators it runs.
//! * the private `journal` and `subnets` modules — one owner each:
//!   `Journal` holds the control log — the one log every committed block
//!   and set-up record goes to, attached by recovery only after its scan —
//!   and `Subnets` keeps one record per subnet of everything that outlives
//!   its node.
//! * [`node`] — [`SubnetNode`]: one subnet's chain, state, pools and
//!   engine, its one door `receive` (top-down messages, child checkpoints
//!   and certificates, handed over by the runtime's one `deliver`), block
//!   assembly, the single copy of what a committed block implies for its
//!   node (construction, commit, skip, event effects, snapshot install,
//!   and `reexecute`, the one door of a journaled or pulled past block),
//!   and its crash, restart and catch-up: a restarted node syncs its
//!   peers' chain itself.
//! * [`persist`] and the private `recover` module — the journal layout
//!   ([`ControlRecord`], blocks included) and
//!   [`HierarchyRuntime::recover`], which rebuilds the hierarchy from it
//!   in one scan.
//! * [`chaos`] — the runtime's half of live node crash–rejoin (one entry,
//!   `rejoin_node`, in the configured [`RuntimeConfig::sync_mode`]): the
//!   fault schedule, and the surviving peers' side of a catch-up.
//! * [`elastic`], [`atomic`], [`archive`], [`audit`], [`attack`] — the
//!   scale-out controller, 2PC orchestration, the light-client audit of a
//!   checkpoint history read from the parent's chain,
//!   the invariant check, and adversarial injection.
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

pub use atomic::{AtomicOrchestrator, AtomicOutcome, AtomicParty, PartyBehavior};
pub use attack::AttackReport;
pub use audit::{audit_quiescent, InvariantBreak};
pub use chaos::{ChaosStats, CrashPhase, SyncMode, BLOCK_BATCH_CAP};
pub use config::{PlacementPolicy, PoolStats, RuntimeConfig, RuntimeError, StepReport, UserHandle};
pub use elastic::{ElasticController, ElasticStats};
pub use node::{NodeStats, SubnetNode};
pub use persist::{ControlRecord, DurableOptions, PersistenceConfig};
pub use runtime::HierarchyRuntime;
