//! # hc-chain — the per-subnet blockchain substrate
//!
//! Every subnet in hierarchical consensus "instantiates a new chain with
//! its own state" (paper §II). This crate provides that chain:
//!
//! * [`block`] — blocks and headers, content-addressed and signed by their
//!   proposer, optionally carrying a BFT justification (quorum of
//!   validator signatures);
//! * [`mempool`] — the two message pools each node keeps (paper §IV-B): an
//!   internal pool for messages originating in and targeting the subnet,
//!   and a [`CrossMsgPool`] tracking unverified cross-net messages;
//! * [`store`] — the append-only chain store: the head decoded, history
//!   in LZ-compressed wire form;
//! * [`executor`] — block production and validation against an
//!   `hc-state` [`StateTree`](hc_state::StateTree);
//! * [`schedule`] — deterministic access-set scheduling that partitions a
//!   block's messages into conflict-free lanes, and [`fan_out`], the one
//!   place work is laid on worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod executor;
mod lz;
pub mod mempool;
pub mod schedule;
pub mod store;

pub use block::{Block, BlockHeader};
pub use executor::{
    execute_block_with, preverify_signatures, produce_block_with, BlockError, ExecOptions,
    ExecutedBlock,
};
pub use mempool::{CrossMsgPool, Mempool, MempoolConfig, MempoolStats, PushOutcome};
pub use schedule::{fan_out, fan_out_threads, threads_spawned, Schedule, ScheduleStats, Segment};
pub use store::{ChainStore, History, StoredBlock};
