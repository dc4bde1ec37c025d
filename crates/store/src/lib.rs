//! # hc-store — durable persistence for hierarchical consensus
//!
//! The paper's subnet lifecycle (§III) assumes nodes that can crash and
//! rejoin, re-deriving committed state from their logs. This crate provides
//! the storage substrate that makes that possible:
//!
//! * [`Persistence`] — a minimal append/read/truncate/sync device
//!   abstraction over named byte streams, with two backends:
//!   [`InMemoryDevice`] (the default for deterministic simulation; bytes
//!   live in process memory and "durability" means surviving a *runtime*
//!   restart within the process) and [`OnDiskDevice`] (one file per stream
//!   under a root directory, with a configurable [`FsyncPolicy`]).
//! * [`frame`] — the checksummed record framing shared by every log: a
//!   magic marker, a length, and an FNV-1a 64 checksum guard each payload,
//!   so a scan can always find the longest valid prefix of a torn stream.
//! * [`Wal`] — a segmented append-only write-ahead log of opaque records.
//!   Opening a WAL scans its segments, returns every intact record, and
//!   truncates whatever torn tail a crash left behind; a
//!   [`RecoveringWal`] streams the records instead, one segment at a time.
//!   Every record has a [`RecordPos`], and a [`WalReader`] reads one back
//!   by it, checksum checked.
//! * [`BlobLog`] — a content-addressed blob journal backing `CidStore`:
//!   each blob is stored at most once (the in-memory dedup that PR 2's
//!   structural sharing relies on carries to disk), and unreachable blobs
//!   can be compacted away.
//! * [`crash`] — crash-injection utilities for tests: truncate a stream at
//!   an arbitrary byte offset, flip a byte, fork an in-memory device to
//!   model a kill between fsyncs.
//!
//! Everything here is deliberately value-oriented: the WAL stores canonical
//! encodings (see `hc_types::encode`/`hc_types::decode`) and knows nothing
//! about blocks or checkpoints. Typed records live with their owner
//! (`hc-core`'s journal: blocks and runtime control records, one log).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blob;
pub mod crash;
pub mod device;
pub mod frame;
pub mod wal;

pub use blob::BlobLog;
pub use device::{FsyncPolicy, InMemoryDevice, OnDiskDevice, Persistence};
pub use wal::{RecordPos, Records, RecoveringWal, Wal, WalOptions, WalReader};
