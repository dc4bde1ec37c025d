//! The runtime's journal: the control log, the doors to the per-subnet
//! block WALs, and the one rule about replay.
//!
//! While [`crate::HierarchyRuntime::recover`] replays journaled history
//! it must not re-journal what it reads, re-queue events a caller already
//! drained, or re-send a dead process's gossip. [`Journal`] holds that
//! mode and states the rule once, as [`Journal::outward`]. The record
//! layout is [`crate::persist`]'s.

use hc_state::CidStore;
use hc_store::{BlobLog, Wal};
use hc_types::{CanonicalEncode, SubnetId};

use crate::node::SubnetNode;
use crate::persist::{
    chain_log_name, ControlRecord, DurableOptions, PersistenceConfig, BLOB_LOG, CONTROL_LOG,
};

/// The runtime's write side of durable persistence; inert when
/// persistence is [`PersistenceConfig::InMemory`].
pub(crate) struct Journal {
    durable: Option<DurableOptions>,
    /// The runtime-wide control log, once attached.
    control_wal: Option<Wal>,
    /// `true` while recovery replays journaled history.
    recovering: bool,
}

impl Journal {
    /// A journal with no log attached yet (see [`Journal::attach`]).
    pub(crate) fn new(persistence: &PersistenceConfig) -> Self {
        Journal {
            durable: persistence.durable().cloned(),
            control_wal: None,
            recovering: false,
        }
    }

    /// May the runtime act on the outside world — journal, queue events
    /// for the caller, gossip? `false` exactly while a replay is running.
    pub(crate) fn outward(&self) -> bool {
        !self.recovering
    }

    /// Enters replay mode; [`Journal::attach`] leaves it.
    pub(crate) fn begin_replay(&mut self) {
        self.recovering = true;
    }

    /// Attaches the control log and (re)starts writing through.
    pub(crate) fn attach(&mut self, control: Wal) {
        self.control_wal = Some(control);
        self.recovering = false;
    }

    /// Appends a control record. The frame is written at once; its sync is
    /// left to the step's [`Journal::barrier`], so the records of one step
    /// — or of a whole set-up between steps — share one.
    pub(crate) fn append(&mut self, record: &ControlRecord) {
        if !self.outward() {
            return;
        }
        if let Some(wal) = &mut self.control_wal {
            wal.append_deferred(&record.canonical_bytes());
        }
    }

    /// The control log's durability barrier, run at the end of every step:
    /// one sync (per the configured policy) for every control record
    /// journaled since the last. It comes after every chain-WAL append of
    /// the step, and a record's frame is only ever written after what it
    /// refers to is down (a `BlockCommitted` after its block's synced
    /// append, an anchor after its persisted manifest), so deferring the
    /// sync can delay a record's durability but never let it overtake.
    pub(crate) fn barrier(&mut self) {
        if let Some(wal) = &mut self.control_wal {
            wal.sync_deferred();
        }
    }

    /// Opens the runtime-wide journals on the durable device: attaches the
    /// blob log to the shared `store` and returns the control log with the
    /// records it already holds; `None` when persistence is in-memory.
    pub(crate) fn open(&self, store: &CidStore) -> Option<(Wal, Vec<Vec<u8>>)> {
        let durable = self.durable.as_ref()?;
        let control = Wal::open(durable.device.clone(), CONTROL_LOG, durable.wal);
        store.attach_blob_log(BlobLog::open(durable.device.clone(), BLOB_LOG, durable.wal));
        Some(control)
    }

    /// Opens `subnet`'s block journal on the durable device, returning the
    /// WAL and the block records it already holds; `None` when persistence
    /// is in-memory.
    pub(crate) fn open_chain_wal(&self, subnet: &SubnetId) -> Option<(Wal, Vec<Vec<u8>>)> {
        let durable = self.durable.as_ref()?;
        Some(Wal::open(
            durable.device.clone(),
            &chain_log_name(subnet),
            durable.wal,
        ))
    }

    /// Attaches its subnet's block journal to a (freshly built) node, so
    /// the blocks it produces write through. A no-op in memory.
    pub(crate) fn attach_chain_wal(&self, node: &mut SubnetNode) {
        if let Some((wal, _)) = self.open_chain_wal(&node.subnet_id) {
            node.chain.attach_wal(wal);
        }
    }
}
