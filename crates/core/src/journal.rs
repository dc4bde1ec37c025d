//! The runtime's journal: the one log of everything that happened, and
//! the one rule about replay.
//!
//! While [`crate::HierarchyRuntime::recover`] replays journaled history
//! it must not re-journal what it reads, re-queue events a caller already
//! drained, or re-send a dead process's gossip. [`Journal`] holds that
//! mode and states the rule once, as [`Journal::outward`]. The record
//! layout is [`crate::persist`]'s.

use hc_state::CidStore;
use hc_store::{BlobLog, Wal};
use hc_types::CanonicalEncode;

use crate::persist::{ControlRecord, DurableOptions, PersistenceConfig, BLOB_LOG, CONTROL_LOG};

/// The runtime's write side of durable persistence; inert when
/// persistence is [`PersistenceConfig::InMemory`].
pub(crate) struct Journal {
    durable: Option<DurableOptions>,
    /// The runtime-wide journal, once attached.
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

    /// Attaches the journal's log and (re)starts writing through.
    pub(crate) fn attach(&mut self, control: Wal) {
        self.control_wal = Some(control);
        self.recovering = false;
    }

    /// Appends a record. The frame is written at once; its sync is left to
    /// the wave's [`Journal::barrier`], so the records of one wave — its
    /// blocks, their anchors, and whatever set-up preceded it — share one.
    pub(crate) fn append(&mut self, record: &ControlRecord) {
        if !self.outward() {
            return;
        }
        if let Some(wal) = &mut self.control_wal {
            wal.append_deferred(&record.canonical_bytes());
        }
    }

    /// The commit point, run at the end of every wave: one sync (per the
    /// configured policy) for every record journaled since the last. A
    /// record's frame is only ever written after what it refers to is down
    /// (an anchor after its persisted manifest), and a reopened log holds a
    /// prefix of the frames written, so deferring the sync can delay a
    /// record's durability but never let it overtake an earlier one.
    pub(crate) fn barrier(&mut self) {
        if let Some(wal) = &mut self.control_wal {
            wal.sync_deferred();
        }
    }

    /// Opens both logs on the durable device: attaches the blob log to the
    /// shared `store` and returns the journal's log with the records it
    /// already holds; `None` when persistence is in-memory.
    pub(crate) fn open(&self, store: &CidStore) -> Option<(Wal, Vec<Vec<u8>>)> {
        let durable = self.durable.as_ref()?;
        let control = Wal::open(durable.device.clone(), CONTROL_LOG, durable.wal);
        store.attach_blob_log(BlobLog::open(durable.device.clone(), BLOB_LOG, durable.wal));
        Some(control)
    }
}
