//! The runtime's journal: the one log of everything that happened. The
//! record layout is [`crate::persist`]'s.
//!
//! A replay needs no mode of its own: [`crate::HierarchyRuntime::recover`]
//! attaches the log only after its scan, so nothing it replays is journaled
//! again, and a past block re-enters its node through
//! `SubnetNode::reexecute`, which queues no event and sends no gossip.

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
}

impl Journal {
    /// A journal with no log attached yet (see [`Journal::attach`]).
    pub(crate) fn new(persistence: &PersistenceConfig) -> Self {
        Journal {
            durable: persistence.durable().cloned(),
            control_wal: None,
        }
    }

    /// Attaches the journal's log and starts writing through.
    pub(crate) fn attach(&mut self, control: Wal) {
        self.control_wal = Some(control);
    }

    /// Appends a record. The frame is written at once; its sync is left to
    /// the wave's [`Journal::barrier`], so the records of one wave — its
    /// blocks, their anchors, and whatever set-up preceded it — share one.
    /// Nothing is written while no log is attached.
    pub(crate) fn append(&mut self, record: &ControlRecord) {
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
