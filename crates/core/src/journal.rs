//! The runtime's journal: the one log of everything that happened. The
//! record layout is [`crate::persist`]'s.
//!
//! A replay needs no mode of its own: [`crate::HierarchyRuntime::recover`]
//! attaches the log only after its scan, so nothing it replays is journaled
//! again, and a past block re-enters its node through
//! `SubnetNode::reexecute`, which queues no event and sends no gossip.
//!
//! The log is also where a durable chain's history lives: a block's record
//! is its canonical bytes behind one tag byte, so a chain holds each block
//! below its head as the record's position and reads it back through
//! [`JournaledBlocks`].

use std::sync::Arc;

use hc_chain::{BlockLog, Journaled, LogPosition};
use hc_state::CidStore;
use hc_store::{BlobLog, RecordPos, RecoveringWal, Wal, WalReader};
use hc_types::CanonicalEncode;

use crate::persist::{
    ControlRecord, DurableOptions, PersistenceConfig, BLOB_LOG, BLOCK_TAG, CONTROL_LOG,
};

/// The runtime's write side of durable persistence; inert when
/// persistence is [`PersistenceConfig::InMemory`].
pub(crate) struct Journal {
    durable: Option<DurableOptions>,
    /// The runtime-wide journal, once attached.
    control_wal: Option<Wal>,
    /// The journal's blocks, read back by position, once it is open.
    blocks: Option<Arc<dyn BlockLog>>,
}

impl Journal {
    /// A journal with no log attached yet (see [`Journal::attach`]).
    pub(crate) fn new(persistence: &PersistenceConfig) -> Self {
        Journal {
            durable: persistence.durable().cloned(),
            control_wal: None,
            blocks: None,
        }
    }

    /// Attaches the journal's log and starts writing through.
    pub(crate) fn attach(&mut self, control: Wal) {
        self.control_wal = Some(control);
    }

    /// Appends a record and returns where it went, for a block's chain to
    /// hold it by. The frame is written at once; its sync is left to the
    /// wave's [`Journal::barrier`], so the records of one wave — its
    /// blocks, their anchors, and whatever set-up preceded it — share one.
    /// Nothing is written while no log is attached.
    pub(crate) fn append(&mut self, record: &ControlRecord) -> Option<Journaled> {
        let wal = self.control_wal.as_mut()?;
        let at = wal.append_deferred(&record.canonical_bytes());
        self.journaled(at)
    }

    /// The record at `at` as a chain holds it: its place in this log.
    pub(crate) fn journaled(&self, at: RecordPos) -> Option<Journaled> {
        let at = LogPosition {
            segment: at.segment,
            offset: at.offset,
            len: at.len,
        };
        Some(Journaled::new(self.blocks.clone()?, at))
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
    /// shared `store` and returns the journal's log, cut back to its valid
    /// prefix, for its records to be streamed; `None` when persistence is
    /// in-memory.
    pub(crate) fn open(&mut self, store: &CidStore) -> Option<RecoveringWal> {
        let durable = self.durable.as_ref()?;
        let control = RecoveringWal::open(durable.device.clone(), CONTROL_LOG, durable.wal);
        store.attach_blob_log(BlobLog::open(durable.device.clone(), BLOB_LOG, durable.wal));
        self.blocks = Some(Arc::new(JournaledBlocks(control.reader())));
        Some(control)
    }
}

/// The journal's [`ControlRecord::Block`] records, read back by position:
/// a record whose frame fails its checksum, or that is not a block, is
/// refused.
#[derive(Debug)]
pub(crate) struct JournaledBlocks(WalReader);

impl BlockLog for JournaledBlocks {
    fn read_block(&self, at: LogPosition) -> Option<Vec<u8>> {
        let at = RecordPos {
            segment: at.segment,
            offset: at.offset,
            len: at.len,
        };
        let mut record = self.0.read(at)?;
        if record.first() != Some(&BLOCK_TAG) {
            return None;
        }
        record.remove(0);
        Some(record)
    }
}
