//! Content-addressed blob log.
//!
//! Persists the blobs of a `CidStore` (state chunks, snapshot manifests,
//! resolved message groups). Each record is `cid ‖ blob bytes`; the CID is
//! recomputed and checked on open, so a blob that survived a crash is also
//! known to be uncorrupted *content*, not just an intact frame. A CID index
//! is kept in memory for dedup: structural sharing between consecutive
//! snapshots (PR 2) therefore carries to disk — re-persisting an unchanged
//! chunk appends nothing.
//!
//! The log is append-only; space is reclaimed by [`BlobLog::retain`], which
//! compacts the log down to a caller-provided live set (the GC mark phase —
//! walking snapshot manifests — lives with the `CidStore` owner, which
//! knows how to parse manifests).

use std::collections::HashSet;
use std::sync::Arc;

use hc_types::Cid;

use crate::device::Persistence;
use crate::wal::{Wal, WalOptions};

/// A durable, deduplicating log of content-addressed blobs.
#[derive(Debug, Clone)]
pub struct BlobLog {
    wal: Wal,
    index: HashSet<Cid>,
}

fn encode_record(cid: &Cid, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + blob.len());
    out.extend_from_slice(cid.as_bytes());
    out.extend_from_slice(blob);
    out
}

fn decode_record(payload: &[u8]) -> Option<(Cid, &[u8])> {
    let cid_bytes: [u8; 32] = payload.get(..32)?.try_into().ok()?;
    Some((Cid::from_bytes(cid_bytes), &payload[32..]))
}

impl BlobLog {
    /// Opens (recovering if necessary) the blob log named `name`,
    /// rebuilding the CID index from the surviving records.
    ///
    /// Records whose stored CID does not match the digest of their bytes
    /// are treated as the start of the torn tail, exactly like a checksum
    /// failure: the log is truncated to the valid prefix before them.
    pub fn open(device: Arc<dyn Persistence>, name: &str, opts: WalOptions) -> Self {
        let (mut wal, records) = Wal::open(device, name, opts);
        let mut index = HashSet::new();
        let mut valid = 0usize;
        for payload in &records {
            let Some((cid, blob)) = decode_record(payload) else {
                break;
            };
            if Cid::digest(blob) != cid {
                break;
            }
            index.insert(cid);
            valid += 1;
        }
        if valid < records.len() {
            wal.truncate_after(valid);
        }
        BlobLog { wal, index }
    }

    /// Persists `blob` under `cid` unless it is already stored. Returns
    /// `true` if bytes were appended.
    pub fn put(&mut self, cid: Cid, blob: &[u8]) -> bool {
        if self.index.contains(&cid) {
            return false;
        }
        self.wal.append(&encode_record(&cid, blob));
        self.index.insert(cid);
        true
    }

    /// Persists every `(cid, blob)` not already stored as one group commit
    /// ([`Wal::append_group`]): durable together, one sync for the lot. The
    /// blobs of one snapshot persist go down this way — they are only
    /// referenced once the whole snapshot is in.
    pub fn put_group(&mut self, blobs: &[(Cid, &[u8])]) {
        let records: Vec<Vec<u8>> = blobs
            .iter()
            .filter(|(cid, _)| self.index.insert(*cid))
            .map(|(cid, blob)| encode_record(cid, blob))
            .collect();
        self.wal.append_group(&records);
    }

    /// Returns `true` if `cid` is stored.
    pub fn contains(&self, cid: &Cid) -> bool {
        self.index.contains(cid)
    }

    /// Reads a blob back from the log (a device scan; O(log size)).
    pub fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        if !self.index.contains(cid) {
            return None;
        }
        self.wal
            .read_all()
            .iter()
            .filter_map(|p| decode_record(p))
            .find(|(c, _)| c == cid)
            .map(|(_, blob)| blob.to_vec())
    }

    /// Number of distinct blobs stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no blobs are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Forces buffered bytes to stable storage.
    pub fn sync(&mut self) {
        self.wal.sync();
    }

    /// Compacts the log down to `live`, dropping every other blob.
    /// Returns `(pruned_blobs, pruned_bytes)` where bytes count blob
    /// content (not framing overhead).
    pub fn retain(&mut self, live: &HashSet<Cid>) -> (u64, u64) {
        let mut kept = Vec::new();
        let mut pruned_blobs = 0u64;
        let mut pruned_bytes = 0u64;
        for payload in self.wal.read_all() {
            let Some((cid, blob)) = decode_record(&payload) else {
                continue;
            };
            if live.contains(&cid) {
                kept.push(payload);
            } else {
                pruned_blobs += 1;
                pruned_bytes += blob.len() as u64;
                self.index.remove(&cid);
            }
        }
        if pruned_blobs > 0 {
            self.wal.reset_with(&kept);
        }
        (pruned_blobs, pruned_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::InMemoryDevice;
    use crate::FsyncPolicy;

    fn opts() -> WalOptions {
        WalOptions {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
        }
    }

    fn blob(i: u8) -> (Cid, Vec<u8>) {
        let bytes = vec![i; 10 + i as usize];
        (Cid::digest(&bytes), bytes)
    }

    #[test]
    fn put_dedups_and_survives_reopen() {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        {
            let mut log = BlobLog::open(dev.clone(), "blobs", opts());
            for i in 0..8 {
                let (cid, bytes) = blob(i);
                assert!(log.put(cid, &bytes));
                assert!(!log.put(cid, &bytes), "second put must dedup");
            }
            assert_eq!(log.len(), 8);
        }
        let log = BlobLog::open(dev, "blobs", opts());
        assert_eq!(log.len(), 8);
        for i in 0..8 {
            let (cid, bytes) = blob(i);
            assert!(log.contains(&cid));
            assert_eq!(log.get(&cid).unwrap(), bytes);
        }
    }

    #[test]
    fn put_group_dedups_and_syncs_once() {
        let dev = InMemoryDevice::new();
        let arc: Arc<dyn Persistence> = Arc::new(dev.clone());
        let always = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        };
        let mut log = BlobLog::open(arc.clone(), "blobs", always);
        let (c1, b1) = blob(1);
        let (c2, b2) = blob(2);
        let (c3, b3) = blob(3);
        assert!(log.put(c1, &b1));
        assert_eq!(dev.sync_count(), 1);
        // One stored already, one repeated inside the group: two appended,
        // one sync.
        log.put_group(&[(c1, &b1), (c2, &b2), (c3, &b3), (c2, &b2)]);
        assert_eq!(log.len(), 3);
        assert_eq!(dev.sync_count(), 2);
        let reopened = BlobLog::open(arc, "blobs", always);
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.get(&c3), Some(b3));
    }

    #[test]
    fn content_mismatch_is_cut_off_like_a_torn_tail() {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        {
            let (mut wal, _) = Wal::open(dev.clone(), "blobs", opts());
            let (cid, bytes) = blob(1);
            wal.append(&encode_record(&cid, &bytes));
            // A frame whose checksum is fine but whose CID lies.
            wal.append(&encode_record(&cid, b"not the preimage"));
            let (cid3, bytes3) = blob(3);
            wal.append(&encode_record(&cid3, &bytes3));
        }
        let log = BlobLog::open(dev, "blobs", opts());
        assert_eq!(log.len(), 1, "only the prefix before the lie survives");
        assert!(log.contains(&blob(1).0));
        assert!(!log.contains(&blob(3).0));
    }

    #[test]
    fn retain_compacts_and_reports_stats() {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        let mut log = BlobLog::open(dev.clone(), "blobs", opts());
        let mut live = HashSet::new();
        let mut dead_bytes = 0u64;
        for i in 0..10 {
            let (cid, bytes) = blob(i);
            log.put(cid, &bytes);
            if i % 2 == 0 {
                live.insert(cid);
            } else {
                dead_bytes += bytes.len() as u64;
            }
        }
        let (pruned, bytes) = log.retain(&live);
        assert_eq!(pruned, 5);
        assert_eq!(bytes, dead_bytes);
        assert_eq!(log.len(), 5);
        // Survivors are intact after compaction and reopen.
        let log = BlobLog::open(dev, "blobs", opts());
        assert_eq!(log.len(), 5);
        for cid in &live {
            assert!(log.contains(cid));
        }
    }
}
