//! Content-addressed storage.
//!
//! A [`CidStore`] maps CIDs to raw byte blobs. Each subnet node keeps one to
//! cache checkpoint payloads, cross-message groups learned through the
//! content-resolution protocol, and saved state snapshots (chunk manifests,
//! see [`crate::chunk::ChunkManifest`]). The store is append-only and
//! self-verifying: a blob can only ever be stored under the CID of its own
//! bytes.
//!
//! The store counts put/get hits and misses ([`CidStore::stats`]).
//! Because state persists as content-addressed chunks, the `put_hits`
//! counter directly measures structural sharing between consecutive
//! snapshots: an unchanged chunk's put is a hit and stores nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hc_store::BlobLog;
use parking_lot::RwLock;

use hc_types::Cid;

use crate::chunk::blob_links;

/// A point-in-time snapshot of a [`CidStore`]'s size and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CidStoreStats {
    /// Number of distinct blobs stored.
    pub blobs: u64,
    /// Total bytes across all stored blobs.
    pub total_bytes: u64,
    /// Puts that found the blob already present (deduplicated writes —
    /// structural sharing).
    pub put_hits: u64,
    /// Puts that stored a new blob.
    pub put_misses: u64,
    /// Gets that found their blob.
    pub get_hits: u64,
    /// Gets for absent CIDs.
    pub get_misses: u64,
    /// Blobs reclaimed by [`CidStore::prune_unreachable`] over the store's
    /// lifetime.
    pub pruned_blobs: u64,
    /// Bytes reclaimed by pruning (blob content, in-memory accounting).
    pub pruned_bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    blobs: HashMap<Cid, Arc<Vec<u8>>>,
    total_bytes: u64,
    put_hits: u64,
    put_misses: u64,
    get_hits: u64,
    get_misses: u64,
    pruned_blobs: u64,
    pruned_bytes: u64,
    /// Durable write-through backing: every put-miss is journaled here.
    blob_log: Option<BlobLog>,
}

impl Inner {
    /// Counts one put of `bytes` under `cid`; stores and returns the blob if
    /// it is new (the caller journals it).
    fn admit(&mut self, cid: Cid, bytes: Vec<u8>) -> Option<Arc<Vec<u8>>> {
        if self.blobs.contains_key(&cid) {
            self.put_hits += 1;
            return None;
        }
        self.put_misses += 1;
        self.total_bytes += bytes.len() as u64;
        let blob = Arc::new(bytes);
        self.blobs.insert(cid, blob.clone());
        Some(blob)
    }
}

/// A thread-safe, append-only, content-addressed blob store.
///
/// Cloning a `CidStore` produces a handle to the *same* underlying store
/// (it is internally an [`Arc`]), which is how multiple components of one
/// node share a cache.
///
/// # Example
///
/// ```
/// use hc_state::CidStore;
///
/// let store = CidStore::new();
/// let cid = store.put(b"hello".to_vec());
/// assert_eq!(store.get(&cid).unwrap().as_slice(), b"hello");
/// assert!(store.contains(&cid));
/// assert_eq!(store.stats().put_misses, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CidStore {
    inner: Arc<RwLock<Inner>>,
}

impl CidStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `bytes` under their digest CID and returns it. Idempotent:
    /// re-putting existing content is counted as a hit and stores nothing.
    pub fn put(&self, bytes: Vec<u8>) -> Cid {
        let cid = Cid::digest(&bytes);
        let mut inner = self.inner.write();
        if let Some(blob) = inner.admit(cid, bytes) {
            if let Some(log) = &mut inner.blob_log {
                // The log keeps its own CID index, so blobs that survived
                // a previous run still dedup on disk.
                log.put(cid, &blob);
            }
        }
        cid
    }

    /// Stores every blob of `group` exactly as [`CidStore::put`] would —
    /// except that each arrives with the CID its producer already derived
    /// from these very bytes (a flushed HAMT/AMT node's cached CID, a chunk
    /// blob digested by [`crate::StateTree::persist`]), so nothing is
    /// digested again — and journals the new ones to the attached blob log
    /// as one group commit (a single sync) instead of one sync per blob.
    /// This is how a snapshot persist writes: its blobs are only referenced
    /// — by the manifest CID the caller gets back — once all of them are
    /// down. Crate-private: the store stays self-verifying only because
    /// every caller's CID is the digest of the bytes beside it.
    pub(crate) fn put_keyed(&self, group: Vec<(Cid, Vec<u8>)>) {
        let mut inner = self.inner.write();
        let fresh: Vec<(Cid, Arc<Vec<u8>>)> = group
            .into_iter()
            .filter_map(|(cid, bytes)| Some((cid, inner.admit(cid, bytes)?)))
            .collect();
        if let Some(log) = &mut inner.blob_log {
            let records: Vec<(Cid, &[u8])> =
                fresh.iter().map(|(c, b)| (*c, b.as_slice())).collect();
            log.put_group(&records);
        }
    }

    /// Attaches a durable blob log: every subsequent put-miss is journaled.
    /// The log's own dedup index carries across restarts, so re-putting
    /// content that survived a crash appends nothing.
    pub fn attach_blob_log(&self, log: BlobLog) {
        self.inner.write().blob_log = Some(log);
    }

    /// Loads the manifest behind `root` and its full blob closure —
    /// fixed chunks plus every account-HAMT node, discovered by traversing
    /// [`blob_links`] — from the attached blob log into memory. Blobs
    /// already memory-resident are left alone and nothing is re-journaled:
    /// the log is the source, not the sink.
    ///
    /// Returns `true` only when the manifest and its entire closure are now
    /// present in memory — the signal recovery uses to decide whether a
    /// surviving snapshot can stand in for re-execution. The root blob must
    /// decode as a manifest.
    pub fn hydrate_manifest(&self, root: &Cid) -> bool {
        let mut inner = self.inner.write();
        let mut frontier = vec![*root];
        let mut seen = HashSet::new();
        let mut saw_manifest = false;
        while let Some(cid) = frontier.pop() {
            if !seen.insert(cid) {
                continue;
            }
            let blob = match inner.blobs.get(&cid).cloned() {
                Some(blob) => blob,
                None => {
                    let Some(bytes) = inner.blob_log.as_ref().and_then(|log| log.get(&cid)) else {
                        return false;
                    };
                    let blob = Arc::new(bytes);
                    inner.total_bytes += blob.len() as u64;
                    inner.blobs.insert(cid, blob.clone());
                    blob
                }
            };
            if cid == *root {
                saw_manifest = crate::chunk::ChunkManifest::decode(&blob).is_some();
            }
            frontier.extend(blob_links(&blob));
        }
        saw_manifest
    }

    /// Forces the blob log (if any) to stable storage.
    pub fn sync(&self) {
        if let Some(log) = &mut self.inner.write().blob_log {
            log.sync();
        }
    }

    /// Fetches the blob behind `cid`, if present.
    pub fn get(&self, cid: &Cid) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.write();
        match inner.blobs.get(cid).cloned() {
            Some(blob) => {
                inner.get_hits += 1;
                Some(blob)
            }
            None => {
                inner.get_misses += 1;
                None
            }
        }
    }

    /// Returns `true` if `cid` is present (does not count as a get).
    pub fn contains(&self, cid: &Cid) -> bool {
        self.inner.read().blobs.contains_key(cid)
    }

    /// Number of blobs stored.
    pub fn len(&self) -> usize {
        self.inner.read().blobs.len()
    }

    /// Returns `true` if the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.inner.read().blobs.is_empty()
    }

    /// Total bytes stored (for cache-size experiments).
    pub fn total_bytes(&self) -> usize {
        self.inner.read().total_bytes as usize
    }

    /// Snapshot of size and hit/miss counters.
    pub fn stats(&self) -> CidStoreStats {
        let inner = self.inner.read();
        CidStoreStats {
            blobs: inner.blobs.len() as u64,
            total_bytes: inner.total_bytes,
            put_hits: inner.put_hits,
            put_misses: inner.put_misses,
            get_hits: inner.get_hits,
            get_misses: inner.get_misses,
            pruned_blobs: inner.pruned_blobs,
            pruned_bytes: inner.pruned_bytes,
        }
    }

    /// Computes the reachable closure of a set of root CIDs by traversing
    /// [`blob_links`]: manifests reach their fixed chunks and account-HAMT
    /// subtree, HAMT/AMT nodes reach their children, leaves reach nothing.
    ///
    /// CIDs whose blobs are absent or unrecognisable are still included
    /// (conservative: an unknown root keeps itself alive) but contribute no
    /// children.
    pub fn manifest_closure(&self, roots: &[Cid]) -> HashSet<Cid> {
        let mut live: HashSet<Cid> = HashSet::new();
        let inner = self.inner.read();
        let mut frontier: Vec<Cid> = roots.to_vec();
        while let Some(cid) = frontier.pop() {
            if !live.insert(cid) {
                continue;
            }
            if let Some(blob) = inner.blobs.get(&cid) {
                frontier.extend(blob_links(blob));
            }
        }
        live
    }

    /// Reference-counted pruning: drops every blob unreachable from
    /// `roots` (snapshot-manifest CIDs — typically the latest N), in memory
    /// and in the attached blob log. Returns `(pruned_blobs, pruned_bytes)`
    /// for this sweep; lifetime totals accumulate in
    /// [`CidStore::stats`].
    pub fn prune_unreachable(&self, roots: &[Cid]) -> (u64, u64) {
        let live = self.manifest_closure(roots);
        let mut inner = self.inner.write();
        let mut pruned_blobs = 0u64;
        let mut pruned_bytes = 0u64;
        inner.blobs.retain(|cid, blob| {
            if live.contains(cid) {
                true
            } else {
                pruned_blobs += 1;
                pruned_bytes += blob.len() as u64;
                false
            }
        });
        inner.total_bytes -= pruned_bytes;
        inner.pruned_blobs += pruned_blobs;
        inner.pruned_bytes += pruned_bytes;
        if let Some(log) = &mut inner.blob_log {
            log.retain(&live);
        }
        (pruned_blobs, pruned_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = CidStore::new();
        let cid = store.put(vec![1, 2, 3]);
        assert_eq!(store.get(&cid).unwrap().as_slice(), &[1, 2, 3]);
        assert!(store.get(&Cid::digest(b"missing")).is_none());
    }

    #[test]
    fn put_is_idempotent() {
        let store = CidStore::new();
        let a = store.put(vec![7; 10]);
        let b = store.put(vec![7; 10]);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 10);
    }

    #[test]
    fn clones_share_contents() {
        let store = CidStore::new();
        let handle = store.clone();
        let cid = store.put(vec![9]);
        assert!(handle.contains(&cid));
    }

    #[test]
    fn cid_matches_content_digest() {
        let store = CidStore::new();
        let cid = store.put(b"abc".to_vec());
        assert_eq!(cid, Cid::digest(b"abc"));
    }

    #[test]
    fn blob_log_write_through_and_disk_dedup_across_restart() {
        use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, WalOptions};

        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        let opts = WalOptions {
            segment_bytes: 1 << 16,
            fsync: FsyncPolicy::Never,
        };
        let cid;
        {
            let store = CidStore::new();
            store.attach_blob_log(BlobLog::open(dev.clone(), "blobs", opts));
            cid = store.put(b"persisted".to_vec());
            store.put(b"persisted".to_vec()); // in-memory dedup hit
            store.sync();
        }
        // A "restarted" store: fresh memory, same device.
        let store = CidStore::new();
        let log = BlobLog::open(dev.clone(), "blobs", opts);
        assert!(log.contains(&cid), "blob survived the restart");
        let before = dev.len("blobs/00000000.seg");
        store.attach_blob_log(log);
        store.put(b"persisted".to_vec());
        assert_eq!(
            dev.len("blobs/00000000.seg"),
            before,
            "disk-side dedup: surviving content re-put appends nothing"
        );
    }

    #[test]
    fn put_keyed_counts_like_put_and_journals_one_group() {
        use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, WalOptions};

        let dev = InMemoryDevice::new();
        let arc: Arc<dyn Persistence> = Arc::new(dev.clone());
        let opts = WalOptions {
            segment_bytes: 1 << 16,
            fsync: FsyncPolicy::Always,
        };
        let keyed = |bytes: &[u8]| (Cid::digest(bytes), bytes.to_vec());
        let store = CidStore::new();
        store.attach_blob_log(BlobLog::open(arc.clone(), "blobs", opts));
        let known = store.put(b"known".to_vec());
        assert_eq!(dev.sync_count(), 1);
        store.put_keyed(vec![keyed(b"first"), keyed(b"known"), keyed(b"second")]);
        assert!(store.contains(&known));
        assert_eq!(
            store.get(&Cid::digest(b"second")).unwrap().as_slice(),
            b"second"
        );
        let s = store.stats();
        assert_eq!((s.put_hits, s.put_misses, s.blobs), (1, 3, 3));
        // Two new blobs, one sync; an all-hit group syncs nothing.
        assert_eq!(dev.sync_count(), 2);
        store.put_keyed(vec![keyed(b"first")]);
        assert_eq!(dev.sync_count(), 2);
        assert_eq!(BlobLog::open(arc, "blobs", opts).len(), 3);
    }

    #[test]
    fn prune_unreachable_keeps_manifest_closures() {
        use crate::chunk::{ChunkKey, ChunkManifest};
        use crate::hamt::Hamt;
        use hc_types::CanonicalEncode;

        let store = CidStore::new();
        let live_chunk = store.put(b"live chunk".to_vec());
        let dead_chunk = store.put(b"dead chunk".to_vec());
        // A real persisted HAMT: pruning must keep its interior nodes.
        let mut hamt: Hamt<u64, u64> = Hamt::new();
        for i in 0..100 {
            hamt.set(i, i);
        }
        let accounts_root = hamt.persist(&store);
        // And a persisted registry AMT: its nodes are live too.
        let mut amt: crate::amt::Amt<u64> = crate::amt::Amt::new();
        for i in 0..20 {
            amt.push(i);
        }
        let registry_root = amt.persist(&store);
        let manifest = ChunkManifest {
            root: Cid::digest(b"root"),
            accounts_root,
            registry_root,
            entries: vec![(ChunkKey::Sa(hc_types::Address::new(1)), live_chunk)],
        };
        let manifest_cid = store.put(manifest.canonical_bytes());

        let (blobs, bytes) = store.prune_unreachable(&[manifest_cid]);
        assert_eq!(blobs, 1);
        assert_eq!(bytes, b"dead chunk".len() as u64);
        assert!(store.contains(&live_chunk));
        assert!(store.contains(&manifest_cid));
        assert!(store.contains(&accounts_root.cid()));
        assert!(store.contains(&registry_root.node.cid()));
        assert!(!store.contains(&dead_chunk));
        let s = store.stats();
        assert_eq!((s.pruned_blobs, s.pruned_bytes), (1, bytes));
        assert_eq!(s.total_bytes, store.total_bytes() as u64);

        // A second sweep with the same roots is a no-op.
        assert_eq!(store.prune_unreachable(&[manifest_cid]), (0, 0));
    }

    #[test]
    fn stats_track_hits_misses_and_sizes() {
        let store = CidStore::new();
        store.put(vec![1; 4]);
        store.put(vec![1; 4]); // dedup hit
        store.put(vec![2; 6]);
        let hit = store.put(vec![2; 6]); // dedup hit
        store.get(&hit);
        store.get(&Cid::digest(b"nope"));
        let s = store.stats();
        assert_eq!(s.blobs, 2);
        assert_eq!(s.total_bytes, 10);
        assert_eq!(s.put_hits, 2);
        assert_eq!(s.put_misses, 2);
        assert_eq!(s.get_hits, 1);
        assert_eq!(s.get_misses, 1);
        // Clones see the same counters.
        assert_eq!(store.clone().stats(), s);
    }
}
