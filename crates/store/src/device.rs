//! Storage devices: named append-only byte streams.
//!
//! A [`Persistence`] device is the narrow waist between the logs above it
//! ([`crate::Wal`], [`crate::BlobLog`]) and the bytes below: a set of named
//! streams supporting append, whole and ranged reads, truncation, and sync.
//! Corruption handling lives entirely in the framing layer — a device
//! returns whatever bytes it has, and the frame scanner decides how much of
//! them to trust.
//!
//! I/O errors on the [`OnDiskDevice`] are treated as fatal (panic): the
//! simulation models *crashes* (torn writes, lost tails), not a gradually
//! failing disk.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// When a log forces its bytes to stable storage.
///
/// On the [`InMemoryDevice`] a sync is a counted no-op; the policy still
/// matters for crash-injection tests, which use the sync boundary as the
/// "guaranteed durable" cut line.
///
/// A group commit ([`crate::Wal::append_group`]) and the records of one
/// deferred barrier ([`crate::Wal::sync_deferred`]) are one durability unit
/// each: `Always` syncs once when the whole unit is written; `Never` leaves
/// it unsynced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append (maximum durability, slowest).
    #[default]
    Always,
    /// Never sync explicitly; the OS (or the drop of the process) decides.
    Never,
}

/// A set of named append-only byte streams.
///
/// Stream names are hierarchical (`control/00000000.seg`); the
/// on-disk backend maps each `/`-separated segment to a directory level.
/// Reading a stream that was never written yields empty bytes, and
/// truncating beyond the end is a no-op — both fall out naturally from the
/// "longest valid prefix" recovery discipline.
pub trait Persistence: Send + Sync {
    /// Returns the full contents of `stream` (empty if never written).
    fn read(&self, stream: &str) -> Vec<u8>;

    /// Returns the `len` bytes of `stream` from `offset` on — fewer where
    /// the stream ends first, none past its end. A log reads one record
    /// back through it ([`crate::WalReader`]).
    fn read_range(&self, stream: &str, offset: u64, len: u64) -> Vec<u8> {
        range(&self.read(stream), offset, len).to_vec()
    }

    /// Appends `bytes` to the end of `stream`, creating it if needed.
    fn append(&self, stream: &str, bytes: &[u8]);

    /// Truncates `stream` to at most `len` bytes.
    fn truncate(&self, stream: &str, len: u64);

    /// Current length of `stream` in bytes (0 if never written).
    fn len(&self, stream: &str) -> u64;

    /// Forces buffered bytes of `stream` to stable storage.
    fn sync(&self, stream: &str);

    /// All existing stream names, sorted.
    fn streams(&self) -> Vec<String>;

    /// Number of syncs issued so far (for tests and benches).
    fn sync_count(&self) -> u64;
}

/// The `len` bytes of `bytes` from `offset` on, cut at its end.
fn range(bytes: &[u8], offset: u64, len: u64) -> &[u8] {
    let start = usize::try_from(offset).map_or(bytes.len(), |o| o.min(bytes.len()));
    let end = usize::try_from(len).map_or(bytes.len(), |l| start.saturating_add(l));
    &bytes[start..end.min(bytes.len())]
}

/// In-memory device: streams are byte vectors behind a shared lock.
///
/// Clones share the same underlying storage — this is what lets a test keep
/// a handle to the "disk" while the runtime that writes to it is dropped
/// (the crash), then hand the same bytes to a recovering runtime. Use
/// [`InMemoryDevice::fork`] for an independent copy (e.g. to crash the same
/// history at several different offsets).
#[derive(Clone, Default)]
pub struct InMemoryDevice {
    streams: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    syncs: Arc<AtomicU64>,
}

impl InMemoryDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep-copies the device: the fork shares nothing with `self`.
    pub fn fork(&self) -> Self {
        InMemoryDevice {
            streams: Arc::new(Mutex::new(self.streams.lock().clone())),
            syncs: Arc::new(AtomicU64::new(self.syncs.load(Ordering::Relaxed))),
        }
    }

    /// Total bytes across all streams.
    pub fn total_bytes(&self) -> u64 {
        self.streams.lock().values().map(|v| v.len() as u64).sum()
    }
}

impl std::fmt::Debug for InMemoryDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.streams.lock();
        f.debug_struct("InMemoryDevice")
            .field("streams", &guard.len())
            .field("bytes", &guard.values().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl Persistence for InMemoryDevice {
    fn read(&self, stream: &str) -> Vec<u8> {
        self.streams.lock().get(stream).cloned().unwrap_or_default()
    }

    fn read_range(&self, stream: &str, offset: u64, len: u64) -> Vec<u8> {
        let streams = self.streams.lock();
        range(streams.get(stream).map_or(&[], Vec::as_slice), offset, len).to_vec()
    }

    fn append(&self, stream: &str, bytes: &[u8]) {
        self.streams
            .lock()
            .entry(stream.to_owned())
            .or_default()
            .extend_from_slice(bytes);
    }

    fn truncate(&self, stream: &str, len: u64) {
        if let Some(v) = self.streams.lock().get_mut(stream) {
            v.truncate(len as usize);
        }
    }

    fn len(&self, stream: &str) -> u64 {
        self.streams
            .lock()
            .get(stream)
            .map_or(0, |v| v.len() as u64)
    }

    fn sync(&self, _stream: &str) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    fn streams(&self) -> Vec<String> {
        self.streams.lock().keys().cloned().collect()
    }

    fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

/// On-disk device: one file per stream under a root directory.
///
/// Stream name segments are sanitised to a conservative character set so a
/// hostile stream name can never escape the root. Tests must root this in
/// `std::env::temp_dir()` (tmpdir hygiene is asserted by the test suite).
#[derive(Debug, Clone)]
pub struct OnDiskDevice {
    root: PathBuf,
    syncs: Arc<AtomicU64>,
}

fn sanitize_segment(seg: &str) -> String {
    let cleaned: String = seg
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Never allow a path component that walks upward or vanishes.
    if cleaned.is_empty() || cleaned.chars().all(|c| c == '.') {
        "_".to_owned()
    } else {
        cleaned
    }
}

impl OnDiskDevice {
    /// Opens (creating if needed) a device rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the root directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        fs::create_dir_all(&root).expect("create device root");
        OnDiskDevice {
            root,
            syncs: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The root directory backing this device.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, stream: &str) -> PathBuf {
        let mut path = self.root.clone();
        for seg in stream.split('/').filter(|s| !s.is_empty()) {
            path.push(sanitize_segment(seg));
        }
        path
    }

    fn collect_streams(&self, dir: &Path, prefix: &str, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<_> = entries.filter_map(Result::ok).collect();
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for entry in entries {
            let name = entry.file_name().to_string_lossy().into_owned();
            let joined = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}/{name}")
            };
            let path = entry.path();
            if path.is_dir() {
                self.collect_streams(&path, &joined, out);
            } else {
                out.push(joined);
            }
        }
    }
}

impl Persistence for OnDiskDevice {
    fn read(&self, stream: &str) -> Vec<u8> {
        fs::read(self.path_for(stream)).unwrap_or_default()
    }

    fn read_range(&self, stream: &str, offset: u64, len: u64) -> Vec<u8> {
        let Ok(mut file) = fs::File::open(self.path_for(stream)) else {
            return Vec::new();
        };
        let size = file.metadata().map_or(0, |m| m.len());
        let len = len.min(size.saturating_sub(offset));
        let mut out = vec![0; usize::try_from(len).expect("a range fits in memory")];
        if len > 0 {
            file.seek(SeekFrom::Start(offset)).expect("seek in stream");
            file.read_exact(&mut out).expect("read a range of a stream");
        }
        out
    }

    fn append(&self, stream: &str, bytes: &[u8]) {
        let path = self.path_for(stream);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create stream directory");
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open stream for append");
        file.write_all(bytes).expect("append to stream");
    }

    fn truncate(&self, stream: &str, len: u64) {
        let path = self.path_for(stream);
        let Ok(file) = fs::OpenOptions::new().write(true).open(&path) else {
            return;
        };
        let current = file.metadata().map(|m| m.len()).unwrap_or(0);
        if len < current {
            file.set_len(len).expect("truncate stream");
        }
    }

    fn len(&self, stream: &str) -> u64 {
        fs::metadata(self.path_for(stream)).map_or(0, |m| m.len())
    }

    fn sync(&self, stream: &str) {
        // A data sync on any descriptor flushes the file's pages.
        if let Ok(file) = fs::File::open(self.path_for(stream)) {
            file.sync_data().expect("fsync stream");
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    fn streams(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_streams(&self.root.clone(), "", &mut out);
        out.sort();
        out
    }

    fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hc-store-device-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn exercise(device: &dyn Persistence) {
        assert_eq!(device.read("a/b"), Vec::<u8>::new());
        device.append("a/b", b"hello ");
        device.append("a/b", b"world");
        assert_eq!(device.read("a/b"), b"hello world");
        assert_eq!(device.len("a/b"), 11);
        device.truncate("a/b", 5);
        assert_eq!(device.read("a/b"), b"hello");
        device.truncate("a/b", 500); // beyond end: no-op
        assert_eq!(device.len("a/b"), 5);
        assert_eq!(device.read_range("a/b", 1, 3), b"ell");
        assert_eq!(device.read_range("a/b", 3, 10), b"lo", "cut at the end");
        assert_eq!(device.read_range("a/b", 9, 2), b"", "nothing past the end");
        assert_eq!(device.read_range("never", 0, 4), b"");
        device.append("c", b"x");
        assert_eq!(device.streams(), vec!["a/b".to_owned(), "c".to_owned()]);
        device.sync("a/b");
        assert!(device.sync_count() >= 1);
    }

    #[test]
    fn in_memory_device_round_trip() {
        exercise(&InMemoryDevice::new());
        // The trait's own ranged read, over `read`.
        exercise(&crate::crash::RecordingDevice::default());
    }

    #[test]
    fn on_disk_device_round_trip() {
        let root = tmp_root("roundtrip");
        exercise(&OnDiskDevice::new(&root));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn in_memory_clones_share_and_forks_do_not() {
        let a = InMemoryDevice::new();
        let b = a.clone();
        a.append("s", b"shared");
        assert_eq!(b.read("s"), b"shared");
        let f = a.fork();
        a.append("s", b"-more");
        assert_eq!(f.read("s"), b"shared");
        assert_eq!(a.read("s"), b"shared-more");
    }

    #[test]
    fn on_disk_reopen_sees_previous_bytes() {
        let root = tmp_root("reopen");
        {
            let d = OnDiskDevice::new(&root);
            d.append("logs/root/blocks", b"abc");
        }
        let d = OnDiskDevice::new(&root);
        assert_eq!(d.read("logs/root/blocks"), b"abc");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_stream_names_stay_under_the_root() {
        let root = tmp_root("hostile");
        let d = OnDiskDevice::new(&root);
        d.append("../../etc/passwd", b"nope");
        d.append("a/../escape", b"nope");
        for s in d.streams() {
            assert!(!s.contains(".."), "sanitised stream {s:?}");
        }
        assert!(!root.parent().unwrap().join("escape").exists());
        let _ = fs::remove_dir_all(&root);
    }
}
