//! Segmented append-only write-ahead log.
//!
//! A [`Wal`] stores opaque records as checksummed frames (see
//! [`crate::frame`]) across numbered segment streams
//! (`<name>/00000000.seg`, `<name>/00000001.seg`, …). Segmentation bounds
//! the cost of truncating a torn tail and lets compaction rewrite a log
//! without unbounded buffering.
//!
//! Opening a WAL recovers it: segments are scanned in order, every intact
//! record is returned, and the first violation (checksum mismatch, torn
//! frame, or a gap) marks the end of the valid prefix — the torn tail and
//! all later segments are truncated so the writer resumes from a clean
//! state. This is what makes the recovery contract of the whole subsystem
//! hold: after any crash, a reopened log contains exactly a prefix of the
//! records whose append completed.

use std::sync::Arc;

use crate::device::{FsyncPolicy, Persistence};
use crate::frame::{encode_frame, scan_frames};

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Target maximum bytes per segment; a record that would overflow the
    /// current segment starts a new one (a single record larger than the
    /// limit gets a segment of its own).
    pub segment_bytes: u64,
    /// Sync policy applied after appends.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Per-record location, used to truncate precisely at record boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordEnd {
    segment: u32,
    end_offset: u64,
}

/// A segmented, checksummed append-only log of opaque byte records.
///
/// Cloning shares the underlying device; at most one clone may append
/// (multiple writers would interleave frames nondeterministically).
#[derive(Clone)]
pub struct Wal {
    device: Arc<dyn Persistence>,
    name: String,
    opts: WalOptions,
    /// Index of the segment currently appended to.
    segment: u32,
    /// Byte length of the current segment.
    segment_len: u64,
    /// End position of every record, in order.
    record_ends: Vec<RecordEnd>,
    appends_since_sync: u32,
    /// Records written by [`Wal::append_deferred`] since the last
    /// [`Wal::sync_deferred`].
    deferred: u32,
    /// Segments an append rolled out of while they held frames no sync
    /// had covered yet; the next sync covers them too.
    deferred_left: Vec<String>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("name", &self.name)
            .field("records", &self.record_ends.len())
            .field("segment", &self.segment)
            .finish()
    }
}

impl Wal {
    /// Opens (recovering if necessary) the log named `name` on `device`,
    /// returning the log handle and every intact record in append order.
    ///
    /// Any torn tail is truncated away as part of opening; see the module
    /// docs for the recovery contract.
    pub fn open(
        device: Arc<dyn Persistence>,
        name: &str,
        opts: WalOptions,
    ) -> (Self, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let mut record_ends = Vec::new();
        let mut segment = 0u32;
        let mut segment_len = 0u64;
        loop {
            let stream = segment_stream(name, segment);
            let bytes = device.read(&stream);
            if bytes.is_empty() && device.len(&stream) == 0 {
                // First never-written segment: end of the log. Resume in the
                // previous segment if one exists.
                if segment > 0 {
                    segment -= 1;
                    segment_len = device.len(&segment_stream(name, segment));
                }
                break;
            }
            let scan = scan_frames(&bytes);
            for payload in &scan.payloads {
                record_ends.push(RecordEnd {
                    segment,
                    end_offset: 0, // patched below, once offsets are known
                });
                records.push(payload.clone());
            }
            // Recompute exact end offsets for this segment's records.
            let mut off = 0u64;
            let n = scan.payloads.len();
            for (i, payload) in scan.payloads.iter().enumerate() {
                off += (crate::frame::FRAME_HEADER_LEN + payload.len()) as u64;
                let idx = record_ends.len() - n + i;
                record_ends[idx].end_offset = off;
            }
            if scan.torn {
                segment_len = scan.valid_len;
                break;
            }
            segment_len = scan.valid_len;
            segment += 1;
        }
        let mut wal = Wal {
            device,
            name: name.to_owned(),
            opts,
            segment,
            segment_len,
            record_ends,
            appends_since_sync: 0,
            deferred: 0,
            deferred_left: Vec::new(),
        };
        // Whether the scan stopped at a torn frame or at a gap, everything
        // past the resume point is untrusted: clear it so appends never
        // land after stale bytes.
        wal.truncate_from(wal.segment, wal.segment_len);
        (wal, records)
    }

    /// Writes one record's frame, starting a new segment first if the
    /// current one would overflow. No sync: returns the stream of the
    /// segment it left behind when it rolled over, so a caller deferring
    /// syncs can still cover every segment it wrote to.
    fn write_frame(&mut self, payload: &[u8]) -> Option<String> {
        let frame = encode_frame(payload);
        let mut left = None;
        if self.segment_len > 0 && self.segment_len + frame.len() as u64 > self.opts.segment_bytes {
            left = Some(segment_stream(&self.name, self.segment));
            self.segment += 1;
            self.segment_len = 0;
        }
        let stream = segment_stream(&self.name, self.segment);
        self.device.append(&stream, &frame);
        self.segment_len += frame.len() as u64;
        self.record_ends.push(RecordEnd {
            segment: self.segment,
            end_offset: self.segment_len,
        });
        left
    }

    /// Appends one record and applies the sync policy: a deferred append
    /// followed at once by its barrier.
    pub fn append(&mut self, payload: &[u8]) {
        self.append_deferred(payload);
        self.sync_deferred();
    }

    /// Appends `payloads` as one group commit: each stays its own record
    /// (so a crash still leaves a record-aligned prefix), but unless the
    /// policy is [`FsyncPolicy::Never`] they are made durable together —
    /// one sync per segment written to, after the last record in it —
    /// instead of one per record. For callers whose records only matter
    /// once all of them are down, like the blobs of one persisted snapshot.
    pub fn append_group(&mut self, payloads: &[Vec<u8>]) {
        if payloads.is_empty() {
            return;
        }
        let durable = !matches!(self.opts.fsync, FsyncPolicy::Never);
        for payload in payloads {
            if let Some(left) = self.write_frame(payload) {
                if durable {
                    self.device.sync(&left);
                }
            }
        }
        if durable {
            self.sync();
        }
    }

    /// Appends one record and leaves its sync pending: the frame is written
    /// to the device at once — a process crash loses nothing, and the
    /// record can never become durable *before* anything synced earlier —
    /// but the [`FsyncPolicy`] is applied only at the next
    /// [`Wal::sync_deferred`]. For a writer whose records need not each be
    /// durable on return and may share one sync, like the runtime's
    /// control log, whose barrier runs once per step.
    pub fn append_deferred(&mut self, payload: &[u8]) {
        // A segment rolled out of needs a sync of its own only if it holds
        // frames no sync has covered: deferred ones, or ones an `EveryN`
        // cadence has counted but not yet synced. Under `Always` the
        // previous append's sync covered it.
        let unsynced = self.deferred > 0 || self.appends_since_sync > 0;
        let left = self.write_frame(payload);
        if unsynced {
            self.deferred_left.extend(left);
        }
        self.deferred += 1;
    }

    /// The durability barrier for [`Wal::append_deferred`]: applies the
    /// sync policy to the records pending since the last barrier as if
    /// they had just been appended together — `Always` syncs every segment
    /// they were written to, `EveryN` counts them towards its cadence,
    /// `Never` does nothing. A no-op when nothing is pending.
    pub fn sync_deferred(&mut self) {
        let pending = std::mem::take(&mut self.deferred);
        if pending == 0 {
            return;
        }
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += pending;
                if self.appends_since_sync >= n.max(1) {
                    self.sync();
                }
            }
            FsyncPolicy::Never => self.deferred_left.clear(),
        }
    }

    /// Forces the current segment — and any segment a deferred append
    /// rolled out of since the last sync — to stable storage.
    pub fn sync(&mut self) {
        for left in self.deferred_left.drain(..) {
            self.device.sync(&left);
        }
        self.device.sync(&segment_stream(&self.name, self.segment));
        self.appends_since_sync = 0;
    }

    /// Number of records currently in the log.
    pub fn record_count(&self) -> usize {
        self.record_ends.len()
    }

    /// The log's base name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device this log writes to.
    pub fn device(&self) -> &Arc<dyn Persistence> {
        &self.device
    }

    /// Re-reads every record currently in the log (a fresh scan of the
    /// device). Used by compaction; O(log size).
    pub fn read_all(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for seg in 0..=self.segment {
            let scan = scan_frames(&self.device.read(&segment_stream(&self.name, seg)));
            out.extend(scan.payloads);
        }
        out.truncate(self.record_ends.len());
        out
    }

    /// Discards every record after the first `keep`, truncating the
    /// underlying streams at exact record boundaries.
    pub fn truncate_after(&mut self, keep: usize) {
        if keep >= self.record_ends.len() {
            return;
        }
        let (segment, offset) = if keep == 0 {
            (0, 0)
        } else {
            let last = self.record_ends[keep - 1];
            (last.segment, last.end_offset)
        };
        self.record_ends.truncate(keep);
        self.truncate_from(segment, offset);
    }

    /// Replaces the whole log contents with `records` (compaction).
    pub fn reset_with(&mut self, records: &[Vec<u8>]) {
        self.record_ends.clear();
        self.truncate_from(0, 0);
        self.append_group(records);
    }

    /// Truncates segment `segment` to `offset` bytes and empties every
    /// later segment (even past gaps), repositioning the writer.
    fn truncate_from(&mut self, segment: u32, offset: u64) {
        self.device
            .truncate(&segment_stream(&self.name, segment), offset);
        let prefix = format!("{}/", self.name);
        for stream in self.device.streams() {
            let Some(rest) = stream.strip_prefix(&prefix) else {
                continue;
            };
            let Some(idx) = rest
                .strip_suffix(".seg")
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            if idx > segment {
                self.device.truncate(&stream, 0);
            }
        }
        self.segment = segment;
        self.segment_len = offset;
    }
}

fn segment_stream(name: &str, segment: u32) -> String {
    format!("{name}/{segment:08}.seg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::RecordingDevice;
    use crate::device::InMemoryDevice;

    fn small_opts() -> WalOptions {
        WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        }
    }

    fn device() -> Arc<dyn Persistence> {
        Arc::new(InMemoryDevice::new())
    }

    #[test]
    fn append_reopen_round_trip_across_segments() {
        let dev = device();
        let records: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; (i as usize * 7) % 40]).collect();
        {
            let (mut wal, existing) = Wal::open(dev.clone(), "log", small_opts());
            assert!(existing.is_empty());
            for r in &records {
                wal.append(r);
            }
            assert!(wal.segment > 0, "tiny segments must have rolled");
        }
        let (wal, recovered) = Wal::open(dev, "log", small_opts());
        assert_eq!(recovered, records);
        assert_eq!(wal.record_count(), records.len());
    }

    #[test]
    fn reopen_after_torn_tail_truncates_and_resumes() {
        let dev = device();
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        for i in 0u8..6 {
            wal.append(&[i; 10]);
        }
        // Tear the last segment by lopping off 3 bytes.
        let seg = segment_stream("log", wal.segment);
        let torn_len = dev.len(&seg) - 3;
        dev.truncate(&seg, torn_len);
        let (mut wal, recovered) = Wal::open(dev.clone(), "log", small_opts());
        assert_eq!(recovered.len(), 5);
        assert_eq!(recovered, (0u8..5).map(|i| vec![i; 10]).collect::<Vec<_>>());
        // The log accepts appends again and they survive another reopen.
        wal.append(b"after-crash");
        let (_, recovered) = Wal::open(dev, "log", small_opts());
        assert_eq!(recovered.len(), 6);
        assert_eq!(recovered[5], b"after-crash");
    }

    #[test]
    fn truncate_after_cuts_at_record_boundaries() {
        let dev = device();
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        let records: Vec<Vec<u8>> = (0u8..9).map(|i| vec![i; 12]).collect();
        for r in &records {
            wal.append(r);
        }
        wal.truncate_after(4);
        assert_eq!(wal.record_count(), 4);
        let (_, recovered) = Wal::open(dev.clone(), "log", small_opts());
        assert_eq!(recovered, records[..4].to_vec());
        // Appending after a truncate continues cleanly.
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        wal.append(b"resumed");
        let (_, recovered) = Wal::open(dev, "log", small_opts());
        assert_eq!(recovered.len(), 5);
    }

    #[test]
    fn reset_with_rewrites_contents() {
        let dev = device();
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        for i in 0u8..8 {
            wal.append(&[i; 20]);
        }
        let kept: Vec<Vec<u8>> = vec![vec![1; 20], vec![5; 20]];
        wal.reset_with(&kept);
        assert_eq!(wal.record_count(), 2);
        assert_eq!(wal.read_all(), kept);
        let (_, recovered) = Wal::open(dev, "log", small_opts());
        assert_eq!(recovered, kept);
    }

    #[test]
    fn fsync_policies_sync_at_the_expected_cadence() {
        let dev = InMemoryDevice::new();
        let arc: Arc<dyn Persistence> = Arc::new(dev.clone());
        let (mut wal, _) = Wal::open(
            arc.clone(),
            "always",
            WalOptions {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::Always,
            },
        );
        wal.append(b"a");
        wal.append(b"b");
        assert_eq!(dev.sync_count(), 2);
        let (mut wal, _) = Wal::open(
            arc,
            "every3",
            WalOptions {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(3),
            },
        );
        for _ in 0..7 {
            wal.append(b"x");
        }
        assert_eq!(dev.sync_count(), 4); // 2 from above + syncs at records 3 and 6
    }

    #[test]
    fn a_cadence_sync_covers_the_segment_a_rollover_left_behind() {
        let dev = Arc::new(RecordingDevice::default());
        let paced = WalOptions {
            fsync: FsyncPolicy::EveryN(4),
            ..small_opts()
        };
        let (mut wal, _) = Wal::open(dev.clone(), "paced", paced);
        // Two 8-byte records (24-byte frames) fill a 64-byte segment: the
        // third rolls over in mid-cadence, the fourth fires the sync.
        for i in 0u8..3 {
            wal.append(&[i; 8]);
        }
        assert_eq!(wal.segment, 1, "the third record must have rolled over");
        assert_eq!(dev.sync_count(), 0);
        wal.append(&[3; 8]);
        assert_eq!(
            dev.unsynced(),
            Vec::<String>::new(),
            "records before durable ones were left unsynced: a hole, not a prefix"
        );
        assert_eq!(dev.sync_count(), 2, "one sync per segment written to");
        // Rolling out of a segment the last sync covered costs nothing, so
        // `Always` stays at one device sync per append across rollovers.
        wal.append(&[4; 8]);
        assert_eq!((wal.segment, dev.sync_count()), (2, 2));
        let always = WalOptions {
            fsync: FsyncPolicy::Always,
            ..small_opts()
        };
        let (mut wal, _) = Wal::open(dev.clone(), "always", always);
        let before = dev.sync_count();
        for i in 0u8..6 {
            wal.append(&[i; 8]);
        }
        assert!(wal.segment >= 2, "the records must span segments");
        assert_eq!(dev.sync_count(), before + 6);
        assert_eq!(dev.unsynced(), vec![segment_stream("paced", 2)]);
        // Deferred records that straddle rollovers — one wave's blocks in
        // the runtime's journal — are synced whole by their one barrier.
        let (mut wal, _) = Wal::open(dev.clone(), "wave", always);
        for i in 0u8..5 {
            wal.append_deferred(&[i; 8]);
        }
        assert_eq!(wal.segment, 2, "the records must span segments");
        assert_eq!(dev.unsynced().len(), 4, "nothing is synced before it");
        wal.sync_deferred();
        assert_eq!(dev.unsynced(), vec![segment_stream("paced", 2)]);
    }

    #[test]
    fn deferred_appends_are_written_at_once_and_share_one_barrier() {
        let dev = InMemoryDevice::new();
        let arc: Arc<dyn Persistence> = Arc::new(dev.clone());
        let always = WalOptions {
            fsync: FsyncPolicy::Always,
            ..small_opts()
        };
        let (mut wal, _) = Wal::open(arc.clone(), "log", always);
        let records: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 20]).collect();
        for r in &records {
            wal.append_deferred(r);
        }
        assert_eq!(dev.sync_count(), 0, "no sync before the barrier");
        // A process crash here loses nothing: every frame is on the device.
        let (_, recovered) = Wal::open(Arc::new(dev.fork()), "log", always);
        assert_eq!(recovered, records);
        // The barrier covers every segment the records were written to.
        let segments = dev.streams().len() as u64;
        assert!(segments > 1, "the records must span segments");
        wal.sync_deferred();
        assert_eq!(dev.sync_count(), segments);
        wal.sync_deferred();
        assert_eq!(
            dev.sync_count(),
            segments,
            "nothing pending, nothing synced"
        );
        // `append` is unchanged, and `EveryN` counts deferred records at
        // the barrier; `Never` stays never.
        wal.append(b"x");
        assert_eq!(dev.sync_count(), segments + 1);
        let every3 = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(3),
        };
        let (mut paced, _) = Wal::open(arc.clone(), "paced", every3);
        let before = dev.sync_count();
        paced.append_deferred(b"a");
        paced.append_deferred(b"b");
        paced.sync_deferred();
        assert_eq!(dev.sync_count(), before);
        paced.append_deferred(b"c");
        paced.sync_deferred();
        assert_eq!(dev.sync_count(), before + 1);
        let (mut quiet, _) = Wal::open(arc, "quiet", small_opts());
        quiet.append_deferred(b"a");
        quiet.sync_deferred();
        assert_eq!(dev.sync_count(), before + 1);
    }

    #[test]
    fn group_commit_syncs_once_per_segment_written() {
        let dev = InMemoryDevice::new();
        let arc: Arc<dyn Persistence> = Arc::new(dev.clone());
        let always = WalOptions {
            fsync: FsyncPolicy::Always,
            ..small_opts()
        };
        let (mut wal, _) = Wal::open(arc.clone(), "log", always);
        // Five 20-byte records overflow a small segment at least once.
        let group: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 20]).collect();
        wal.append_group(&group);
        let segments = dev.streams().len() as u64;
        assert!(segments > 1, "the group must span segments");
        assert_eq!(dev.sync_count(), segments, "one sync per segment");
        wal.append_group(&[]);
        assert_eq!(dev.sync_count(), segments, "an empty group does nothing");
        // Records stay individually framed: reopening returns each one.
        let (_, recovered) = Wal::open(arc.clone(), "log", always);
        assert_eq!(recovered, group);
        // `Never` stays never.
        let (mut quiet, _) = Wal::open(arc, "quiet", small_opts());
        quiet.append_group(&group);
        assert_eq!(dev.sync_count(), segments);
    }
}
