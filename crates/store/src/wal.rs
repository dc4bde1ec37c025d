//! Segmented append-only write-ahead log.
//!
//! A [`Wal`] stores opaque records as checksummed frames (see
//! [`crate::frame`]) across numbered segment streams
//! (`<name>/00000000.seg`, `<name>/00000001.seg`, …). Segmentation bounds
//! the cost of truncating a torn tail and lets compaction rewrite a log
//! without unbounded buffering.
//!
//! Opening a WAL recovers it: segments are scanned in order, and the first
//! violation (checksum mismatch, torn frame, or a gap) marks the end of the
//! valid prefix — the torn tail and all later segments are truncated so the
//! writer resumes from a clean state. This is what makes the recovery
//! contract of the whole subsystem hold: after any crash, a reopened log
//! contains exactly a prefix of the records whose append completed.
//! [`Wal::open`] returns those records at once; [`RecoveringWal::open`]
//! keeps only their positions and streams them, one segment in memory at a
//! time, for a caller that replays a log longer than it wants to hold.
//!
//! Every record has a [`RecordPos`]: an append returns it, a scan yields it,
//! and a [`WalReader`] reads that one record back, its checksum checked.

use std::sync::Arc;

use crate::device::{FsyncPolicy, Persistence};
use crate::frame::{encode_frame, next_frame, FRAME_HEADER_LEN};

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

/// Where a record lies in its log: the segment it was written to and the
/// byte range of its frame there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPos {
    /// Index of the segment holding the record.
    pub segment: u32,
    /// Byte offset of the record's frame in its segment.
    pub offset: u64,
    /// Length of the frame, header included.
    pub len: u64,
}

impl RecordPos {
    /// Byte offset just past the record's frame.
    fn end(&self) -> u64 {
        self.offset + self.len
    }
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
    /// Position of every record, in order.
    records: Vec<RecordPos>,
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
            .field("records", &self.records.len())
            .field("segment", &self.segment)
            .finish()
    }
}

/// A log opened for recovery: checked and cut back to its valid prefix as
/// [`Wal::open`] does, holding only its records' positions. Its records
/// are streamed ([`RecoveringWal::records`]) as often as the replay needs;
/// nothing can be appended until [`RecoveringWal::into_wal`] hands over the
/// writer, so a replay cannot journal what it replays.
#[derive(Debug)]
pub struct RecoveringWal {
    wal: Wal,
}

impl RecoveringWal {
    /// Opens (recovering if necessary) the log named `name` on `device`.
    /// Each segment is read and checked in turn; only record positions are
    /// kept. Any torn tail is truncated away; see the module docs.
    pub fn open(device: Arc<dyn Persistence>, name: &str, opts: WalOptions) -> Self {
        let mut records = Vec::new();
        let mut segment = 0u32;
        let mut segment_len;
        loop {
            let bytes = device.read(&segment_stream(name, segment));
            if bytes.is_empty() {
                // First never-written segment: end of the log. Resume in the
                // previous segment if one exists.
                segment_len = 0;
                if segment > 0 {
                    segment -= 1;
                    segment_len = device.len(&segment_stream(name, segment));
                }
                break;
            }
            let mut offset = 0;
            while let Some(payload) = next_frame(&bytes[offset..]) {
                let len = FRAME_HEADER_LEN + payload.len();
                records.push(RecordPos {
                    segment,
                    offset: offset as u64,
                    len: len as u64,
                });
                offset += len;
            }
            segment_len = offset as u64;
            if offset < bytes.len() {
                break;
            }
            segment += 1;
        }
        let mut wal = Wal {
            device,
            name: name.to_owned(),
            opts,
            segment,
            segment_len,
            records,
            deferred: 0,
            deferred_left: Vec::new(),
        };
        // Whether the scan stopped at a torn frame or at a gap, everything
        // past the resume point is untrusted: clear it so appends never
        // land after stale bytes.
        wal.truncate_from(wal.segment, wal.segment_len);
        RecoveringWal { wal }
    }

    /// Every record in append order with its position, read one segment
    /// at a time: at most one segment and one record are held.
    pub fn records(&self) -> Records<'_> {
        self.wal.records()
    }

    /// A reader for single records of this log.
    pub fn reader(&self) -> WalReader {
        self.wal.reader()
    }

    /// Ends recovery: the log, ready to append after its last record.
    pub fn into_wal(self) -> Wal {
        self.wal
    }
}

/// The records of a log with their positions, streamed one segment at a
/// time ([`RecoveringWal::records`]).
pub struct Records<'a> {
    wal: &'a Wal,
    next: usize,
    /// The segment the last record came from, and its bytes.
    segment: Option<(u32, Vec<u8>)>,
}

impl Iterator for Records<'_> {
    type Item = (RecordPos, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        let at = *self.wal.records.get(self.next)?;
        self.next += 1;
        if self.segment.as_ref().map(|(s, _)| *s) != Some(at.segment) {
            // The one segment held goes before the next is read.
            self.segment = None;
            let bytes = self.wal.device.read(&self.wal.segment_stream(at.segment));
            self.segment = Some((at.segment, bytes));
        }
        let (_, bytes) = self.segment.as_ref()?;
        let payload = bytes.get(at.offset as usize + FRAME_HEADER_LEN..at.end() as usize)?;
        Some((at, payload.to_vec()))
    }
}

/// Reads single records of a log back by position; a clone reads the same
/// log. A record whose frame no longer checks out — overwritten, torn or
/// corrupted since it was written — is refused, never returned.
#[derive(Clone)]
pub struct WalReader {
    device: Arc<dyn Persistence>,
    name: String,
}

impl std::fmt::Debug for WalReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalReader")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl WalReader {
    /// The payload of the record at `at`: one ranged read of its frame,
    /// whose magic, length and checksum must hold. `None` otherwise.
    pub fn read(&self, at: RecordPos) -> Option<Vec<u8>> {
        let stream = segment_stream(&self.name, at.segment);
        let mut frame = self.device.read_range(&stream, at.offset, at.len);
        let payload_len = next_frame(&frame)?.len();
        if FRAME_HEADER_LEN + payload_len != frame.len() {
            return None;
        }
        frame.drain(..FRAME_HEADER_LEN);
        Some(frame)
    }
}

impl Wal {
    /// Opens (recovering if necessary) the log named `name` on `device`,
    /// returning the log handle and every intact record in append order.
    ///
    /// Any torn tail is truncated away as part of opening; see the module
    /// docs. [`RecoveringWal::open`] opens without collecting.
    pub fn open(
        device: Arc<dyn Persistence>,
        name: &str,
        opts: WalOptions,
    ) -> (Self, Vec<Vec<u8>>) {
        let log = RecoveringWal::open(device, name, opts);
        let records = log.records().map(|(_, payload)| payload).collect();
        (log.into_wal(), records)
    }

    /// Writes one record's frame, starting a new segment first if the
    /// current one would overflow. No sync: returns the record's position
    /// and the stream of the segment it left behind when it rolled over, so
    /// a caller deferring syncs can still cover every segment it wrote to.
    fn write_frame(&mut self, payload: &[u8]) -> (RecordPos, Option<String>) {
        let frame = encode_frame(payload);
        let mut left = None;
        if self.segment_len > 0 && self.segment_len + frame.len() as u64 > self.opts.segment_bytes {
            left = Some(self.segment_stream(self.segment));
            self.segment += 1;
            self.segment_len = 0;
        }
        self.device
            .append(&self.segment_stream(self.segment), &frame);
        let at = RecordPos {
            segment: self.segment,
            offset: self.segment_len,
            len: frame.len() as u64,
        };
        self.segment_len = at.end();
        self.records.push(at);
        (at, left)
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
            if let (_, Some(left)) = self.write_frame(payload) {
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
    /// control log, whose barrier runs once per step. Returns where the
    /// record went.
    pub fn append_deferred(&mut self, payload: &[u8]) -> RecordPos {
        // A segment rolled out of needs a sync of its own only if it holds
        // deferred frames no sync has covered yet; otherwise the previous
        // barrier covered it.
        let unsynced = self.deferred > 0;
        let (at, left) = self.write_frame(payload);
        if unsynced {
            self.deferred_left.extend(left);
        }
        self.deferred += 1;
        at
    }

    /// The durability barrier for [`Wal::append_deferred`]: applies the
    /// sync policy to the records pending since the last barrier as if
    /// they had just been appended together — `Always` syncs every segment
    /// they were written to, `Never` does nothing. A no-op when nothing is
    /// pending.
    pub fn sync_deferred(&mut self) {
        if std::mem::take(&mut self.deferred) == 0 {
            return;
        }
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Never => self.deferred_left.clear(),
        }
    }

    /// Forces the current segment — and any segment a deferred append
    /// rolled out of since the last sync — to stable storage.
    pub fn sync(&mut self) {
        for left in self.deferred_left.drain(..) {
            self.device.sync(&left);
        }
        self.device.sync(&self.segment_stream(self.segment));
    }

    /// Number of records currently in the log.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The log's base name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device this log writes to.
    pub fn device(&self) -> &Arc<dyn Persistence> {
        &self.device
    }

    /// Re-reads every record currently in the log (from the device). Used
    /// by compaction; O(log size).
    pub fn read_all(&self) -> Vec<Vec<u8>> {
        self.records().map(|(_, payload)| payload).collect()
    }

    /// Every record with its position, streamed one segment at a time.
    fn records(&self) -> Records<'_> {
        Records {
            wal: self,
            next: 0,
            segment: None,
        }
    }

    /// A reader for single records of this log, by position.
    pub fn reader(&self) -> WalReader {
        WalReader {
            device: self.device.clone(),
            name: self.name.clone(),
        }
    }

    /// The stream holding segment `segment` of this log.
    fn segment_stream(&self, segment: u32) -> String {
        segment_stream(&self.name, segment)
    }

    /// Discards every record after the first `keep`, truncating the
    /// underlying streams at exact record boundaries.
    pub fn truncate_after(&mut self, keep: usize) {
        if keep >= self.records.len() {
            return;
        }
        let (segment, offset) = match keep.checked_sub(1) {
            Some(last) => (self.records[last].segment, self.records[last].end()),
            None => (0, 0),
        };
        self.records.truncate(keep);
        self.truncate_from(segment, offset);
    }

    /// Replaces the whole log contents with `records` (compaction).
    pub fn reset_with(&mut self, records: &[Vec<u8>]) {
        self.records.clear();
        self.truncate_from(0, 0);
        self.append_group(records);
    }

    /// Truncates segment `segment` to `offset` bytes and empties every
    /// later segment (even past gaps), repositioning the writer.
    fn truncate_from(&mut self, segment: u32, offset: u64) {
        self.device.truncate(&self.segment_stream(segment), offset);
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
    fn a_record_reads_back_at_the_position_its_append_returned() {
        let dev = device();
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        let records: Vec<Vec<u8>> = (0u8..12).map(|i| vec![i; (i as usize * 5) % 30]).collect();
        let positions: Vec<RecordPos> = records.iter().map(|r| wal.append_deferred(r)).collect();
        assert!(wal.segment > 0, "tiny segments must have rolled");
        let reader = wal.reader();
        for (at, record) in positions.iter().zip(&records) {
            assert_eq!(reader.read(*at).as_ref(), Some(record));
        }
        // A recovering open streams the same records at the same positions.
        let log = RecoveringWal::open(dev, "log", small_opts());
        let streamed: Vec<(RecordPos, Vec<u8>)> = log.records().collect();
        assert_eq!(
            streamed,
            positions.into_iter().zip(records).collect::<Vec<_>>()
        );
        assert_eq!(log.into_wal().record_count(), 12);
    }

    #[test]
    fn a_corrupted_record_is_refused_on_read_back() {
        let dev = device();
        let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts());
        let first = wal.append_deferred(b"first record");
        let second = wal.append_deferred(b"second record");
        // One payload byte of the second frame flipped.
        let at = second.offset + FRAME_HEADER_LEN as u64 + 3;
        crate::crash::corrupt_byte(&dev, &segment_stream("log", second.segment), at);
        let reader = wal.reader();
        assert_eq!(reader.read(first).as_deref(), Some(&b"first record"[..]));
        assert_eq!(reader.read(second), None, "a corrupted frame is refused");
        // A position that does not span exactly one frame is refused too.
        let short = RecordPos {
            len: first.len - 1,
            ..first
        };
        assert_eq!(reader.read(short), None);
        let wide = RecordPos {
            len: first.len + second.len,
            ..first
        };
        assert_eq!(reader.read(wide), None);
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
            "never",
            WalOptions {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::Never,
            },
        );
        for _ in 0..7 {
            wal.append(b"x");
        }
        assert_eq!(dev.sync_count(), 2, "`Never` adds no sync");
    }

    #[test]
    fn a_cadence_sync_covers_the_segment_a_rollover_left_behind() {
        let dev = Arc::new(RecordingDevice::default());
        // Two 8-byte records (24-byte frames) fill a 64-byte segment.
        // Rolling out of a segment the last sync covered costs nothing, so
        // `Always` stays at one device sync per append across rollovers.
        let always = WalOptions {
            fsync: FsyncPolicy::Always,
            ..small_opts()
        };
        let (mut wal, _) = Wal::open(dev.clone(), "always", always);
        for i in 0u8..6 {
            wal.append(&[i; 8]);
        }
        assert!(wal.segment >= 2, "the records must span segments");
        assert_eq!(dev.sync_count(), 6);
        assert_eq!(dev.unsynced(), Vec::<String>::new());
        // Deferred records that straddle rollovers — one wave's blocks in
        // the runtime's journal — are synced whole by their one barrier.
        let (mut wal, _) = Wal::open(dev.clone(), "wave", always);
        for i in 0u8..5 {
            wal.append_deferred(&[i; 8]);
        }
        assert_eq!(wal.segment, 2, "the records must span segments");
        assert_eq!(dev.unsynced().len(), 3, "nothing is synced before it");
        wal.sync_deferred();
        assert_eq!(
            dev.unsynced(),
            Vec::<String>::new(),
            "records before durable ones were left unsynced: a hole, not a prefix"
        );
        assert_eq!(dev.sync_count(), 6 + 3, "one sync per segment written to");
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
        // `append` is unchanged; `Never` stays never.
        wal.append(b"x");
        assert_eq!(dev.sync_count(), segments + 1);
        let (mut quiet, _) = Wal::open(arc, "quiet", small_opts());
        quiet.append_deferred(b"a");
        quiet.sync_deferred();
        assert_eq!(dev.sync_count(), segments + 1);
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
