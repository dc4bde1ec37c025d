//! Property-based tests of the durability substrate: frame round-trips and
//! torn-write recovery.
//!
//! The central property — recovery never yields a corrupt or non-prefix
//! state — is exercised by writing random record sequences, truncating the
//! device at a random byte offset (and flipping random bytes), and checking
//! that reopening returns exactly a prefix of what was appended. Frames also
//! distrust their bytes: arbitrary input, or a valid stream whose header
//! claims any payload length, neither panics the scan nor `Wal::open`.

use std::sync::Arc;

use proptest::prelude::*;

use hc_store::crash::{corrupt_byte, truncate_stream};
use hc_store::frame::{encode_frame, scan_frames, FRAME_HEADER_LEN};
use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, Wal, WalOptions};

fn small_opts(segment_bytes: u64) -> WalOptions {
    WalOptions {
        segment_bytes,
        fsync: FsyncPolicy::Never,
    }
}

fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..60), 1..25)
}

/// What any input must satisfy, however hostile: the scan ends inside it,
/// exactly after the frames it returns, and a log whose segment 0 holds it
/// opens to those frames and takes an append. Returns the scanned payloads.
fn distrusted(bytes: &[u8]) -> Vec<Vec<u8>> {
    let scan = scan_frames(bytes);
    let framed: u64 = scan
        .payloads
        .iter()
        .map(|p| (FRAME_HEADER_LEN + p.len()) as u64)
        .sum();
    prop_assert!(scan.valid_len <= bytes.len() as u64);
    prop_assert_eq!(scan.valid_len, framed);

    let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
    dev.append("log/00000000.seg", bytes);
    let (mut wal, recovered) = Wal::open(dev.clone(), "log", small_opts(4096));
    prop_assert_eq!(&recovered, &scan.payloads);
    wal.append(b"post-open");
    let (_, reread) = Wal::open(dev, "log", small_opts(4096));
    prop_assert_eq!(reread.len(), recovered.len() + 1);
    prop_assert_eq!(reread.last().unwrap().as_slice(), b"post-open");
    scan.payloads
}

proptest! {
    /// Arbitrary bytes, framed or not, never panic the scan or the open.
    #[test]
    fn arbitrary_bytes_are_distrusted(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        distrusted(&bytes);
    }

    /// A valid stream whose `i`-th header claims any `payload_len` — up to
    /// `u32::MAX`, far past the input — recovers the frames before it, and
    /// all of them only if the claim happens to be the true length.
    #[test]
    fn a_lying_payload_length_is_distrusted(
        records in arb_records(),
        victim in 0usize..25,
        claimed in prop_oneof![Just(u32::MAX), any::<u32>(), 0u32..64],
    ) {
        let victim = victim % records.len();
        let mut stream = Vec::new();
        let mut header = 0;
        for (i, r) in records.iter().enumerate() {
            if i == victim {
                header = stream.len();
            }
            stream.extend_from_slice(&encode_frame(r));
        }
        stream[header + 4..header + 8].copy_from_slice(&claimed.to_le_bytes());
        let recovered = distrusted(&stream);
        let kept = if claimed as usize == records[victim].len() {
            records.len()
        } else {
            victim
        };
        prop_assert_eq!(recovered, records[..kept].to_vec());
    }

    /// Concatenated frames always scan back to the exact record sequence.
    #[test]
    fn frames_round_trip(records in arb_records()) {
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&encode_frame(r));
        }
        let scan = scan_frames(&stream);
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.valid_len as usize, stream.len());
        prop_assert_eq!(scan.payloads, records);
    }

    /// A WAL reopened after appending returns every record, across
    /// arbitrary segment sizes.
    #[test]
    fn wal_round_trips_across_segment_sizes(
        records in arb_records(),
        segment_bytes in 32u64..512,
    ) {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        {
            let (mut wal, existing) = Wal::open(dev.clone(), "log", small_opts(segment_bytes));
            prop_assert!(existing.is_empty());
            for r in &records {
                wal.append(r);
            }
        }
        let (wal, recovered) = Wal::open(dev, "log", small_opts(segment_bytes));
        prop_assert_eq!(&recovered, &records);
        prop_assert_eq!(wal.record_count(), records.len());
    }

    /// Torn-write recovery: truncating the physical streams at an arbitrary
    /// total byte offset always recovers a prefix of the appended records,
    /// and the log accepts appends afterwards.
    #[test]
    fn truncation_recovers_a_prefix(
        records in arb_records(),
        segment_bytes in 48u64..256,
        cut_permille in 0u64..1000,
    ) {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        {
            let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts(segment_bytes));
            for r in &records {
                wal.append(r);
            }
        }
        // Truncate at a byte offset into the *logical* concatenation of
        // segments: everything past the offset is lost, starting from the
        // tail (later segments vanish first, as a real torn tail would).
        let streams: Vec<String> = dev.streams();
        let total: u64 = streams.iter().map(|s| dev.len(s)).sum();
        let cut = total * cut_permille / 1000;
        let mut to_drop = total - cut;
        for s in streams.iter().rev() {
            let len = dev.len(s);
            let drop_here = to_drop.min(len);
            truncate_stream(&dev, s, len - drop_here);
            to_drop -= drop_here;
            if to_drop == 0 {
                break;
            }
        }
        let (mut wal, recovered) = Wal::open(dev.clone(), "log", small_opts(segment_bytes));
        prop_assert!(recovered.len() <= records.len());
        prop_assert_eq!(&recovered, &records[..recovered.len()].to_vec(),
            "recovered records must be a prefix");
        // The recovered log is writable and the result is consistent.
        wal.append(b"post-crash");
        let (_, reread) = Wal::open(dev, "log", small_opts(segment_bytes));
        prop_assert_eq!(reread.len(), recovered.len() + 1);
        prop_assert_eq!(reread.last().unwrap().as_slice(), b"post-crash");
    }

    /// Flipping a random byte never yields records outside the appended
    /// sequence: recovery returns a prefix, possibly shortened.
    #[test]
    fn corruption_recovers_a_prefix(
        records in arb_records(),
        segment_bytes in 48u64..256,
        victim_permille in 0u64..1000,
    ) {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        {
            let (mut wal, _) = Wal::open(dev.clone(), "log", small_opts(segment_bytes));
            for r in &records {
                wal.append(r);
            }
        }
        let streams: Vec<String> = dev.streams();
        let total: u64 = streams.iter().map(|s| dev.len(s)).sum();
        let mut victim = total * victim_permille / 1000;
        for s in &streams {
            let len = dev.len(s);
            if victim < len {
                corrupt_byte(&dev, s, victim);
                break;
            }
            victim -= len;
        }
        let (_, recovered) = Wal::open(dev, "log", small_opts(segment_bytes));
        prop_assert!(recovered.len() <= records.len());
        prop_assert_eq!(&recovered, &records[..recovered.len()].to_vec());
    }
}
