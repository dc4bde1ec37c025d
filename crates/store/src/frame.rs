//! Checksummed record framing.
//!
//! Every log in this crate stores a sequence of *frames*:
//!
//! ```text
//! | magic: u32 LE | payload_len: u32 LE | checksum: u64 LE | payload bytes |
//! ```
//!
//! The checksum is FNV-1a 64 over the payload. FNV is deliberately chosen
//! over SHA-256: the threat model is torn writes and bit rot, not an
//! adversary forging frames (payloads that need integrity against tampering
//! are content-addressed separately), and keeping the WAL off the SHA-256
//! path preserves the hashing-work accounting established for the message
//! pipeline.
//!
//! A *scan* walks frames from the start of a stream and stops at the first
//! violation — bad magic, implausible length, checksum mismatch, or
//! truncation. Everything before the stop point is the longest valid prefix;
//! everything after is a torn tail for the owner to discard. A crash during
//! an append can only damage the suffix of a stream, so a valid prefix is
//! exactly the set of records whose append completed.

/// Marker at the start of every frame ("HCFR").
pub const FRAME_MAGIC: u32 = 0x4843_4652;

/// Bytes of framing overhead per record.
pub const FRAME_HEADER_LEN: usize = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 checksum of `bytes`.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Encodes one payload as a frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        u32::try_from(payload.len()).is_ok(),
        "frame payload exceeds u32 length"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a stream for frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Payloads of every intact frame, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte offset just past the last intact frame.
    pub valid_len: u64,
    /// `true` if bytes remained after the valid prefix (a torn tail).
    pub torn: bool,
}

/// The payload of the intact frame at the start of `bytes`: its magic,
/// its length and its checksum all hold. `None` when any does not, or the
/// bytes end inside the frame.
pub fn next_frame(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..FRAME_HEADER_LEN)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("sized"));
    if magic != FRAME_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("sized")) as usize;
    let sum = u64::from_le_bytes(header[8..16].try_into().expect("sized"));
    let payload = bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)?;
    (checksum(payload) == sum).then_some(payload)
}

/// Scans `bytes` for consecutive frames, returning the longest valid prefix.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while let Some(payload) = next_frame(&bytes[pos..]) {
        payloads.push(payload.to_vec());
        pos += FRAME_HEADER_LEN + payload.len();
    }
    FrameScan {
        payloads,
        valid_len: pos as u64,
        torn: pos < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_scans_clean() {
        let scan = scan_frames(&[]);
        assert_eq!(scan.payloads.len(), 0);
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.torn);
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        let records: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-gamma"];
        for r in &records {
            stream.extend_from_slice(&encode_frame(r));
        }
        let scan = scan_frames(&stream);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len as usize, stream.len());
        assert_eq!(
            scan.payloads,
            records.iter().map(|r| r.to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn truncation_at_every_offset_yields_a_prefix() {
        let records: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; i as usize * 3]).collect();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            stream.extend_from_slice(&encode_frame(r));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let scan = scan_frames(&stream[..cut]);
            // Count of full frames whose bytes fit within the cut.
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.payloads.len(), expect, "cut={cut}");
            assert_eq!(scan.payloads, records[..expect].to_vec(), "cut={cut}");
            assert_eq!(scan.valid_len as usize, boundaries[expect], "cut={cut}");
            assert_eq!(scan.torn, cut != boundaries[expect], "cut={cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan_at_that_frame() {
        let mut stream = Vec::new();
        for i in 0u8..4 {
            stream.extend_from_slice(&encode_frame(&[i; 9]));
        }
        let frame_len = FRAME_HEADER_LEN + 9;
        // Corrupt a payload byte of the third frame.
        let mut bad = stream.clone();
        bad[2 * frame_len + FRAME_HEADER_LEN + 4] ^= 0xff;
        let scan = scan_frames(&bad);
        assert!(scan.torn);
        assert_eq!(scan.payloads.len(), 2);
        assert_eq!(scan.valid_len as usize, 2 * frame_len);
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
