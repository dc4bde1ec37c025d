//! Crash-injection utilities.
//!
//! These helpers model the failure modes the recovery contract must survive,
//! directly against a [`Persistence`] device:
//!
//! * **torn write** — truncate a stream at an arbitrary byte offset, as if
//!   the process died mid-append;
//! * **bit rot / partial sector** — flip a single byte;
//! * **kill between fsyncs** — fork an [`InMemoryDevice`]
//!   at a chosen moment and continue the "crashed" timeline from the fork
//!   while the original keeps running as the uncrashed control; a
//!   [`RecordingDevice`] says which streams a power loss could still take.
//!
//! They are ordinary library functions (not `#[cfg(test)]`) so integration
//! tests in other crates — notably the `hc-core` crash harness — can drive
//! them against a live runtime's device.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{InMemoryDevice, Persistence};

/// Length of `stream` on `device`.
pub fn stream_len(device: &Arc<dyn Persistence>, stream: &str) -> u64 {
    device.len(stream)
}

/// Truncates `stream` to `len` bytes — a torn write at that offset.
pub fn truncate_stream(device: &Arc<dyn Persistence>, stream: &str, len: u64) {
    device.truncate(stream, len);
}

/// Flips one byte of `stream` in place (read, flip, rewrite).
///
/// Does nothing if `offset` is past the end of the stream.
pub fn corrupt_byte(device: &Arc<dyn Persistence>, stream: &str, offset: u64) {
    let mut bytes = device.read(stream);
    let Some(b) = bytes.get_mut(offset as usize) else {
        return;
    };
    *b ^= 0xff;
    device.truncate(stream, 0);
    device.append(stream, &bytes);
}

/// Total bytes across all streams of the device.
pub fn total_bytes(device: &Arc<dyn Persistence>) -> u64 {
    device.streams().iter().map(|s| device.len(s)).sum()
}

/// An [`InMemoryDevice`] that remembers which streams hold bytes no sync
/// has covered: what a machine crash (power loss) may take, as opposed to
/// a process crash, which loses nothing already appended.
#[derive(Default)]
pub struct RecordingDevice {
    inner: InMemoryDevice,
    unsynced: Mutex<BTreeSet<String>>,
}

impl RecordingDevice {
    /// The streams appended to since their last sync, sorted.
    pub fn unsynced(&self) -> Vec<String> {
        self.unsynced.lock().iter().cloned().collect()
    }
}

impl Persistence for RecordingDevice {
    fn read(&self, stream: &str) -> Vec<u8> {
        self.inner.read(stream)
    }
    fn append(&self, stream: &str, bytes: &[u8]) {
        self.unsynced.lock().insert(stream.to_owned());
        self.inner.append(stream, bytes);
    }
    fn truncate(&self, stream: &str, len: u64) {
        self.inner.truncate(stream, len);
    }
    fn len(&self, stream: &str) -> u64 {
        self.inner.len(stream)
    }
    fn sync(&self, stream: &str) {
        self.unsynced.lock().remove(stream);
        self.inner.sync(stream);
    }
    fn streams(&self) -> Vec<String> {
        self.inner.streams()
    }
    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::InMemoryDevice;
    use crate::frame::{encode_frame, scan_frames};

    #[test]
    fn corrupt_byte_breaks_exactly_one_frame() {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        let frame = encode_frame(b"payload");
        dev.append("s", &frame);
        dev.append("s", &frame);
        corrupt_byte(&dev, "s", frame.len() as u64 + 20);
        let scan = scan_frames(&dev.read("s"));
        assert_eq!(scan.payloads.len(), 1);
        assert!(scan.torn);
    }

    #[test]
    fn truncate_models_a_torn_write() {
        let dev: Arc<dyn Persistence> = Arc::new(InMemoryDevice::new());
        dev.append("s", &encode_frame(b"abcdef"));
        let full = stream_len(&dev, "s");
        truncate_stream(&dev, "s", full - 1);
        let scan = scan_frames(&dev.read("s"));
        assert_eq!(scan.payloads.len(), 0);
        assert!(scan.torn);
        assert_eq!(total_bytes(&dev), full - 1);
    }
}
