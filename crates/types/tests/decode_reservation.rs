//! The decoder's reservation bound. A sequence's count prefix may claim as
//! many elements as input bytes remain; decoding must not reserve memory
//! for that many values before the first of them fails, however large a
//! value is in memory. A counting global allocator records the largest
//! single request made while a decode runs. (One `#[test]` in this binary:
//! the allocator is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, DecodeError};

/// The system allocator, recording the largest request a measuring thread
/// makes.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping beside it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.with(Cell::get) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `decode` requests on this thread.
fn largest_request(decode: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    decode();
    MEASURING.with(|m| m.set(false));
    LARGEST.load(Ordering::Relaxed)
}

/// 512 bytes in memory, one byte on the wire (`0`).
struct Wide {
    _payload: [u64; 64],
}

impl CanonicalDecode for Wide {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(Wide { _payload: [0; 64] }),
            tag => Err(DecodeError::BadTag { what: "Wide", tag }),
        }
    }
}

/// `n` bytes: a count claiming one element per remaining byte, then bytes
/// none of which is a `Wide`.
fn hostile(n: usize) -> Vec<u8> {
    let mut bytes = (n as u64 - 8).canonical_bytes();
    bytes.resize(n, 0xff);
    bytes
}

#[test]
fn a_hostile_count_reserves_at_most_four_bytes_per_input_byte() {
    for n in [9, 64, 4_096, 65_536] {
        let bytes = hostile(n);
        let vec = largest_request(|| assert!(Vec::<Wide>::decode(&bytes).is_err()));
        assert!(vec <= 4 * n, "Vec<Wide> requested {vec} B for {n} B");
        let deque = largest_request(|| assert!(VecDeque::<Wide>::decode(&bytes).is_err()));
        assert!(
            deque <= 4 * n,
            "VecDeque<Wide> requested {deque} B for {n} B"
        );
    }

    // A genuine sequence grows past the reservation its input allows.
    let mut three = 3u64.canonical_bytes();
    three.extend([0, 0, 0]);
    assert_eq!(Vec::<Wide>::decode(&three).unwrap().len(), 3);
    assert_eq!(VecDeque::<Wide>::decode(&three).unwrap().len(), 3);
}
