//! Recovery streams the control log (DESIGN.md §11): `recover` holds at
//! most one segment of it at a time, never the whole log, and the chains it
//! rebuilds hold their blocks by position. A root's journal is grown to one
//! length and to twice it, each is recovered, and the peak live heap the
//! two recoveries reach — counted by `hc_types::CountingAlloc`, a
//! `#[global_allocator]` — may differ by less than one segment. One
//! `#[test]`: the counters are process-wide.

mod common;

use std::sync::Arc;

use common::{whole, Harness};
use hc_core::persist::{DurableOptions, CONTROL_LOG};
use hc_core::{HierarchyRuntime, PersistenceConfig, RuntimeConfig, UserHandle};
use hc_state::Method;
use hc_store::{FsyncPolicy, InMemoryDevice, Persistence, WalOptions};
use hc_types::{CountingAlloc, SubnetId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The control log's segment size here.
const SEGMENT_BYTES: u64 = 64 << 10;

/// Root users sending to each other, and transfers each sends per round.
const USERS: usize = 32;
const SENDS: u64 = 4;

fn config(device: &InMemoryDevice) -> RuntimeConfig {
    RuntimeConfig {
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device.clone()),
            wal: WalOptions {
                segment_bytes: SEGMENT_BYTES,
                fsync: FsyncPolicy::Never,
            },
            keep_manifests: 0,
        }),
        ..RuntimeConfig::default()
    }
}

/// A fresh device whose journal holds `rounds` rounds of transfers among
/// the root's users, with the control log's length in bytes.
fn journal(rounds: usize) -> (InMemoryDevice, u64) {
    let device = InMemoryDevice::new();
    let mut h = Harness::with(config(&device), 1_000_000);
    let root = SubnetId::root();
    let users: Vec<UserHandle> = (0..USERS)
        .map(|_| h.rt.create_user(&root, whole(1_000)).unwrap())
        .collect();
    for _ in 0..rounds {
        for (i, from) in users.iter().enumerate() {
            let to = users[(i + 1) % USERS].addr;
            for _ in 0..SENDS {
                h.rt.submit(from, to, whole(1), Method::Send).unwrap();
            }
        }
        h.settle();
    }
    let streams = device.streams();
    let control = streams.iter().filter(|s| s.starts_with(CONTROL_LOG));
    let bytes = control.map(|s| device.len(s)).sum();
    (device, bytes)
}

/// How far the live heap rose above where it stood while `device`'s
/// journal was recovered.
fn recovery_peak(device: &InMemoryDevice) -> u64 {
    let before = CountingAlloc::counts().live;
    CountingAlloc::reset_peak();
    let recovered = HierarchyRuntime::recover(config(device));
    let peak = CountingAlloc::counts().peak - before;
    drop(recovered);
    peak
}

#[test]
fn recovering_a_log_twice_as_long_holds_no_more_than_a_segment_more() {
    let (short, short_bytes) = journal(24);
    let (long, long_bytes) = journal(48);
    assert!(
        long_bytes - short_bytes > 4 * SEGMENT_BYTES,
        "the longer log must outgrow the shorter by several segments: {short_bytes} vs {long_bytes} B"
    );
    let (short_peak, long_peak) = (recovery_peak(&short), recovery_peak(&long));
    println!(
        "recovery peak: {short_peak} B over a {short_bytes} B log, {long_peak} B over a {long_bytes} B log"
    );
    assert!(
        long_peak < short_peak + SEGMENT_BYTES,
        "{} B more of the log were held to recover {} B more of it",
        long_peak.saturating_sub(short_peak),
        long_bytes - short_bytes
    );
}
