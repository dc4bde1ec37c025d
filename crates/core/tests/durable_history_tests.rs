//! A durable chain's history is its journal (DESIGN.md §11, §18): below a
//! journaled node's head every block is held as its record's position in
//! the control log and read back from there. The same world is driven in
//! memory and journaled, and every chain is compared block by block — live,
//! after a leaf's crash and snapshot rejoin, and after a whole-runtime
//! `recover`. A record damaged on the device is refused on read-back, not
//! decoded.

mod common;

use std::sync::Arc;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_chain::{Block, History};
use hc_core::{HierarchyRuntime, PersistenceConfig, RuntimeConfig, SyncMode, UserHandle};
use hc_net::NetConfig;
use hc_store::frame::FRAME_HEADER_LEN;
use hc_store::{InMemoryDevice, Persistence};
use hc_types::{CanonicalDecode, CanonicalEncode, ChainEpoch, SubnetId};

fn config(persistence: PersistenceConfig) -> RuntimeConfig {
    RuntimeConfig {
        net: NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..NetConfig::default()
        },
        persistence,
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    }
}

/// A root, a child and a grandchild that checkpoint every 5 epochs, with
/// value moving down to the grandchild and back up: the leaf is
/// checkpoint-anchored. Returns the world, its leaf and the leaf's user.
fn world(persistence: PersistenceConfig) -> (Harness, SubnetId, UserHandle) {
    let sa = SaConfig {
        checkpoint_period: 5,
        ..SaConfig::default()
    };
    let mut h = Harness::with(config(persistence), 1_000_000);
    let parent = h.spawn(&h.alice.clone(), sa.clone());
    let creator = h.user(&parent);
    h.fund(&creator, 100);
    let leaf = h.spawn(&creator, sa);
    let user = h.user(&leaf);
    h.fund(&user, 20);
    h.release(&user, &h.alice.clone(), 3);
    assert!(h.rt.checkpoint_anchor(&leaf).is_some());
    (h, leaf, user)
}

/// Crashes `user`'s leaf, sends it a top-down payment while it is down,
/// rejoins it from a snapshot and settles.
fn crash_and_rejoin(h: &mut Harness, user: &UserHandle) {
    h.rt.crash_node(&user.subnet).unwrap();
    h.rt.cross_transfer(&h.alice, user, whole(9)).unwrap();
    h.rt.run_blocks(4).unwrap();
    h.rt.rejoin_node(&user.subnet).unwrap();
    h.settle();
    assert_eq!(h.rt.chaos_stats().snapshot_installs, 1);
    assert_eq!(h.rt.balance(user), whole(20 - 3 + 9));
}

/// Every chain of `rt` as its node holds it, the head included.
fn chains(rt: &HierarchyRuntime) -> Vec<(SubnetId, History)> {
    let chain = |s: &SubnetId| rt.node(s).unwrap().chain().clone().into_history();
    rt.subnets().map(|s| (s.clone(), chain(s))).collect()
}

/// Every block of `durable`'s chains is held in its journal and reads back
/// as `memory`'s block at that epoch: the same CID and canonical bytes.
fn assert_journaled_twin(durable: &HierarchyRuntime, memory: &HierarchyRuntime, when: &str) {
    let (durable, memory) = (chains(durable), chains(memory));
    let subnets = |c: &[(SubnetId, History)]| c.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>();
    assert_eq!(subnets(&durable), subnets(&memory), "{when}");
    for ((subnet, journaled), (_, packed)) in durable.iter().zip(&memory) {
        assert_eq!(journaled.len(), packed.len(), "{when}: {subnet}'s length");
        for (held, twin) in journaled.iter().zip(packed.iter()) {
            let at = format!("{when}: {subnet} at epoch {}", held.epoch());
            assert!(held.journaled().is_some(), "{at} is held in memory");
            assert!(twin.journaled().is_none(), "{at}: the twin journals");
            let bytes = held
                .canonical_bytes()
                .expect("a journaled block reads back");
            assert_eq!(held.cid(), twin.cid(), "{at}");
            assert_eq!(Some(&bytes), twin.canonical_bytes().as_ref(), "{at}");
            assert_eq!(Block::decode(&bytes).unwrap().cid(), held.cid(), "{at}");
        }
    }
}

#[test]
fn a_durable_chain_reads_back_the_blocks_an_in_memory_chain_holds() {
    let device = InMemoryDevice::new();
    let (mut durable, _, user) = world(PersistenceConfig::on_device(Arc::new(device.clone())));
    let (mut memory, ..) = world(PersistenceConfig::InMemory);
    assert_journaled_twin(&durable.rt, &memory.rt, "live");

    crash_and_rejoin(&mut durable, &user);
    crash_and_rejoin(&mut memory, &user);
    assert_journaled_twin(&durable.rt, &memory.rt, "after a snapshot rejoin");

    drop(durable); // the whole-runtime crash
    let recovered = HierarchyRuntime::recover(config(PersistenceConfig::on_device(Arc::new(
        device.clone(),
    ))));
    assert_journaled_twin(&recovered, &memory.rt, "after recover");
    hc_core::audit_quiescent(&recovered).unwrap();
}

#[test]
fn a_record_damaged_on_the_device_is_refused_on_read_back() {
    let device = InMemoryDevice::new();
    let (h, ..) = world(PersistenceConfig::on_device(Arc::new(device.clone())));
    let root = SubnetId::root();
    let epoch = ChainEpoch::new(2);
    let history = h.rt.node(&root).unwrap().chain().clone().into_history();
    let stored = history.get_by_epoch(epoch).unwrap();
    let at = stored.journaled().unwrap().position();
    let header = stored.header().unwrap();

    // A byte of the header's parent CID flipped, behind the record's tag,
    // the subnet and the epoch: the bytes still decode, to another block,
    // so only the frame checksum can tell.
    let stream = format!("control/{:08}.seg", at.segment);
    let parent_at = FRAME_HEADER_LEN + 1 + header.subnet.canonical_bytes().len() + 8;
    let device: Arc<dyn Persistence> = Arc::new(device);
    hc_store::crash::corrupt_byte(&device, &stream, at.offset + parent_at as u64);
    let frame = device.read_range(&stream, at.offset, at.len);
    let damaged = Block::decode(&frame[FRAME_HEADER_LEN + 1..]).expect("still a block");
    assert_eq!(damaged.header.epoch, epoch);
    assert_ne!(damaged.header.parent, header.parent);

    let chain = h.rt.node(&root).unwrap().chain();
    assert_eq!(chain.header_at(epoch), None, "a damaged record was decoded");
    assert_eq!(chain.get_by_epoch(epoch), None);
    assert_eq!(stored.canonical_bytes(), None);
    // A peer serving from this copy stops before the damaged block.
    assert_eq!(history.serve(ChainEpoch::new(1), 8).len(), 1);
}
