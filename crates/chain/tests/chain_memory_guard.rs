//! Residency guard: a chain store keeps only its head decoded and holds
//! history LZ-compressed (DESIGN.md §18). 200 blocks of 400 transfers are
//! appended; the heap the store keeps per message is gated on the counting
//! allocator, so a return to decoded history — a `SealedMessage` alone is
//! 224 B — or to uncompressed wire form fails on any machine. One
//! `#[test]`: the counters are process-wide.

use hc_chain::{Block, BlockHeader, ChainStore};
use hc_state::{Message, SealedMessage};
use hc_types::{Address, ChainEpoch, Cid, CountingAlloc, Keypair, Nonce, SubnetId, TokenAmount};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCKS: u64 = 200;
const MSGS_PER_BLOCK: u64 = 400;

/// Live bytes the store keeps per message, measured at this commit
/// (x86_64 Linux); the gate allows 2 % over it. History: 225.33 B with
/// every block decoded, 106.55 B with history in wire form, 58.81 B with
/// history LZ-compressed.
const MEASURED_BYTES_PER_MSG: f64 = 58.81;

#[test]
fn a_chain_keeps_its_history_in_wire_form() {
    let proposer = Keypair::from_seed([0x5c; 32]);
    let senders: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed([i; 32])).collect();
    let mut store = ChainStore::new(SubnetId::root());
    let before = CountingAlloc::counts().live;
    for epoch in 1..=BLOCKS {
        let msgs = (0..MSGS_PER_BLOCK)
            .map(|i| {
                let s = i % senders.len() as u64;
                let msg = Message::transfer(
                    Address::new(100 + s),
                    Address::new(200 + i),
                    TokenAmount::from_atto(u128::from(epoch * 1_000 + i)),
                    Nonce::new(epoch * MSGS_PER_BLOCK + i),
                );
                SealedMessage::sign(msg, &senders[s as usize])
            })
            .collect();
        let header = BlockHeader {
            subnet: SubnetId::root(),
            epoch: ChainEpoch::new(epoch),
            parent: store.head(),
            state_root: Cid::digest(&epoch.to_le_bytes()),
            msgs_root: Cid::NIL,
            proposer: proposer.public(),
            timestamp_ms: epoch * 1_000,
        };
        store
            .append(Block::seal(header, msgs, vec![], &proposer))
            .unwrap();
    }
    let kept = CountingAlloc::counts().live - before;
    assert_eq!(store.decoded_len(), 1, "only the head stays decoded");

    let per_msg = kept as f64 / (BLOCKS * MSGS_PER_BLOCK) as f64;
    println!("chain store keeps {kept} B live: {per_msg:.2} B per message");
    assert!(
        per_msg < 224.0 / 2.0,
        "{per_msg:.2} B per message is not under half a decoded SealedMessage"
    );
    assert!(
        per_msg <= MEASURED_BYTES_PER_MSG * 1.02,
        "{per_msg:.2} B per message exceeds the measured {MEASURED_BYTES_PER_MSG} + 2 %"
    );
}
