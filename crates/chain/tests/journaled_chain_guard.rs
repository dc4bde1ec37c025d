//! Residency guard for a durable chain (DESIGN.md §18): once its runtime
//! has journaled a block, the chain store holds it below the head by its
//! log position alone, whatever the block's size. 300 blocks of 50
//! transfers are appended, each journaled as it becomes the head; the heap
//! the store keeps per history block is gated on the counting allocator,
//! so a journaled block held compressed (about 3 KB here) or decoded fails
//! on any machine. One `#[test]`: the counters are process-wide.

use std::sync::Arc;

use hc_chain::{Block, BlockHeader, BlockLog, ChainStore, Journaled, LogPosition};
use hc_state::{Message, SealedMessage};
use hc_types::{Address, ChainEpoch, Cid, CountingAlloc, Keypair, Nonce, SubnetId, TokenAmount};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCKS: u64 = 300;
const MSGS_PER_BLOCK: u64 = 50;

/// Bytes a durable chain may keep per history block: its epoch, CID and
/// position, its CID index entry, and their vectors' slack.
const BYTES_PER_BLOCK: f64 = 256.0;

/// A log the guard never reads: only positions go into the store.
#[derive(Debug)]
struct Unread;

impl BlockLog for Unread {
    fn read_block(&self, _at: LogPosition) -> Option<Vec<u8>> {
        None
    }
}

fn block(epoch: u64, parent: Cid, proposer: &Keypair, senders: &[Keypair]) -> Block {
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
        parent,
        state_root: Cid::digest(&epoch.to_le_bytes()),
        msgs_root: Cid::NIL,
        proposer: proposer.public(),
        timestamp_ms: epoch * 1_000,
    };
    Block::seal(header, msgs, vec![], proposer)
}

#[test]
fn a_durable_chain_keeps_a_position_per_history_block() {
    let proposer = Keypair::from_seed([0x5c; 32]);
    let senders: Vec<Keypair> = (0..16u8).map(|i| Keypair::from_seed([i; 32])).collect();
    let log: Arc<dyn BlockLog> = Arc::new(Unread);
    let mut store = ChainStore::new(SubnetId::root());
    let before = CountingAlloc::counts().live;
    let mut head_bytes = 0;
    for epoch in 1..=BLOCKS {
        // The decoded head is the store's, journaled or not; what is
        // measured is what its history keeps.
        let live = CountingAlloc::counts().live;
        let block = block(epoch, store.head(), &proposer, &senders);
        head_bytes = CountingAlloc::counts().live - live;
        store.append(block).unwrap();
        let len = 16 << 10;
        let at = LogPosition {
            segment: 0,
            offset: epoch * len,
            len,
        };
        store.journal_head(Journaled::new(log.clone(), at));
    }
    let kept = CountingAlloc::counts().live - before;
    assert_eq!(store.decoded_len(), 1, "only the head stays decoded");

    let per_block = kept.saturating_sub(head_bytes) as f64 / (BLOCKS - 1) as f64;
    println!("durable chain keeps {kept} B live: {per_block:.1} B per history block");
    assert!(
        per_block <= BYTES_PER_BLOCK,
        "{per_block:.1} B per history block: a journaled block is held in memory"
    );
}
