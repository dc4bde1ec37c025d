//! Property-based tests of the chain substrate: mempool selection,
//! block replay, and chain-store integrity.

use proptest::prelude::*;

use hc_actors::ScaConfig;
use hc_chain::{execute_block_with, produce_block_with, Block, ChainStore, ExecOptions, Mempool};
use hc_state::{Message, Method, SealedMessage, SignedMessage, StateTree};
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId,
    TokenAmount,
};

const USERS: u64 = 3;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x7a;
    Keypair::from_seed(seed)
}

fn genesis() -> StateTree {
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..USERS).map(|i| {
            (
                Address::new(100 + i),
                keypair(i).public(),
                TokenAmount::from_whole(1_000),
            )
        }),
    )
}

fn signed(from: u64, nonce: u64, atto: u64) -> SignedMessage {
    Message {
        from: Address::new(100 + from),
        to: Address::new(100 + (from + 1) % USERS),
        value: TokenAmount::from_atto(u128::from(atto)),
        nonce: Nonce::new(nonce),
        method: Method::Send,
    }
    .sign(&keypair(from))
}

proptest! {
    /// Selection is a prefix-closed, nonce-ordered, bounded view of the
    /// pool; removal after inclusion shrinks it exactly.
    #[test]
    fn mempool_selection_is_ordered_and_bounded(
        msgs_per_user in prop::collection::vec(0usize..12, USERS as usize),
        max in 0usize..40,
    ) {
        let mut pool = Mempool::new();
        for (u, &n) in msgs_per_user.iter().enumerate() {
            for nonce in 0..n {
                prop_assert!(pool.push(signed(u as u64, nonce as u64, 1)));
            }
        }
        let total: usize = msgs_per_user.iter().sum();
        let selected = pool.select(max);
        prop_assert_eq!(selected.len(), max.min(total));
        // Per-sender nonce order within the selection.
        for u in 0..USERS {
            let nonces: Vec<u64> = selected
                .iter()
                .filter(|m| m.message().from == Address::new(100 + u))
                .map(|m| m.message().nonce.value())
                .collect();
            for w in nonces.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            // Dense from zero (prefix of the sender's queue).
            for (i, n) in nonces.iter().enumerate() {
                prop_assert_eq!(*n, i as u64);
            }
        }
        pool.remove_included(selected.iter());
        prop_assert_eq!(pool.len(), total - selected.len());
    }

    /// Any produced block replays to the identical state on a validator,
    /// and a corrupted payload or root never does.
    #[test]
    fn blocks_replay_and_reject_corruption(
        schedule in prop::collection::vec((0u64..USERS, 1u64..1_000_000), 1..25),
        corrupt in any::<bool>(),
    ) {
        let proposer = keypair(99);
        let mut producer_tree = genesis();
        let mut validator_tree = producer_tree.clone();

        let mut nonces = [0u64; USERS as usize];
        let msgs: Vec<SealedMessage> = schedule
            .iter()
            .map(|(u, atto)| {
                let m = signed(*u, nonces[*u as usize], *atto);
                nonces[*u as usize] += 1;
                SealedMessage::new(m)
            })
            .collect();

        let executed = produce_block_with(
            &mut producer_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            msgs,
            &proposer,
            1_000,
            ExecOptions::default(),
        );

        if corrupt {
            let mut bad = executed.block.clone();
            bad.header.state_root = Cid::digest(b"corrupted");
            let resealed = Block::seal(
                bad.header.clone(),
                bad.signed_msgs.clone(),
                bad.implicit_msgs.clone(),
                &proposer,
            );
            prop_assert!(execute_block_with(&mut validator_tree, &resealed, ExecOptions::default()).is_err());
            prop_assert_eq!(validator_tree.flush(), genesis().flush());
        } else {
            let receipts = execute_block_with(&mut validator_tree, &executed.block, ExecOptions::default()).unwrap();
            prop_assert_eq!(receipts.len(), schedule.len());
            prop_assert_eq!(validator_tree.flush(), producer_tree.flush());
            // Supply conserved through any transfer schedule.
            prop_assert_eq!(
                validator_tree.total_supply(),
                TokenAmount::from_whole(1_000 * USERS)
            );
        }
    }

    /// The chain store accepts exactly the blocks extending its head and
    /// preserves insertion order.
    #[test]
    fn chain_store_accepts_only_head_extensions(epoch_gaps in prop::collection::vec(1u64..5, 1..15)) {
        let proposer = keypair(98);
        let mut store = ChainStore::new(SubnetId::root());
        let mut epoch = 0u64;
        let mut cids = Vec::new();
        for gap in &epoch_gaps {
            epoch += gap;
            let header = hc_chain::BlockHeader {
                subnet: SubnetId::root(),
                epoch: ChainEpoch::new(epoch),
                parent: store.head(),
                state_root: Cid::digest(&epoch.to_le_bytes()),
                msgs_root: Cid::NIL,
                proposer: proposer.public(),
                timestamp_ms: epoch,
            };
            let block = Block::seal(header, vec![], vec![], &proposer);
            // A block with the wrong parent is always refused.
            let mut orphan = block.clone();
            orphan.header.parent = Cid::digest(b"nowhere");
            let orphan = Block::seal(
                orphan.header.clone(),
                vec![],
                vec![],
                &proposer,
            );
            if store.head() != Cid::digest(b"nowhere") {
                prop_assert!(store.append(orphan).is_err());
            }
            cids.push((ChainEpoch::new(epoch), store.append(block).unwrap()));
        }
        prop_assert_eq!(store.len(), epoch_gaps.len());
        for (epoch, cid) in &cids {
            prop_assert_eq!(store.get_by_epoch(*epoch).unwrap().cid(), *cid);
        }
        prop_assert_eq!(store.head_epoch(), ChainEpoch::new(epoch));
    }

    /// However a chain was built — skipped epochs, a prefix joined as
    /// another store holds it — every accessor returns the block appended:
    /// the head decoded, history decompressed and decoded, headers read
    /// from the front of the bytes. A stored CID is the one recomputed from
    /// the bytes, and served bytes are the canonical bytes of the blocks
    /// asked for.
    #[test]
    fn every_accessor_returns_the_block_appended(
        blocks in prop::collection::vec((1u64..5, 0usize..4), 1..12),
        stored in 0usize..12,
        from in 0u64..60,
        cap in 1usize..6,
    ) {
        let proposer = keypair(97);
        let mut peers = ChainStore::new(SubnetId::root());
        let mut epoch = 0;
        let mut appended: Vec<Block> = Vec::new();
        for (i, (gap, msgs)) in blocks.iter().enumerate() {
            epoch += gap;
            let msgs = (0..*msgs)
                .map(|n| SealedMessage::new(signed(n as u64 % USERS, i as u64, epoch)))
                .collect();
            let header = hc_chain::BlockHeader {
                subnet: SubnetId::root(),
                epoch: ChainEpoch::new(epoch),
                parent: peers.head(),
                state_root: Cid::digest(&epoch.to_le_bytes()),
                msgs_root: Cid::NIL,
                proposer: proposer.public(),
                timestamp_ms: epoch,
            };
            let block = Block::seal(header, msgs, vec![], &proposer);
            peers.append(block.clone()).unwrap();
            appended.push(block);
        }
        // The oldest `stored` blocks join as the peers hold them, the rest
        // validated.
        let mut store = ChainStore::new(SubnetId::root());
        let held = peers.into_history();
        for held in held.iter().take(stored) {
            store.append_stored(held.decode(), held).unwrap();
        }
        for block in appended.iter().skip(stored) {
            store.append(block.clone()).unwrap();
        }
        let last = appended.last().unwrap();
        prop_assert_eq!(store.len(), appended.len());
        prop_assert_eq!(store.head_block(), Some(last));
        prop_assert_eq!(store.decoded_len(), 1);
        let walked: Vec<Block> = store.iter().map(|b| b.into_owned()).collect();
        prop_assert_eq!(&walked, &appended);
        prop_assert_eq!(store.decoded_len(), 1, "a walk keeps nothing decoded");

        let history = store.clone().into_history();
        prop_assert_eq!(history.len(), appended.len());
        for (stored, block) in history.iter().zip(&appended) {
            let cold = Block::decode(&stored.canonical_bytes()).unwrap();
            prop_assert_eq!(stored.cid(), cold.cid());
            prop_assert_eq!(stored.cid(), block.cid());
            prop_assert_eq!(stored.epoch(), block.header.epoch);
            prop_assert_eq!(&stored.header(), &block.header);
            prop_assert_eq!(&stored.decode(), block);
            prop_assert_eq!(stored.canonical_bytes(), block.canonical_bytes());
        }
        let asked: Vec<Vec<u8>> = appended
            .iter()
            .filter(|b| b.header.epoch >= ChainEpoch::new(from))
            .take(cap)
            .map(|b| b.canonical_bytes())
            .collect();
        prop_assert_eq!(history.serve(ChainEpoch::new(from), cap), asked);

        for e in 0..=epoch {
            let e = ChainEpoch::new(e);
            let block = appended.iter().find(|b| b.header.epoch == e);
            prop_assert_eq!(store.header_at(e), block.map(|b| b.header.clone()));
            prop_assert_eq!(store.get_by_epoch(e), block);
            prop_assert_eq!(history.get_by_epoch(e).map(|s| s.cid()), block.map(Block::cid));
        }
        for block in &appended {
            prop_assert_eq!(store.get(&block.cid()), Some(block));
        }
        prop_assert_eq!(store.decoded_len(), appended.len());
    }
}
