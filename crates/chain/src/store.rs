//! The chain store: an append-only, validated sequence of blocks, in
//! memory. Making a committed block durable is its runtime's job.

use std::collections::HashMap;
use std::fmt;

use hc_types::{ChainEpoch, Cid, SubnetId};

use crate::block::Block;

/// Errors returned by [`ChainStore::append`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The block's parent is not the current head.
    ParentMismatch {
        /// Expected parent (current head CID).
        expected: Cid,
        /// Parent the block declared.
        got: Cid,
    },
    /// The block's epoch does not advance the chain.
    EpochNotMonotonic {
        /// Current head epoch.
        head: ChainEpoch,
        /// Epoch the block declared.
        got: ChainEpoch,
    },
    /// The block belongs to a different subnet.
    WrongSubnet(SubnetId),
    /// Structural validation failed.
    BadBlock(String),
    /// The block (by CID) is already in the store.
    DuplicateBlock(Cid),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ParentMismatch { expected, got } => {
                write!(f, "parent mismatch: expected {expected}, got {got}")
            }
            StoreError::EpochNotMonotonic { head, got } => {
                write!(f, "epoch {got} does not advance head {head}")
            }
            StoreError::WrongSubnet(id) => write!(f, "block belongs to subnet {id}"),
            StoreError::BadBlock(why) => write!(f, "invalid block: {why}"),
            StoreError::DuplicateBlock(cid) => write!(f, "block {cid} already stored"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The canonical chain of one subnet as seen by one node.
///
/// The store holds the *committed* chain: consensus engines resolve forks
/// before appending (longest-chain engines only append once a block wins;
/// BFT engines append finalized blocks directly). Blocks sit in one vector,
/// oldest first; epochs strictly ascend along it, so an epoch lookup is a
/// binary search, and a CID lookup goes through the one index beside it.
#[derive(Debug, Clone)]
pub struct ChainStore {
    subnet: SubnetId,
    blocks: Vec<Block>,
    by_cid: HashMap<Cid, usize>,
    head: Cid,
    head_epoch: ChainEpoch,
}

impl ChainStore {
    /// Creates an empty chain for `subnet` (head = [`Cid::NIL`], epoch 0;
    /// the first appended block is the chain's genesis block).
    pub fn new(subnet: SubnetId) -> Self {
        ChainStore {
            subnet,
            blocks: Vec::new(),
            by_cid: HashMap::new(),
            head: Cid::NIL,
            head_epoch: ChainEpoch::GENESIS,
        }
    }

    /// The subnet this chain belongs to.
    pub fn subnet(&self) -> &SubnetId {
        &self.subnet
    }

    /// CID of the chain head ([`Cid::NIL`] before any block).
    pub fn head(&self) -> Cid {
        self.head
    }

    /// Epoch of the chain head (0 before any block).
    pub fn head_epoch(&self) -> ChainEpoch {
        self.head_epoch
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if no block was appended yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Fetches a block by CID.
    pub fn get(&self, cid: &Cid) -> Option<&Block> {
        self.by_cid.get(cid).map(|&i| &self.blocks[i])
    }

    /// Fetches the i-th block (0 = first appended).
    pub fn get_index(&self, i: usize) -> Option<&Block> {
        self.blocks.get(i)
    }

    /// Fetches the block committed at `epoch` in O(log n), or `None` if
    /// the chain skipped that epoch (slow engines do not fill every height).
    pub fn get_by_epoch(&self, epoch: ChainEpoch) -> Option<&Block> {
        let i = self
            .blocks
            .binary_search_by_key(&epoch, |b| b.header.epoch)
            .ok()?;
        Some(&self.blocks[i])
    }

    /// Iterates over blocks oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Consumes the store, handing over its blocks oldest → newest without
    /// copying them.
    pub fn into_blocks(self) -> Vec<Block> {
        self.blocks
    }

    /// Re-bases an *empty* chain on a trusted snapshot boundary: the head
    /// becomes `base` at `base_epoch` without any block being stored, so
    /// the next append must be the block immediately extending the
    /// snapshot. Used by snapshot state-sync, where the blocks at or below
    /// the anchor are never fetched — the state they produced is installed
    /// from a verified chunk manifest instead.
    ///
    /// # Panics
    ///
    /// Panics if any block was already appended — a populated chain has a
    /// real head, and silently discarding it would fork history.
    pub fn reset_to_snapshot_base(&mut self, base_epoch: ChainEpoch, base: Cid) {
        assert!(
            self.is_empty(),
            "snapshot re-base requires an empty chain (head {})",
            self.head
        );
        self.head = base;
        self.head_epoch = base_epoch;
    }

    /// Appends a block extending the head.
    ///
    /// # Errors
    ///
    /// Fails if the block is structurally invalid, belongs to another
    /// subnet, does not point at the current head, or does not advance the
    /// epoch.
    pub fn append(&mut self, block: Block) -> Result<Cid, StoreError> {
        if block.header.subnet != self.subnet {
            return Err(StoreError::WrongSubnet(block.header.subnet.clone()));
        }
        block.validate_structure().map_err(StoreError::BadBlock)?;
        let cid = block.cid();
        if self.by_cid.contains_key(&cid) {
            return Err(StoreError::DuplicateBlock(cid));
        }
        if block.header.parent != self.head {
            return Err(StoreError::ParentMismatch {
                expected: self.head,
                got: block.header.parent,
            });
        }
        // A chain re-based on a snapshot boundary is still empty but has a
        // non-genesis head epoch; the monotonicity check applies there too.
        if (!self.is_empty() || self.head_epoch > ChainEpoch::GENESIS)
            && block.header.epoch <= self.head_epoch
        {
            return Err(StoreError::EpochNotMonotonic {
                head: self.head_epoch,
                got: block.header.epoch,
            });
        }
        self.head = cid;
        self.head_epoch = block.header.epoch;
        self.by_cid.insert(cid, self.blocks.len());
        self.blocks.push(block);
        Ok(cid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHeader};
    use hc_types::Keypair;

    fn kp() -> Keypair {
        Keypair::from_seed([0xd3; 32])
    }

    fn block_at(epoch: u64, parent: Cid) -> Block {
        let k = kp();
        let header = BlockHeader {
            subnet: SubnetId::root(),
            epoch: ChainEpoch::new(epoch),
            parent,
            state_root: Cid::digest(format!("state{epoch}").as_bytes()),
            msgs_root: Cid::NIL,
            proposer: k.public(),
            timestamp_ms: epoch * 1_000,
        };
        Block::seal(header, vec![], vec![], &k)
    }

    #[test]
    fn append_builds_a_chain() {
        let mut store = ChainStore::new(SubnetId::root());
        let b1 = block_at(1, Cid::NIL);
        let c1 = store.append(b1).unwrap();
        let b2 = block_at(2, c1);
        let c2 = store.append(b2).unwrap();
        assert_eq!(store.head(), c2);
        assert_eq!(store.head_epoch(), ChainEpoch::new(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get_index(0).unwrap().cid(), c1);
        assert_eq!(store.iter().count(), 2);
    }

    #[test]
    fn append_rejects_wrong_parent_and_stale_epoch() {
        let mut store = ChainStore::new(SubnetId::root());
        let c1 = store.append(block_at(1, Cid::NIL)).unwrap();
        assert!(matches!(
            store.append(block_at(2, Cid::digest(b"elsewhere"))),
            Err(StoreError::ParentMismatch { .. })
        ));
        assert!(matches!(
            store.append(block_at(1, c1)),
            Err(StoreError::EpochNotMonotonic { .. })
        ));
    }

    #[test]
    fn append_rejects_foreign_subnet() {
        let mut store = ChainStore::new(SubnetId::root().child(hc_types::Address::new(9)));
        assert!(matches!(
            store.append(block_at(1, Cid::NIL)),
            Err(StoreError::WrongSubnet(_))
        ));
    }

    #[test]
    fn duplicate_append_is_a_typed_error() {
        let mut store = ChainStore::new(SubnetId::root());
        let b1 = block_at(1, Cid::NIL);
        let cid = store.append(b1.clone()).unwrap();
        assert_eq!(store.append(b1), Err(StoreError::DuplicateBlock(cid)));
        // The store is unchanged by the rejected duplicate.
        assert_eq!(store.len(), 1);
        assert_eq!(store.head(), cid);
    }

    #[test]
    fn epoch_lookup_finds_committed_epochs_only() {
        let mut store = ChainStore::new(SubnetId::root());
        let c1 = store.append(block_at(1, Cid::NIL)).unwrap();
        let c7 = store.append(block_at(7, c1)).unwrap();
        let c8 = store.append(block_at(8, c7)).unwrap();
        assert_eq!(store.get_by_epoch(ChainEpoch::new(1)).unwrap().cid(), c1);
        assert_eq!(store.get_by_epoch(ChainEpoch::new(7)).unwrap().cid(), c7);
        assert_eq!(store.get_by_epoch(ChainEpoch::new(8)).unwrap().cid(), c8);
        for missing in [0, 3, 9] {
            assert!(store.get_by_epoch(ChainEpoch::new(missing)).is_none());
        }
        assert_eq!(store.get(&c7).unwrap().header.epoch, ChainEpoch::new(7));
    }

    #[test]
    fn into_blocks_hands_over_the_chain_oldest_first() {
        let mut store = ChainStore::new(SubnetId::root());
        let c1 = store.append(block_at(1, Cid::NIL)).unwrap();
        let c2 = store.append(block_at(2, c1)).unwrap();
        let cids: Vec<Cid> = store.into_blocks().iter().map(Block::cid).collect();
        assert_eq!(cids, [c1, c2]);
    }

    #[test]
    fn snapshot_rebase_anchors_suffix_appends() {
        let mut store = ChainStore::new(SubnetId::root());
        // Build the "peer" view to learn the anchor block's CID.
        let mut peers = ChainStore::new(SubnetId::root());
        let c1 = peers.append(block_at(1, Cid::NIL)).unwrap();
        let c2 = peers.append(block_at(2, c1)).unwrap();

        store.reset_to_snapshot_base(ChainEpoch::new(2), c2);
        assert!(store.is_empty());
        assert_eq!(store.head(), c2);
        assert_eq!(store.head_epoch(), ChainEpoch::new(2));

        // Pre-anchor epochs are rejected even though the chain is empty.
        assert!(matches!(
            store.append(block_at(2, c2)),
            Err(StoreError::EpochNotMonotonic { .. })
        ));
        // A block extending the anchor appends; only the suffix is stored.
        let c3 = store.append(block_at(3, c2)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.head(), c3);
        assert_eq!(store.get_index(0).unwrap().cid(), c3);
    }

    #[test]
    #[should_panic(expected = "snapshot re-base requires an empty chain")]
    fn snapshot_rebase_refuses_populated_chains() {
        let mut store = ChainStore::new(SubnetId::root());
        let c1 = store.append(block_at(1, Cid::NIL)).unwrap();
        store.reset_to_snapshot_base(ChainEpoch::new(5), c1);
    }

    #[test]
    fn epochs_may_skip_for_slow_consensus() {
        // PoW-like engines do not produce a block every epoch.
        let mut store = ChainStore::new(SubnetId::root());
        let c1 = store.append(block_at(1, Cid::NIL)).unwrap();
        store.append(block_at(7, c1)).unwrap();
        assert_eq!(store.head_epoch(), ChainEpoch::new(7));
    }
}
