//! The chain store: an append-only sequence of blocks from epoch 1, in
//! memory, only the head decoded and the history LZ-compressed. A block
//! joins it validated
//! ([`ChainStore::append`]) or, when another store already validated it —
//! a syncing node's peers' copy of its chain — as that store holds it
//! ([`ChainStore::append_stored`]); either way it must extend the head.
//! Making a committed block durable is its runtime's job.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId};

use crate::block::{Block, BlockHeader};
use crate::lz;

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

/// One committed block below its chain's head, held as the LZ-compressed
/// form of its canonical encoding — the bytes a `BlockBatch` ships —
/// beside the epoch and CID worked out when it was appended. Nothing in it
/// is hashed again: the CID comes from storage, and
/// [`StoredBlock::decode`] hands it to the block it decodes.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    epoch: ChainEpoch,
    cid: Cid,
    /// The canonical encoding, compressed.
    packed: Box<[u8]>,
    /// The block, decoded by a [`ChainStore::get`] or
    /// [`ChainStore::get_by_epoch`] below the head; empty otherwise.
    memo: OnceLock<Box<Block>>,
}

impl StoredBlock {
    /// Stores `block`, whose CID `cid` its store already worked out, in
    /// `packed` if it came from storage, else encoded and compressed.
    fn new(block: &Block, cid: Cid, packed: Option<Box<[u8]>>) -> Self {
        let packed =
            packed.unwrap_or_else(|| lz::compress(&block.canonical_bytes()).into_boxed_slice());
        StoredBlock {
            epoch: block.header.epoch,
            cid,
            packed,
            memo: OnceLock::new(),
        }
    }

    /// The block's epoch.
    pub fn epoch(&self) -> ChainEpoch {
        self.epoch
    }

    /// The block's CID, as worked out at append.
    pub fn cid(&self) -> Cid {
        self.cid
    }

    /// The block's canonical encoding, decompressed.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        lz::decompress(&self.packed).expect("a stored block decompresses")
    }

    /// The block's header, decoded from the front of its canonical bytes.
    pub fn header(&self) -> BlockHeader {
        let bytes = self.canonical_bytes();
        BlockHeader::read_bytes(&mut ByteReader::new(&bytes)).expect("a stored block decodes")
    }

    /// The whole block, decoded afresh, its CID taken from storage.
    pub fn decode(&self) -> Block {
        Block::decode_stored(&self.canonical_bytes(), self.cid)
    }

    /// The decoded block, kept in the memo from the first call on.
    fn memoized(&self) -> &Block {
        self.memo.get_or_init(|| Box::new(self.decode()))
    }
}

/// Equal as held: epoch, CID and compressed bytes, whatever the memo.
impl PartialEq for StoredBlock {
    fn eq(&self, other: &Self) -> bool {
        (self.epoch, self.cid, &self.packed) == (other.epoch, other.cid, &other.packed)
    }
}

impl Eq for StoredBlock {}

/// Committed blocks as stored, oldest first, epochs strictly ascending:
/// a chain's history below its head, or the copy of a whole chain that a
/// crashed node's peers keep and serve to its rejoin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    blocks: Vec<StoredBlock>,
}

impl History {
    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if no block is held.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block at `epoch` in O(log n), or `None` if none was committed
    /// there.
    pub fn get_by_epoch(&self, epoch: ChainEpoch) -> Option<&StoredBlock> {
        let i = self
            .blocks
            .binary_search_by_key(&epoch, StoredBlock::epoch)
            .ok()?;
        Some(&self.blocks[i])
    }

    /// Iterates over the blocks oldest → newest, still compressed.
    pub fn iter(&self) -> std::slice::Iter<'_, StoredBlock> {
        self.blocks.iter()
    }

    /// The canonical bytes of at most `cap` blocks from `from` on: a
    /// `BlockPull` answer.
    pub fn serve(&self, from: ChainEpoch, cap: usize) -> Vec<Vec<u8>> {
        let start = self.blocks.partition_point(|b| b.epoch < from);
        let end = self.blocks.len().min(start + cap);
        self.blocks[start..end]
            .iter()
            .map(StoredBlock::canonical_bytes)
            .collect()
    }

    /// Appends `later`, whose blocks all come after these.
    pub fn extend(&mut self, later: History) {
        self.blocks.extend(later.blocks);
    }
}

/// The canonical chain of one subnet as seen by one node.
///
/// The store holds the *committed* chain: consensus engines resolve forks
/// before appending (longest-chain engines only append once a block wins;
/// BFT engines append finalized blocks directly). Only the head stays
/// decoded — production and validation read nothing older. When `append`
/// turns the head into history it is encoded and compressed into a
/// [`StoredBlock`] — unless it joined as stored, and keeps the bytes it
/// came in — so a node holds its history in compressed wire form,
/// decompressed to serve syncing peers and read back through a header
/// ([`ChainStore::header_at`]) or one block at a time
/// ([`ChainStore::iter`], [`ChainStore::into_history`]). Epochs
/// strictly ascend, so an epoch lookup is a binary search, and a CID lookup
/// goes through the one index beside it.
#[derive(Debug, Clone)]
pub struct ChainStore {
    subnet: SubnetId,
    history: History,
    head_block: Option<Block>,
    /// The head's compressed bytes when it joined as stored.
    head_packed: Option<Box<[u8]>>,
    /// Position of every stored block: `history` first, then the head.
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
            history: History::default(),
            head_block: None,
            head_packed: None,
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

    /// The head block, decoded; `None` before any block.
    pub fn head_block(&self) -> Option<&Block> {
        self.head_block.as_ref()
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.history.len() + usize::from(self.head_block.is_some())
    }

    /// Returns `true` if no block was appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many blocks the store holds decoded: the head, and every history
    /// block a `get*` call has decoded.
    pub fn decoded_len(&self) -> usize {
        let memos = self.history.iter().filter(|b| b.memo.get().is_some());
        usize::from(self.head_block.is_some()) + memos.count()
    }

    /// Fetches a block by CID. Below the head it is decoded once and kept.
    pub fn get(&self, cid: &Cid) -> Option<&Block> {
        let &i = self.by_cid.get(cid)?;
        match self.history.blocks.get(i) {
            Some(stored) => Some(stored.memoized()),
            None => self.head_block.as_ref(),
        }
    }

    /// Fetches the block committed at `epoch` in O(log n), or `None` if
    /// the chain skipped that epoch (slow engines do not fill every
    /// height). Below the head it is decoded once and kept.
    pub fn get_by_epoch(&self, epoch: ChainEpoch) -> Option<&Block> {
        match &self.head_block {
            Some(head) if head.header.epoch == epoch => Some(head),
            _ => self.history.get_by_epoch(epoch).map(StoredBlock::memoized),
        }
    }

    /// The header of the block committed at `epoch`; below the head the
    /// block is decompressed and only its header decoded.
    pub fn header_at(&self, epoch: ChainEpoch) -> Option<BlockHeader> {
        match &self.head_block {
            Some(head) if head.header.epoch == epoch => Some(head.header.clone()),
            _ => self.history.get_by_epoch(epoch).map(StoredBlock::header),
        }
    }

    /// Iterates over blocks oldest → newest. History blocks are decoded one
    /// at a time and dropped with their item; nothing is kept.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'_, Block>> {
        let history = self.history.iter().map(|b| Cow::Owned(b.decode()));
        history.chain(self.head_block.iter().map(Cow::Borrowed))
    }

    /// Consumes the store, handing over the whole chain as stored: its
    /// history as held, and the head stored as history would hold it.
    pub fn into_history(self) -> History {
        let mut history = self.history;
        if let Some(head) = &self.head_block {
            let stored = StoredBlock::new(head, self.head, self.head_packed);
            history.blocks.push(stored);
        }
        history
    }

    /// Appends a block extending the head; the old head is stored into
    /// history.
    ///
    /// # Errors
    ///
    /// Fails if the block is structurally invalid, belongs to another
    /// subnet, does not point at the current head, or does not advance the
    /// epoch.
    pub fn append(&mut self, block: Block) -> Result<Cid, StoreError> {
        block.validate_structure().map_err(StoreError::BadBlock)?;
        let cid = block.cid();
        self.link(block, cid, None)
    }

    /// Appends `stored`, a block another store validated and holds, as it
    /// is held, with `block`, its decoding ([`StoredBlock::decode`]), as
    /// the head: its structure is not validated again, its CID is the one
    /// worked out at its first append and its compressed bytes are kept
    /// for history, so nothing is hashed, encoded or compressed.
    ///
    /// # Errors
    ///
    /// Fails as [`ChainStore::append`] does, but for structure.
    pub fn append_stored(&mut self, block: Block, stored: &StoredBlock) -> Result<Cid, StoreError> {
        debug_assert_eq!(
            block.header.epoch, stored.epoch,
            "the block is the stored one"
        );
        self.link(block, stored.cid, Some(stored.packed.clone()))
    }

    /// Makes `block`, whose CID is `cid` and whose compressed bytes are
    /// `packed` if it came from storage, the head once it extends the
    /// current one; the old head is stored into history.
    fn link(
        &mut self,
        block: Block,
        cid: Cid,
        packed: Option<Box<[u8]>>,
    ) -> Result<Cid, StoreError> {
        if block.header.subnet != self.subnet {
            return Err(StoreError::WrongSubnet(block.header.subnet.clone()));
        }
        if self.by_cid.contains_key(&cid) {
            return Err(StoreError::DuplicateBlock(cid));
        }
        if block.header.parent != self.head {
            return Err(StoreError::ParentMismatch {
                expected: self.head,
                got: block.header.parent,
            });
        }
        if !self.is_empty() && block.header.epoch <= self.head_epoch {
            return Err(StoreError::EpochNotMonotonic {
                head: self.head_epoch,
                got: block.header.epoch,
            });
        }
        self.by_cid.insert(cid, self.len());
        self.head_epoch = block.header.epoch;
        let old_packed = std::mem::replace(&mut self.head_packed, packed);
        if let Some(old) = self.head_block.replace(block) {
            let stored = StoredBlock::new(&old, self.head, old_packed);
            self.history.blocks.push(stored);
        }
        self.head = cid;
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
        assert_eq!(store.head_block().unwrap().cid(), c2);
        let cids: Vec<Cid> = store.iter().map(|b| b.cid()).collect();
        assert_eq!(cids, [c1, c2]);
        // Only the head is decoded; iterating kept nothing.
        assert_eq!(store.decoded_len(), 1);
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
    fn into_history_hands_over_the_chain_oldest_first() {
        let mut store = ChainStore::new(SubnetId::root());
        let b1 = block_at(1, Cid::NIL);
        let c1 = store.append(b1.clone()).unwrap();
        let b2 = block_at(2, c1);
        let c2 = store.append(b2.clone()).unwrap();
        let history = store.into_history();
        let cids: Vec<Cid> = history.iter().map(StoredBlock::cid).collect();
        assert_eq!(cids, [c1, c2]);
        assert_eq!(
            history.iter().map(StoredBlock::decode).collect::<Vec<_>>(),
            [b1, b2]
        );
    }

    #[test]
    fn a_history_read_decodes_one_block_into_its_memo() {
        let mut store = ChainStore::new(SubnetId::root());
        let b1 = block_at(1, Cid::NIL);
        let c1 = store.append(b1.clone()).unwrap();
        let c2 = store.append(block_at(2, c1)).unwrap();
        store.append(block_at(3, c2)).unwrap();
        assert_eq!(store.header_at(ChainEpoch::new(1)), Some(b1.header.clone()));
        assert_eq!(store.decoded_len(), 1, "a header read decodes no block");
        assert_eq!(store.get(&c1), Some(&b1));
        assert_eq!(store.get_by_epoch(ChainEpoch::new(1)), Some(&b1));
        assert_eq!(store.decoded_len(), 2);
    }

    #[test]
    fn a_stored_block_joins_as_stored_and_must_extend_the_head() {
        let mut peers = ChainStore::new(SubnetId::root());
        let c1 = peers.append(block_at(1, Cid::NIL)).unwrap();
        let c2 = peers.append(block_at(2, c1)).unwrap();
        // The peers hold each block as one literal run, a packing the
        // encoder never picks, so bytes kept are told from bytes redone.
        let stored: Vec<StoredBlock> = peers
            .into_history()
            .iter()
            .map(|s| StoredBlock {
                packed: literal_run(&s.canonical_bytes()),
                ..s.clone()
            })
            .collect();
        let stored: Vec<&StoredBlock> = stored.iter().collect();

        let mut store = ChainStore::new(SubnetId::root());
        let append = |store: &mut ChainStore, s: &StoredBlock| store.append_stored(s.decode(), s);
        assert!(matches!(
            append(&mut store, stored[1]),
            Err(StoreError::ParentMismatch { .. })
        ));
        assert_eq!(append(&mut store, stored[0]), Ok(c1));
        assert_eq!(append(&mut store, stored[1]), Ok(c2));
        assert_eq!(
            append(&mut store, stored[1]),
            Err(StoreError::DuplicateBlock(c2))
        );
        assert_eq!((store.len(), store.head(), store.decoded_len()), (2, c2, 1));
        let cids: Vec<Cid> = store.iter().map(|b| b.cid()).collect();
        assert_eq!(cids, [c1, c2]);
        // A validated block extends a stored head as it extends any other.
        let c3 = store.append(block_at(3, c2)).unwrap();
        assert_eq!(store.get_by_epoch(ChainEpoch::new(1)).unwrap().cid(), c1);
        assert_eq!(store.head(), c3);
        // The stored blocks keep the bytes they came in.
        let history = store.into_history();
        assert_eq!(history.iter().take(2).collect::<Vec<_>>(), stored);
    }

    /// `bytes` packed as one run of literals.
    fn literal_run(bytes: &[u8]) -> Box<[u8]> {
        let mut packed = Vec::new();
        for _ in 0..2 {
            let mut n = bytes.len();
            while n >= 0x80 {
                packed.push(n as u8 | 0x80);
                n >>= 7;
            }
            packed.push(n as u8);
        }
        packed.extend_from_slice(bytes);
        assert_eq!(lz::decompress(&packed).as_deref(), Ok(bytes));
        packed.into()
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
