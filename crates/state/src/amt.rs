//! A persistent, content-addressed array mapped trie (AMT).
//!
//! The AMT is the ordered sibling of the [`crate::hamt`]: a map from `u64`
//! indices to values, routed by the index bits themselves (3 bits — width
//! 8 — per level) instead of a hash. That makes it the right shape for
//! append-only registries (checkpoint archives, cross-message logs): an
//! append touches only the O(log n) rightmost path, consecutive persisted
//! snapshots structurally share every settled subtree, and an index proof
//! ([`Amt::prove`] / [`AmtProof::verify`]) gives light clients a committed
//! position, not just membership.
//!
//! Shape is canonical: the tree height is the minimum that covers the
//! highest set index (growing wraps the root in a new slot-0 chain), so
//! the root is a pure function of the `(index, value)` content.
//!
//! What commits to an array is its [`AmtRoot`]: height, count and the CID
//! of the top node, 44 bytes that whoever commits to the array embeds
//! inline (a state-root leaf, a snapshot manifest). There is no root blob:
//! a closure walk starts at the top node itself, so an array of up to eight
//! entries is one blob, one fetch round deep.
//!
//! Wire format — self-describing for type-erased closure walks
//! ([`amt_links`]):
//!
//! ```text
//! root (inline): u32 height, u64 count, 32-byte top-node CID
//! node blob:     0x61 ('a'), u8 bitmap, per set bit ascending:
//!                  0x00 leaf: value bytes (len-prefixed)
//!                  0x01 link: 32-byte child CID
//! ```

use std::sync::Arc;

use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MAmtNode, TCid};

use crate::hamt::HashWork;
use crate::store::CidStore;

/// First byte of a canonical AMT node blob.
pub const AMT_NODE_TAG: u8 = 0x61;

/// Index bits consumed per level (width = 8 slots).
const BITS: u32 = 3;
const WIDTH: u64 = 1 << BITS;

/// Tallest tree a `u64` index can need (`8^22 > 2^64`).
const MAX_HEIGHT: u32 = 21;

/// The commitment to an [`Amt`]: its shape header and the CID of its top
/// node. Embedded inline by whatever commits to the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmtRoot {
    /// Levels below the top node (0: the top node holds the values).
    pub height: u32,
    /// Number of set indices.
    pub count: u64,
    /// CID of the top node's blob.
    pub node: TCid<MAmtNode>,
}

impl CanonicalEncode for AmtRoot {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.height.write_bytes(out);
        self.count.write_bytes(out);
        self.node.write_bytes(out);
    }
}

impl CanonicalDecode for AmtRoot {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(AmtRoot {
            height: u32::read_bytes(r)?,
            count: u64::read_bytes(r)?,
            node: TCid::read_bytes(r)?,
        })
    }
}

/// Why a persisted AMT could not be loaded from a [`CidStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmtError {
    /// A referenced blob is absent from the store.
    Missing(Cid),
    /// A blob is not a canonical AMT encoding.
    Decode(DecodeError),
    /// The node graph violates a structural bound.
    Structure(&'static str),
}

impl std::fmt::Display for AmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmtError::Missing(cid) => write!(f, "AMT blob {cid} missing from store"),
            AmtError::Decode(e) => write!(f, "AMT blob failed to decode: {e}"),
            AmtError::Structure(what) => write!(f, "AMT structure invalid: {what}"),
        }
    }
}

impl std::error::Error for AmtError {}

#[derive(Debug, Clone)]
enum Item<V> {
    /// A value, only at height 0.
    Leaf(V),
    /// A child node, only at height > 0.
    Link(Arc<Node<V>>),
}

#[derive(Debug, Clone)]
struct Node<V> {
    bitmap: u8,
    items: Vec<Item<V>>,
    /// CID of this node's blob; `None` while dirty (same protocol as the
    /// HAMT's per-node cache).
    cached: Option<Cid>,
}

impl<V> Node<V> {
    fn empty() -> Self {
        Node {
            bitmap: 0,
            items: Vec::new(),
            cached: None,
        }
    }

    fn position(&self, slot: u64) -> usize {
        (self.bitmap & ((1u8 << slot) - 1)).count_ones() as usize
    }

    fn has(&self, slot: u64) -> bool {
        self.bitmap & (1u8 << slot) != 0
    }
}

impl<V: CanonicalEncode + Clone> Node<V> {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![AMT_NODE_TAG];
        self.bitmap.write_bytes(&mut out);
        for item in &self.items {
            match item {
                Item::Leaf(v) => {
                    0u8.write_bytes(&mut out);
                    v.canonical_bytes().write_bytes(&mut out);
                }
                Item::Link(child) => {
                    1u8.write_bytes(&mut out);
                    child
                        .cached
                        .expect("flushed child has a cached CID")
                        .write_bytes(&mut out);
                }
            }
        }
        out
    }
}

/// A persistent array mapped trie from `u64` indices to `V`.
///
/// Cloning is O(1); clones share structure until mutated.
#[derive(Debug, Clone)]
pub struct Amt<V> {
    height: u32,
    count: u64,
    root: Arc<Node<V>>,
}

impl<V> Default for Amt<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Amt<V> {
    /// An empty array.
    pub fn new() -> Self {
        Amt {
            height: 0,
            count: 0,
            root: Arc::new(Node::empty()),
        }
    }

    /// Number of set indices.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no index is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Highest index the current height can address, exclusive.
    fn capacity(&self) -> u64 {
        WIDTH.saturating_pow(self.height + 1)
    }

    /// The flushed root, if the array has no pending mutations.
    pub fn cached_root(&self) -> Option<AmtRoot> {
        self.root.cached.map(|node| AmtRoot {
            height: self.height,
            count: self.count,
            node: TCid::from_cid(node),
        })
    }
}

impl<V: CanonicalEncode + CanonicalDecode + Clone> Amt<V> {
    /// Looks up index `i`.
    pub fn get(&self, i: u64) -> Option<&V> {
        if i >= self.capacity() {
            return None;
        }
        let mut node = &*self.root;
        for height in (0..=self.height).rev() {
            let slot = (i >> (BITS * height)) & (WIDTH - 1);
            if !node.has(slot) {
                return None;
            }
            match &node.items[node.position(slot)] {
                Item::Leaf(v) => return Some(v),
                Item::Link(child) => node = child,
            }
        }
        None
    }

    /// Sets index `i`, growing the tree height to cover it if needed.
    /// Returns the previous value at `i`, if any.
    pub fn set(&mut self, i: u64, value: V) -> Option<V> {
        while i >= self.capacity() {
            // Wrap the current root into slot 0 of a taller root — the
            // canonical growth step (old content all lives below index
            // 8^(h+1), which is slot 0 at the new height).
            let old = std::mem::replace(&mut self.root, Arc::new(Node::empty()));
            let root = Arc::make_mut(&mut self.root);
            if old.bitmap != 0 {
                root.bitmap = 1;
                root.items.push(Item::Link(old));
            }
            self.height += 1;
        }
        let height = self.height;
        let old = Self::set_rec(Arc::make_mut(&mut self.root), height, i, value);
        if old.is_none() {
            self.count += 1;
        }
        old
    }

    fn set_rec(node: &mut Node<V>, height: u32, i: u64, value: V) -> Option<V> {
        node.cached = None;
        let slot = (i >> (BITS * height)) & (WIDTH - 1);
        let pos = node.position(slot);
        if height == 0 {
            if node.has(slot) {
                let Item::Leaf(old) = &mut node.items[pos] else {
                    unreachable!("height 0 holds leaves");
                };
                return Some(std::mem::replace(old, value));
            }
            node.bitmap |= 1 << slot;
            node.items.insert(pos, Item::Leaf(value));
            return None;
        }
        if !node.has(slot) {
            node.bitmap |= 1 << slot;
            node.items.insert(pos, Item::Link(Arc::new(Node::empty())));
        }
        let Item::Link(child) = &mut node.items[pos] else {
            unreachable!("height > 0 holds links");
        };
        Self::set_rec(Arc::make_mut(child), height - 1, i, value)
    }

    /// Appends `value` at index [`Amt::len`] — the registry idiom (dense,
    /// append-only). Returns the index it landed on.
    pub fn push(&mut self, value: V) -> u64 {
        let i = self.count;
        let replaced = self.set(i, value);
        debug_assert!(replaced.is_none(), "push target was already set");
        i
    }

    /// Visits every `(index, value)` in ascending index order.
    pub fn for_each(&self, f: &mut impl FnMut(u64, &V)) {
        Self::for_each_node(&self.root, self.height, 0, f);
    }

    fn for_each_node(node: &Node<V>, height: u32, base: u64, f: &mut impl FnMut(u64, &V)) {
        for slot in 0..WIDTH {
            if !node.has(slot) {
                continue;
            }
            let idx = base + (slot << (BITS * height));
            match &node.items[node.position(slot)] {
                Item::Leaf(v) => f(idx, v),
                Item::Link(child) => Self::for_each_node(child, height - 1, idx, f),
            }
        }
    }

    /// Computes (and caches) the root, re-hashing only dirty node paths.
    /// The work done is accumulated into `work`.
    pub fn flush(&mut self, work: &mut HashWork) -> AmtRoot {
        if self.root.cached.is_none() {
            Self::flush_node(Arc::make_mut(&mut self.root), work);
        }
        self.cached_root().expect("just flushed")
    }

    fn flush_node(node: &mut Node<V>, work: &mut HashWork) {
        for item in &mut node.items {
            if let Item::Link(child) = item {
                if child.cached.is_none() {
                    Self::flush_node(Arc::make_mut(child), work);
                }
            }
        }
        let bytes = node.encode();
        work.nodes += 1;
        work.bytes += bytes.len() as u64;
        node.cached = Some(Cid::digest(&bytes));
    }

    /// Flushes, then writes every node blob not already present into
    /// `store` (children before parents; a present node prunes its
    /// subtree). Returns the root.
    pub fn persist(&mut self, store: &CidStore) -> AmtRoot {
        let mut blobs = Vec::new();
        let root = self.unpersisted(store, &mut blobs);
        store.put_keyed(blobs);
        root
    }

    /// The collecting half of [`Amt::persist`]: flushes and appends the
    /// blobs `store` lacks to `out` (children before parents, top node
    /// last), each under the CID the flush cached for it, for the caller
    /// to put.
    pub(crate) fn unpersisted(
        &mut self,
        store: &CidStore,
        out: &mut Vec<(Cid, Vec<u8>)>,
    ) -> AmtRoot {
        let root = self.flush(&mut HashWork::default());
        Self::collect_node(&self.root, store, out);
        root
    }

    fn collect_node(node: &Node<V>, store: &CidStore, out: &mut Vec<(Cid, Vec<u8>)>) {
        let cid = node.cached.expect("flushed node has a cached CID");
        if store.contains(&cid) {
            return;
        }
        for item in &node.items {
            if let Item::Link(child) = item {
                Self::collect_node(child, store, out);
            }
        }
        out.push((cid, node.encode()));
    }

    /// Loads a persisted AMT from `store`.
    pub fn load(root: &AmtRoot, store: &CidStore) -> Result<Self, AmtError> {
        if root.height > MAX_HEIGHT {
            return Err(AmtError::Structure("height exceeds u64 index space"));
        }
        let (node, count) = Self::load_node(&root.node.cid(), store, root.height)?;
        if count != root.count {
            return Err(AmtError::Structure("root count does not match content"));
        }
        Ok(Amt {
            height: root.height,
            count,
            root: Arc::new(node),
        })
    }

    fn load_node(cid: &Cid, store: &CidStore, height: u32) -> Result<(Node<V>, u64), AmtError> {
        let blob = store.get(cid).ok_or(AmtError::Missing(*cid))?;
        let wire = WireNode::decode(&blob).map_err(AmtError::Decode)?;
        let mut items = Vec::with_capacity(wire.items.len());
        let mut count = 0u64;
        for item in &wire.items {
            match item {
                WireItem::Leaf(raw) => {
                    if height != 0 {
                        return Err(AmtError::Structure("leaf above height 0"));
                    }
                    let v = V::decode(raw).map_err(AmtError::Decode)?;
                    count += 1;
                    items.push(Item::Leaf(v));
                }
                WireItem::Link(child_cid) => {
                    if height == 0 {
                        return Err(AmtError::Structure("link at height 0"));
                    }
                    let (child, n) = Self::load_node(child_cid, store, height - 1)?;
                    count += n;
                    items.push(Item::Link(Arc::new(child)));
                }
            }
        }
        Ok((
            Node {
                bitmap: wire.bitmap,
                items,
                cached: Some(*cid),
            },
            count,
        ))
    }

    /// Builds the inclusion proof for index `i`: the node blobs from the
    /// top node down to the leaf. Returns `None` if `i` is unset or the
    /// tree has unflushed mutations.
    pub fn prove(&self, i: u64) -> Option<AmtProof> {
        self.root.cached?;
        if i >= self.capacity() {
            return None;
        }
        let mut nodes = Vec::new();
        let mut node = &*self.root;
        for height in (0..=self.height).rev() {
            nodes.push(node.encode());
            let slot = (i >> (BITS * height)) & (WIDTH - 1);
            if !node.has(slot) {
                return None;
            }
            match &node.items[node.position(slot)] {
                Item::Leaf(_) => return Some(AmtProof { nodes }),
                Item::Link(child) => node = child,
            }
        }
        None
    }
}

/// An AMT inclusion proof: the node path from the top node to the leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmtProof {
    /// Canonical node blobs, top-down.
    pub nodes: Vec<Vec<u8>>,
}

impl AmtProof {
    /// Verifies that index `i` holds `value` under the committed `root`.
    pub fn verify<V: CanonicalEncode>(&self, root: &AmtRoot, i: u64, value: &V) -> bool {
        if root.height > MAX_HEIGHT || i >= WIDTH.saturating_pow(root.height + 1) {
            return false;
        }
        let value_bytes = value.canonical_bytes();
        let mut expected = root.node.cid();
        for (step, blob) in self.nodes.iter().enumerate() {
            if Cid::digest(blob) != expected {
                return false;
            }
            let Ok(wire) = WireNode::decode(blob) else {
                return false;
            };
            let Some(height) = root.height.checked_sub(step as u32) else {
                return false;
            };
            let slot = (i >> (BITS * height)) & (WIDTH - 1);
            if wire.bitmap & (1 << slot) == 0 {
                return false;
            }
            let pos = (wire.bitmap & ((1u8 << slot) - 1)).count_ones() as usize;
            match &wire.items[pos] {
                WireItem::Leaf(raw) => {
                    return height == 0 && step + 1 == self.nodes.len() && *raw == value_bytes
                }
                WireItem::Link(child) => expected = *child,
            }
        }
        false
    }
}

struct WireNode {
    bitmap: u8,
    items: Vec<WireItem>,
}

enum WireItem {
    Leaf(Vec<u8>),
    Link(Cid),
}

impl WireNode {
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let tag = u8::read_bytes(&mut r)?;
        if tag != AMT_NODE_TAG {
            return Err(DecodeError::BadTag {
                what: "AmtNode",
                tag,
            });
        }
        let bitmap = u8::read_bytes(&mut r)?;
        let mut items = Vec::with_capacity(bitmap.count_ones() as usize);
        for _ in 0..bitmap.count_ones() {
            match u8::read_bytes(&mut r)? {
                0 => items.push(WireItem::Leaf(Vec::<u8>::read_bytes(&mut r)?)),
                1 => items.push(WireItem::Link(Cid::read_bytes(&mut r)?)),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "AmtItem",
                        tag,
                    })
                }
            }
        }
        r.finish()?;
        Ok(WireNode { bitmap, items })
    }
}

/// The child CIDs an AMT node blob links to — the type-erased hook closure
/// walks use, mirroring [`crate::hamt::node_links`].
pub fn amt_links(bytes: &[u8]) -> Result<Vec<Cid>, DecodeError> {
    let wire = WireNode::decode(bytes)?;
    Ok(wire
        .items
        .iter()
        .filter_map(|item| match item {
            WireItem::Link(cid) => Some(*cid),
            WireItem::Leaf(_) => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Arr = Amt<u64>;

    #[test]
    fn push_get_round_trip_and_count() {
        let mut a = Arr::new();
        for i in 0..1_000u64 {
            assert_eq!(a.push(i * 3), i);
        }
        assert_eq!(a.len(), 1_000);
        assert_eq!(a.get(500), Some(&1500));
        assert_eq!(a.get(1_000), None);
        assert_eq!(a.set(500, 7), Some(1500));
        assert_eq!(a.len(), 1_000);
    }

    #[test]
    fn root_commits_to_content_and_position() {
        let mut a = Arr::new();
        let mut b = Arr::new();
        for i in 0..100 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(
            a.flush(&mut HashWork::default()),
            b.flush(&mut HashWork::default())
        );
        b.set(42, 999);
        assert_ne!(
            a.flush(&mut HashWork::default()),
            b.flush(&mut HashWork::default())
        );
        // Same values at different positions: different root.
        let mut c = Arr::new();
        c.set(1, 0);
        let mut d = Arr::new();
        d.set(2, 0);
        assert_ne!(
            c.flush(&mut HashWork::default()),
            d.flush(&mut HashWork::default())
        );
    }

    #[test]
    fn growth_is_canonical() {
        // Building dense then reading back preserves order; a sparse set
        // at a high index forces the same height as incremental growth.
        let mut grown = Arr::new();
        for i in 0..100 {
            grown.push(i);
        }
        let mut direct = Arr::new();
        for i in (0..100).rev() {
            direct.set(i, i);
        }
        assert_eq!(
            grown.flush(&mut HashWork::default()),
            direct.flush(&mut HashWork::default())
        );
        let mut order = Vec::new();
        grown.for_each(&mut |i, v| order.push((i, *v)));
        assert_eq!(order.len(), 100);
        assert!(order.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn persist_load_round_trips_and_appends_share_structure() {
        let store = CidStore::new();
        let mut a = Arr::new();
        for i in 0..2_000u64 {
            a.push(i);
        }
        let root = a.persist(&store);
        let loaded = Arr::load(&root, &store).unwrap();
        assert_eq!(loaded.len(), 2_000);
        assert_eq!(loaded.get(1_999), Some(&1_999));

        let before = store.len();
        a.push(2_000);
        a.persist(&store);
        let new_blobs = store.len() - before;
        assert!(
            new_blobs <= 6,
            "append writes only the rightmost path + root, got {new_blobs}"
        );
    }

    #[test]
    fn a_small_array_is_one_blob_and_growth_keeps_the_old_top_node() {
        // There is no root blob: up to one node's worth of entries is a
        // single blob, found in the first round of a closure walk.
        let store = CidStore::new();
        let mut a = Arr::new();
        for i in 0..WIDTH {
            a.push(i);
        }
        let small = a.persist(&store);
        assert_eq!((small.height, small.count), (0, WIDTH));
        assert_eq!(store.len(), 1);
        // Growing wraps the old top node, CID and blob unchanged, under a
        // new one: nothing settled is hashed or stored again.
        a.push(WIDTH);
        let mut work = HashWork::default();
        let grown = a.flush(&mut work);
        assert_eq!((grown.height, grown.count), (1, WIDTH + 1));
        assert_eq!(work.nodes, 2, "the new leaf node and the new top node");
        a.persist(&store);
        assert_eq!(store.len(), 3);
        let top = store.get(&grown.node.cid()).unwrap();
        assert!(amt_links(&top).unwrap().contains(&small.node.cid()));
        // Same content, same root — the header is part of it.
        let mut direct = Arr::new();
        for i in 0..=WIDTH {
            direct.push(i);
        }
        assert_eq!(grown, direct.flush(&mut HashWork::default()));
        assert_eq!(AmtRoot::decode(&grown.canonical_bytes()), Ok(grown));
        assert_eq!(grown.canonical_bytes().len(), 44);
    }

    #[test]
    fn load_rejects_missing_corrupt_and_miscounted() {
        let store = CidStore::new();
        let mut a = Arr::new();
        for i in 0..50 {
            a.push(i);
        }
        let root = a.persist(&store);
        assert!(matches!(
            Arr::load(&root, &CidStore::new()),
            Err(AmtError::Missing(_))
        ));
        let junk = AmtRoot {
            node: TCid::from_cid(store.put(b"junk".to_vec())),
            ..root
        };
        assert!(matches!(Arr::load(&junk, &store), Err(AmtError::Decode(_))));
        // Tamper the header: same node tree, wrong count or height.
        let miscounted = AmtRoot {
            count: root.count + 1,
            ..root
        };
        let too_short = AmtRoot {
            height: root.height - 1,
            ..root
        };
        let too_tall = AmtRoot {
            height: MAX_HEIGHT + 1,
            ..root
        };
        for forged in [miscounted, too_short, too_tall] {
            assert!(matches!(
                Arr::load(&forged, &store),
                Err(AmtError::Structure(_))
            ));
        }
    }

    #[test]
    fn proofs_verify_and_reject() {
        let mut a = Arr::new();
        for i in 0..777u64 {
            a.push(i + 1);
        }
        let root = a.flush(&mut HashWork::default());
        let proof = a.prove(123).unwrap();
        assert!(proof.verify(&root, 123, &124u64));
        assert!(!proof.verify(&root, 123, &999u64));
        assert!(!proof.verify(&root, 124, &124u64));
        let other = AmtRoot {
            node: TCid::digest(b"no"),
            ..root
        };
        assert!(!proof.verify(&other, 123, &124u64));
        let mut tampered = proof.clone();
        let last = tampered.nodes.len() - 1;
        let mid = tampered.nodes[last].len() / 2;
        tampered.nodes[last][mid] ^= 1;
        assert!(!tampered.verify(&root, 123, &124u64));
        assert!(a.prove(777).is_none());
    }

    #[test]
    fn amt_links_walks_the_nodes() {
        let store = CidStore::new();
        let mut a = Arr::new();
        for i in 0..300u64 {
            a.push(i);
        }
        let root = a.persist(&store);
        let mut frontier = vec![root.node.cid()];
        let mut seen = 0usize;
        while let Some(cid) = frontier.pop() {
            seen += 1;
            let blob = store.get(&cid).expect("closure complete");
            frontier.extend(amt_links(&blob).expect("valid amt blob"));
        }
        assert_eq!(seen, store.len());
        assert!(amt_links(b"junk").is_err());
    }
}
