//! A persistent, content-addressed hash array mapped trie (HAMT).
//!
//! This is the structural-sharing map behind the account ledger's state
//! commitment: keys are routed by the bits of the SHA-256 digest of their
//! canonical encoding, nodes are canonical-encoded blobs addressed by typed
//! CIDs ([`TCid<MHamtNode>`]), and every mutation copies only the O(log n)
//! root path it touches (via [`Arc::make_mut`]) while all sibling subtrees
//! stay shared. Consequences:
//!
//! * **O(log n) commits** — [`Hamt::flush`] re-hashes exactly the nodes on
//!   dirtied paths (a cleared per-node CID cache marks them), not the map;
//! * **O(diff) persists** — [`Hamt::persist`] walks top-down and prunes at
//!   the first node the [`CidStore`] already holds, so consecutive
//!   snapshots write only new nodes (parent-present ⟹ subtree-present is
//!   maintained by always persisting children before their parent);
//! * **membership proofs** — the root-to-leaf node path *is* the proof
//!   ([`Hamt::prove`] / [`HamtProof::verify`]), unlocking light clients.
//!
//! **Node layout.** Entries live in leaf nodes only; interior nodes hold
//! nothing but links. A subtree holding at most `LEAF_CAP` (64) entries is
//! one *leaf*: its entries, sorted by key. Anything larger is an *interior*
//! node: a 32-bit bitmap and one child CID per occupied slot of the next
//! five hash bits. A write therefore re-hashes its own leaf and at most
//! 1 029 bytes per level above it, never the entries of neighbouring
//! accounts that merely share a hash prefix.
//!
//! The shape is **canonical**: for a given key/value content the tree
//! structure — and therefore the root CID — is independent of the
//! insertion/deletion order. A leaf that outgrows `LEAF_CAP` splits 32-way
//! on the next five hash bits, and a delete that leaves an interior node
//! with `LEAF_CAP` or fewer entries below it merges them back into one
//! leaf, the root included. The equivalence proptests lock this in against
//! a fresh build from sorted content.
//!
//! Node wire format (self-describing, so closure walks such as GC and
//! snapshot fetch can discover child links without knowing `K`/`V` — see
//! [`node_links`]):
//!
//! ```text
//! interior: 0x68 ('h'), u32 bitmap (never 0), then one 32-byte child CID
//!           per set bit, ascending
//! leaf:     0x6c ('l'), u64 n, then n × (key bytes, value bytes), each
//!           length-prefixed, in ascending key order
//! ```

use std::sync::Arc;

use hc_types::crypto::sha256;
use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MHamtNode, TCid};

use crate::store::CidStore;

/// First byte of a canonical interior-node blob.
pub const HAMT_NODE_TAG: u8 = 0x68;

/// First byte of a canonical leaf-node blob. A leaf links to nothing, so
/// closure walks need not know it.
const HAMT_LEAF_TAG: u8 = 0x6c;

/// Slots per interior node: the hash is consumed 5 bits at a time.
const BITS: usize = 5;

/// Most entries a subtree may hold and still be a single leaf: twice the
/// fan-out, so the children of a split leaf average two entries or more.
/// Not tunable in isolation — snapshot sync fetches a closure 16 blobs per
/// round trip, so a smaller cap (more, smaller blobs) lengthens every
/// rejoin; DESIGN.md §13 records the sweep.
const LEAF_CAP: usize = 64;

/// Deepest level with fresh hash bits (⌊256 / 5⌋); leaves at this depth
/// grow without splitting (unreachable in practice — it would take a
/// 255-bit SHA-256 prefix collision).
const MAX_DEPTH: usize = 51;

/// Hash work done by a [`Hamt::flush`]: how many node blobs were
/// re-encoded and re-hashed, and their total byte volume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashWork {
    /// Node blobs hashed.
    pub nodes: u64,
    /// Total bytes fed to the hash function.
    pub bytes: u64,
}

/// Why a persisted HAMT could not be loaded from a [`CidStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HamtError {
    /// A node blob referenced by a link is absent from the store.
    Missing(Cid),
    /// A node blob is not a canonical HAMT node encoding.
    Decode(DecodeError),
    /// The node graph violates a structural bound (e.g. deeper than the
    /// hash provides bits for, or a leaf over capacity).
    Structure(&'static str),
}

impl std::fmt::Display for HamtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HamtError::Missing(cid) => write!(f, "HAMT node {cid} missing from store"),
            HamtError::Decode(e) => write!(f, "HAMT node failed to decode: {e}"),
            HamtError::Structure(what) => write!(f, "HAMT structure invalid: {what}"),
        }
    }
}

impl std::error::Error for HamtError {}

/// The 256 hash bits that route a key, 5 at a time.
fn hash_key<K: CanonicalEncode>(key: &K) -> [u8; 32] {
    sha256(&key.canonical_bytes())
}

/// The 5-bit slot index of `hash` at `depth` (clamped to [`MAX_DEPTH`]).
fn slot_at(hash: &[u8; 32], depth: usize) -> usize {
    let bit = depth.min(MAX_DEPTH) * BITS;
    let byte = bit / 8;
    let shift = bit % 8;
    let wide = (hash[byte] as u16) << 8 | *hash.get(byte + 1).unwrap_or(&0) as u16;
    ((wide >> (16 - BITS - shift)) & 0x1f) as usize
}

/// Whether slot `idx` is occupied in `bitmap`.
fn has_slot(bitmap: u32, idx: usize) -> bool {
    bitmap & (1u32 << idx) != 0
}

/// Position of slot `idx`'s child among the children (the rank of its bit).
fn slot_position(bitmap: u32, idx: usize) -> usize {
    (bitmap & ((1u32 << idx) - 1)).count_ones() as usize
}

/// Whether a leaf of `len` entries at `depth` is within capacity.
fn leaf_fits(len: usize, depth: usize) -> bool {
    len <= LEAF_CAP || depth >= MAX_DEPTH
}

/// Where `key` is, or would be inserted, in a leaf's key-sorted entries.
fn leaf_search<K: Ord, V>(entries: &[(K, V)], key: &K) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.cmp(key))
}

/// Appends `value`'s canonical bytes as a length-prefixed byte string —
/// what `value.canonical_bytes().write_bytes(out)` produces — by patching
/// the prefix in after the value is written, so no temporary is built.
fn write_len_prefixed<T: CanonicalEncode>(value: &T, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    value.write_bytes(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

#[derive(Debug, Clone)]
enum Kind<K, V> {
    /// At most [`LEAF_CAP`] entries (see [`leaf_fits`]), sorted by key.
    Leaf(Vec<(K, V)>),
    /// More than [`LEAF_CAP`] entries, spread over child subtrees by the
    /// next five hash bits: one child per set bitmap bit, in ascending bit
    /// order. Never empty.
    Interior {
        bitmap: u32,
        children: Vec<Arc<Node<K, V>>>,
    },
}

#[derive(Debug, Clone)]
struct Node<K, V> {
    kind: Kind<K, V>,
    /// CID of this node's canonical blob; `None` while the node (or any
    /// descendant) has unflushed mutations. Cleared along every
    /// copy-on-write path, so a flush re-hashes exactly the dirty paths.
    cached: Option<TCid<MHamtNode>>,
}

impl<K, V> Node<K, V> {
    fn leaf(entries: Vec<(K, V)>) -> Self {
        Node {
            kind: Kind::Leaf(entries),
            cached: None,
        }
    }
}

impl<K, V> Node<K, V>
where
    K: CanonicalEncode,
    V: CanonicalEncode,
{
    /// Appends this node's canonical blob to `out`. Children must be
    /// flushed (their `cached` CIDs present).
    fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.kind {
            Kind::Leaf(entries) => {
                out.push(HAMT_LEAF_TAG);
                (entries.len() as u64).write_bytes(out);
                for (k, v) in entries {
                    write_len_prefixed(k, out);
                    write_len_prefixed(v, out);
                }
            }
            Kind::Interior { bitmap, children } => {
                out.push(HAMT_NODE_TAG);
                bitmap.write_bytes(out);
                for child in children {
                    child
                        .cached
                        .expect("flushed child has a cached CID")
                        .write_bytes(out);
                }
            }
        }
    }

    /// Canonical blob of this node, as an owned buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// A persistent hash array mapped trie from `K` to `V`.
///
/// Cloning is O(1) (the root is an [`Arc`]); the clone shares every node
/// with the original until either side mutates, which copies only the
/// touched path.
#[derive(Debug, Clone)]
pub struct Hamt<K, V> {
    root: Arc<Node<K, V>>,
    count: u64,
}

impl<K, V> Default for Hamt<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Hamt<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Hamt {
            root: Arc::new(Node::leaf(Vec::new())),
            count: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl<K, V> Hamt<K, V>
where
    K: CanonicalEncode + CanonicalDecode + Ord + Clone,
    V: CanonicalEncode + CanonicalDecode + Clone,
{
    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_key(key);
        let mut node = &*self.root;
        for depth in 0.. {
            match &node.kind {
                Kind::Leaf(entries) => {
                    return leaf_search(entries, key).ok().map(|at| &entries[at].1);
                }
                Kind::Interior { bitmap, children } => {
                    let idx = slot_at(&hash, depth);
                    if !has_slot(*bitmap, idx) {
                        return None;
                    }
                    node = &children[slot_position(*bitmap, idx)];
                }
            }
        }
        unreachable!("loop returns")
    }

    /// Inserts or replaces `key`, returning the previous value if any.
    /// Dirties (un-caches) exactly the root path to the key's leaf.
    pub fn set(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_key(&key);
        let old = Self::set_rec(Arc::make_mut(&mut self.root), &hash, 0, key, value);
        if old.is_none() {
            self.count += 1;
        }
        old
    }

    fn set_rec(
        node: &mut Node<K, V>,
        hash: &[u8; 32],
        depth: usize,
        key: K,
        value: V,
    ) -> Option<V> {
        node.cached = None;
        match &mut node.kind {
            Kind::Leaf(entries) => {
                match leaf_search(entries, &key) {
                    Ok(at) => return Some(std::mem::replace(&mut entries[at].1, value)),
                    Err(at) => entries.insert(at, (key, value)),
                }
                if !leaf_fits(entries.len(), depth) {
                    *node = Self::subtree(std::mem::take(entries), depth);
                }
                None
            }
            Kind::Interior { bitmap, children } => {
                let idx = slot_at(hash, depth);
                let pos = slot_position(*bitmap, idx);
                if !has_slot(*bitmap, idx) {
                    *bitmap |= 1 << idx;
                    children.insert(pos, Arc::new(Node::leaf(vec![(key, value)])));
                    return None;
                }
                Self::set_rec(
                    Arc::make_mut(&mut children[pos]),
                    hash,
                    depth + 1,
                    key,
                    value,
                )
            }
        }
    }

    /// The canonical (unflushed) subtree at `depth` for `entries`, which
    /// must be sorted by key: one leaf if they fit, else an interior node
    /// over the subtrees of each occupied slot. Distributing in key order
    /// keeps every child's entries sorted.
    fn subtree(entries: Vec<(K, V)>, depth: usize) -> Node<K, V> {
        if leaf_fits(entries.len(), depth) {
            return Node::leaf(entries);
        }
        let mut slots: [Vec<(K, V)>; 1 << BITS] = std::array::from_fn(|_| Vec::new());
        for (k, v) in entries {
            slots[slot_at(&hash_key(&k), depth)].push((k, v));
        }
        let mut bitmap = 0u32;
        let mut children = Vec::new();
        for (idx, slot) in slots.into_iter().enumerate() {
            if !slot.is_empty() {
                bitmap |= 1 << idx;
                children.push(Arc::new(Self::subtree(slot, depth + 1)));
            }
        }
        Node {
            kind: Kind::Interior { bitmap, children },
            cached: None,
        }
    }

    /// Removes `key`, returning its value if present. Restores canonical
    /// form: every interior node on the path left with ≤ `LEAF_CAP` (64)
    /// entries below it merges back into one leaf, bottom-up.
    pub fn delete(&mut self, key: &K) -> Option<V> {
        let hash = hash_key(key);
        let removed = Self::delete_rec(Arc::make_mut(&mut self.root), &hash, 0, key)?;
        self.count -= 1;
        Some(removed)
    }

    fn delete_rec(node: &mut Node<K, V>, hash: &[u8; 32], depth: usize, key: &K) -> Option<V> {
        match &mut node.kind {
            Kind::Leaf(entries) => {
                let at = leaf_search(entries, key).ok()?;
                node.cached = None;
                Some(entries.remove(at).1)
            }
            Kind::Interior { bitmap, children } => {
                let idx = slot_at(hash, depth);
                if !has_slot(*bitmap, idx) {
                    return None;
                }
                let pos = slot_position(*bitmap, idx);
                let removed =
                    Self::delete_rec(Arc::make_mut(&mut children[pos]), hash, depth + 1, key)?;
                node.cached = None;
                if matches!(&children[pos].kind, Kind::Leaf(e) if e.is_empty()) {
                    children.remove(pos);
                    *bitmap &= !(1 << idx);
                }
                if let Some(merged) = Self::merged_leaf(children) {
                    node.kind = Kind::Leaf(merged);
                }
                Some(removed)
            }
        }
    }

    /// If `children` are all leaves holding ≤ [`LEAF_CAP`] entries between
    /// them, those entries as one sorted leaf — exactly what a fresh build
    /// of the same content would put here. (An interior child holds more
    /// than the cap by itself.)
    fn merged_leaf(children: &[Arc<Node<K, V>>]) -> Option<Vec<(K, V)>> {
        // Count before cloning: on most deletes the answer is no.
        let mut total = 0;
        for child in children {
            match &child.kind {
                Kind::Leaf(entries) if total + entries.len() <= LEAF_CAP => total += entries.len(),
                _ => return None,
            }
        }
        let mut all: Vec<(K, V)> = Vec::with_capacity(total);
        for child in children {
            if let Kind::Leaf(entries) = &child.kind {
                all.extend(entries.iter().cloned());
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Some(all)
    }

    /// Visits every entry (in hash order, which is deterministic but not
    /// key order).
    pub fn for_each(&self, f: &mut impl FnMut(&K, &V)) {
        Self::for_each_node(&self.root, f);
    }

    fn for_each_node(node: &Node<K, V>, f: &mut impl FnMut(&K, &V)) {
        match &node.kind {
            Kind::Leaf(entries) => {
                for (k, v) in entries {
                    f(k, v);
                }
            }
            Kind::Interior { children, .. } => {
                for child in children {
                    Self::for_each_node(child, f);
                }
            }
        }
    }

    /// Computes (and caches) the root CID, re-encoding and re-hashing only
    /// nodes on paths dirtied since the last flush. The work done is
    /// accumulated into `work`.
    pub fn flush(&mut self, work: &mut HashWork) -> TCid<MHamtNode> {
        if let Some(cid) = self.root.cached {
            return cid;
        }
        // One encode buffer for the whole flush: children are hashed before
        // their parent encodes, so each node reuses it in turn.
        let mut scratch = Vec::new();
        Self::flush_node(Arc::make_mut(&mut self.root), work, &mut scratch)
    }

    fn flush_node(
        node: &mut Node<K, V>,
        work: &mut HashWork,
        scratch: &mut Vec<u8>,
    ) -> TCid<MHamtNode> {
        if let Kind::Interior { children, .. } = &mut node.kind {
            for child in children {
                if child.cached.is_none() {
                    Self::flush_node(Arc::make_mut(child), work, scratch);
                }
            }
        }
        scratch.clear();
        node.encode_into(scratch);
        work.nodes += 1;
        work.bytes += scratch.len() as u64;
        let cid = TCid::digest(scratch);
        node.cached = Some(cid);
        cid
    }

    /// The flushed root CID, if the tree has no pending mutations.
    pub fn cached_root(&self) -> Option<TCid<MHamtNode>> {
        self.root.cached
    }

    /// Flushes, then writes every node blob not already present into
    /// `store`, returning the root CID. Children are always written before
    /// their parent and a present node prunes its whole subtree, so the
    /// store invariant *parent present ⟹ subtree present* holds and the
    /// write cost is O(nodes new since the last persisted snapshot).
    pub fn persist(&mut self, store: &CidStore) -> TCid<MHamtNode> {
        let mut blobs = Vec::new();
        let root = self.unpersisted(store, &mut blobs);
        store.put_keyed(blobs);
        root
    }

    /// The collecting half of [`Hamt::persist`]: flushes and appends the
    /// node blobs `store` lacks to `out` (children before parents), each
    /// under the CID the flush cached for it, for the caller to put —
    /// [`crate::StateTree::persist`] writes them in one group with the
    /// rest of its snapshot.
    pub(crate) fn unpersisted(
        &mut self,
        store: &CidStore,
        out: &mut Vec<(Cid, Vec<u8>)>,
    ) -> TCid<MHamtNode> {
        let root = self.flush(&mut HashWork::default());
        Self::collect_node(&self.root, store, out);
        root
    }

    fn collect_node(node: &Node<K, V>, store: &CidStore, out: &mut Vec<(Cid, Vec<u8>)>) {
        let cid = node.cached.expect("flushed node has a cached CID").cid();
        if store.contains(&cid) {
            return;
        }
        if let Kind::Interior { children, .. } = &node.kind {
            for child in children {
                Self::collect_node(child, store, out);
            }
        }
        out.push((cid, node.encode()));
    }

    /// Loads a persisted HAMT from `store`, verifying that every blob
    /// decodes as a canonical node, that no leaf is over capacity and that
    /// leaf keys are strictly ascending. (Whether the *shape* is canonical
    /// for its content is checked by callers that rebuild and compare
    /// roots — see `StateTree::from_manifest`.)
    pub fn load(root: &TCid<MHamtNode>, store: &CidStore) -> Result<Self, HamtError> {
        let (node, count) = Self::load_node(root, store, 0)?;
        Ok(Hamt {
            root: Arc::new(node),
            count,
        })
    }

    fn load_node(
        cid: &TCid<MHamtNode>,
        store: &CidStore,
        depth: usize,
    ) -> Result<(Node<K, V>, u64), HamtError> {
        if depth > MAX_DEPTH {
            return Err(HamtError::Structure("node graph deeper than the hash"));
        }
        let blob = store.get(&cid.cid()).ok_or(HamtError::Missing(cid.cid()))?;
        let (kind, count) = match WireNode::decode(&blob).map_err(HamtError::Decode)? {
            WireNode::Leaf(raw) => {
                if !leaf_fits(raw.len(), depth) {
                    return Err(HamtError::Structure("leaf over capacity"));
                }
                let mut entries: Vec<(K, V)> = Vec::with_capacity(raw.len());
                for (kb, vb) in raw {
                    let k = K::decode(kb).map_err(HamtError::Decode)?;
                    let v = V::decode(vb).map_err(HamtError::Decode)?;
                    if entries.last().is_some_and(|(prev, _)| *prev >= k) {
                        return Err(HamtError::Structure("leaf keys not strictly ascending"));
                    }
                    entries.push((k, v));
                }
                let count = entries.len() as u64;
                (Kind::Leaf(entries), count)
            }
            WireNode::Interior { bitmap, children } => {
                let mut count = 0u64;
                let mut loaded = Vec::with_capacity(children.len());
                for child_cid in children {
                    let (child, n) = Self::load_node(&TCid::from_cid(child_cid), store, depth + 1)?;
                    count += n;
                    loaded.push(Arc::new(child));
                }
                (
                    Kind::Interior {
                        bitmap,
                        children: loaded,
                    },
                    count,
                )
            }
        };
        Ok((
            Node {
                kind,
                // The store guarantees blob bytes hash to their CID.
                cached: Some(*cid),
            },
            count,
        ))
    }

    /// Builds the membership proof for `key`: the canonical node blobs
    /// from the root down to the leaf holding the entry. Returns `None`
    /// if the key is absent or the tree has unflushed mutations.
    pub fn prove(&self, key: &K) -> Option<HamtProof> {
        self.root.cached?;
        let hash = hash_key(key);
        let mut nodes = Vec::new();
        let mut node = &*self.root;
        for depth in 0.. {
            nodes.push(node.encode());
            match &node.kind {
                Kind::Leaf(entries) => {
                    leaf_search(entries, key).ok()?;
                    return Some(HamtProof { nodes });
                }
                Kind::Interior { bitmap, children } => {
                    let idx = slot_at(&hash, depth);
                    if !has_slot(*bitmap, idx) {
                        return None;
                    }
                    node = &children[slot_position(*bitmap, idx)];
                }
            }
        }
        unreachable!("loop returns")
    }
}

/// A HAMT membership proof: the node blobs along the key's root path —
/// zero or more interior nodes, then the leaf.
///
/// Verification re-hashes each blob against the link that referenced it
/// (the first against the committed root), follows the key's hash slots
/// through the interior nodes, and finally checks the claimed entry sits in
/// the leaf — so a proof is exactly as trustworthy as the root CID it is
/// checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamtProof {
    /// Canonical node blobs, root first, leaf last.
    pub nodes: Vec<Vec<u8>>,
}

impl HamtProof {
    /// Verifies that `key` maps to `value` under the committed HAMT root
    /// `root`.
    pub fn verify<K, V>(&self, root: &TCid<MHamtNode>, key: &K, value: &V) -> bool
    where
        K: CanonicalEncode,
        V: CanonicalEncode,
    {
        let Some((leaf, path)) = self.nodes.split_last() else {
            return false;
        };
        let (key_bytes, value_bytes) = (key.canonical_bytes(), value.canonical_bytes());
        let hash = sha256(&key_bytes);
        let mut expected = root.cid();
        for (depth, blob) in path.iter().enumerate() {
            if Cid::digest(blob) != expected {
                return false;
            }
            let Ok(WireNode::Interior { bitmap, children }) = WireNode::decode(blob) else {
                return false;
            };
            let idx = slot_at(&hash, depth);
            if !has_slot(bitmap, idx) {
                return false;
            }
            expected = children[slot_position(bitmap, idx)];
        }
        // The last blob must be a leaf holding the claimed entry verbatim.
        Cid::digest(leaf) == expected
            && matches!(
                WireNode::decode(leaf),
                Ok(WireNode::Leaf(entries))
                    if entries.contains(&(key_bytes.as_slice(), value_bytes.as_slice()))
            )
    }
}

/// Type-erased wire form of a node: enough structure to follow links and
/// compare raw entry bytes, without knowing `K`/`V`. Entry bytes borrow
/// from the blob.
enum WireNode<'a> {
    Leaf(Vec<(&'a [u8], &'a [u8])>),
    Interior { bitmap: u32, children: Vec<Cid> },
}

impl<'a> WireNode<'a> {
    fn decode(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let node = match u8::read_bytes(&mut r)? {
            HAMT_LEAF_TAG => {
                let n = r.len_prefix("HamtLeaf")?;
                // Every entry carries two 8-byte length prefixes; bound the
                // count by that so a forged one cannot drive the allocation.
                if n > r.remaining() / 16 {
                    return Err(DecodeError::BadLength {
                        what: "HamtLeaf",
                        len: n as u64,
                    });
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key_len = r.len_prefix("HamtLeaf.key")?;
                    let key = r.take(key_len)?;
                    let value_len = r.len_prefix("HamtLeaf.value")?;
                    entries.push((key, r.take(value_len)?));
                }
                WireNode::Leaf(entries)
            }
            HAMT_NODE_TAG => {
                let bitmap = u32::read_bytes(&mut r)?;
                if bitmap == 0 {
                    return Err(DecodeError::Invalid {
                        what: "HAMT interior node without children",
                    });
                }
                let mut children = Vec::with_capacity(bitmap.count_ones() as usize);
                for _ in 0..bitmap.count_ones() {
                    children.push(Cid::read_bytes(&mut r)?);
                }
                WireNode::Interior { bitmap, children }
            }
            tag => {
                return Err(DecodeError::BadTag {
                    what: "HamtNode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(node)
    }
}

/// The child-node CIDs a canonical HAMT node blob links to (none, for a
/// leaf). Used by closure walks (GC reachability, snapshot fetch frontiers,
/// blob-log hydration) that traverse the tree without type context.
pub fn node_links(bytes: &[u8]) -> Result<Vec<Cid>, DecodeError> {
    Ok(match WireNode::decode(bytes)? {
        WireNode::Interior { children, .. } => children,
        WireNode::Leaf(_) => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_types::Address;

    type Map = Hamt<Address, u64>;

    fn flushed_root(h: &mut Map) -> Cid {
        h.flush(&mut HashWork::default()).cid()
    }

    fn map_of(keys: impl IntoIterator<Item = u64>) -> Map {
        let mut h = Map::new();
        for k in keys {
            h.set(Address::new(k), k);
        }
        h
    }

    /// `(interior nodes, leaves, depth)` of the tree, root at depth 1.
    fn shape(h: &Map) -> (usize, usize, usize) {
        fn walk(node: &Node<Address, u64>) -> (usize, usize, usize) {
            match &node.kind {
                Kind::Leaf(_) => (0, 1, 1),
                Kind::Interior { children, .. } => {
                    children.iter().map(|c| walk(c)).fold((1, 0, 1), |acc, c| {
                        (acc.0 + c.0, acc.1 + c.1, acc.2.max(c.2 + 1))
                    })
                }
            }
        }
        walk(&h.root)
    }

    #[test]
    fn empty_and_single_entry_roots_are_deterministic() {
        let mut a = Map::new();
        let mut b = Map::new();
        assert_eq!(flushed_root(&mut a), flushed_root(&mut b));
        a.set(Address::new(7), 7);
        assert_ne!(flushed_root(&mut a), flushed_root(&mut b));
        b.set(Address::new(7), 7);
        assert_eq!(flushed_root(&mut a), flushed_root(&mut b));
    }

    #[test]
    fn set_get_delete_round_trip() {
        let mut h = Map::new();
        for i in 0..500u64 {
            assert_eq!(h.set(Address::new(i), i * 10), None);
        }
        assert_eq!(h.len(), 500);
        assert_eq!(h.get(&Address::new(123)), Some(&1230));
        assert_eq!(h.set(Address::new(123), 9), Some(1230));
        assert_eq!(h.len(), 500);
        assert_eq!(h.delete(&Address::new(123)), Some(9));
        assert_eq!(h.delete(&Address::new(123)), None);
        assert_eq!(h.get(&Address::new(123)), None);
        assert_eq!(h.len(), 499);
    }

    #[test]
    fn root_is_order_independent_and_delete_restores_canonical_form() {
        let mut fwd = map_of(0..200);
        let mut rev = map_of((0..200).rev());
        assert_eq!(flushed_root(&mut fwd), flushed_root(&mut rev));

        // Insert 300 extra keys then delete them again: the root must come
        // back exactly (leaf splits fully undone by merges).
        let before = flushed_root(&mut fwd);
        for k in 1000..1300u64 {
            fwd.set(Address::new(k), k);
        }
        assert_ne!(flushed_root(&mut fwd), before);
        for k in 1000..1300u64 {
            assert!(fwd.delete(&Address::new(k)).is_some());
        }
        assert_eq!(flushed_root(&mut fwd), before);
    }

    #[test]
    fn a_leaf_splits_past_the_cap_and_merges_back_at_it() {
        let cap = LEAF_CAP as u64;
        let mut h = map_of(0..cap);
        assert_eq!(shape(&h), (0, 1, 1), "≤ LEAF_CAP entries are one leaf");
        let at_cap = flushed_root(&mut h);

        h.set(Address::new(cap), cap);
        let (interior, leaves, depth) = shape(&h);
        assert_eq!((interior, depth), (1, 2), "one more entry splits the root");
        assert!(leaves > 1 && leaves <= 32);
        assert_eq!(flushed_root(&mut h), flushed_root(&mut map_of(0..=cap)));

        assert_eq!(h.delete(&Address::new(cap)), Some(cap));
        assert_eq!(shape(&h), (0, 1, 1), "back at the cap, back to one leaf");
        assert_eq!(flushed_root(&mut h), at_cap);

        // Emptying the map leaves the empty leaf a new map starts as.
        for k in 0..cap {
            h.delete(&Address::new(k));
        }
        assert!(h.is_empty());
        assert_eq!(flushed_root(&mut h), flushed_root(&mut Map::new()));
    }

    #[test]
    fn node_blobs_are_bounded() {
        // Interior nodes are links only; leaves hold at most LEAF_CAP
        // (Address, u64) entries of 8 + 8 + 8 + 8 bytes.
        let store = CidStore::new();
        let root = map_of(0..20_000).persist(&store);
        let mut frontier = vec![root.cid()];
        let (mut interior, mut leaves) = (0, 0);
        while let Some(cid) = frontier.pop() {
            let blob = store.get(&cid).expect("closure complete");
            match blob[0] {
                HAMT_NODE_TAG => {
                    interior += 1;
                    assert!(blob.len() <= 1 + 4 + 32 * 32);
                }
                HAMT_LEAF_TAG => {
                    leaves += 1;
                    assert!(blob.len() <= 1 + 8 + LEAF_CAP * 32);
                }
                tag => panic!("unexpected node tag {tag:#x}"),
            }
            frontier.extend(node_links(&blob).expect("valid node"));
        }
        assert!(interior > 32 && leaves > 1_000);
    }

    #[test]
    fn flush_rehashes_only_the_dirty_path() {
        let mut h = map_of(0..10_000);
        let mut full = HashWork::default();
        h.flush(&mut full);
        assert!(full.nodes > 100, "10k entries span many nodes");

        let mut inc = HashWork::default();
        h.set(Address::new(42), u64::MAX);
        h.flush(&mut inc);
        assert!(
            inc.nodes <= 5,
            "single write re-hashes only its root path, got {} nodes",
            inc.nodes
        );
        // Unflushed-clean flush is free.
        let mut idle = HashWork::default();
        h.flush(&mut idle);
        assert_eq!(idle, HashWork::default());
    }

    #[test]
    fn persist_load_round_trips_and_shares_structure() {
        let store = CidStore::new();
        let mut h = map_of(0..2_000);
        let root = h.persist(&store);
        let first_blobs = store.len();

        let loaded = Map::load(&root, &store).unwrap();
        assert_eq!(loaded.len(), h.len());
        assert_eq!(loaded.cached_root(), Some(root));
        let mut entries = Vec::new();
        loaded.for_each(&mut |k, v| entries.push((*k, *v)));
        assert_eq!(entries.len(), 2_000);

        // One write, re-persist: only the root path is new.
        h.set(Address::new(0), u64::MAX);
        h.persist(&store);
        let new_blobs = store.len() - first_blobs;
        assert!(
            new_blobs <= 5,
            "structural sharing: expected O(log n) new blobs, got {new_blobs}"
        );
    }

    #[test]
    fn load_rejects_missing_and_corrupt_nodes() {
        let store = CidStore::new();
        let root = map_of(0..100).persist(&store);
        let fresh = CidStore::new();
        assert!(matches!(
            Map::load(&root, &fresh),
            Err(HamtError::Missing(_))
        ));
        let garbage = store.put(b"not a node".to_vec());
        assert!(matches!(
            Map::load(&TCid::from_cid(garbage), &store),
            Err(HamtError::Decode(_))
        ));
    }

    /// A leaf blob of `keys`, in the given order, each mapped to itself.
    fn leaf_blob(keys: &[u64]) -> Vec<u8> {
        let mut out = vec![HAMT_LEAF_TAG];
        (keys.len() as u64).write_bytes(&mut out);
        for k in keys {
            write_len_prefixed(&Address::new(*k), &mut out);
            write_len_prefixed(k, &mut out);
        }
        out
    }

    #[test]
    fn load_rejects_malformed_leaves_and_interiors() {
        let store = CidStore::new();
        let load = |blob: Vec<u8>| Map::load(&TCid::from_cid(store.put(blob)), &store);

        assert_eq!(load(leaf_blob(&[1, 2, 3])).unwrap().len(), 3);
        for (blob, why) in [
            (leaf_blob(&[1, 3, 2]), "unsorted keys"),
            (leaf_blob(&[1, 2, 2]), "duplicate key"),
            (
                leaf_blob(&(0..=LEAF_CAP as u64).collect::<Vec<_>>()),
                "over-cap leaf",
            ),
        ] {
            assert!(
                matches!(load(blob), Err(HamtError::Structure(_))),
                "{why} must be a structure error"
            );
        }

        let mut trailing = leaf_blob(&[1, 2]);
        trailing.push(0);
        let mut forged_count = vec![HAMT_LEAF_TAG];
        u64::MAX.write_bytes(&mut forged_count);
        let mut short_count = leaf_blob(&[1, 2]);
        short_count[1] = 3;
        let mut empty_interior = vec![HAMT_NODE_TAG];
        0u32.write_bytes(&mut empty_interior);
        let mut short_interior = vec![HAMT_NODE_TAG];
        0b11u32.write_bytes(&mut short_interior);
        Cid::digest(b"only one child").write_bytes(&mut short_interior);
        for (blob, why) in [
            (trailing, "trailing bytes"),
            (forged_count, "forged entry count"),
            (short_count, "count beyond the entries"),
            (empty_interior, "interior without children"),
            (short_interior, "fewer links than bitmap bits"),
        ] {
            assert!(node_links(&blob).is_err(), "{why} must not decode");
            assert!(
                matches!(load(blob), Err(HamtError::Decode(_))),
                "{why} must be a decode error"
            );
        }
    }

    #[test]
    fn proofs_verify_and_reject() {
        let mut h = Map::new();
        for i in 0..3_000u64 {
            h.set(Address::new(i), i + 1);
        }
        let root = h.flush(&mut HashWork::default());
        let proof = h.prove(&Address::new(1234)).unwrap();
        assert!(proof.nodes.len() >= 2, "interior path, then the leaf");
        assert!(proof.verify(&root, &Address::new(1234), &1235u64));
        // Wrong value, wrong key, wrong root, tampered blob: all rejected.
        assert!(!proof.verify(&root, &Address::new(1234), &999u64));
        assert!(!proof.verify(&root, &Address::new(4321), &4322u64));
        assert!(!proof.verify(&TCid::digest(b"other"), &Address::new(1234), &1235u64));
        let mut tampered = proof.clone();
        tampered.nodes[0][5] ^= 1;
        assert!(!tampered.verify(&root, &Address::new(1234), &1235u64));
        // A path that stops at an interior node, or carries on past the
        // leaf, proves nothing.
        let mut no_leaf = proof.clone();
        no_leaf.nodes.pop();
        assert!(!no_leaf.verify(&root, &Address::new(1234), &1235u64));
        let mut past_leaf = proof.clone();
        past_leaf.nodes.push(proof.nodes.last().unwrap().clone());
        assert!(!past_leaf.verify(&root, &Address::new(1234), &1235u64));
        assert!(!HamtProof { nodes: Vec::new() }.verify(&root, &Address::new(1234), &1235u64));
        // Absent key: no proof at all.
        assert!(h.prove(&Address::new(999_999)).is_none());

        // A single-leaf tree proves with the leaf alone.
        let mut small = map_of(0..10);
        let root = small.flush(&mut HashWork::default());
        let proof = small.prove(&Address::new(3)).unwrap();
        assert_eq!(proof.nodes.len(), 1);
        assert!(proof.verify(&root, &Address::new(3), &3u64));
    }

    #[test]
    fn node_links_walks_the_wire_format() {
        let store = CidStore::new();
        let root = map_of(0..500).persist(&store);
        // BFS via node_links reaches every stored node.
        let mut frontier = vec![root.cid()];
        let mut seen = 0usize;
        while let Some(cid) = frontier.pop() {
            seen += 1;
            let blob = store.get(&cid).expect("closure complete");
            frontier.extend(node_links(&blob).expect("valid node"));
        }
        assert_eq!(seen, store.len());
        assert!(node_links(b"junk").is_err());
        assert_eq!(node_links(&leaf_blob(&[1, 2])), Ok(Vec::new()));
    }
}
