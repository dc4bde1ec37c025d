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
//!   dirtied paths (a cleared per-node CID cache marks them), not the map,
//!   and each interior node only from the first block that changed (see
//!   *Resumed hashing* below);
//! * **O(diff) persists** — [`Hamt::persist`] walks top-down and prunes at
//!   the first node the [`CidStore`] already holds, so consecutive
//!   snapshots write only new nodes (parent-present ⟹ subtree-present is
//!   maintained by always persisting children before their parent).
//!
//! **Node layout.** Entries live in leaf nodes only; interior nodes hold
//! nothing but links. A subtree holding at most `LEAF_CAP` (64) entries is
//! one *leaf*: its entries, sorted by key. Anything larger is an *interior*
//! node: a 32-bit bitmap and one child CID per occupied slot of the next
//! five hash bits. A write therefore re-hashes its own leaf and a link-only
//! node per level above it, never the entries of neighbouring accounts
//! that merely share a hash prefix.
//!
//! **Resumed hashing.** An interior blob is at most 1 029 bytes (17
//! SHA-256 blocks), and the bytes before its first changed link are the
//! same as at its last flush. So an interior node keeps the SHA-256
//! chaining value after each whole 64-byte block of the blob it last
//! hashed; a write that descends through child `i` forgets the values
//! from the block holding link `i` on, and the next flush resumes after
//! the last value left ([`Sha256::resume`]) and records the rest. A change
//! of layout — a bitmap change, which moves every link, a split or merge
//! that makes a new node, a load — leaves no values, so that node is
//! hashed from byte 0. A leaf records nothing: an insert or removal shifts
//! every entry after it and changes the count at its head. There is one
//! hashing path, `node_cid`: a fresh tree hashes through it from byte 0,
//! so the from-scratch reference (`StateTree::recompute_root`) checks the
//! resumed hashes against the same code run without resumption.
//!
//! **Routes.** A key's route is [`hash_key`], the SHA-256 digest of its
//! encoding, and never changes. [`Hamt::set`], [`Hamt::get`] and
//! [`Hamt::delete`] hash the key and descend; [`Hamt::set_at`],
//! [`Hamt::get_at`] and [`Hamt::get_mut_at`] descend along a route the
//! caller kept from an earlier write. [`Hamt::build`] makes a whole tree in one pass from routes the
//! caller hashed: it sorts them, splits them by slot, level by level, and
//! makes each leaf once, so no key is routed twice. The account table
//! keeps each account's route in an index beside this tree, which is the
//! table's only copy of the accounts, so a state flush re-writing an
//! account hashes its nodes, not its address (DESIGN.md §14). A leaf that
//! outgrows the cap is re-built the same way from its keys' routes.
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
//! leaf:     0x6c ('l'), u64 n, then n × (key bytes ‖ value bytes), back
//!           to back in ascending key order
//! ```
//!
//! A leaf's entries carry no length prefixes: canonical encodings delimit
//! themselves, so only the typed [`Hamt::load`] parses a leaf, and a
//! closure walk needs its tag alone — a leaf links to nothing. The count
//! stays, so a load knows a leaf's size before it allocates.

use std::sync::Arc;

use hc_types::crypto::sha256;
use hc_types::{
    ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MHamtNode, Sha256, TCid,
};

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

/// Bytes of an interior blob before its first child link: the tag and the
/// bitmap.
const INTERIOR_HEADER: usize = 1 + 4;

/// Hash work done by a [`Hamt::flush`]: how many node blobs were
/// re-encoded and re-hashed, and the bytes hashed to do it.
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

/// A key's route: the 256 hash bits that place it in the trie, 5 at a
/// time. The same key always has the same route.
pub type Route = [u8; 32];

/// The route of `key`: the SHA-256 digest of its canonical encoding — the
/// one way a key is hashed. A caller that keeps a key's route passes it to
/// [`Hamt::set_at`] / [`Hamt::get_at`] rather than hashing again.
pub fn hash_key<K: CanonicalEncode>(key: &K) -> Route {
    sha256(&key.canonical_bytes())
}

/// The CID of the node blob `blob` — the one way a node is hashed — and
/// the number of bytes hashed for it. With `chain`, hashing resumes after
/// the blob's first `chain.len()` blocks, whose chaining values `chain`
/// holds from an earlier hash of the same prefix, and `chain` then takes
/// the values of the blocks hashed now; without, the blob is hashed whole.
fn node_cid(blob: &[u8], chain: Option<&mut Vec<[u32; 8]>>) -> (TCid<MHamtNode>, usize) {
    let (hasher, from) = match chain {
        Some(chain) => {
            let from = 64 * chain.len();
            let mut hasher = Sha256::resume(chain);
            hasher.update_recording(&blob[from..], chain);
            (hasher, from)
        }
        None => {
            let mut hasher = Sha256::new();
            hasher.update(blob);
            (hasher, 0)
        }
    };
    let cid = TCid::from_cid(Cid::from_bytes(hasher.finalize()));
    (cid, blob.len() - from)
}

/// The 5-bit slot index of `hash` at `depth` (clamped to [`MAX_DEPTH`]).
fn slot_at(hash: &Route, depth: usize) -> usize {
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

#[derive(Debug, Clone)]
enum Kind<K, V> {
    /// At most [`LEAF_CAP`] entries (see [`leaf_fits`]), sorted by key.
    Leaf(Vec<(K, V)>),
    /// More than [`LEAF_CAP`] entries below. Boxed, so a leaf is no larger
    /// for what an interior node records.
    Interior(Box<Interior<K, V>>),
}

/// An interior node: child subtrees spread by the next five hash bits, one
/// per set bitmap bit, in ascending bit order. Never empty.
#[derive(Debug, Clone)]
struct Interior<K, V> {
    bitmap: u32,
    children: Vec<Arc<Node<K, V>>>,
    /// SHA-256 chaining values after each whole 64-byte block of this
    /// node's blob as last hashed, cut back to the blocks that precede
    /// every change since: the next flush resumes after the last of them.
    /// Empty on a new or loaded node and after any change of layout (the
    /// bitmap, and with it the blob's length).
    chain: Vec<[u32; 8]>,
}

impl<K, V> Interior<K, V> {
    fn new(bitmap: u32, children: Vec<Arc<Node<K, V>>>) -> Box<Self> {
        Box::new(Interior {
            bitmap,
            children,
            chain: Vec::new(),
        })
    }

    /// Child `pos` is about to change: forget the chaining values of the
    /// block holding its link and every later one.
    fn touch(&mut self, pos: usize) {
        self.chain.truncate((INTERIOR_HEADER + 32 * pos) / 64);
    }

    /// The bitmap is about to change, moving every link: forget them all.
    fn relayout(&mut self) {
        self.chain.clear();
    }
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
                    k.write_bytes(out);
                    v.write_bytes(out);
                }
            }
            Kind::Interior(interior) => {
                out.push(HAMT_NODE_TAG);
                interior.bitmap.write_bytes(out);
                for child in &interior.children {
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
        self.get_at(&hash_key(key), key)
    }

    /// Looks up `key`, whose route the caller holds: `route` must be
    /// `hash_key(key)`.
    pub fn get_at(&self, route: &Route, key: &K) -> Option<&V> {
        let mut node = &*self.root;
        for depth in 0.. {
            match &node.kind {
                Kind::Leaf(entries) => {
                    return leaf_search(entries, key).ok().map(|at| &entries[at].1);
                }
                Kind::Interior(interior) => {
                    let idx = slot_at(route, depth);
                    if !has_slot(interior.bitmap, idx) {
                        return None;
                    }
                    node = &interior.children[slot_position(interior.bitmap, idx)];
                }
            }
        }
        unreachable!("loop returns")
    }

    /// Mutable access to `key`'s value, whose route the caller holds:
    /// `route` must be `hash_key(key)`. When the key is present, dirties
    /// (un-caches) exactly the root path to its leaf, copying the nodes on
    /// it that a clone shares; when absent, changes nothing.
    pub fn get_mut_at(&mut self, route: &Route, key: &K) -> Option<&mut V> {
        self.get_at(route, key)?;
        let mut node = Arc::make_mut(&mut self.root);
        for depth in 0.. {
            node.cached = None;
            match &mut node.kind {
                Kind::Leaf(entries) => {
                    let at = leaf_search(entries, key).ok()?;
                    return Some(&mut entries[at].1);
                }
                Kind::Interior(interior) => {
                    let pos = slot_position(interior.bitmap, slot_at(route, depth));
                    interior.touch(pos);
                    node = Arc::make_mut(&mut interior.children[pos]);
                }
            }
        }
        unreachable!("loop returns")
    }

    /// Inserts or replaces `key`, returning the previous value if any.
    /// Dirties (un-caches) exactly the root path to the key's leaf.
    pub fn set(&mut self, key: K, value: V) -> Option<V> {
        self.set_at(&hash_key(&key), key, value)
    }

    /// [`Hamt::set`] for a key whose route the caller holds: `route` must
    /// be `hash_key(&key)`. A leaf split re-routes the entries it spreads
    /// from their keys.
    pub fn set_at(&mut self, route: &Route, key: K, value: V) -> Option<V> {
        let old = Self::set_rec(Arc::make_mut(&mut self.root), route, 0, key, value);
        if old.is_none() {
            self.count += 1;
        }
        old
    }

    fn set_rec(node: &mut Node<K, V>, hash: &Route, depth: usize, key: K, value: V) -> Option<V> {
        node.cached = None;
        match &mut node.kind {
            Kind::Leaf(entries) => {
                match leaf_search(entries, &key) {
                    Ok(at) => return Some(std::mem::replace(&mut entries[at].1, value)),
                    Err(at) => entries.insert(at, (key, value)),
                }
                if !leaf_fits(entries.len(), depth) {
                    let mut routed: Vec<(Route, Option<(K, V)>)> = std::mem::take(entries)
                        .into_iter()
                        .map(|(k, v)| (hash_key(&k), Some((k, v))))
                        .collect();
                    routed.sort_unstable_by_key(|(route, _)| *route);
                    *node = Self::subtree(&mut routed, depth, &mut |entry| {
                        entry.take().expect("an entry goes into one leaf")
                    });
                }
                None
            }
            Kind::Interior(interior) => {
                let idx = slot_at(hash, depth);
                let pos = slot_position(interior.bitmap, idx);
                if !has_slot(interior.bitmap, idx) {
                    interior.relayout();
                    interior.bitmap |= 1 << idx;
                    let leaf = Arc::new(Node::leaf(vec![(key, value)]));
                    interior.children.insert(pos, leaf);
                    return None;
                }
                interior.touch(pos);
                Self::set_rec(
                    Arc::make_mut(&mut interior.children[pos]),
                    hash,
                    depth + 1,
                    key,
                    value,
                )
            }
        }
    }

    /// The canonical tree over `items`, each a key's route beside what its
    /// entry is made from, in one pass: `items` is sorted by route and
    /// split by slot, level by level, and `entry` is called once per item,
    /// when the leaf holding it is made. Every route must be its key's
    /// [`hash_key`] and the keys distinct; the tree comes out unflushed.
    pub fn build<T>(items: &mut [(Route, T)], mut entry: impl FnMut(&mut T) -> (K, V)) -> Self {
        items.sort_unstable_by_key(|(route, _)| *route);
        Hamt {
            root: Arc::new(Self::subtree(items, 0, &mut entry)),
            count: items.len() as u64,
        }
    }

    /// The canonical (unflushed) subtree at `depth` over `items`, sorted by
    /// route ([`Hamt::build`]). A route's slots, most significant bits
    /// first, are its bits in order, so each slot's items are one run of
    /// the slice.
    fn subtree<T>(
        items: &mut [(Route, T)],
        depth: usize,
        entry: &mut impl FnMut(&mut T) -> (K, V),
    ) -> Node<K, V> {
        if leaf_fits(items.len(), depth) {
            let mut entries: Vec<(K, V)> = items.iter_mut().map(|(_, item)| entry(item)).collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            return Node::leaf(entries);
        }
        let mut bitmap = 0u32;
        let mut children = Vec::new();
        let mut rest = items;
        while let Some((route, _)) = rest.first() {
            let idx = slot_at(route, depth);
            let run = rest.partition_point(|(r, _)| slot_at(r, depth) == idx);
            let (slot, tail) = rest.split_at_mut(run);
            bitmap |= 1 << idx;
            children.push(Arc::new(Self::subtree(slot, depth + 1, entry)));
            rest = tail;
        }
        Node {
            kind: Kind::Interior(Interior::new(bitmap, children)),
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

    fn delete_rec(node: &mut Node<K, V>, hash: &Route, depth: usize, key: &K) -> Option<V> {
        match &mut node.kind {
            Kind::Leaf(entries) => {
                let at = leaf_search(entries, key).ok()?;
                node.cached = None;
                Some(entries.remove(at).1)
            }
            Kind::Interior(interior) => {
                let idx = slot_at(hash, depth);
                if !has_slot(interior.bitmap, idx) {
                    return None;
                }
                let pos = slot_position(interior.bitmap, idx);
                let child = Arc::make_mut(&mut interior.children[pos]);
                let removed = Self::delete_rec(child, hash, depth + 1, key)?;
                node.cached = None;
                interior.touch(pos);
                if matches!(&interior.children[pos].kind, Kind::Leaf(e) if e.is_empty()) {
                    interior.relayout();
                    interior.children.remove(pos);
                    interior.bitmap &= !(1 << idx);
                }
                if let Some(merged) = Self::merged_leaf(&interior.children) {
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
            Kind::Interior(interior) => {
                for child in &interior.children {
                    Self::for_each_node(child, f);
                }
            }
        }
    }

    /// Consumes the map, handing `f` every entry by value (in hash order).
    /// A node no clone shares gives its entries up; a shared one is copied.
    pub fn drain(self, f: &mut impl FnMut(K, V)) {
        Self::drain_node(self.root, f);
    }

    fn drain_node(node: Arc<Node<K, V>>, f: &mut impl FnMut(K, V)) {
        match Arc::unwrap_or_clone(node).kind {
            Kind::Leaf(entries) => {
                for (k, v) in entries {
                    f(k, v);
                }
            }
            Kind::Interior(interior) => {
                for child in interior.children {
                    Self::drain_node(child, f);
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
        if let Kind::Interior(interior) = &mut node.kind {
            for child in &mut interior.children {
                if child.cached.is_none() {
                    Self::flush_node(Arc::make_mut(child), work, scratch);
                }
            }
        }
        scratch.clear();
        node.encode_into(scratch);
        // An interior node resumes after the blocks before its first
        // changed link; a leaf, whose entries shift on every insert, is
        // hashed whole and records nothing.
        let chain = match &mut node.kind {
            Kind::Interior(interior) => Some(&mut interior.chain),
            Kind::Leaf(_) => None,
        };
        let (cid, hashed) = node_cid(scratch, chain);
        work.nodes += 1;
        work.bytes += hashed as u64;
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
        if let Kind::Interior(interior) = &node.kind {
            for child in &interior.children {
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
        let (kind, count) = if blob.first() == Some(&HAMT_LEAF_TAG) {
            let entries = Self::decode_leaf(&blob, depth)?;
            let count = entries.len() as u64;
            (Kind::Leaf(entries), count)
        } else {
            let (bitmap, children) = decode_interior(&blob).map_err(HamtError::Decode)?;
            let mut count = 0u64;
            let mut loaded = Vec::with_capacity(children.len());
            for child_cid in children {
                let (child, n) = Self::load_node(&TCid::from_cid(child_cid), store, depth + 1)?;
                count += n;
                loaded.push(Arc::new(child));
            }
            (Kind::Interior(Interior::new(bitmap, loaded)), count)
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

    /// The entries of the leaf blob `bytes` at `depth`: its count, then
    /// that many key and value encodings back to back, keys strictly
    /// ascending, and nothing after. The count is checked against the
    /// capacity before anything is allocated for it.
    fn decode_leaf(bytes: &[u8], depth: usize) -> Result<Vec<(K, V)>, HamtError> {
        let mut r = ByteReader::new(bytes);
        let decode = HamtError::Decode;
        u8::read_bytes(&mut r).map_err(decode)?;
        let n = r.len_prefix("HamtLeaf").map_err(decode)?;
        if !leaf_fits(n, depth) {
            return Err(HamtError::Structure("leaf over capacity"));
        }
        let mut entries: Vec<(K, V)> = Vec::with_capacity(n.min(LEAF_CAP));
        for _ in 0..n {
            let k = K::read_bytes(&mut r).map_err(decode)?;
            let v = V::read_bytes(&mut r).map_err(decode)?;
            if entries.last().is_some_and(|(prev, _)| *prev >= k) {
                return Err(HamtError::Structure("leaf keys not strictly ascending"));
            }
            entries.push((k, v));
        }
        r.finish().map_err(decode)?;
        Ok(entries)
    }
}

/// The bitmap and child CIDs of the interior blob `bytes`.
fn decode_interior(bytes: &[u8]) -> Result<(u32, Vec<Cid>), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let tag = u8::read_bytes(&mut r)?;
    if tag != HAMT_NODE_TAG {
        return Err(DecodeError::BadTag {
            what: "HamtNode",
            tag,
        });
    }
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
    r.finish()?;
    Ok((bitmap, children))
}

/// The child-node CIDs a canonical HAMT node blob links to: none for a
/// leaf, which its tag alone tells. Used by closure walks (GC
/// reachability, snapshot fetch frontiers, blob-log hydration) that
/// traverse the tree without type context; a leaf's entries are checked
/// by [`Hamt::load`].
pub fn node_links(bytes: &[u8]) -> Result<Vec<Cid>, DecodeError> {
    if bytes.first() == Some(&HAMT_LEAF_TAG) {
        return Ok(Vec::new());
    }
    Ok(decode_interior(bytes)?.1)
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
                Kind::Interior(interior) => interior
                    .children
                    .iter()
                    .map(|c| walk(c))
                    .fold((1, 0, 1), |acc, c| {
                        (acc.0 + c.0, acc.1 + c.1, acc.2.max(c.2 + 1))
                    }),
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

    /// The one-pass build and a `set` per key reach the same tree: same
    /// root, count and lookups, on either side of the cap and many levels
    /// deep.
    #[test]
    fn a_one_pass_build_is_the_tree_sets_reach() {
        for n in [0u64, 1, 64, 65, 2_000, 20_000] {
            let mut items: Vec<(Route, u64)> = (0..n)
                .rev()
                .map(|k| (hash_key(&Address::new(k)), k))
                .collect();
            let mut built = Map::build(&mut items, |k| (Address::new(*k), *k));
            let mut set = map_of(0..n);
            assert_eq!(built.len(), n);
            assert_eq!(flushed_root(&mut built), flushed_root(&mut set), "{n} keys");
            assert_eq!(shape(&built), shape(&set), "{n} keys");
            assert_eq!(
                built.get(&Address::new(n / 2)),
                set.get(&Address::new(n / 2))
            );
        }
    }

    #[test]
    fn node_blobs_are_bounded() {
        // Interior nodes are links only; leaves hold at most LEAF_CAP
        // (Address, u64) entries of 8 + 8 bytes, with no framing.
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
                    assert!(blob.len() <= 1 + 8 + LEAF_CAP * 16);
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

    /// A write in place through `get_mut_at` leaves a clone untouched,
    /// re-hashes only its own path and reaches the root a fresh build of
    /// the same content has; an absent key dirties nothing. Draining a
    /// clone hands over every entry and leaves the original whole.
    #[test]
    fn a_write_in_place_dirties_its_path_alone() {
        let mut h = map_of(0..10_000);
        flushed_root(&mut h);
        let twin = h.clone();
        let absent = Address::new(10_001);
        assert_eq!(h.get_mut_at(&hash_key(&absent), &absent), None);
        assert!(h.cached_root().is_some(), "an absent key dirties nothing");

        let key = Address::new(42);
        *h.get_mut_at(&hash_key(&key), &key).unwrap() = u64::MAX;
        let mut inc = HashWork::default();
        h.flush(&mut inc);
        assert!(
            inc.nodes <= 5,
            "one path re-hashed, got {} nodes",
            inc.nodes
        );
        assert_eq!(twin.get(&key), Some(&42), "the clone keeps its value");
        let mut fresh = map_of(0..10_000);
        fresh.set(key, u64::MAX);
        assert_eq!(flushed_root(&mut h), flushed_root(&mut fresh));

        let mut drained = Vec::new();
        twin.clone().drain(&mut |k, v| drained.push((k, v)));
        drained.sort();
        assert!(drained.iter().map(|(k, _)| k.id()).eq(0..10_000));
        assert_eq!(twin.len(), 10_000);
        assert_eq!(twin.get(&key), Some(&42));
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

    /// A leaf blob of `keys`, in the given order, each mapped to itself:
    /// the count, then each key's and value's encoding back to back.
    fn leaf_blob(keys: &[u64]) -> Vec<u8> {
        let mut out = vec![HAMT_LEAF_TAG];
        (keys.len() as u64).write_bytes(&mut out);
        for k in keys {
            Address::new(*k).write_bytes(&mut out);
            k.write_bytes(&mut out);
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

        // A leaf is parsed only by the typed load: a closure walk reads its
        // tag and finds no links, whatever follows.
        let mut trailing = leaf_blob(&[1, 2]);
        trailing.push(0);
        let mut forged_count = vec![HAMT_LEAF_TAG];
        u64::MAX.write_bytes(&mut forged_count);
        let mut short_count = leaf_blob(&[1, 2]);
        short_count[1] = 3;
        let mut long_count = leaf_blob(&[1, 2]);
        long_count[1] = 1;
        let mut cut_entry = leaf_blob(&[1, 2]);
        cut_entry.pop();
        for (blob, why) in [
            (trailing, "trailing bytes"),
            (forged_count, "forged entry count"),
            (short_count, "count beyond the entries"),
            (long_count, "entries beyond the count"),
            (cut_entry, "an entry cut short"),
            (vec![HAMT_LEAF_TAG], "no count"),
        ] {
            assert_eq!(
                node_links(&blob),
                Ok(Vec::new()),
                "{why}: a leaf links to nothing"
            );
            assert!(
                matches!(load(blob), Err(HamtError::Decode(_))),
                "{why} must be a decode error"
            );
        }

        let mut empty_interior = vec![HAMT_NODE_TAG];
        0u32.write_bytes(&mut empty_interior);
        let mut short_interior = vec![HAMT_NODE_TAG];
        0b11u32.write_bytes(&mut short_interior);
        Cid::digest(b"only one child").write_bytes(&mut short_interior);
        let mut trailing_interior = vec![HAMT_NODE_TAG];
        0b1u32.write_bytes(&mut trailing_interior);
        Cid::digest(b"the child").write_bytes(&mut trailing_interior);
        trailing_interior.push(0);
        for (blob, why) in [
            (empty_interior, "interior without children"),
            (short_interior, "fewer links than bitmap bits"),
            (trailing_interior, "trailing bytes after the links"),
            (Vec::new(), "an empty blob"),
            (vec![0x00], "an unknown tag"),
        ] {
            assert!(node_links(&blob).is_err(), "{why} must not decode");
            assert!(
                matches!(load(blob), Err(HamtError::Decode(_))),
                "{why} must be a decode error"
            );
        }
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
