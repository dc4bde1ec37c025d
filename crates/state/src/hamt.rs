//! A persistent, content-addressed hash array mapped trie (HAMT).
//!
//! This is the structural-sharing map behind the account ledger's state
//! commitment: keys are routed by the bits of the SHA-256 digest of their
//! canonical encoding, interior nodes are canonical-encoded blobs addressed
//! by typed CIDs ([`TCid<MHamtNode>`]), and every mutation copies only the
//! O(log n) root path it touches (via [`Arc::make_mut`]) while all sibling
//! subtrees stay shared. Consequences:
//!
//! * **O(log n) commits** — [`Hamt::flush`] re-hashes exactly the nodes on
//!   dirtied paths (a cleared per-node CID cache marks them), not the map;
//! * **O(diff) persists** — [`Hamt::persist`] walks top-down and prunes at
//!   the first node the [`CidStore`] already holds, so consecutive
//!   snapshots write only new nodes (parent-present ⟹ subtree-present is
//!   maintained by always persisting children before their parent);
//! * **membership proofs** — the root-to-bucket node path *is* the proof
//!   ([`Hamt::prove`] / [`HamtProof::verify`]), unlocking light clients.
//!
//! The shape is **canonical**: for a given key/value content the tree
//! structure — and therefore the root CID — is independent of the
//! insertion/deletion order. Buckets hold up to [`BUCKET_SIZE`] entries
//! sorted by key; inserting into a full bucket splits it one level down,
//! and deleting collapses any non-root node left holding ≤ `BUCKET_SIZE`
//! entries (and no links) back into a parent bucket. The equivalence
//! proptests lock this in against a fresh build from sorted content.
//!
//! Node wire format (self-describing, so closure walks such as GC and
//! snapshot fetch can discover child links without knowing `K`/`V` — see
//! [`node_links`]):
//!
//! ```text
//! 0x68 ('h')                        node tag
//! u32   bitmap                      which of the 32 slots are occupied
//! per set bit, ascending:
//!   0x00 bucket: u64 n, then n × (key bytes, value bytes)   (len-prefixed)
//!   0x01 link:   32-byte child CID
//! ```

use std::sync::Arc;

use hc_types::crypto::sha256;
use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MHamtNode, TCid};

use crate::store::CidStore;

/// First byte of every canonical HAMT node blob.
pub const HAMT_NODE_TAG: u8 = 0x68;

/// Slots per node: the hash is consumed 5 bits at a time.
const BITS: usize = 5;

/// Maximum entries a bucket holds before splitting one level down.
pub const BUCKET_SIZE: usize = 3;

/// Deepest level with fresh hash bits (⌊256 / 5⌋); buckets at this depth
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
    /// hash provides bits for).
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

#[derive(Debug, Clone)]
enum Pointer<K, V> {
    /// Up to [`BUCKET_SIZE`] entries, sorted by key.
    Bucket(Vec<(K, V)>),
    /// A child node one level deeper.
    Link(Arc<Node<K, V>>),
}

#[derive(Debug, Clone)]
struct Node<K, V> {
    bitmap: u32,
    /// One pointer per set bitmap bit, in ascending bit order.
    pointers: Vec<Pointer<K, V>>,
    /// CID of this node's canonical blob; `None` while the node (or any
    /// descendant) has unflushed mutations. Cleared along every
    /// copy-on-write path, so a flush re-hashes exactly the dirty paths.
    cached: Option<TCid<MHamtNode>>,
}

impl<K, V> Node<K, V> {
    fn empty() -> Self {
        Node {
            bitmap: 0,
            pointers: Vec::new(),
            cached: None,
        }
    }

    /// Position of slot `idx`'s pointer in `pointers` (the rank of its bit).
    fn position(&self, idx: usize) -> usize {
        (self.bitmap & ((1u32 << idx) - 1)).count_ones() as usize
    }

    fn has(&self, idx: usize) -> bool {
        self.bitmap & (1u32 << idx) != 0
    }
}

impl<K, V> Node<K, V>
where
    K: CanonicalEncode + Ord + Clone,
    V: CanonicalEncode + Clone,
{
    /// Canonical blob of this node. Children must be flushed (their
    /// `cached` CIDs present).
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![HAMT_NODE_TAG];
        self.bitmap.write_bytes(&mut out);
        for p in &self.pointers {
            match p {
                Pointer::Bucket(entries) => {
                    0u8.write_bytes(&mut out);
                    (entries.len() as u64).write_bytes(&mut out);
                    for (k, v) in entries {
                        k.canonical_bytes().write_bytes(&mut out);
                        v.canonical_bytes().write_bytes(&mut out);
                    }
                }
                Pointer::Link(child) => {
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
            root: Arc::new(Node::empty()),
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
            let idx = slot_at(&hash, depth);
            if !node.has(idx) {
                return None;
            }
            match &node.pointers[node.position(idx)] {
                Pointer::Bucket(entries) => {
                    return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                Pointer::Link(child) => node = child,
            }
        }
        unreachable!("loop returns")
    }

    /// Inserts or replaces `key`, returning the previous value if any.
    /// Dirties (un-caches) exactly the root path to the key's slot.
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
        let idx = slot_at(hash, depth);
        let pos = node.position(idx);
        if !node.has(idx) {
            node.bitmap |= 1 << idx;
            node.pointers
                .insert(pos, Pointer::Bucket(vec![(key, value)]));
            return None;
        }
        match &mut node.pointers[pos] {
            Pointer::Bucket(entries) => {
                if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
                    return Some(std::mem::replace(&mut e.1, value));
                }
                if entries.len() < BUCKET_SIZE || depth >= MAX_DEPTH {
                    let at = entries
                        .binary_search_by(|(k, _)| k.cmp(&key))
                        .expect_err("key not in bucket");
                    entries.insert(at, (key, value));
                    return None;
                }
                // Overflow: push all BUCKET_SIZE + 1 entries one level down.
                let mut child = Node::empty();
                for (k, v) in std::mem::take(entries).into_iter().chain([(key, value)]) {
                    let h = hash_key(&k);
                    Self::set_rec(&mut child, &h, depth + 1, k, v);
                }
                node.pointers[pos] = Pointer::Link(Arc::new(child));
                None
            }
            Pointer::Link(child) => {
                Self::set_rec(Arc::make_mut(child), hash, depth + 1, key, value)
            }
        }
    }

    /// Removes `key`, returning its value if present. Restores canonical
    /// form: any child left with ≤ [`BUCKET_SIZE`] entries (and no links)
    /// collapses back into a bucket of this node, recursively up the path.
    pub fn delete(&mut self, key: &K) -> Option<V> {
        let hash = hash_key(key);
        let removed = Self::delete_rec(Arc::make_mut(&mut self.root), &hash, 0, key)?;
        self.count -= 1;
        Some(removed)
    }

    fn delete_rec(node: &mut Node<K, V>, hash: &[u8; 32], depth: usize, key: &K) -> Option<V> {
        let idx = slot_at(hash, depth);
        if !node.has(idx) {
            return None;
        }
        let pos = node.position(idx);
        match &mut node.pointers[pos] {
            Pointer::Bucket(entries) => {
                let at = entries.iter().position(|(k, _)| k == key)?;
                node.cached = None;
                let (_, v) = entries.remove(at);
                if entries.is_empty() {
                    node.pointers.remove(pos);
                    node.bitmap &= !(1 << idx);
                }
                Some(v)
            }
            Pointer::Link(child) => {
                let removed = Self::delete_rec(Arc::make_mut(child), hash, depth + 1, key)?;
                node.cached = None;
                if let Some(collapsed) = Self::collapse(child) {
                    node.pointers[pos] = Pointer::Bucket(collapsed);
                }
                Some(removed)
            }
        }
    }

    /// If `node` now holds ≤ [`BUCKET_SIZE`] entries spread over buckets
    /// only, returns them as one sorted bucket (the canonical shape —
    /// exactly what a fresh build of the same content would put in the
    /// parent slot).
    fn collapse(node: &Node<K, V>) -> Option<Vec<(K, V)>> {
        let mut total = 0usize;
        for p in &node.pointers {
            match p {
                Pointer::Link(_) => return None,
                Pointer::Bucket(b) => {
                    total += b.len();
                    if total > BUCKET_SIZE {
                        return None;
                    }
                }
            }
        }
        let mut all: Vec<(K, V)> = node
            .pointers
            .iter()
            .flat_map(|p| match p {
                Pointer::Bucket(b) => b.iter().cloned(),
                Pointer::Link(_) => unreachable!("checked above"),
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Some(all)
    }

    /// Visits every entry (in hash order, which is deterministic but not
    /// key order).
    pub fn for_each(&self, f: &mut impl FnMut(&K, &V)) {
        Self::for_each_node(&self.root, f);
    }

    fn for_each_node(node: &Node<K, V>, f: &mut impl FnMut(&K, &V)) {
        for p in &node.pointers {
            match p {
                Pointer::Bucket(entries) => {
                    for (k, v) in entries {
                        f(k, v);
                    }
                }
                Pointer::Link(child) => Self::for_each_node(child, f),
            }
        }
    }

    /// Computes (and caches) the root CID, re-encoding and re-hashing only
    /// nodes on paths dirtied since the last flush. The work done is
    /// accumulated into `work`.
    pub fn flush(&mut self, work: &mut HashWork) -> TCid<MHamtNode> {
        Self::flush_node(Arc::make_mut(&mut self.root), work)
    }

    fn flush_node(node: &mut Node<K, V>, work: &mut HashWork) -> TCid<MHamtNode> {
        if let Some(cid) = node.cached {
            return cid;
        }
        for p in &mut node.pointers {
            if let Pointer::Link(child) = p {
                if child.cached.is_none() {
                    Self::flush_node(Arc::make_mut(child), work);
                }
            }
        }
        let bytes = node.encode();
        work.nodes += 1;
        work.bytes += bytes.len() as u64;
        let cid = TCid::digest(&bytes);
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
        store.put_all(blobs);
        root
    }

    /// The collecting half of [`Hamt::persist`]: flushes and appends the
    /// node blobs `store` lacks to `out` (children before parents) for the
    /// caller to put — [`crate::StateTree::persist`] writes them in one
    /// group with the rest of its snapshot.
    pub(crate) fn unpersisted(
        &mut self,
        store: &CidStore,
        out: &mut Vec<Vec<u8>>,
    ) -> TCid<MHamtNode> {
        let root = self.flush(&mut HashWork::default());
        Self::collect_node(&self.root, store, out);
        root
    }

    fn collect_node(node: &Node<K, V>, store: &CidStore, out: &mut Vec<Vec<u8>>) {
        let cid = node.cached.expect("flushed node has a cached CID");
        if store.contains(&cid.cid()) {
            return;
        }
        for p in &node.pointers {
            if let Pointer::Link(child) = p {
                Self::collect_node(child, store, out);
            }
        }
        out.push(node.encode());
    }

    /// Loads a persisted HAMT from `store`, verifying that every blob
    /// decodes as a canonical node. (Whether the *shape* is canonical for
    /// its content is checked by callers that rebuild and compare roots —
    /// see `StateTree::from_manifest`.)
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
        let wire = WireNode::decode(&blob).map_err(HamtError::Decode)?;
        let mut pointers = Vec::with_capacity(wire.pointers.len());
        let mut count = 0u64;
        for wp in &wire.pointers {
            match wp {
                WirePointer::Bucket(raw) => {
                    let mut entries = Vec::with_capacity(raw.len());
                    for (kb, vb) in raw {
                        let k = K::decode(kb).map_err(HamtError::Decode)?;
                        let v = V::decode(vb).map_err(HamtError::Decode)?;
                        entries.push((k, v));
                    }
                    count += entries.len() as u64;
                    pointers.push(Pointer::Bucket(entries));
                }
                WirePointer::Link(child_cid) => {
                    let (child, n) =
                        Self::load_node(&TCid::from_cid(*child_cid), store, depth + 1)?;
                    count += n;
                    pointers.push(Pointer::Link(Arc::new(child)));
                }
            }
        }
        Ok((
            Node {
                bitmap: wire.bitmap,
                pointers,
                // The store guarantees blob bytes hash to their CID.
                cached: Some(*cid),
            },
            count,
        ))
    }

    /// Builds the membership proof for `key`: the canonical node blobs
    /// from the root down to the bucket holding the entry. Returns `None`
    /// if the key is absent or the tree has unflushed mutations.
    pub fn prove(&self, key: &K) -> Option<HamtProof> {
        self.root.cached?;
        let hash = hash_key(key);
        let mut nodes = Vec::new();
        let mut node = &*self.root;
        for depth in 0.. {
            nodes.push(node.encode());
            let idx = slot_at(&hash, depth);
            if !node.has(idx) {
                return None;
            }
            match &node.pointers[node.position(idx)] {
                Pointer::Bucket(entries) => {
                    entries.iter().find(|(k, _)| k == key)?;
                    return Some(HamtProof { nodes });
                }
                Pointer::Link(child) => node = child,
            }
        }
        unreachable!("loop returns")
    }
}

/// A HAMT membership proof: the node blobs along the key's root path.
///
/// Verification re-hashes each blob against the link that referenced it
/// (the first against the committed root), follows the key's hash slots,
/// and finally checks the claimed entry sits in the terminal bucket — so a
/// proof is exactly as trustworthy as the root CID it is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamtProof {
    /// Canonical node blobs, root first.
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
        let hash = sha256(&key.canonical_bytes());
        let (key_bytes, value_bytes) = (key.canonical_bytes(), value.canonical_bytes());
        let mut expected = root.cid();
        for (depth, blob) in self.nodes.iter().enumerate() {
            if Cid::digest(blob) != expected {
                return false;
            }
            let Ok(wire) = WireNode::decode(blob) else {
                return false;
            };
            let idx = slot_at(&hash, depth);
            if wire.bitmap & (1 << idx) == 0 {
                return false;
            }
            let pos = (wire.bitmap & ((1u32 << idx) - 1)).count_ones() as usize;
            match &wire.pointers[pos] {
                WirePointer::Bucket(entries) => {
                    // The bucket must be the last proof node and contain
                    // the claimed entry verbatim.
                    return depth + 1 == self.nodes.len()
                        && entries
                            .iter()
                            .any(|(kb, vb)| *kb == key_bytes && *vb == value_bytes);
                }
                WirePointer::Link(child) => expected = *child,
            }
        }
        false
    }
}

/// Type-erased wire form of a node: enough structure to follow links and
/// compare raw entry bytes, without knowing `K`/`V`.
struct WireNode {
    bitmap: u32,
    pointers: Vec<WirePointer>,
}

enum WirePointer {
    Bucket(Vec<(Vec<u8>, Vec<u8>)>),
    Link(Cid),
}

impl WireNode {
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let tag = u8::read_bytes(&mut r)?;
        if tag != HAMT_NODE_TAG {
            return Err(DecodeError::BadTag {
                what: "HamtNode",
                tag,
            });
        }
        let bitmap = u32::read_bytes(&mut r)?;
        let mut pointers = Vec::with_capacity(bitmap.count_ones() as usize);
        for _ in 0..bitmap.count_ones() {
            match u8::read_bytes(&mut r)? {
                0 => {
                    let n = r.len_prefix("HamtBucket")?;
                    let mut entries = Vec::with_capacity(n);
                    for _ in 0..n {
                        let k = Vec::<u8>::read_bytes(&mut r)?;
                        let v = Vec::<u8>::read_bytes(&mut r)?;
                        entries.push((k, v));
                    }
                    pointers.push(WirePointer::Bucket(entries));
                }
                1 => pointers.push(WirePointer::Link(Cid::read_bytes(&mut r)?)),
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "HamtPointer",
                        tag,
                    })
                }
            }
        }
        r.finish()?;
        Ok(WireNode { bitmap, pointers })
    }
}

/// The child-node CIDs a canonical HAMT node blob links to. Used by
/// closure walks (GC reachability, snapshot fetch frontiers, blob-log
/// hydration) that traverse the tree without type context.
pub fn node_links(bytes: &[u8]) -> Result<Vec<Cid>, DecodeError> {
    let wire = WireNode::decode(bytes)?;
    Ok(wire
        .pointers
        .iter()
        .filter_map(|p| match p {
            WirePointer::Link(cid) => Some(*cid),
            WirePointer::Bucket(_) => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_types::Address;

    type Map = Hamt<Address, u64>;

    fn flushed_root(h: &mut Map) -> Cid {
        h.flush(&mut HashWork::default()).cid()
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
        let keys: Vec<u64> = (0..200).collect();
        let mut fwd = Map::new();
        for &k in &keys {
            fwd.set(Address::new(k), k);
        }
        let mut rev = Map::new();
        for &k in keys.iter().rev() {
            rev.set(Address::new(k), k);
        }
        assert_eq!(flushed_root(&mut fwd), flushed_root(&mut rev));

        // Insert 300 extra keys then delete them again: the root must come
        // back exactly (bucket splits fully undone by collapse).
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
    fn flush_rehashes_only_the_dirty_path() {
        let mut h = Map::new();
        for i in 0..10_000u64 {
            h.set(Address::new(i), i);
        }
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
        let mut h = Map::new();
        for i in 0..2_000u64 {
            h.set(Address::new(i), i);
        }
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
        let mut h = Map::new();
        for i in 0..100u64 {
            h.set(Address::new(i), i);
        }
        let root = h.persist(&store);
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

    #[test]
    fn proofs_verify_and_reject() {
        let mut h = Map::new();
        for i in 0..3_000u64 {
            h.set(Address::new(i), i + 1);
        }
        let root = h.flush(&mut HashWork::default());
        let proof = h.prove(&Address::new(1234)).unwrap();
        assert!(proof.verify(&root, &Address::new(1234), &1235u64));
        // Wrong value, wrong key, wrong root, tampered blob: all rejected.
        assert!(!proof.verify(&root, &Address::new(1234), &999u64));
        assert!(!proof.verify(&root, &Address::new(4321), &4322u64));
        assert!(!proof.verify(&TCid::digest(b"other"), &Address::new(1234), &1235u64));
        let mut tampered = proof.clone();
        tampered.nodes[0][5] ^= 1;
        assert!(!tampered.verify(&root, &Address::new(1234), &1235u64));
        // Absent key: no proof at all.
        assert!(h.prove(&Address::new(999_999)).is_none());
    }

    #[test]
    fn node_links_walks_the_wire_format() {
        let store = CidStore::new();
        let mut h = Map::new();
        for i in 0..500u64 {
            h.set(Address::new(i), i);
        }
        let root = h.persist(&store);
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
    }
}
