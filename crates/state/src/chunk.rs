//! Chunked state commitment.
//!
//! The state root is the Merkle root over a small, ordered set of chunk
//! leaves ([`hc_types::merkle`]): a metadata chunk, the SCA, the
//! atomic-execution registry, one chunk per deployed Subnet Actor — and two
//! indirection leaves: a single **accounts** leaf that commits to the root
//! of a content-addressed HAMT ([`crate::hamt`]) holding every account, and
//! a **registry** leaf that commits to the root of the append-only AMT
//! ([`crate::amt`]) logging the SCA's cross-message content registry.
//! Account writes therefore re-hash only their O(log n) HAMT root path plus
//! the fixed-size leaf layer, and a checkpoint cut re-hashes only the
//! AMT's rightmost path; the flat one-leaf-per-account scheme this replaces
//! re-patched (or structurally rebuilt) a million-leaf Merkle tree on every
//! account insert.
//!
//! A persisted snapshot ([`ChunkManifest`]) likewise shrinks from an
//! O(accounts) index to the state root, the handful of fixed chunk CIDs,
//! the HAMT root CID and the AMT root: consecutive snapshots structurally
//! share every untouched subtree, and snapshot closures (sync, hydration,
//! GC reachability) become tree traversals ([`blob_links`]).
//!
//! This mirrors how FVM-family chains commit state through chunked IPLD
//! structures (HAMTs over a blockstore) rather than serialising the world.

use std::collections::{BTreeMap, BTreeSet};

use hc_types::merkle::MerkleTree;
use hc_types::{
    Address, ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MHamtNode, TCid,
};

use crate::amt::{amt_links, AmtRoot, AMT_NODE_TAG};
use crate::hamt::{node_links, Hamt, HAMT_NODE_TAG};
use crate::tree::AccountState;

/// First byte of a canonical [`ChunkManifest`] encoding ('m'). Disjoint
/// from the HAMT/AMT node tags and from every [`ChunkKey`] tag, so a blob's
/// first byte identifies its shape for closure walks ([`blob_links`]).
pub const MANIFEST_TAG: u8 = 0x6d;

/// Identifies one chunk of the state tree.
///
/// The derived `Ord` fixes the canonical leaf order of the state-root
/// Merkle tree: metadata, SCA, atomic registry, Subnet Actors by address,
/// then the accounts-HAMT and registry-AMT commitment leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChunkKey {
    /// Subnet identity and actor-address allocator (`subnet_id`,
    /// `next_actor_id`).
    Meta,
    /// The subnet's own SCA state.
    Sca,
    /// The atomic-execution coordinator registry.
    Atomic,
    /// One deployed Subnet Actor.
    Sa(Address),
    /// The account ledger, committed through the root CID of its HAMT.
    Accounts,
    /// The SCA's content registry (raw messages behind every cut
    /// `CrossMsgMeta`), committed through the root of its AMT log.
    Registry,
}

impl CanonicalEncode for ChunkKey {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ChunkKey::Meta => 0u8.write_bytes(out),
            ChunkKey::Sca => 1u8.write_bytes(out),
            ChunkKey::Atomic => 2u8.write_bytes(out),
            ChunkKey::Sa(addr) => {
                3u8.write_bytes(out);
                addr.write_bytes(out);
            }
            ChunkKey::Accounts => 4u8.write_bytes(out),
            ChunkKey::Registry => 5u8.write_bytes(out),
        }
    }
}

impl CanonicalDecode for ChunkKey {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(ChunkKey::Meta),
            1 => Ok(ChunkKey::Sca),
            2 => Ok(ChunkKey::Atomic),
            3 => Ok(ChunkKey::Sa(Address::read_bytes(r)?)),
            4 => Ok(ChunkKey::Accounts),
            5 => Ok(ChunkKey::Registry),
            tag => Err(DecodeError::BadTag {
                what: "ChunkKey",
                tag,
            }),
        }
    }
}

/// The accounts commitment leaf: the [`ChunkKey::Accounts`] key bytes
/// followed by the account-HAMT root CID. This leaf's content is an
/// indirection — the account data itself lives in the HAMT node blobs.
pub(crate) fn accounts_leaf_blob(root: &TCid<MHamtNode>) -> Vec<u8> {
    let mut out = ChunkKey::Accounts.canonical_bytes();
    root.write_bytes(&mut out);
    out
}

/// The registry commitment leaf: the [`ChunkKey::Registry`] key bytes
/// followed by the registry-AMT root (height, count, top-node CID) — the
/// same indirection as `accounts_leaf_blob`, for the log in the `registry`
/// module.
pub(crate) fn registry_leaf_blob(root: &AmtRoot) -> Vec<u8> {
    let mut out = ChunkKey::Registry.canonical_bytes();
    root.write_bytes(&mut out);
    out
}

/// Cost counters for state-root maintenance, accumulated across flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Number of [`crate::StateTree::flush`] calls.
    pub flushes: u64,
    /// Flushes that rebuilt the commitment from scratch (first flush, or
    /// after a cache reset).
    pub full_builds: u64,
    /// Chunks re-encoded and re-hashed.
    pub chunks_hashed: u64,
    /// Account-HAMT nodes re-encoded and re-hashed (path invalidation).
    pub hamt_nodes_hashed: u64,
    /// Total bytes fed to the hash function (chunk leaf encodings, HAMT
    /// and registry-AMT node encodings, and interior Merkle nodes).
    pub bytes_hashed: u64,
    /// Overlay account reads answered by the per-block read memo
    /// (accumulated from applied overlays — see
    /// [`crate::overlay::ReadMemoStats`]).
    pub overlay_read_hits: u64,
    /// Overlay account reads that traversed the base table (one per
    /// distinct address per applied overlay).
    pub overlay_read_misses: u64,
}

/// The cached commitment of a [`crate::StateTree`]: the account HAMT,
/// per-chunk leaf digests, the Merkle tree over them, and the set of chunks
/// dirtied since the last flush.
///
/// This cache is *derived* state: it never influences the root value, only
/// how cheaply the root is recomputed. A tree with a reset cache flushes to
/// the identical root (locked in by the equivalence property tests).
#[derive(Debug, Clone, Default)]
pub(crate) struct Commitment {
    /// Whether a full build has happened (digests/merkle/hamt are valid).
    pub(crate) built: bool,
    /// The incrementally-maintained account HAMT. An account write
    /// invalidates only its O(log n) root path; the next flush re-hashes
    /// exactly those nodes.
    pub(crate) accounts_hamt: Hamt<Address, AccountState>,
    /// Leaf digest per chunk, keyed in canonical order: a chunk's leaf
    /// index is its position here.
    pub(crate) digests: BTreeMap<ChunkKey, Cid>,
    /// Merkle tree over the ordered digests.
    pub(crate) merkle: MerkleTree,
    /// Non-account chunks dirtied since the last flush (account dirt is
    /// tracked at account granularity inside [`crate::tree::Accounts`],
    /// registry dirt by the AMT's own root cache).
    pub(crate) dirty: BTreeSet<ChunkKey>,
    /// Per fixed chunk, the `(leaf digest, blob CID)` of its last persist:
    /// a chunk whose digest has not moved since is not encoded, hashed or
    /// put again.
    pub(crate) persisted: BTreeMap<ChunkKey, (Cid, Cid)>,
    /// Accumulated cost counters.
    pub(crate) stats: CommitStats,
}

impl Commitment {
    /// Folds freshly computed leaf digests into the commitment. The leaf
    /// layer is a handful of digests (six plus one per Subnet Actor), so
    /// the Merkle tree over it is simply rebuilt from the cached digests —
    /// whether leaves moved, appeared, or were dropped from `digests` by
    /// the caller. No chunk is re-encoded.
    pub(crate) fn install_digests(&mut self, changed: impl IntoIterator<Item = (ChunkKey, Cid)>) {
        self.digests.extend(changed);
        self.merkle = MerkleTree::from_leaf_hashes(self.digests.values().copied().collect());
        self.stats.bytes_hashed += self.merkle.interior_hash_bytes();
    }
}

/// A persisted snapshot of a state tree: the state root, the content CID of
/// every fixed chunk blob (in canonical chunk order), the root CID of the
/// account HAMT and the root of the registry AMT.
///
/// Manifests are what checkpoints and snapshots store in a
/// [`crate::CidStore`]. The manifest is O(system actors), not O(accounts)
/// or O(cross-net history): account content is reached by traversing the
/// HAMT from `accounts_root`, registry content by traversing the AMT from
/// `registry_root` ([`ChunkManifest::missing_chunks`], [`blob_links`]).
/// Because every blob is content-addressed, consecutive manifests of a
/// slowly-changing state *structurally share* all unchanged chunks and
/// subtrees — only mutated blobs occupy new storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// The state root the chunks commit to.
    pub root: Cid,
    /// Root CID of the account HAMT.
    pub accounts_root: TCid<MHamtNode>,
    /// Root of the content-registry AMT, inline: a syncing node finds the
    /// log's top node in the same fetch round as the HAMT root.
    pub registry_root: AmtRoot,
    /// `(chunk key, blob CID)` pairs for the fixed chunks
    /// (Meta/Sca/Atomic/Sa), in canonical chunk order. Never contains
    /// [`ChunkKey::Accounts`] or [`ChunkKey::Registry`] — those leaves are
    /// derived from `accounts_root` and `registry_root`.
    pub entries: Vec<(ChunkKey, Cid)>,
}

impl CanonicalEncode for ChunkManifest {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        MANIFEST_TAG.write_bytes(out);
        self.root.write_bytes(out);
        self.accounts_root.write_bytes(out);
        self.registry_root.write_bytes(out);
        (self.entries.len() as u64).write_bytes(out);
        for (key, cid) in &self.entries {
            key.write_bytes(out);
            cid.write_bytes(out);
        }
    }
}

impl CanonicalDecode for ChunkManifest {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::read_bytes(r)?;
        if tag != MANIFEST_TAG {
            return Err(DecodeError::BadTag {
                what: "ChunkManifest",
                tag,
            });
        }
        let root = Cid::read_bytes(r)?;
        let accounts_root = TCid::<MHamtNode>::read_bytes(r)?;
        let registry_root = AmtRoot::read_bytes(r)?;
        // `len_prefix` bounds the count by the remaining input, so a forged
        // length cannot drive the preallocation.
        let count = r.len_prefix("ChunkManifest.entries")?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            // One source of truth for key parsing: the `ChunkKey`
            // CanonicalDecode impl.
            entries.push((ChunkKey::read_bytes(r)?, Cid::read_bytes(r)?));
        }
        Ok(ChunkManifest {
            root,
            accounts_root,
            registry_root,
            entries,
        })
    }
}

impl ChunkManifest {
    /// Decodes a manifest from its canonical encoding.
    ///
    /// Returns `None` on any structural violation (truncation, unknown
    /// tag, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        <Self as CanonicalDecode>::decode(bytes).ok()
    }

    /// The blob CIDs reachable from this manifest that are absent from
    /// `store` — exactly the frontier a syncing node must fetch next.
    ///
    /// Fixed chunks come first in manifest order; then the registry AMT
    /// and the account HAMT are traversed from `registry_root` and
    /// `accounts_root` through the blobs already present, surfacing the
    /// missing nodes of the *current* frontier of both trees in the same
    /// pass. Fetching those and calling this again discovers the next
    /// level, until the closure is complete and this returns empty. The
    /// registry goes first because callers truncate to a batch size: its
    /// narrow top levels then descend alongside the (usually much wider)
    /// account tree instead of queueing behind it. Deterministic order,
    /// never repeats a CID.
    pub fn missing_chunks(&self, store: &crate::CidStore) -> Vec<Cid> {
        let mut seen = BTreeSet::new();
        let mut missing = Vec::new();
        for (_, cid) in &self.entries {
            if seen.insert(*cid) && !store.contains(cid) {
                missing.push(*cid);
            }
        }
        type Links = fn(&[u8]) -> Result<Vec<Cid>, DecodeError>;
        let trees: [(Cid, Links); 2] = [
            (self.registry_root.node.cid(), amt_links),
            (self.accounts_root.cid(), node_links),
        ];
        for (root, links_of) in trees {
            let mut frontier = vec![root];
            while let Some(cid) = frontier.pop() {
                if !seen.insert(cid) {
                    continue;
                }
                match store.get(&cid) {
                    None => missing.push(cid),
                    Some(blob) => {
                        if let Ok(links) = links_of(&blob) {
                            frontier.extend(links);
                        }
                    }
                }
            }
        }
        missing
    }

    /// Recomputes the state root from the blobs in `store` and checks it
    /// against the recorded root: every fixed chunk blob must be present,
    /// the full HAMT and AMT closures must be present, and the Merkle root
    /// over the leaf layer (with the accounts and registry leaves derived
    /// from `accounts_root` and `registry_root`) must equal `root`.
    /// Returns `false` on any gap or mismatch.
    pub fn verify(&self, store: &crate::CidStore) -> bool {
        if !self.missing_chunks(store).is_empty() {
            return false;
        }
        let mut leaves: Vec<Vec<u8>> = Vec::with_capacity(self.entries.len() + 2);
        for (_, cid) in &self.entries {
            match store.get(cid) {
                Some(blob) => leaves.push(blob.as_ref().clone()),
                None => return false,
            }
        }
        leaves.push(accounts_leaf_blob(&self.accounts_root));
        leaves.push(registry_leaf_blob(&self.registry_root));
        MerkleTree::from_leaf_bytes(leaves.iter().map(|b| b.as_slice())).root() == self.root
    }
}

/// The child CIDs a state blob links to, dispatched on the blob's leading
/// tag byte: manifests link their fixed chunks, HAMT root and registry-AMT
/// top node, HAMT interior nodes link their children, AMT nodes link theirs;
/// fixed chunk blobs, HAMT leaf nodes (tag `0x6c`: entries only) and
/// anything unrecognisable link to nothing.
///
/// This is the single traversal primitive behind snapshot-closure fetch,
/// blob-log hydration, and GC reachability.
pub fn blob_links(bytes: &[u8]) -> Vec<Cid> {
    match bytes.first() {
        Some(&MANIFEST_TAG) => match ChunkManifest::decode(bytes) {
            Some(m) => {
                let mut links: Vec<Cid> = m.entries.iter().map(|(_, cid)| *cid).collect();
                links.push(m.accounts_root.cid());
                links.push(m.registry_root.node.cid());
                links
            }
            None => Vec::new(),
        },
        Some(&HAMT_NODE_TAG) => node_links(bytes).unwrap_or_default(),
        Some(&AMT_NODE_TAG) => amt_links(bytes).unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Builds a canonical account HAMT from scratch out of account content —
/// the pure reference the incremental path must agree with.
pub(crate) fn build_accounts_hamt<'a>(
    accounts: impl Iterator<Item = (&'a Address, &'a AccountState)>,
) -> Hamt<Address, AccountState> {
    let mut hamt = Hamt::new();
    for (addr, acc) in accounts {
        hamt.set(*addr, acc.clone());
    }
    hamt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amt::Amt;
    use crate::hamt::HashWork;

    /// A made-up registry root for manifests that are only en/decoded.
    fn amt_root(tag: &[u8]) -> AmtRoot {
        AmtRoot {
            height: 1,
            count: 9,
            node: TCid::digest(tag),
        }
    }

    #[test]
    fn chunk_key_order_is_canonical() {
        let mut keys = vec![
            ChunkKey::Registry,
            ChunkKey::Accounts,
            ChunkKey::Sa(Address::new(5)),
            ChunkKey::Atomic,
            ChunkKey::Meta,
            ChunkKey::Sca,
            ChunkKey::Sa(Address::new(0)),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                ChunkKey::Meta,
                ChunkKey::Sca,
                ChunkKey::Atomic,
                ChunkKey::Sa(Address::new(0)),
                ChunkKey::Sa(Address::new(5)),
                ChunkKey::Accounts,
                ChunkKey::Registry,
            ]
        );
    }

    #[test]
    fn chunk_key_encodings_are_distinct() {
        let keys = [
            ChunkKey::Meta,
            ChunkKey::Sca,
            ChunkKey::Atomic,
            ChunkKey::Sa(Address::new(7)),
            ChunkKey::Accounts,
            ChunkKey::Registry,
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.canonical_bytes(), b.canonical_bytes());
            }
        }
    }

    #[test]
    fn chunk_key_decode_paths_agree_on_every_tag() {
        // Regression lock for the decode-path unification: the standalone
        // `CanonicalDecode` impl and the manifest decode path must agree on
        // every tag — the manifest path *is* the CanonicalDecode impl now,
        // so each key must survive both a direct round trip and a round
        // trip through a manifest entry.
        let keys = [
            ChunkKey::Meta,
            ChunkKey::Sca,
            ChunkKey::Atomic,
            ChunkKey::Sa(Address::new(123_456)),
        ];
        for key in keys {
            let direct = ChunkKey::decode(&key.canonical_bytes()).unwrap();
            assert_eq!(direct, key);
            let m = ChunkManifest {
                root: Cid::digest(b"root"),
                accounts_root: TCid::digest(b"hamt"),
                registry_root: amt_root(b"amt"),
                entries: vec![(key, Cid::digest(b"blob"))],
            };
            let via_manifest = ChunkManifest::decode(&m.canonical_bytes()).unwrap();
            assert_eq!(via_manifest.entries[0].0, key);
        }
        // Unknown tags are rejected by both paths identically.
        assert!(ChunkKey::decode(&[9]).is_err());
        let mut bad = ChunkManifest {
            root: Cid::digest(b"root"),
            accounts_root: TCid::digest(b"hamt"),
            registry_root: amt_root(b"amt"),
            entries: vec![(ChunkKey::Meta, Cid::digest(b"blob"))],
        }
        .canonical_bytes();
        let key_offset = 1 + 32 + 32 + 44 + 8;
        bad[key_offset] = 9;
        assert_eq!(ChunkManifest::decode(&bad), None);
    }

    #[test]
    fn manifest_round_trips_through_decode() {
        let m = ChunkManifest {
            root: Cid::digest(b"root"),
            accounts_root: TCid::digest(b"hamt root"),
            registry_root: amt_root(b"amt root"),
            entries: vec![
                (ChunkKey::Meta, Cid::digest(b"meta")),
                (ChunkKey::Sa(Address::new(1_000_000)), Cid::digest(b"sa")),
            ],
        };
        let bytes = m.canonical_bytes();
        assert_eq!(bytes[0], MANIFEST_TAG);
        assert_eq!(ChunkManifest::decode(&bytes), Some(m));
        // Truncation and trailing garbage are rejected.
        assert_eq!(ChunkManifest::decode(&bytes[..bytes.len() - 1]), None);
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(ChunkManifest::decode(&extended), None);
        assert_eq!(ChunkManifest::decode(b""), None);
    }

    #[test]
    fn manifest_decode_bounds_preallocation_by_input() {
        // A forged entry count far beyond the actual input must be
        // rejected by the length-prefix bound, not drive a huge
        // preallocation.
        let mut bytes = vec![MANIFEST_TAG];
        bytes.extend_from_slice(Cid::digest(b"root").as_bytes());
        bytes.extend_from_slice(Cid::digest(b"hamt").as_bytes());
        bytes.extend_from_slice(&amt_root(b"amt").canonical_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(ChunkManifest::decode(&bytes), None);
        let mut big = bytes.clone();
        big.truncate(big.len() - 8);
        big.extend_from_slice(&(1u64 << 19).to_le_bytes());
        assert_eq!(ChunkManifest::decode(&big), None);
    }

    #[test]
    fn missing_chunks_traverses_the_hamt_and_amt_frontiers() {
        let store = crate::CidStore::new();
        let mut hamt: Hamt<Address, AccountState> = Hamt::new();
        for i in 0..200 {
            hamt.set(Address::new(i), AccountState::default());
        }
        let accounts_root = hamt.persist(&store);
        let mut amt: Amt<u64> = Amt::new();
        for i in 0..20 {
            amt.push(i);
        }
        let registry_root = amt.persist(&store);
        let meta_cid = store.put(b"meta blob".to_vec());
        let m = ChunkManifest {
            root: Cid::digest(b"root"),
            accounts_root,
            registry_root,
            entries: vec![(ChunkKey::Meta, meta_cid)],
        };
        // Full closure present: nothing missing.
        assert!(m.missing_chunks(&store).is_empty());

        // A partial store discovers the frontier level by level, like the
        // snapshot-sync fetch loop does.
        let partial = crate::CidStore::new();
        let mut rounds = 0;
        loop {
            let missing = m.missing_chunks(&partial);
            if missing.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds < 64, "frontier fetch must terminate");
            if rounds == 1 {
                // Both trees are discovered in the same pass.
                assert!(missing.contains(&accounts_root.cid()));
                assert!(missing.contains(&registry_root.node.cid()));
            }
            for cid in missing {
                partial.put(store.get(&cid).expect("source has closure").to_vec());
            }
        }
        assert!(rounds >= 2, "a deep HAMT needs multiple fetch rounds");
        assert_eq!(partial.len(), store.len());
    }

    #[test]
    fn blob_links_dispatches_on_tag() {
        let store = crate::CidStore::new();
        let mut hamt: Hamt<Address, AccountState> = Hamt::new();
        let mut work = HashWork::default();
        for i in 0..100 {
            hamt.set(Address::new(i), AccountState::default());
        }
        hamt.flush(&mut work);
        let accounts_root = hamt.persist(&store);
        let registry_root = Amt::<u64>::new().persist(&store);
        let meta_cid = store.put(b"fixed chunk".to_vec());
        let m = ChunkManifest {
            root: Cid::digest(b"root"),
            accounts_root,
            registry_root,
            entries: vec![(ChunkKey::Meta, meta_cid)],
        };
        let links = blob_links(&m.canonical_bytes());
        assert!(links.contains(&meta_cid));
        assert!(links.contains(&accounts_root.cid()));
        assert!(links.contains(&registry_root.node.cid()));
        // HAMT root node links to its children.
        let root_blob = store.get(&accounts_root.cid()).unwrap();
        assert!(!blob_links(&root_blob).is_empty());
        // Fixed chunks and junk are leaves.
        assert!(blob_links(b"fixed chunk").is_empty());
        assert!(blob_links(b"").is_empty());
    }
}
