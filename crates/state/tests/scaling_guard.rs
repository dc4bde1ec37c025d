//! Tier-1 scaling guard: at 1M accounts, a single-account write re-hashes
//! at least 10× fewer bytes under the HAMT ledger than under the flat
//! chunk-per-account baseline, and the manifest stays O(system actors);
//! at the rootnet benchmark's size, a block's worth of scattered writes
//! hashes its own leaves plus link-only interior nodes, not its neighbours.
//!
//! The flat baseline is the pre-HAMT design: every account is its own
//! Merkle leaf, so a structural write (account created or removed)
//! rebuilds the whole interior tree — `interior_hash_bytes` of a tree
//! with `n + fixed` leaves. That cost is computed in closed form here and
//! the closed form is checked against the real [`MerkleTree`] at small
//! scale before being trusted at 1M.

use hc_actors::ScaConfig;
use hc_state::{blob_links, ChunkManifest, CidStore, StateTree};
use hc_types::merkle::MerkleTree;
use hc_types::{Address, CanonicalEncode, Cid, Keypair, SubnetId, TokenAmount};

/// Interior bytes hashed by a full `MerkleTree::from_leaf_hashes` build
/// over `n` leaves: each level hashes `floor(len/2)` pairs of `NODE_HASH_BYTES`
/// (an odd tail node is promoted, not hashed).
fn flat_interior_bytes(n: u64) -> u64 {
    let mut total = 0u64;
    let mut len = n;
    while len > 1 {
        total += (len / 2) * hc_types::merkle::NODE_HASH_BYTES;
        len = len.div_ceil(2);
    }
    total
}

#[test]
fn closed_form_matches_the_real_merkle_tree() {
    for n in [1usize, 2, 3, 7, 100, 1_000, 4_097] {
        let tree = MerkleTree::from_leaf_hashes(
            (0..n)
                .map(|i| Cid::digest(&(i as u64).to_le_bytes()))
                .collect(),
        );
        assert_eq!(
            tree.interior_hash_bytes(),
            flat_interior_bytes(n as u64),
            "closed form diverges from MerkleTree at {n} leaves"
        );
    }
}

#[test]
fn million_account_write_rehashes_10x_less_than_flat_baseline() {
    const N: u64 = 1_000_000;
    let key = Keypair::from_seed([0x11; 32]).public();
    let mut tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..N).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
    );
    tree.flush();

    // One structural write: a previously unseen account appears.
    let before = tree.commit_stats().bytes_hashed;
    tree.accounts_mut()
        .get_or_create(Address::new(100 + N))
        .balance = TokenAmount::from_whole(7);
    tree.flush();
    let incremental = tree.commit_stats().bytes_hashed - before;

    // Flat baseline: the new account becomes a new Merkle leaf, so the
    // interior tree over (N + 1) account leaves + 3 fixed chunks is
    // rebuilt from scratch (leaf blob hashing excluded — both designs pay
    // it, so the comparison is conservative in the baseline's favor).
    let flat = flat_interior_bytes(N + 1 + 3);
    assert!(
        incremental > 0 && flat >= 10 * incremental,
        "HAMT write must beat the flat baseline 10x: {incremental} vs {flat} bytes"
    );

    // And the manifest no longer grows with the account count: the state
    // root, the fixed chunks, and one HAMT root CID.
    let store = hc_state::CidStore::new();
    let manifest_cid = tree.persist(&store);
    let manifest = hc_state::ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    assert!(
        manifest.entries.len() <= 4,
        "manifest must stay O(system actors), got {} entries",
        manifest.entries.len()
    );
}

/// The `root-ramp` benchmark's measured block shape: 88 861 materialised
/// accounts, 540 distinct accounts written per flush. The HAMT is three
/// interior levels over ~2.7-entry leaves there, so a written account costs
/// its leaf plus its share of the link-only nodes above it — the layout
/// this replaced kept entries inline in the interior nodes and hashed
/// 3 991 bytes per written account here (~40 unrelated accounts each).
#[test]
fn a_sparse_block_hashes_its_own_leaves_and_link_only_nodes() {
    const ACCOUNTS: u64 = 88_861;
    const WRITES: u64 = 540;
    /// Measured: 1 200 bytes hashed per written account, plus 2 %.
    const MAX_BYTES_PER_WRITE: u64 = 1_224;

    let key = Keypair::from_seed([0x11; 32]).public();
    let mut tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..ACCOUNTS).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
    );
    tree.flush();

    let before = tree.commit_stats();
    for i in 0..WRITES {
        // A stride coprime to the account count: distinct, scattered.
        let addr = Address::new(100 + (i * 7_919 + 13) % ACCOUNTS);
        tree.accounts_mut().get_or_create(addr).balance += TokenAmount::from_atto(1);
    }
    tree.flush();
    let after = tree.commit_stats();
    let per_write = (after.bytes_hashed - before.bytes_hashed) / WRITES;
    eprintln!(
        "sparse block at {ACCOUNTS} accounts x {WRITES} writes: {per_write} bytes, {:.2} nodes \
         hashed per written account",
        (after.hamt_nodes_hashed - before.hamt_nodes_hashed) as f64 / WRITES as f64
    );
    assert!(
        per_write <= MAX_BYTES_PER_WRITE,
        "{per_write} bytes hashed per written account, ceiling {MAX_BYTES_PER_WRITE}"
    );

    // No node preimage is larger than a full interior node (tag, bitmap,
    // 32 links) or a full leaf (tag, count, 64 length-prefixed entries).
    let account = tree.accounts().get(Address::new(100)).expect("funded");
    let entry = 8 + 8 + 8 + account.canonical_bytes().len();
    let max_node = (1 + 4 + 32 * 32).max(1 + 8 + 64 * entry);
    let store = CidStore::new();
    let manifest_cid = tree.persist(&store);
    let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    let mut frontier = vec![manifest.accounts_root.cid()];
    let mut largest = 0;
    while let Some(cid) = frontier.pop() {
        let blob = store.get(&cid).expect("persisted closure is complete");
        largest = largest.max(blob.len());
        frontier.extend(blob_links(&blob));
    }
    assert!(
        largest <= max_node,
        "largest HAMT node is {largest} bytes, bound {max_node}"
    );
}
