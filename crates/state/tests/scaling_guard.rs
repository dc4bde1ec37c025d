//! Tier-1 scaling guard: at 1M accounts, a single-account write re-hashes
//! at least 10× fewer bytes under the HAMT ledger than under the flat
//! chunk-per-account baseline, and the manifest stays O(system actors);
//! at the rootnet benchmark's size, a block's worth of scattered writes
//! hashes its own leaves plus link-only interior nodes, not its neighbours;
//! a from-scratch build routes each key once, and re-writing an account a
//! flush has routed hashes no key.
//!
//! The flat baseline is the pre-HAMT design: every account is its own
//! Merkle leaf, so a structural write (account created or removed)
//! rebuilds the whole interior tree — `interior_hash_bytes` of a tree
//! with `n + fixed` leaves. That cost is computed in closed form here and
//! the closed form is checked against the real [`MerkleTree`] at small
//! scale before being trusted at 1M.

use std::sync::{Mutex, MutexGuard, PoisonError};

use hc_actors::ScaConfig;
use hc_state::{blob_links, ChunkManifest, CidStore, StateTree};
use hc_types::crypto::sha256_block_count;
use hc_types::merkle::MerkleTree;
use hc_types::{Address, CanonicalEncode, Cid, Keypair, SubnetId, TokenAmount};

/// The SHA-256 block counter is process-wide: every test here holds this
/// lock, so the one that counts blocks counts only its own.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
    const ACCOUNTS: u64 = 88_861;
    const WRITES: u64 = 540;
    /// Measured: 761 bytes hashed per written account, plus 2 %.
    const MAX_BYTES_PER_WRITE: u64 = 776;

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
    // 32 links) or a full leaf (tag, count, 64 entries of an address and
    // an account, unframed).
    let account = tree.accounts().get(Address::new(100)).expect("funded");
    let entry = 8 + account.canonical_bytes().len();
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

/// SHA-256 compressions to hash a message of `len` bytes: the message,
/// the `0x80` pad byte and the 8-byte length, in 64-byte blocks.
fn sha256_blocks(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

/// SHA-256 compressions to hash every node of the account HAMT `tree`
/// persists, each from byte 0 — what a from-scratch build hashes for them.
fn hamt_node_blocks(tree: &mut StateTree) -> u64 {
    let store = CidStore::new();
    let manifest_cid = tree.persist(&store);
    let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    let mut frontier = vec![manifest.accounts_root.cid()];
    let mut blocks = 0;
    while let Some(cid) = frontier.pop() {
        let blob = store.get(&cid).expect("persisted closure is complete");
        blocks += sha256_blocks(blob.len());
        frontier.extend(blob_links(&blob));
    }
    blocks
}

/// A tree's first flush builds the account HAMT from scratch in one pass:
/// it hashes each address once (8 bytes, one block) and each node once,
/// and keeps every route it hashed. Against a twin with no accounts — the
/// same fixed chunks, one empty leaf — the build's extra compressions are
/// exactly its routes plus its nodes' blocks: no leaf split re-routes a
/// key, and no later flush routes one again.
#[test]
fn a_build_routes_each_key_once() {
    const ACCOUNTS: u64 = 10_000;
    let _serial = serial();

    let key = Keypair::from_seed([0x11; 32]).public();
    let genesis = |accounts: u64| {
        StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            (0..accounts).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
        )
    };
    let first_flush = |tree: &mut StateTree| {
        let before = sha256_block_count();
        tree.flush();
        sha256_block_count() - before
    };
    let (mut full, mut empty) = (genesis(ACCOUNTS), genesis(0));
    let (full_blocks, empty_blocks) = (first_flush(&mut full), first_flush(&mut empty));
    let nodes = hamt_node_blocks(&mut full) - hamt_node_blocks(&mut empty);
    eprintln!(
        "from-scratch build of {ACCOUNTS} accounts: {} SHA-256 blocks over an empty twin, \
         {nodes} of them its nodes'",
        full_blocks - empty_blocks
    );
    assert_eq!(
        full_blocks - empty_blocks,
        ACCOUNTS + nodes,
        "a from-scratch build hashes each route once and each node once"
    );
    assert_eq!(full.accounts().routes().count() as u64, ACCOUNTS);
}

/// An account keeps its HAMT route once a flush has routed it: re-writing
/// it re-hashes its leaf and the links above, never its address. The
/// tree's first flush routes every account, and so does a snapshot
/// install's, so a twin installed from the tree's snapshot keeps every
/// route too and re-writing the same accounts compresses exactly as many
/// SHA-256 blocks on both. A route hashed again costs one block (an
/// address encodes to 8 bytes) and shows in the pinned count.
#[test]
fn a_routed_account_is_not_hashed_again() {
    const ACCOUNTS: u64 = 10_000;
    const REWRITES: u64 = 100;
    /// Measured: SHA-256 blocks of re-writing `REWRITES` scattered
    /// accounts and the flush after, on either twin.
    const BLOCKS: u64 = 1_535;
    let _serial = serial();

    let key = Keypair::from_seed([0x11; 32]).public();
    let mut warm = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..ACCOUNTS).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
    );
    warm.flush();
    assert_eq!(warm.accounts().routes().count() as u64, ACCOUNTS);
    let rewrite = |tree: &mut StateTree| {
        for i in 0..REWRITES {
            let addr = Address::new(100 + (i * 7_919 + 13) % ACCOUNTS);
            tree.accounts_mut().get_or_create(addr).balance += TokenAmount::from_atto(1);
        }
    };
    rewrite(&mut warm);
    warm.flush();

    let store = CidStore::new();
    let manifest_cid = warm.persist(&store);
    let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    let mut installed = StateTree::from_manifest(&manifest, &store).expect("its own snapshot");
    assert_eq!(installed.accounts().routes().count() as u64, ACCOUNTS);

    // The writes are counted with the flush: a write reads its route.
    let blocks = |tree: &mut StateTree| {
        let before = sha256_block_count();
        rewrite(tree);
        tree.flush();
        sha256_block_count() - before
    };
    let (warm_blocks, installed_blocks) = (blocks(&mut warm), blocks(&mut installed));
    eprintln!(
        "re-writing {REWRITES} of {ACCOUNTS} accounts: {warm_blocks} SHA-256 blocks, \
         {installed_blocks} on the installed twin"
    );
    assert_eq!(
        warm.flush(),
        installed.flush(),
        "the twins hold the same content"
    );
    assert_eq!(
        (warm_blocks, installed_blocks),
        (BLOCKS, BLOCKS),
        "a routed account must hash no key when re-written"
    );
}
