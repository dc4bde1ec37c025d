//! Property-based tests of snapshot persistence and install: for any
//! reachable state, `manifest_closure` is *exactly* the blob set a syncing
//! node needs — sufficient (installing just the closure on a fresh store
//! reproduces the source root) and tight (nothing unrelated is retained,
//! and dropping any single chunk blob breaks the install). The content
//! registry rides along: every group cut before a persist is still served
//! after the install, an incomplete registry closure is reported and
//! refused, and hostile registry blobs are rejected without panicking. So
//! are hostile account-HAMT blobs of both node kinds (`0x68` interior,
//! `0x6c` leaf), and a served HAMT of the right content in the wrong shape
//! never reaches the installed commitment. The SCA blob carries its
//! checkpoint window's messages while the state root commits to their
//! digest: a window altered in the blob installs to another root and is
//! refused.

use proptest::prelude::*;

use hc_actors::sa::{SaConfig, SaState};
use hc_actors::{CrossMsg, HcAddress, MsgGroup, ScaConfig};
use hc_state::{
    blob_links, AccountState, AmtRoot, ChunkKey, ChunkManifest, CidStore, HamtError, InstallError,
    StateTree,
};
use hc_types::crypto::sha256;
use hc_types::{Address, CanonicalEncode, Cid, Keypair, SubnetId, TCid, TokenAmount};

const USERS: u64 = 4;

fn genesis() -> StateTree {
    ledger(USERS)
}

/// A genesis tree of `accounts` funded accounts.
fn ledger(accounts: u64) -> StateTree {
    let key = Keypair::from_seed([0x5d; 32]).public();
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..accounts).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(100))),
    )
}

/// One abstract state mutation. `CreditFresh` creates a previously unseen
/// account (growing the chunk set); `DeploySa` adds a Subnet Actor chunk
/// and bumps the metadata chunk; `Cut` appends one checkpoint cut's worth
/// of message groups to the content registry.
#[derive(Debug, Clone)]
enum Op {
    Cut { groups: u8, salt: u16 },
    Credit { who: u64, atto: u64 },
    CreditFresh { fresh: u8, atto: u64 },
    Put { who: u64, key: u8, val: u8 },
    Lock { who: u64, key: u8 },
    DeploySa,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(groups, salt)| Op::Cut {
            groups: 1 + groups % 3,
            salt
        }),
        (0..USERS, 1u64..1_000_000).prop_map(|(who, atto)| Op::Credit { who, atto }),
        (any::<u8>(), 1u64..1_000_000).prop_map(|(fresh, atto)| Op::CreditFresh {
            fresh: fresh % 8,
            atto
        }),
        (0..USERS, any::<u8>(), any::<u8>()).prop_map(|(who, key, val)| Op::Put {
            who,
            key: key % 4,
            val
        }),
        (0..USERS, any::<u8>()).prop_map(|(who, key)| Op::Lock { who, key: key % 4 }),
        Just(Op::DeploySa),
    ]
}

/// The groups of one synthetic checkpoint cut.
fn cut_groups(groups: u8, salt: u16) -> Vec<MsgGroup> {
    (0..u64::from(groups))
        .map(|g| {
            MsgGroup::seal(vec![CrossMsg::transfer(
                HcAddress::new(SubnetId::root(), Address::new(100)),
                HcAddress::new(SubnetId::root(), Address::new(200 + g)),
                TokenAmount::from_atto(u128::from(salt)),
            )])
        })
        .collect()
}

fn apply_op(tree: &mut StateTree, op: &Op) {
    match op {
        Op::Cut { groups, salt } => tree.append_registry(cut_groups(*groups, *salt)),
        Op::Credit { who, atto } => {
            tree.accounts_mut()
                .get_or_create(Address::new(100 + who))
                .balance += TokenAmount::from_atto(u128::from(*atto));
        }
        Op::CreditFresh { fresh, atto } => {
            tree.accounts_mut()
                .get_or_create(Address::new(500 + u64::from(*fresh)))
                .balance += TokenAmount::from_atto(u128::from(*atto));
        }
        Op::Put { who, key, val } => {
            tree.accounts_mut()
                .get_or_create(Address::new(100 + who))
                .storage
                .insert(vec![*key], vec![*val]);
        }
        Op::Lock { who, key } => {
            tree.accounts_mut()
                .get_or_create(Address::new(100 + who))
                .locked
                .insert(vec![*key]);
        }
        Op::DeploySa => {
            tree.deploy_sa(SaState::new(SaConfig::default()));
        }
    }
}

/// A peer can serve the right registry *entries* in the wrong AMT shape:
/// the content-derived root check alone would pass, and keeping the served
/// nodes would put the forged root CID into the node's next state root and
/// let its next append land on an occupied index. Only the canonical log of
/// the entries installs.
#[test]
fn forged_registry_shapes_are_refused() {
    let mut tree = genesis();
    tree.append_registry(cut_groups(1, 1));
    tree.append_registry(cut_groups(2, 2));
    let store = CidStore::new();
    let manifest_cid = tree.persist(&store);
    let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    let honest = manifest.registry_root;
    let top = store.get(&honest.node.cid()).unwrap().as_ref().clone();
    // Node blob: tag, bitmap, items — one entry per group, three at height
    // 0 here.
    assert_eq!((honest.height, honest.count), (0, 3));
    assert_eq!((top[0], top[1]), (0x61, 0b111));

    // The same three entries at indices 0, 1 and 3 ...
    let mut sparse = top.clone();
    sparse[1] = 0b1011;
    let sparse = AmtRoot {
        node: TCid::from_cid(store.put(sparse)),
        ..honest
    };
    // ... and one level deeper than they need: a new top node whose only
    // link is the honest one.
    let mut wrapper = vec![0x61u8, 0b1, 0x01];
    honest.node.write_bytes(&mut wrapper);
    let tall = AmtRoot {
        height: 1,
        count: 3,
        node: TCid::from_cid(store.put(wrapper)),
    };

    for forged in [sparse, tall] {
        let mut served = manifest.clone();
        served.registry_root = forged;
        assert!(served.missing_chunks(&store).is_empty());
        assert!(matches!(
            StateTree::from_manifest(&served, &store),
            Err(InstallError::Registry(_))
        ));
    }

    // The honest manifest installs to the committed root and keeps
    // appending in step with the tree it was taken from.
    let mut installed = StateTree::from_manifest(&manifest, &store).unwrap();
    assert_eq!(installed.flush(), manifest.root);
    installed.append_registry(cut_groups(1, 3));
    tree.append_registry(cut_groups(1, 3));
    assert_eq!(installed.flush(), tree.flush());
    assert_eq!(installed.flush(), installed.recompute_root());
}

/// A persisted tree of `accounts` funded accounts with its manifest.
fn persisted_ledger(accounts: u64, store: &CidStore) -> (StateTree, ChunkManifest) {
    let mut tree = ledger(accounts);
    let manifest_cid = tree.persist(store);
    let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
    (tree, manifest)
}

/// A HAMT leaf blob (`0x6c`, count, then each address's encoding and the
/// account bytes given for it, back to back) in the order given.
fn hamt_leaf_of(entries: &[(Address, Vec<u8>)]) -> Vec<u8> {
    let mut out = vec![0x6cu8];
    (entries.len() as u64).write_bytes(&mut out);
    for (addr, account) in entries {
        addr.write_bytes(&mut out);
        out.extend_from_slice(account);
    }
    out
}

/// [`hamt_leaf_of`] with each account's canonical encoding.
fn hamt_leaf(entries: &[(Address, AccountState)]) -> Vec<u8> {
    let encoded: Vec<(Address, Vec<u8>)> = entries
        .iter()
        .map(|(addr, state)| (*addr, state.canonical_bytes()))
        .collect();
    hamt_leaf_of(&encoded)
}

/// A HAMT interior blob (`0x68`, bitmap, one CID per set bit).
fn hamt_interior(bitmap: u32, children: &[Cid]) -> Vec<u8> {
    let mut out = vec![0x68u8];
    bitmap.write_bytes(&mut out);
    for child in children {
        child.write_bytes(&mut out);
    }
    out
}

/// Account-HAMT nodes a peer may serve under a forged `accounts_root`:
/// malformed ones fail the load with the matching error, and a well-formed
/// tree of the *right content in the wrong shape* installs — its content is
/// what the committed root vouches for — but only as the canonical HAMT
/// rebuilt from that content, so no served node CID outlives the install.
#[test]
fn malformed_account_nodes_are_refused_and_forged_shapes_never_installed() {
    let store = CidStore::new();
    let (mut tree, manifest) = persisted_ledger(USERS, &store);
    let mut entries: Vec<(Address, AccountState)> = Vec::new();
    tree.accounts()
        .for_each(|addr, state| entries.push((*addr, state.clone())));
    entries.sort_by_key(|(addr, _)| *addr);
    let install = |blob: Vec<u8>| {
        let mut served = manifest.clone();
        served.accounts_root = TCid::from_cid(store.put(blob));
        let _ = served.missing_chunks(&store);
        StateTree::from_manifest(&served, &store).map(|t| (served, t))
    };
    // The honest leaf, rebuilt by hand, is byte-identical to the served one.
    assert_eq!(
        store.put(hamt_leaf(&entries)),
        manifest.accounts_root.cid(),
        "leaf layout drifted from this test's encoder"
    );

    let reversed: Vec<_> = entries.iter().rev().cloned().collect();
    let mut doubled = entries.clone();
    doubled.insert(1, entries[0].clone());
    let over_cap: Vec<_> = (0..65u64)
        .map(|i| (Address::new(1_000 + i), entries[0].1.clone()))
        .collect();
    for (blob, why) in [
        (hamt_leaf(&reversed), "unsorted keys"),
        (hamt_leaf(&doubled), "duplicate key"),
        (hamt_leaf(&over_cap), "leaf over capacity"),
    ] {
        assert!(
            matches!(
                install(blob),
                Err(InstallError::Accounts(HamtError::Structure(_)))
            ),
            "{why}"
        );
    }
    let mut trailing_leaf = hamt_leaf(&entries);
    trailing_leaf.push(0);
    let mut trailing_interior = hamt_interior(0b1, &[manifest.accounts_root.cid()]);
    trailing_interior.push(0);
    let mut forged_count = hamt_leaf(&entries);
    forged_count[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
    // The last account's contract section, re-written by hand: its
    // accounts have neither storage nor locks, so it is the flag `0`.
    let with_section = |section: &[u8]| {
        let mut encoded: Vec<(Address, Vec<u8>)> = entries
            .iter()
            .map(|(addr, state)| (*addr, state.canonical_bytes()))
            .collect();
        let last = &mut encoded.last_mut().expect("funded accounts").1;
        assert_eq!(last.pop(), Some(0), "an empty contract section is flag 0");
        last.extend_from_slice(section);
        hamt_leaf_of(&encoded)
    };
    let empty_section = [&[1u8][..], &0u64.to_le_bytes(), &0u64.to_le_bytes()].concat();
    for (blob, why) in [
        (trailing_leaf, "trailing bytes after a leaf"),
        (trailing_interior, "trailing bytes after an interior node"),
        (forged_count, "forged entry count"),
        (with_section(&[2]), "contract-section flag 2"),
        (with_section(&empty_section), "flag 1 with both maps empty"),
        (hamt_interior(0, &[]), "interior node without children"),
        (hamt_interior(0b11, &[Cid::digest(b"one")]), "missing link"),
    ] {
        assert!(
            matches!(
                install(blob),
                Err(InstallError::Accounts(HamtError::Decode(_)))
            ),
            "{why}"
        );
    }
    // A leaf that lost an account is well-formed; the root check refuses it.
    assert!(matches!(
        install(hamt_leaf(&entries[1..])),
        Err(InstallError::RootMismatch { .. })
    ));

    // The right four accounts, one leaf per occupied slot under an interior
    // root: every blob is well-formed and every entry is where its hash
    // routes it, but four entries belong in one leaf.
    let mut slots: std::collections::BTreeMap<u32, Vec<(Address, AccountState)>> =
        Default::default();
    for entry in &entries {
        let slot = u32::from(sha256(&entry.0.canonical_bytes())[0] >> 3);
        slots.entry(slot).or_default().push(entry.clone());
    }
    let bitmap = slots.keys().fold(0u32, |bits, slot| bits | 1 << slot);
    let children: Vec<Cid> = slots.values().map(|e| store.put(hamt_leaf(e))).collect();
    let (served, mut installed) =
        install(hamt_interior(bitmap, &children)).expect("the content is the committed one");
    assert_ne!(served.accounts_root, manifest.accounts_root);
    assert!(
        !served.verify(&store),
        "the forged root is not the committed accounts leaf"
    );
    assert_eq!(installed.accounts_root(), Some(manifest.accounts_root));
    for t in [&mut installed, &mut tree] {
        t.accounts_mut().get_or_create(Address::new(100)).balance += TokenAmount::from_atto(1);
    }
    assert_eq!(installed.flush(), tree.flush());
    assert_eq!(installed.flush(), installed.recompute_root());
}

/// The closure shapes snapshot sync's outage and the e2e smoke gate's blob
/// counts rest on. The fetch loop (`hc-core`) pulls at most 16 blobs per
/// round trip, so both the count of blobs and the depth of the account HAMT
/// set how long a rejoin takes: a subnet of ≤ 64 accounts is a single leaf
/// (one round, with the fixed chunks), and the benchmark trees' 256 accounts
/// are a root over 32 leaves — 2 frontier levels, 3 capped round trips. A
/// layout that needs more of either moves `tree-durable-crash`'s p99.
#[test]
fn small_ledgers_persist_as_shallow_closures() {
    // (accounts, HAMT blobs, HAMT depth, frontier rounds, rounds at 16/trip)
    for (accounts, max_blobs, max_depth, rounds, capped_rounds) in
        [(48u64, 1, 1, 1, 1), (256, 33, 2, 2, 3)]
    {
        let store = CidStore::new();
        let (_, manifest) = persisted_ledger(accounts, &store);

        let mut frontier = vec![(manifest.accounts_root.cid(), 1)];
        let (mut blobs, mut depth) = (0, 0);
        while let Some((cid, level)) = frontier.pop() {
            blobs += 1;
            depth = depth.max(level);
            let links = blob_links(&store.get(&cid).unwrap());
            frontier.extend(links.into_iter().map(|link| (link, level + 1)));
        }
        assert!(
            blobs <= max_blobs && depth <= max_depth,
            "{accounts} accounts: {blobs} HAMT blobs, depth {depth}"
        );

        for (per_trip, expected) in [(usize::MAX, rounds), (16, capped_rounds)] {
            let local = CidStore::new();
            let mut trips = 0;
            loop {
                let mut missing = manifest.missing_chunks(&local);
                if missing.is_empty() {
                    break;
                }
                missing.truncate(per_trip);
                trips += 1;
                for cid in missing {
                    local.put(store.get(&cid).unwrap().as_ref().clone());
                }
            }
            assert_eq!(
                trips, expected,
                "{accounts} accounts, {per_trip} blobs per trip"
            );
            assert!(StateTree::from_manifest(&manifest, &local).is_ok());
        }
    }
}

proptest! {
    /// For any randomly mutated account set: the manifest closure is
    /// exactly `{manifest} ∪ {chunk blobs}` (no orphan retained), copying
    /// just the closure into a fresh store suffices to install a tree with
    /// the source's root (no missing), and every chunk blob is load-bearing
    /// (dropping any one yields `MissingBlob`).
    #[test]
    fn manifest_closure_is_exact_sufficient_and_minimal(
        ops in prop::collection::vec(arb_op(), 1..50),
        drop_pick in any::<u16>(),
    ) {
        let mut tree = genesis();
        for op in &ops {
            apply_op(&mut tree, op);
        }

        let store = CidStore::new();
        let garbage = store.put(b"unrelated resolver traffic".to_vec());
        let manifest_cid = tree.persist(&store);
        let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();

        // Exactness: the closure is precisely the blob set a cache-reset
        // twin of the same content persists into an empty store — the
        // manifest, the fixed chunks, and every account-HAMT node; nothing
        // more, nothing less. (The twin also locks in persist determinism:
        // same content, same manifest CID.)
        let twin_store = CidStore::new();
        let mut twin = tree.rebuilt();
        let twin_cid = twin.persist(&twin_store);
        prop_assert_eq!(twin_cid, manifest_cid, "persist must be deterministic");
        let closure = store.manifest_closure(&[manifest_cid]);
        prop_assert_eq!(closure.len(), twin_store.len(), "closure != persisted blob set");
        for cid in &closure {
            prop_assert!(twin_store.contains(cid), "closure retained an orphan");
        }
        prop_assert!(!closure.contains(&garbage), "closure leaked an orphan");

        // Self-verification survives the keyed put: persist hands the
        // store CIDs derived earlier (flushed nodes) or once (chunks), the
        // store digests nothing again — and still every blob it holds
        // hashes to the key it is held under, after a second persist of a
        // mutated tree too, and nothing else ever landed in it.
        let mut later = tree.clone();
        for op in ops.iter().rev() {
            apply_op(&mut later, op);
        }
        let later_cid = later.persist(&store);
        let mut held = store.manifest_closure(&[later_cid]);
        held.extend(closure.iter().copied());
        held.insert(garbage);
        prop_assert_eq!(store.len(), held.len());
        for cid in &held {
            prop_assert_eq!(Cid::digest(&store.get(cid).unwrap()), *cid);
        }

        // Sufficiency: a fresh store seeded with exactly the closure
        // installs to the source root.
        let fresh = CidStore::new();
        for cid in &closure {
            fresh.put(store.get(cid).unwrap().as_ref().clone());
        }
        prop_assert!(manifest.missing_chunks(&fresh).is_empty());
        let installed = StateTree::from_manifest(&manifest, &fresh)
            .expect("closure is sufficient to install");
        prop_assert_eq!(installed.recompute_root(), manifest.root);
        prop_assert_eq!(installed.recompute_root(), tree.recompute_root());
        // Every group cut before the persist is still served.
        for op in &ops {
            if let Op::Cut { groups, salt } = op {
                for group in cut_groups(*groups, *salt) {
                    prop_assert_eq!(installed.resolve_content(&group.cid()), Some(&group));
                }
            }
        }

        // Minimality: drop one chunk blob — the install must notice.
        let victim = manifest.entries[drop_pick as usize % manifest.entries.len()].1;
        let partial = CidStore::new();
        for cid in &closure {
            if *cid != victim {
                partial.put(store.get(cid).unwrap().as_ref().clone());
            }
        }
        prop_assert_eq!(manifest.missing_chunks(&partial), vec![victim]);
        prop_assert_eq!(
            StateTree::from_manifest(&manifest, &partial).unwrap_err(),
            InstallError::MissingBlob(victim)
        );

        // An incomplete registry closure is reported and refused the same
        // way: drop one blob reachable from `registry_root`.
        let registry: Vec<Cid> = store
            .manifest_closure(&[manifest.registry_root.node.cid()])
            .into_iter()
            .collect();
        let victim = *registry.iter().min().expect("the log has a top node");
        let partial = CidStore::new();
        for cid in &closure {
            if *cid != victim {
                partial.put(store.get(cid).unwrap().as_ref().clone());
            }
        }
        prop_assert_eq!(manifest.missing_chunks(&partial), vec![victim]);
        prop_assert!(!manifest.verify(&partial));
        prop_assert!(matches!(
            StateTree::from_manifest(&manifest, &partial).unwrap_err(),
            InstallError::Registry(_)
        ));

        // Pruning to the manifest root keeps the install working and
        // drops the garbage.
        store.prune_unreachable(&[manifest_cid]);
        prop_assert!(!store.contains(&garbage));
        prop_assert!(StateTree::from_manifest(&manifest, &store).is_ok());
    }

    /// Arbitrary bytes served as the registry's top node under an arbitrary
    /// root header, or as a node one level down: closure walks and the
    /// install never panic or allocate from a forged length, and the
    /// install is refused.
    #[test]
    fn hostile_registry_blobs_are_refused_without_panicking(
        junk in prop::collection::vec(any::<u8>(), 0..200),
        node_tagged in any::<bool>(),
        as_top in any::<bool>(),
        height in 0u32..40,
        count in any::<u64>(),
    ) {
        let mut tree = genesis();
        tree.append_registry(cut_groups(2, 7));
        let store = CidStore::new();
        let manifest_cid = tree.persist(&store);
        let mut manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();

        let mut junk = junk;
        if node_tagged && !junk.is_empty() {
            // Get past the tag check so the body parser sees the bytes.
            junk[0] = 0x61;
        }
        let junk_cid = store.put(junk.clone());
        let node = if as_top {
            junk_cid
        } else {
            // A well-formed top node with a single link, to the junk.
            let mut top = vec![0x61u8, 0b1, 0x01];
            junk_cid.write_bytes(&mut top);
            store.put(top)
        };
        manifest.registry_root = AmtRoot { height, count, node: TCid::from_cid(node) };
        let _ = blob_links(&junk);
        let _ = manifest.missing_chunks(&store);
        prop_assert!(!manifest.verify(&store));
        prop_assert!(StateTree::from_manifest(&manifest, &store).is_err());
    }
    /// Arbitrary bytes, or an honest node with one mutation, served as the
    /// account HAMT's root or as a child of its root, under either node
    /// tag: closure walks and the install never panic or allocate from a
    /// forged length, and the install is refused.
    #[test]
    fn hostile_account_blobs_are_refused_without_panicking(
        junk in prop::collection::vec(any::<u8>(), 0..300),
        tag in prop_oneof![Just(None), Just(Some(0x6cu8)), Just(Some(0x68u8))],
        mutate_honest in any::<bool>(),
        as_root in any::<bool>(),
        flip_at in any::<u16>(),
        flip_bits in 1u8..=255,
        cut in prop_oneof![Just(0usize), 1usize..40],
    ) {
        // 100 accounts: an interior root over leaves, so both kinds exist.
        let store = CidStore::new();
        let (_, mut manifest) = persisted_ledger(100, &store);
        let root = store.get(&manifest.accounts_root.cid()).unwrap().as_ref().clone();
        prop_assert_eq!(root[0], 0x68);
        let first_child = blob_links(&root)[0];

        let hostile = if mutate_honest {
            let mut blob = if as_root {
                root.clone()
            } else {
                store.get(&first_child).unwrap().as_ref().clone()
            };
            let at = flip_at as usize % blob.len();
            blob[at] ^= flip_bits;
            blob.truncate(blob.len().saturating_sub(cut).max(1));
            blob
        } else {
            let mut junk = junk;
            if let (Some(tag), Some(first)) = (tag, junk.first_mut()) {
                // Get past the tag check so the body parser sees the bytes.
                *first = tag;
            }
            junk
        };
        let hostile_cid = store.put(hostile.clone());
        let served_root = if as_root {
            hostile_cid
        } else {
            // The honest root with its first link swapped for the hostile blob.
            let mut relinked = root.clone();
            relinked[5..37].copy_from_slice(hostile_cid.as_bytes());
            store.put(relinked)
        };
        manifest.accounts_root = TCid::from_cid(served_root);
        let _ = blob_links(&hostile);
        let _ = manifest.missing_chunks(&store);
        prop_assert!(!manifest.verify(&store));
        prop_assert!(StateTree::from_manifest(&manifest, &store).is_err());
    }

    /// The install re-derives the SCA's window digest from the messages its
    /// blob carries, and the state root commits to that digest. A blob
    /// whose window had one message altered, one dropped, or two swapped
    /// (contents exchanged, nonces left in order so the window still
    /// decodes) hashes to another root: `verify` fails and the install is
    /// refused with a root mismatch.
    #[test]
    fn a_tampered_sca_window_is_refused_with_a_root_mismatch(
        values in prop::collection::vec(1u64..1_000_000, 2..8),
        pick in any::<prop::sample::Index>(),
        other in any::<prop::sample::Index>(),
        tamper in 0u8..3,
    ) {
        let child = SubnetId::root().child(Address::new(9));
        let user = Address::new(100);
        let key = Keypair::from_seed([0x5d; 32]).public();
        let mut tree = StateTree::genesis(
            child.clone(),
            ScaConfig::default(),
            [(user, key, TokenAmount::from_whole(100))],
        );
        let (ledger, sca) = tree.ledger_and_sca_mut();
        let mut queued = Vec::new();
        for (k, v) in values.iter().enumerate() {
            // Distinct values, so a swap always changes the window.
            let value = TokenAmount::from_atto(u128::from(*v) * 8 + k as u128);
            let msg = CrossMsg::transfer(
                HcAddress::new(child.clone(), user),
                HcAddress::new(SubnetId::root(), Address::new(7)),
                value,
            );
            queued.push(sca.send_cross_msg(ledger, user, msg).unwrap());
        }
        let store = CidStore::new();
        let manifest_cid = tree.persist(&store);
        let manifest = ChunkManifest::decode(&store.get(&manifest_cid).unwrap()).unwrap();
        prop_assert!(manifest.verify(&store));
        prop_assert!(StateTree::from_manifest(&manifest, &store).is_ok());

        let slot = manifest.entries.iter().position(|(k, _)| *k == ChunkKey::Sca).unwrap();
        let blob = store.get(&manifest.entries[slot].1).unwrap().as_ref().clone();
        let window = tree.sca().window_encoding();
        let at = blob.windows(window.len()).position(|w| w == window).unwrap();
        prop_assert_eq!(&blob[at - 8..at], &(queued.len() as u64).to_le_bytes()[..]);

        let i = pick.index(queued.len());
        let mut msgs = queued.clone();
        match tamper {
            0 => msgs[i].value += TokenAmount::from_atto(1),
            1 => {
                msgs.remove(i);
            }
            _ => {
                let j = (i + 1 + other.index(queued.len() - 1)) % queued.len();
                msgs.swap(i, j);
                msgs[i].nonce = queued[i].nonce;
                msgs[j].nonce = queued[j].nonce;
            }
        }
        let mut forged = blob[..at - 8].to_vec();
        msgs.write_bytes(&mut forged);
        forged.extend_from_slice(&blob[at + window.len()..]);
        let mut served = manifest.clone();
        served.entries[slot].1 = store.put(forged);
        prop_assert!(!served.verify(&store));
        let refused = StateTree::from_manifest(&served, &store);
        prop_assert!(
            matches!(refused, Err(InstallError::RootMismatch { .. })),
            "tamper {}: {:?}", tamper, refused.err()
        );
    }
}
