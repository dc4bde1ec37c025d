//! Installing a persisted snapshot into a fresh [`StateTree`].
//!
//! This is the receiving half of snapshot state-sync: a node that fetched a
//! [`ChunkManifest`] and its chunk blobs (see
//! [`ChunkManifest::missing_chunks`]) reconstructs the full state tree from
//! the content-addressed blobs with [`StateTree::from_manifest`]. The
//! install is **verified end to end**:
//!
//! * every blob comes out of a [`CidStore`], whose put path guarantees the
//!   blob hashes to its CID — a corrupted chunk can never enter the store
//!   under the manifest's CID;
//! * each blob's embedded [`ChunkKey`] prefix must match the manifest entry
//!   it was fetched for (a valid blob served for the *wrong* key is
//!   rejected);
//! * chunk content must decode canonically with no trailing bytes;
//! * the account ledger is reconstructed by walking the HAMT from the
//!   manifest's `accounts_root`, and the content registry by walking the
//!   AMT from `registry_root`, with structural bounds enforced per node;
//! * only *content* is taken from those walks, never the served node
//!   structure: accounts go into a plain map and registry entries are
//!   appended to a fresh log, which must hash back to `registry_root` — a
//!   peer serving the right entries in a non-canonical AMT (sparse indices,
//!   extra height) is refused, so no forged node CID can reach a later
//!   state root;
//! * the assembled tree's first [`StateTree::flush`] must equal the
//!   manifest root — on a tree without a commitment that is a full build,
//!   so the account HAMT is rebuilt from the accounts in canonical form
//!   (the served nodes are dropped whatever their shape, and wrong content
//!   hashes to another root) and every chunk is re-encoded. The commitment
//!   it builds is kept: the state is hashed once to verify it, not again by
//!   the node's first block.
//!   Callers in turn check the root against a committed block header — so a
//!   syncing node never trusts the serving peer, only the
//!   consensus-committed state root.

use std::collections::BTreeMap;
use std::fmt;

use hc_actors::sa::SaState;
use hc_actors::{AtomicExecRegistry, ScaState};
use hc_types::{Address, ByteReader, CanonicalDecode, Cid, DecodeError, SubnetId};

use crate::amt::AmtError;
use crate::chunk::{ChunkKey, ChunkManifest, Commitment};
use crate::hamt::{Hamt, HamtError};
use crate::registry::ContentRegistry;
use crate::store::CidStore;
use crate::tree::{AccountState, Accounts, StateTree};

/// Why a snapshot manifest could not be installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// A chunk blob referenced by the manifest is absent from the store.
    /// Fetch [`ChunkManifest::missing_chunks`] first.
    MissingBlob(Cid),
    /// Manifest entries are not in strictly ascending canonical chunk
    /// order (duplicates included) — the encoding would not be canonical.
    UnorderedEntries,
    /// A blob's embedded chunk-key prefix disagrees with the manifest
    /// entry it was listed under.
    KeyMismatch {
        /// The key the manifest entry claims.
        expected: ChunkKey,
        /// The key found inside the blob.
        found: ChunkKey,
    },
    /// A chunk blob's content failed to decode canonically.
    Decode {
        /// The chunk whose content was malformed.
        key: ChunkKey,
        /// The underlying decode failure.
        err: DecodeError,
    },
    /// A required singleton chunk (`Meta`, `Sca`, or `Atomic`) is missing.
    MissingChunk(&'static str),
    /// The account HAMT could not be loaded from `accounts_root` (missing
    /// node blob, malformed node, structural violation).
    Accounts(HamtError),
    /// The content-registry AMT could not be loaded from `registry_root`
    /// (missing blob, malformed node, structural violation).
    Registry(AmtError),
    /// The assembled tree does not hash to the manifest's recorded root.
    RootMismatch {
        /// Root the manifest committed to.
        expected: Cid,
        /// Root recomputed from the installed content.
        actual: Cid,
    },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::MissingBlob(cid) => write!(f, "chunk blob {cid} missing from store"),
            InstallError::UnorderedEntries => {
                write!(f, "manifest entries not in canonical chunk order")
            }
            InstallError::KeyMismatch { expected, found } => {
                write!(
                    f,
                    "chunk key mismatch: manifest says {expected:?}, blob says {found:?}"
                )
            }
            InstallError::Decode { key, err } => {
                write!(f, "chunk {key:?} content failed to decode: {err}")
            }
            InstallError::MissingChunk(what) => write!(f, "required chunk {what} missing"),
            InstallError::Accounts(err) => write!(f, "account HAMT failed to load: {err}"),
            InstallError::Registry(err) => write!(f, "registry AMT failed to load: {err}"),
            InstallError::RootMismatch { expected, actual } => {
                write!(
                    f,
                    "installed state root {actual} != manifest root {expected}"
                )
            }
        }
    }
}

impl std::error::Error for InstallError {}

impl StateTree {
    /// Reconstructs a full state tree from a persisted snapshot manifest,
    /// reading every chunk blob from `store` and verifying the assembled
    /// content against the manifest root (see the module docs for the full
    /// verification chain).
    ///
    /// The returned tree is committed at `manifest.root`: the verifying
    /// flush's commitment stays, so the next `flush()` hashes only what was
    /// written since.
    pub fn from_manifest(
        manifest: &ChunkManifest,
        store: &CidStore,
    ) -> Result<StateTree, InstallError> {
        let mut meta: Option<(SubnetId, u64)> = None;
        let mut sca: Option<ScaState> = None;
        let mut atomic: Option<AtomicExecRegistry> = None;
        let mut sas: BTreeMap<Address, SaState> = BTreeMap::new();
        let mut accounts: BTreeMap<Address, AccountState> = BTreeMap::new();

        let mut prev: Option<ChunkKey> = None;
        for (key, cid) in &manifest.entries {
            if prev.is_some_and(|p| p >= *key) {
                return Err(InstallError::UnorderedEntries);
            }
            prev = Some(*key);
            let blob = store.get(cid).ok_or(InstallError::MissingBlob(*cid))?;
            let mut r = ByteReader::new(&blob);
            let decode_err = |err| InstallError::Decode { key: *key, err };
            let found = ChunkKey::read_bytes(&mut r).map_err(decode_err)?;
            if found != *key {
                return Err(InstallError::KeyMismatch {
                    expected: *key,
                    found,
                });
            }
            match key {
                ChunkKey::Meta => {
                    let subnet_id = SubnetId::read_bytes(&mut r).map_err(decode_err)?;
                    let next_actor_id = u64::read_bytes(&mut r).map_err(decode_err)?;
                    meta = Some((subnet_id, next_actor_id));
                }
                ChunkKey::Sca => {
                    sca = Some(ScaState::read_bytes(&mut r).map_err(decode_err)?);
                }
                ChunkKey::Atomic => {
                    atomic = Some(AtomicExecRegistry::read_bytes(&mut r).map_err(decode_err)?);
                }
                ChunkKey::Sa(addr) => {
                    sas.insert(*addr, SaState::read_bytes(&mut r).map_err(decode_err)?);
                }
                // The accounts and registry leaves are derived from
                // `accounts_root` / `registry_root`, never listed as
                // manifest entries.
                ChunkKey::Accounts | ChunkKey::Registry => {
                    return Err(InstallError::UnorderedEntries)
                }
            }
            r.finish().map_err(decode_err)?;
        }

        // Reconstruct the account ledger by walking the HAMT from its root.
        let hamt: Hamt<Address, AccountState> =
            Hamt::load(&manifest.accounts_root, store).map_err(InstallError::Accounts)?;
        hamt.for_each(&mut |addr, state| {
            accounts.insert(*addr, state.clone());
        });

        // Likewise the registry: its entries are re-appended to a fresh log
        // (canonical shape, warm CIDs, group index rebuilt), and a served
        // AMT of any other shape is refused.
        let registry = ContentRegistry::load(&manifest.registry_root, store)
            .map_err(InstallError::Registry)?;

        let (subnet_id, next_actor_id) = meta.ok_or(InstallError::MissingChunk("Meta"))?;
        let sca = sca.ok_or(InstallError::MissingChunk("Sca"))?;
        let atomic = atomic.ok_or(InstallError::MissingChunk("Atomic"))?;
        let mut tree = StateTree {
            subnet_id,
            accounts: Accounts::from_map(accounts),
            sca,
            sas,
            atomic,
            next_actor_id,
            registry,
            commitment: Commitment::default(),
        };
        let actual = tree.flush();
        if actual != manifest.root {
            return Err(InstallError::RootMismatch {
                expected: manifest.root,
                actual,
            });
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::sa::SaConfig;
    use hc_types::{Keypair, TokenAmount};

    /// A state with every chunk kind populated: accounts with storage and
    /// keys, a deployed SA, SCA mutations, and atomic registry content.
    fn rich_tree() -> StateTree {
        let kp = Keypair::from_seed([0x44; 32]);
        let mut t = StateTree::genesis(
            SubnetId::root(),
            hc_actors::ScaConfig::default(),
            [
                (Address::new(100), kp.public(), TokenAmount::from_whole(50)),
                (Address::new(101), kp.public(), TokenAmount::from_whole(7)),
            ],
        );
        t.deploy_sa(SaState::new(SaConfig::default()));
        let acc = t.accounts_mut().get_or_create(Address::new(100));
        acc.storage.insert(b"k".to_vec(), b"v".to_vec());
        acc.locked.insert(b"k".to_vec());
        t.append_registry(vec![registry_group()]);
        t
    }

    fn registry_group() -> hc_actors::MsgGroup {
        let at = |a| hc_actors::HcAddress::new(SubnetId::root(), Address::new(a));
        hc_actors::MsgGroup::seal(vec![hc_actors::CrossMsg::transfer(
            at(100),
            at(101),
            TokenAmount::from_whole(1),
        )])
    }

    fn persisted(t: &mut StateTree, store: &CidStore) -> ChunkManifest {
        let cid = t.persist(store);
        ChunkManifest::decode(&store.get(&cid).unwrap()).unwrap()
    }

    #[test]
    fn install_round_trips_a_persisted_tree() {
        let store = CidStore::new();
        let mut t = rich_tree();
        let manifest = persisted(&mut t, &store);
        assert!(manifest.missing_chunks(&store).is_empty());

        let mut installed = StateTree::from_manifest(&manifest, &store).unwrap();
        assert_eq!(installed.flush(), manifest.root);
        assert_eq!(installed.subnet_id(), t.subnet_id());
        assert_eq!(installed.accounts(), t.accounts());
        assert_eq!(installed.sca(), t.sca());
        assert_eq!(installed.next_actor_id, t.next_actor_id);
        // The registry's lookup index is rebuilt from the installed log.
        let group = registry_group();
        assert_eq!(installed.resolve_content(&group.cid()), Some(&group));
        // Re-persisting the installed tree reproduces the same manifest.
        let again = persisted(&mut installed, &store);
        assert_eq!(again, manifest);
    }

    #[test]
    fn an_installed_tree_is_committed_and_hashes_only_later_writes() {
        let store = CidStore::new();
        let mut t = rich_tree();
        for i in 0..300 {
            t.accounts_mut()
                .get_or_create(Address::new(1_000 + i))
                .balance = TokenAmount::from_whole(1);
        }
        let manifest = persisted(&mut t, &store);

        // The verifying flush is the install's one full build ...
        let mut installed = StateTree::from_manifest(&manifest, &store).unwrap();
        assert!(installed.is_committed());
        let verified = installed.commit_stats();
        assert_eq!(verified.full_builds, 1);
        // ... so a write-free flush hashes nothing ...
        assert_eq!(installed.flush(), manifest.root);
        assert_eq!(installed.commit_stats().bytes_hashed, verified.bytes_hashed);

        // ... and one account write hashes what it does on the tree the
        // snapshot was taken from: its leaf, the HAMT root above it and the
        // accounts leaf of the state root.
        let source_before = t.commit_stats();
        for tree in [&mut installed, &mut t] {
            tree.accounts_mut()
                .get_or_create(Address::new(1_000))
                .balance = TokenAmount::from_whole(2);
        }
        assert_eq!(installed.flush(), t.flush());
        let (after, source) = (installed.commit_stats(), t.commit_stats());
        assert_eq!(after.full_builds, 1);
        assert_eq!(after.hamt_nodes_hashed - verified.hamt_nodes_hashed, 2);
        assert_eq!(
            after.bytes_hashed - verified.bytes_hashed,
            source.bytes_hashed - source_before.bytes_hashed
        );
    }

    #[test]
    fn install_reports_missing_blobs() {
        let served = CidStore::new();
        let mut t = rich_tree();
        let manifest = persisted(&mut t, &served);
        // A fresh store with only some blobs: everything else is missing.
        let local = CidStore::new();
        let missing = manifest.missing_chunks(&local);
        // Fixed chunks plus at least the HAMT root are missing.
        assert!(missing.len() > manifest.entries.len());
        let err = StateTree::from_manifest(&manifest, &local).unwrap_err();
        assert!(matches!(err, InstallError::MissingBlob(_)));
        // Fetch frontier rounds until the closure is complete; then the
        // install succeeds.
        loop {
            let missing = manifest.missing_chunks(&local);
            if missing.is_empty() {
                break;
            }
            for cid in &missing {
                local.put(served.get(cid).unwrap().as_ref().clone());
            }
        }
        assert!(StateTree::from_manifest(&manifest, &local).is_ok());
    }

    #[test]
    fn install_rejects_wrong_key_and_bad_root() {
        let store = CidStore::new();
        let mut t = rich_tree();
        let manifest = persisted(&mut t, &store);

        // Swap an entry's CID for another valid blob: key prefix mismatch.
        let mut swapped = manifest.clone();
        let sca_cid = swapped.entries[1].1;
        swapped.entries[0].1 = sca_cid;
        assert!(matches!(
            StateTree::from_manifest(&swapped, &store).unwrap_err(),
            InstallError::KeyMismatch { .. }
        ));

        // Corrupt the recorded root: content installs but fails the final
        // root check.
        let mut bad_root = manifest.clone();
        bad_root.root = Cid::digest(b"not the root");
        assert!(matches!(
            StateTree::from_manifest(&bad_root, &store).unwrap_err(),
            InstallError::RootMismatch { .. }
        ));

        // Out-of-order (duplicate) entries are rejected.
        let mut dup = manifest.clone();
        let first = dup.entries[0];
        dup.entries.insert(0, first);
        assert_eq!(
            StateTree::from_manifest(&dup, &store).unwrap_err(),
            InstallError::UnorderedEntries
        );

        // Truncated chunk content (valid CID, garbage payload) is rejected.
        let mut truncated = manifest.clone();
        let meta_blob = store.get(&manifest.entries[0].1).unwrap();
        let cut = store.put(meta_blob[..meta_blob.len() - 1].to_vec());
        truncated.entries[0].1 = cut;
        assert!(matches!(
            StateTree::from_manifest(&truncated, &store).unwrap_err(),
            InstallError::Decode { .. }
        ));

        // A dangling accounts root fails the HAMT load.
        let mut dangling = manifest.clone();
        dangling.accounts_root = hc_types::TCid::digest(b"not a node");
        assert!(matches!(
            StateTree::from_manifest(&dangling, &store).unwrap_err(),
            InstallError::Accounts(_)
        ));

        // A dangling registry root fails the AMT load.
        let mut dangling = manifest.clone();
        dangling.registry_root.node = hc_types::TCid::digest(b"not an amt");
        assert!(matches!(
            StateTree::from_manifest(&dangling, &store).unwrap_err(),
            InstallError::Registry(_)
        ));

        // An `Accounts` key smuggled into the entry list is rejected.
        let mut smuggled = manifest.clone();
        let fake = store.put(hc_types::CanonicalEncode::canonical_bytes(
            &ChunkKey::Accounts,
        ));
        smuggled.entries.push((ChunkKey::Accounts, fake));
        assert_eq!(
            StateTree::from_manifest(&smuggled, &store).unwrap_err(),
            InstallError::UnorderedEntries
        );
    }

    #[test]
    fn install_requires_singleton_chunks() {
        let store = CidStore::new();
        let mut t = rich_tree();
        let manifest = persisted(&mut t, &store);
        let mut gutted = manifest.clone();
        gutted.entries.retain(|(k, _)| *k != ChunkKey::Sca);
        assert_eq!(
            StateTree::from_manifest(&gutted, &store).unwrap_err(),
            InstallError::MissingChunk("Sca")
        );
    }
}
