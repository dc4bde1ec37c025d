//! The per-subnet state tree.
//!
//! A [`StateTree`] holds everything a subnet's chain state contains:
//!
//! * the account table ([`Accounts`]): balance, nonce, registered signing
//!   key, key-value contract storage with atomic-execution locks;
//! * the embedded system actors: the subnet's own SCA
//!   ([`hc_actors::ScaState`]), the Subnet Actors deployed for children
//!   ([`hc_actors::SaState`]), and the atomic-execution coordinator
//!   ([`hc_actors::AtomicExecRegistry`]);
//! * the SCA's content registry: the append-only log of the raw messages
//!   behind every `CrossMsgMeta` the subnet cut (the `registry` module).
//!
//! The tree is deterministic: [`StateTree::flush`] derives a state-root CID
//! that blocks commit to. The root is the Merkle root over the ordered
//! per-chunk leaf digests (see [`crate::chunk`]); flushing only re-encodes
//! chunks dirtied since the last flush, so the per-block cost scales with
//! the touched state, not the total state. The root is a pure function of
//! state *content* — independent of mutation order, of the dirty-set shape,
//! and of whether execution ran directly or through a
//! [`crate::StateOverlay`] — which [`StateTree::recompute_root`] recomputes
//! from scratch to prove.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use hc_actors::ledger::LedgerError;
use hc_actors::sa::SaState;
use hc_actors::{AtomicExecRegistry, Ledger, MsgGroup, ScaConfig, ScaState};
use hc_types::merkle::{leaf_digest, MerkleProof, MerkleTree};
use hc_types::{
    Address, ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, MHamtNode, Nonce,
    PublicKey, SubnetId, TCid, TokenAmount,
};

use crate::chunk::{
    accounts_leaf_blob, build_accounts_hamt, registry_leaf_blob, ChunkKey, ChunkManifest,
    CommitStats, Commitment,
};
use crate::hamt::{HamtProof, HashWork};
use crate::overlay::OverlayChanges;
use crate::registry::{ContentRegistry, RegistryEntry};
use crate::store::CidStore;

/// First address handed out to deployed actors (Subnet Actors).
pub(crate) const FIRST_DEPLOYED_ACTOR: u64 = 1_000_000;

/// One account's state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccountState {
    /// Spendable balance.
    pub balance: TokenAmount,
    /// Next expected message nonce.
    pub nonce: Nonce,
    /// Registered signing key (absent for actors that never sign).
    pub key: Option<PublicKey>,
    /// Key-value contract storage.
    pub storage: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Storage keys locked as inputs of in-flight atomic executions.
    pub locked: BTreeSet<Vec<u8>>,
}

impl CanonicalEncode for AccountState {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.balance.write_bytes(out);
        self.nonce.write_bytes(out);
        self.key.write_bytes(out);
        (self.storage.len() as u64).write_bytes(out);
        for (k, v) in &self.storage {
            k.write_bytes(out);
            v.write_bytes(out);
        }
        (self.locked.len() as u64).write_bytes(out);
        for k in &self.locked {
            k.write_bytes(out);
        }
    }
}

impl CanonicalDecode for AccountState {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(AccountState {
            balance: TokenAmount::read_bytes(r)?,
            nonce: Nonce::read_bytes(r)?,
            key: Option::<PublicKey>::read_bytes(r)?,
            storage: BTreeMap::read_bytes(r)?,
            locked: BTreeSet::read_bytes(r)?,
        })
    }
}

/// The account table: the [`Ledger`] implementation system actors operate
/// on.
///
/// Mutable access is tracked per account: any address reached through
/// [`Accounts::get_or_create`] (and therefore through every [`Ledger`]
/// operation) is marked dirty so the next [`StateTree::flush`] re-hashes
/// only those account chunks. Over-marking is harmless — digests are
/// recomputed from content, and an unchanged chunk keeps its digest.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accounts {
    map: BTreeMap<Address, AccountState>,
    dirty: BTreeSet<Address>,
}

impl PartialEq for Accounts {
    /// Equality is content equality; the dirty-tracking set is derived
    /// bookkeeping and never part of the observable state.
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl Accounts {
    /// Read-only view of an account (`None` if it never existed).
    pub fn get(&self, addr: Address) -> Option<&AccountState> {
        self.map.get(&addr)
    }

    /// Mutable access, creating the account if absent. Marks the account
    /// dirty for the next flush.
    pub fn get_or_create(&mut self, addr: Address) -> &mut AccountState {
        self.dirty.insert(addr);
        self.map.entry(addr).or_default()
    }

    /// Iterates over `(address, state)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &AccountState)> {
        self.map.iter()
    }

    /// Total token value across all accounts (including system actors and
    /// burnt funds) — the subnet's gross supply, used in conservation
    /// audits.
    pub fn total(&self) -> TokenAmount {
        self.map.values().map(|a| a.balance).sum()
    }

    /// Replaces (or creates) an account *without* dirty-marking it: for
    /// content whose HAMT path the caller installs already hashed
    /// ([`StateTree::apply_changes`]).
    pub(crate) fn install(&mut self, addr: Address, state: AccountState) {
        self.map.insert(addr, state);
    }

    /// Builds an account table from decoded content, with clean dirty
    /// tracking (used when installing a snapshot).
    pub(crate) fn from_map(map: BTreeMap<Address, AccountState>) -> Self {
        Accounts {
            map,
            dirty: BTreeSet::new(),
        }
    }

    /// Takes and clears the set of accounts touched since the last call.
    pub(crate) fn take_dirty(&mut self) -> BTreeSet<Address> {
        std::mem::take(&mut self.dirty)
    }

    /// Returns `true` if no account was touched since the last flush.
    pub(crate) fn dirty_is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

impl Ledger for Accounts {
    fn balance(&self, account: Address) -> TokenAmount {
        self.map
            .get(&account)
            .map_or(TokenAmount::ZERO, |a| a.balance)
    }

    fn credit(&mut self, account: Address, amount: TokenAmount) {
        let acc = self.get_or_create(account);
        acc.balance += amount;
    }

    fn debit(&mut self, account: Address, amount: TokenAmount) -> Result<(), LedgerError> {
        let available = self.balance(account);
        let new = available
            .checked_sub(amount)
            .ok_or(LedgerError::InsufficientFunds {
                account,
                needed: amount,
                available,
            })?;
        self.get_or_create(account).balance = new;
        Ok(())
    }
}

/// The full state of one subnet chain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StateTree {
    pub(crate) subnet_id: SubnetId,
    pub(crate) accounts: Accounts,
    pub(crate) sca: ScaState,
    pub(crate) sas: BTreeMap<Address, SaState>,
    pub(crate) atomic: AtomicExecRegistry,
    pub(crate) next_actor_id: u64,
    /// The SCA's content registry (raw messages behind every cut group).
    pub(crate) registry: ContentRegistry,
    /// Cached chunk commitment (derived; never affects the root value).
    pub(crate) commitment: Commitment,
}

impl StateTree {
    /// Creates the genesis state of a subnet: funded accounts with
    /// registered keys and a fresh SCA.
    pub fn genesis<I>(subnet_id: SubnetId, sca_config: ScaConfig, accounts: I) -> Self
    where
        I: IntoIterator<Item = (Address, PublicKey, TokenAmount)>,
    {
        let mut table = Accounts::default();
        for (addr, key, balance) in accounts {
            let acc = table.get_or_create(addr);
            acc.balance = balance;
            acc.key = Some(key);
        }
        StateTree {
            sca: ScaState::new(subnet_id.clone(), sca_config),
            subnet_id,
            accounts: table,
            sas: BTreeMap::new(),
            atomic: AtomicExecRegistry::new(),
            next_actor_id: FIRST_DEPLOYED_ACTOR,
            registry: ContentRegistry::default(),
            commitment: Commitment::default(),
        }
    }

    /// The subnet this state belongs to.
    pub fn subnet_id(&self) -> &SubnetId {
        &self.subnet_id
    }

    /// Read-only account table.
    pub fn accounts(&self) -> &Accounts {
        &self.accounts
    }

    /// Mutable account table (the subnet's [`Ledger`]). Touched accounts
    /// are dirty-tracked inside [`Accounts`].
    pub fn accounts_mut(&mut self) -> &mut Accounts {
        &mut self.accounts
    }

    /// The subnet's own SCA.
    pub fn sca(&self) -> &ScaState {
        &self.sca
    }

    /// Mutable SCA access. Marks the SCA chunk dirty.
    pub fn sca_mut(&mut self) -> &mut ScaState {
        self.commitment.dirty.insert(ChunkKey::Sca);
        &mut self.sca
    }

    /// Drops committed top-down messages for `child` below `below` from the
    /// SCA's relay queue ([`ScaState::prune_top_down`]). The queue is
    /// outside the canonical encoding, so — unlike [`StateTree::sca_mut`] —
    /// this does not dirty the SCA chunk.
    pub fn prune_top_down(&mut self, child: &SubnetId, below: Nonce) -> usize {
        self.sca.prune_top_down(child, below)
    }

    /// Appends the groups of one checkpoint cut to the content registry.
    /// Empty cuts append nothing, so the log (and its leaf digest) only
    /// moves when there is content to commit to.
    pub fn append_registry(&mut self, groups: Vec<MsgGroup>) {
        if !groups.is_empty() {
            self.registry.append(RegistryEntry(groups));
        }
    }

    /// Looks up the group behind the CID of a group this subnet cut,
    /// serving the content-resolution protocol (paper §IV-C).
    pub fn resolve_content(&self, cid: &Cid) -> Option<&MsgGroup> {
        self.registry.get(cid)
    }

    /// Simultaneous mutable access to the account ledger and the SCA —
    /// the borrow shape every SCA fund operation needs.
    pub fn ledger_and_sca_mut(&mut self) -> (&mut Accounts, &mut ScaState) {
        self.commitment.dirty.insert(ChunkKey::Sca);
        (&mut self.accounts, &mut self.sca)
    }

    /// The Subnet Actor deployed at `addr`, if any.
    pub fn sa(&self, addr: Address) -> Option<&SaState> {
        self.sas.get(&addr)
    }

    /// Mutable Subnet Actor access. Marks that SA's chunk dirty.
    pub fn sa_mut(&mut self, addr: Address) -> Option<&mut SaState> {
        self.commitment.dirty.insert(ChunkKey::Sa(addr));
        self.sas.get_mut(&addr)
    }

    /// Simultaneous mutable access to ledger, SCA, and one SA.
    pub fn ledger_sca_sa_mut(
        &mut self,
        sa: Address,
    ) -> (&mut Accounts, &mut ScaState, Option<&mut SaState>) {
        self.commitment.dirty.insert(ChunkKey::Sca);
        self.commitment.dirty.insert(ChunkKey::Sa(sa));
        (&mut self.accounts, &mut self.sca, self.sas.get_mut(&sa))
    }

    /// Iterates over deployed Subnet Actors.
    pub fn sas(&self) -> impl Iterator<Item = (&Address, &SaState)> {
        self.sas.iter()
    }

    /// Deploys a new Subnet Actor, allocating its address.
    pub fn deploy_sa(&mut self, sa: SaState) -> Address {
        let addr = Address::new(self.next_actor_id);
        self.next_actor_id += 1;
        self.sas.insert(addr, sa);
        self.commitment.dirty.insert(ChunkKey::Sa(addr));
        self.commitment.dirty.insert(ChunkKey::Meta);
        addr
    }

    /// The atomic-execution coordinator.
    pub fn atomic(&self) -> &AtomicExecRegistry {
        &self.atomic
    }

    /// Mutable coordinator access. Marks the atomic chunk dirty.
    pub fn atomic_mut(&mut self) -> &mut AtomicExecRegistry {
        self.commitment.dirty.insert(ChunkKey::Atomic);
        &mut self.atomic
    }

    /// Computes the state root incrementally: only chunks dirtied since the
    /// last flush are re-encoded and re-hashed, touched accounts re-hash
    /// only their O(log n) HAMT root paths, registry appends only the
    /// AMT's rightmost path, and the small leaf layer is folded again from
    /// the cached digests. The first flush (or the first after
    /// [`StateTree::rebuilt`]) builds the full commitment.
    pub fn flush(&mut self) -> Cid {
        self.commitment.stats.flushes += 1;
        if !self.commitment.built {
            return self.rebuild_commitment();
        }
        let mut dirty = std::mem::take(&mut self.commitment.dirty);
        let touched = self.accounts.take_dirty();
        if !touched.is_empty() {
            for addr in touched {
                match self.accounts.get(addr) {
                    Some(acc) => {
                        self.commitment.accounts_hamt.set(addr, acc.clone());
                    }
                    None => {
                        self.commitment.accounts_hamt.delete(&addr);
                    }
                }
            }
            dirty.insert(ChunkKey::Accounts);
        }
        if self.registry.log.cached_root().is_none() {
            dirty.insert(ChunkKey::Registry);
        }
        if dirty.is_empty() {
            return self.commitment.merkle.root();
        }
        if dirty.contains(&ChunkKey::Accounts) {
            // Re-hash exactly the invalidated HAMT node paths.
            let mut work = HashWork::default();
            self.commitment.accounts_hamt.flush(&mut work);
            self.commitment.stats.hamt_nodes_hashed += work.nodes;
            self.commitment.stats.bytes_hashed += work.bytes;
        }
        if dirty.contains(&ChunkKey::Registry) {
            let mut work = HashWork::default();
            self.registry.log.flush(&mut work);
            self.commitment.stats.bytes_hashed += work.bytes;
        }
        let mut changed: Vec<(ChunkKey, Cid)> = Vec::new();
        for key in &dirty {
            let present = match key {
                ChunkKey::Sa(a) => self.sas.contains_key(a),
                _ => true,
            };
            if !present {
                // A dirtied chunk that no longer exists: its leaf goes.
                self.commitment.digests.remove(key);
                continue;
            }
            let blob = self.chunk_blob(key);
            self.commitment.stats.chunks_hashed += 1;
            self.commitment.stats.bytes_hashed += blob.len() as u64 + 1; // + leaf tag
            changed.push((*key, leaf_digest(&blob)));
        }
        self.commitment.install_digests(changed);
        self.commitment.merkle.root()
    }

    /// Builds the commitment from scratch: the account HAMT rebuilt from
    /// content and every chunk encoded and hashed.
    fn rebuild_commitment(&mut self) -> Cid {
        self.accounts.take_dirty();
        let mut hamt = build_accounts_hamt(self.accounts.iter());
        let mut work = HashWork::default();
        hamt.flush(&mut work);
        self.commitment.accounts_hamt = hamt;
        let mut registry_work = HashWork::default();
        self.registry.log.flush(&mut registry_work);
        let keys = self.chunk_keys();
        let mut digests = BTreeMap::new();
        let mut bytes = work.bytes + registry_work.bytes;
        for key in &keys {
            let blob = self.chunk_blob(key);
            bytes += blob.len() as u64 + 1;
            digests.insert(*key, leaf_digest(&blob));
        }
        let merkle = MerkleTree::from_leaf_hashes(digests.values().copied().collect());
        bytes += merkle.interior_hash_bytes();
        let c = &mut self.commitment;
        c.stats.full_builds += 1;
        c.stats.chunks_hashed += keys.len() as u64;
        c.stats.hamt_nodes_hashed += work.nodes;
        c.stats.bytes_hashed += bytes;
        c.built = true;
        c.digests = digests;
        c.merkle = merkle;
        c.dirty.clear();
        c.merkle.root()
    }

    /// Recomputes the state root from scratch, ignoring every cache: pure
    /// function of the current state content. The account HAMT is rebuilt
    /// from nothing (so this also re-derives the canonical tree shape), and
    /// so is the registry log. `flush()` must always agree with this (the
    /// equivalence property tests enforce it).
    pub fn recompute_root(&self) -> Cid {
        let mut work = HashWork::default();
        let accounts_root = build_accounts_hamt(self.accounts.iter()).flush(&mut work);
        let registry_root = self.registry.rebuilt().log.flush(&mut work);
        let keys = self.chunk_keys();
        MerkleTree::from_leaf_bytes(keys.iter().map(|k| match k {
            ChunkKey::Accounts => accounts_leaf_blob(&accounts_root),
            ChunkKey::Registry => registry_leaf_blob(&registry_root),
            _ => self.chunk_blob(k),
        }))
        .root()
    }

    /// Returns a copy of this tree as if freshly decoded from storage:
    /// identical content, but with the commitment cache and dirty tracking
    /// reset. Its first `flush()` is a full rebuild.
    pub fn rebuilt(&self) -> StateTree {
        let mut t = self.clone();
        t.commitment = Commitment::default();
        t.accounts.take_dirty();
        t.registry = self.registry.rebuilt();
        t
    }

    /// Returns `true` if the commitment cache is built and no chunk has
    /// been dirtied since the last [`StateTree::flush`].
    pub fn is_committed(&self) -> bool {
        self.commitment.built
            && self.commitment.dirty.is_empty()
            && self.accounts.dirty_is_empty()
            && self.registry.log.cached_root().is_some()
    }

    /// Accumulated state-root maintenance cost counters.
    pub fn commit_stats(&self) -> CommitStats {
        self.commitment.stats
    }

    /// The canonical ordered chunk key set of the current content.
    pub(crate) fn chunk_keys(&self) -> Vec<ChunkKey> {
        let mut keys = vec![ChunkKey::Meta, ChunkKey::Sca, ChunkKey::Atomic];
        keys.extend(self.sas.keys().map(|a| ChunkKey::Sa(*a)));
        keys.push(ChunkKey::Accounts);
        keys.push(ChunkKey::Registry);
        keys
    }

    /// The chunk blob for `key`: the key's canonical encoding followed by
    /// the chunk content's canonical encoding. The accounts and registry
    /// leaves embed their HAMT/AMT root and therefore require a flushed
    /// commitment. Panics if the chunk does not exist in the current
    /// content.
    pub(crate) fn chunk_blob(&self, key: &ChunkKey) -> Vec<u8> {
        let mut out = key.canonical_bytes();
        match key {
            ChunkKey::Meta => {
                self.subnet_id.write_bytes(&mut out);
                self.next_actor_id.write_bytes(&mut out);
            }
            ChunkKey::Sca => self.sca.write_bytes(&mut out),
            ChunkKey::Atomic => self.atomic.write_bytes(&mut out),
            ChunkKey::Sa(a) => self
                .sas
                .get(a)
                .expect("SA chunk exists")
                .write_bytes(&mut out),
            ChunkKey::Accounts => {
                let root = self
                    .commitment
                    .accounts_hamt
                    .cached_root()
                    .expect("accounts HAMT flushed before encoding its leaf");
                root.write_bytes(&mut out);
            }
            ChunkKey::Registry => {
                let root = self
                    .registry
                    .log
                    .cached_root()
                    .expect("registry AMT flushed before encoding its leaf");
                root.write_bytes(&mut out);
            }
        }
        out
    }

    /// Allocator watermark for deployed actor addresses.
    pub(crate) fn next_actor_id(&self) -> u64 {
        self.next_actor_id
    }

    /// Persists the current state into `store` as content-addressed blobs
    /// plus a [`ChunkManifest`], returning the manifest's CID.
    ///
    /// A fixed chunk is encoded, hashed and put only if its leaf digest
    /// moved since this tree last persisted it (or the store no longer
    /// holds the blob); the account ledger is stored as HAMT node blobs and
    /// the content registry as AMT node blobs, skipping every subtree the
    /// store already holds. Persisting consecutive states that differ in a
    /// few accounts and one checkpoint cut therefore writes only the
    /// changed chunks and root paths — the manifests structurally share
    /// everything else (observable through [`CidStore::stats`]), and the
    /// manifest itself is O(system actors), not O(accounts) or O(cross-net
    /// history).
    pub fn persist(&mut self, store: &CidStore) -> Cid {
        let root = self.flush();
        // The manifest's closure goes down as one group
        // ([`CidStore::put_keyed`]): its blobs matter only together, and
        // each is digested exactly once — HAMT/AMT nodes by the flush
        // above, fixed chunks here.
        let mut blobs: Vec<(Cid, Vec<u8>)> = Vec::new();
        let mut persisted = BTreeMap::new();
        for (key, digest) in &self.commitment.digests {
            if matches!(key, ChunkKey::Accounts | ChunkKey::Registry) {
                continue;
            }
            let blob_cid = match self.commitment.persisted.get(key) {
                Some((d, cid)) if d == digest && store.contains(cid) => *cid,
                _ => {
                    let blob = self.chunk_blob(key);
                    let cid = Cid::digest(&blob);
                    blobs.push((cid, blob));
                    cid
                }
            };
            persisted.insert(*key, (*digest, blob_cid));
        }
        let accounts_root = self.commitment.accounts_hamt.unpersisted(store, &mut blobs);
        let registry_root = self.registry.log.unpersisted(store, &mut blobs);
        store.put_keyed(blobs);
        self.commitment.persisted = persisted;
        let manifest = ChunkManifest {
            root,
            accounts_root,
            registry_root,
            entries: self
                .commitment
                .persisted
                .iter()
                .map(|(key, (_, cid))| (*key, *cid))
                .collect(),
        };
        store.put(manifest.canonical_bytes())
    }

    /// The committed account-HAMT root. `None` until the tree is flushed.
    pub fn accounts_root(&self) -> Option<TCid<MHamtNode>> {
        self.commitment.accounts_hamt.cached_root()
    }

    /// Builds a membership proof that `addr`'s current state is committed
    /// under the current state root: a HAMT node path from the accounts
    /// root down to the account, plus the Merkle path of the accounts leaf
    /// in the state-root tree.
    ///
    /// Returns `None` if the account does not exist or the tree has
    /// unflushed changes (call [`StateTree::flush`] first).
    pub fn prove_account(&self, addr: Address) -> Option<AccountProof> {
        if !self.is_committed() {
            return None;
        }
        let hamt = self.commitment.accounts_hamt.prove(&addr)?;
        let accounts_root = self.commitment.accounts_hamt.cached_root()?;
        let leaf_index = self
            .commitment
            .digests
            .keys()
            .position(|k| *k == ChunkKey::Accounts)?;
        let merkle = self.commitment.merkle.prove(leaf_index)?;
        Some(AccountProof {
            accounts_root,
            hamt,
            merkle,
        })
    }

    /// Applies the changes captured by a [`crate::StateOverlay`] built on
    /// this tree, together with the candidate commitment the overlay built
    /// for them: content, leaf digests and the re-hashed HAMT/AMT clones
    /// are all installed, so no chunk or node is hashed twice (only the
    /// few-leaf Merkle fold is repeated) and the tree is left
    /// [`StateTree::is_committed`] at [`OverlayChanges::root`].
    pub fn apply_changes(&mut self, changes: OverlayChanges) {
        let stats = &mut self.commitment.stats;
        stats.overlay_read_hits += changes.read_stats.hits;
        stats.overlay_read_misses += changes.read_stats.misses;
        let candidate = changes.candidate;
        stats.chunks_hashed += candidate.work.chunks_hashed;
        stats.hamt_nodes_hashed += candidate.work.hamt_nodes_hashed;
        stats.bytes_hashed += candidate.work.bytes_hashed;

        for (addr, state) in changes.accounts {
            self.accounts.install(addr, state);
        }
        if let Some(hamt) = candidate.accounts_hamt {
            self.commitment.accounts_hamt = hamt;
        }
        if let Some(log) = candidate.registry_log {
            self.registry.install(log, &changes.registry);
        }
        if let Some(sca) = changes.sca {
            self.sca = sca;
        }
        self.sas.extend(changes.sas);
        if let Some(atomic) = changes.atomic {
            self.atomic = atomic;
        }
        if let Some(next) = changes.next_actor_id {
            self.next_actor_id = next;
        }
        self.commitment.install_digests(candidate.digests);
    }

    /// Gross token supply of the subnet (every account, including escrow
    /// and burnt funds).
    pub fn total_supply(&self) -> TokenAmount {
        self.accounts.total()
    }
}

/// A per-account membership proof against a committed state root — the
/// light-client primitive: "this account has exactly this state under that
/// state root".
///
/// Two chained commitments make up the proof: the HAMT node path proving
/// the account under `accounts_root`, and the Merkle path proving the
/// accounts leaf (which embeds `accounts_root`) under the state root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountProof {
    /// The account-HAMT root the state root commits to.
    pub accounts_root: TCid<MHamtNode>,
    /// Node path from `accounts_root` down to the account entry.
    pub hamt: HamtProof,
    /// Merkle path of the accounts leaf in the state-root tree.
    pub merkle: MerkleProof,
}

impl AccountProof {
    /// Verifies that `addr` holds exactly `state` under `state_root`.
    pub fn verify(&self, state_root: Cid, addr: Address, state: &AccountState) -> bool {
        self.hamt.verify(&self.accounts_root, &addr, state)
            && self
                .merkle
                .verify_leaf_bytes(&accounts_leaf_blob(&self.accounts_root), state_root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::sa::SaConfig;
    use hc_types::Keypair;

    fn tree() -> StateTree {
        let kp = Keypair::from_seed([0x21; 32]);
        StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            [(Address::new(100), kp.public(), TokenAmount::from_whole(50))],
        )
    }

    #[test]
    fn genesis_funds_accounts_with_keys() {
        let t = tree();
        let acc = t.accounts().get(Address::new(100)).unwrap();
        assert_eq!(acc.balance, TokenAmount::from_whole(50));
        assert!(acc.key.is_some());
        assert_eq!(acc.nonce, Nonce::ZERO);
        assert_eq!(t.total_supply(), TokenAmount::from_whole(50));
    }

    #[test]
    fn ledger_operations_respect_balances() {
        let mut t = tree();
        let l = t.accounts_mut();
        l.transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(20),
        )
        .unwrap();
        assert_eq!(l.balance(Address::new(101)), TokenAmount::from_whole(20));
        assert!(l
            .transfer(
                Address::new(101),
                Address::new(102),
                TokenAmount::from_whole(21)
            )
            .is_err());
        // Totals conserved by transfer.
        assert_eq!(t.total_supply(), TokenAmount::from_whole(50));
    }

    #[test]
    fn deploy_sa_allocates_fresh_addresses() {
        let mut t = tree();
        let a = t.deploy_sa(SaState::new(SaConfig::default()));
        let b = t.deploy_sa(SaState::new(SaConfig::default()));
        assert_ne!(a, b);
        assert!(t.sa(a).is_some());
        assert!(t.sa(b).is_some());
        assert!(t.sa(Address::new(42)).is_none());
    }

    #[test]
    fn flush_changes_with_state() {
        let mut t = tree();
        let r0 = t.flush();
        assert_eq!(t.flush(), r0, "flush is deterministic");
        t.accounts_mut()
            .credit(Address::new(200), TokenAmount::from_atto(1));
        let r1 = t.flush();
        assert_ne!(r0, r1);
        // Storage changes also show up in the root.
        t.accounts_mut()
            .get_or_create(Address::new(200))
            .storage
            .insert(b"k".to_vec(), b"v".to_vec());
        assert_ne!(t.flush(), r1);
    }

    #[test]
    fn incremental_flush_equals_recompute_and_rebuilt_flush() {
        let mut t = tree();
        t.flush();
        // Mutate across every chunk kind.
        t.accounts_mut()
            .credit(Address::new(300), TokenAmount::from_whole(3));
        let sa = t.deploy_sa(SaState::new(SaConfig::default()));
        t.sa_mut(sa).unwrap();
        t.sca_mut();
        t.atomic_mut();
        let incremental = t.flush();
        assert_eq!(incremental, t.recompute_root());
        assert_eq!(incremental, t.rebuilt().flush());
    }

    #[test]
    fn flush_with_no_changes_hashes_nothing() {
        let mut t = tree();
        t.flush();
        let before = t.commit_stats();
        assert_eq!(t.flush(), t.flush());
        let after = t.commit_stats();
        assert_eq!(after.bytes_hashed, before.bytes_hashed);
        assert_eq!(after.chunks_hashed, before.chunks_hashed);
        assert_eq!(after.flushes, before.flushes + 2);
    }

    #[test]
    fn pruning_the_relay_queue_hashes_nothing() {
        // The top-down relay queue is outside the canonical encoding, so
        // pruning it must not dirty the SCA chunk.
        let mut t = tree();
        let (ledger, sca) = t.ledger_and_sca_mut();
        let child = sca
            .register_subnet(
                ledger,
                Address::new(100),
                Address::new(900),
                TokenAmount::from_whole(10),
                hc_types::ChainEpoch::GENESIS,
            )
            .unwrap();
        let down = hc_actors::CrossMsg::transfer(
            hc_actors::HcAddress::new(SubnetId::root(), Address::new(100)),
            hc_actors::HcAddress::new(child.clone(), Address::new(7)),
            TokenAmount::from_whole(1),
        );
        sca.send_cross_msg(ledger, Address::new(100), down).unwrap();
        let root = t.flush();
        let before = t.commit_stats();
        assert_eq!(t.prune_top_down(&child, Nonce::new(1)), 1);
        assert!(t.sca().top_down_msgs(&child, Nonce::ZERO).is_empty());
        assert!(t.is_committed());
        assert_eq!(t.flush(), root);
        let after = t.commit_stats();
        assert_eq!(after.bytes_hashed, before.bytes_hashed);
        assert_eq!(after.chunks_hashed, before.chunks_hashed);
    }

    fn group(tag: u64) -> MsgGroup {
        MsgGroup::seal(vec![hc_actors::CrossMsg::transfer(
            hc_actors::HcAddress::new(SubnetId::root(), Address::new(100)),
            hc_actors::HcAddress::new(SubnetId::root(), Address::new(tag)),
            TokenAmount::from_atto(u128::from(tag)),
        )])
    }

    #[test]
    fn registry_appends_move_the_root_and_serve_lookups() {
        let mut t = tree();
        let r0 = t.flush();
        // A cut without groups appends nothing.
        t.append_registry(Vec::new());
        assert!(t.is_committed());
        let first = group(1);
        assert!(t.resolve_content(&first.cid()).is_none());
        t.append_registry(vec![first.clone(), group(2)]);
        assert!(!t.is_committed());
        let r1 = t.flush();
        assert_ne!(r0, r1, "the state root commits to the registry");
        assert_eq!(r1, t.recompute_root());
        assert_eq!(r1, t.rebuilt().flush());
        assert_eq!(t.resolve_content(&first.cid()), Some(&first));
        assert!(t.rebuilt().resolve_content(&group(2).cid()).is_some());
        // Order is part of the commitment (append-only log).
        let mut swapped = tree();
        swapped.append_registry(vec![group(2), first]);
        assert_ne!(swapped.flush(), r1);
    }

    #[test]
    fn over_marking_does_not_change_root_and_costs_only_the_leaf_fold() {
        let mut t = tree();
        let r0 = t.flush();
        // Touch accessors without changing content.
        t.sca_mut();
        t.atomic_mut();
        t.accounts_mut().get_or_create(Address::new(100));
        let before = t.commit_stats().bytes_hashed;
        assert_eq!(t.flush(), r0, "unchanged content keeps its root");
        // Chunks were re-encoded (dirty), the touched account's HAMT path
        // was re-hashed, and the five-leaf layer was folded again. The
        // single-account genesis HAMT is one node, so the invalidated
        // path is exactly that node — reproduced here to pin the expected
        // hash work.
        let hashed = t.commit_stats().bytes_hashed - before;
        let mut twin = crate::hamt::Hamt::new();
        twin.set(
            Address::new(100),
            t.accounts().get(Address::new(100)).unwrap().clone(),
        );
        let mut work = HashWork::default();
        twin.flush(&mut work);
        let chunk_bytes = t.chunk_blob(&ChunkKey::Sca).len() as u64
            + t.chunk_blob(&ChunkKey::Atomic).len() as u64
            + t.chunk_blob(&ChunkKey::Accounts).len() as u64
            + 3
            + work.bytes;
        assert_eq!(hashed, chunk_bytes + 4 * hc_types::merkle::NODE_HASH_BYTES);
    }

    #[test]
    fn mutation_order_does_not_affect_root() {
        let mut a = tree();
        a.accounts_mut()
            .credit(Address::new(201), TokenAmount::from_whole(1));
        a.accounts_mut()
            .credit(Address::new(202), TokenAmount::from_whole(2));
        let mut b = tree();
        b.accounts_mut()
            .credit(Address::new(202), TokenAmount::from_whole(2));
        b.accounts_mut()
            .credit(Address::new(201), TokenAmount::from_whole(1));
        assert_eq!(a.flush(), b.flush());
        // Flush cadence doesn't matter either.
        let mut c = tree();
        c.accounts_mut()
            .credit(Address::new(201), TokenAmount::from_whole(1));
        c.flush();
        c.accounts_mut()
            .credit(Address::new(202), TokenAmount::from_whole(2));
        assert_eq!(c.flush(), b.flush());
    }

    #[test]
    fn persist_shares_unchanged_chunks_between_snapshots() {
        let store = CidStore::new();
        let mut t = tree();
        for i in 0..200 {
            t.accounts_mut()
                .credit(Address::new(500 + i), TokenAmount::from_whole(1));
        }
        t.append_registry(vec![group(1)]);
        let m1 = t.persist(&store);
        let blobs_after_first = store.len();
        let stats_after_first = store.stats();
        // Touch a single account and persist again.
        t.accounts_mut()
            .credit(Address::new(500), TokenAmount::from_atto(1));
        let m2 = t.persist(&store);
        assert_ne!(m1, m2);
        // Unchanged fixed chunks and the unchanged registry log are not
        // even offered to the store again.
        assert_eq!(store.stats().put_hits, stats_after_first.put_hits);
        // Only the touched account's O(log n) HAMT root path + the new
        // manifest are new; every untouched subtree and fixed chunk is
        // structurally shared.
        let new_blobs = store.len() - blobs_after_first;
        assert!(
            (2..=5).contains(&new_blobs),
            "one HAMT path + manifest expected, got {new_blobs} new blobs"
        );
        let manifest = ChunkManifest::decode(&store.get(&m2).unwrap()).unwrap();
        assert_eq!(manifest.root, t.flush());
        assert!(manifest.verify(&store));
        // The manifest is O(fixed chunks), not O(accounts).
        assert_eq!(manifest.entries.len(), 3);
        // A registry append writes its path (just the top node here) and
        // the manifest, nothing else.
        t.append_registry(vec![group(2)]);
        let before = store.stats();
        t.persist(&store);
        let after = store.stats();
        assert_eq!(after.put_misses - before.put_misses, 2);
        assert_eq!(after.put_hits, before.put_hits);
        // A store that lost a blob gets it back.
        store.prune_unreachable(&[]);
        let m3 = t.persist(&store);
        let manifest = ChunkManifest::decode(&store.get(&m3).unwrap()).unwrap();
        assert!(manifest.verify(&store));
    }

    #[test]
    fn account_proofs_verify_against_the_committed_root() {
        let mut t = tree();
        for i in 0..50 {
            t.accounts_mut()
                .credit(Address::new(700 + i), TokenAmount::from_whole(2));
        }
        assert!(t.prove_account(Address::new(700)).is_none(), "unflushed");
        let root = t.flush();
        let proof = t.prove_account(Address::new(700)).unwrap();
        let state = t.accounts().get(Address::new(700)).unwrap();
        assert!(proof.verify(root, Address::new(700), state));
        // Wrong account, wrong state, wrong root: rejected. (An account
        // that shares 700's leaf *and* state is proven by the same blobs,
        // so the wrong account here is an absent one.)
        assert!(!proof.verify(root, Address::new(751), state));
        let mut other = state.clone();
        other.balance += TokenAmount::from_atto(1);
        assert!(!proof.verify(root, Address::new(700), &other));
        assert!(!proof.verify(Cid::digest(b"other root"), Address::new(700), state));
        // Absent accounts have no proof.
        assert!(t.prove_account(Address::new(999_999)).is_none());
    }

    #[test]
    fn split_borrows_allow_sca_fund_flows() {
        let mut t = tree();
        let (ledger, sca) = t.ledger_and_sca_mut();
        sca.register_subnet(
            ledger,
            Address::new(100),
            Address::new(900),
            TokenAmount::from_whole(10),
            hc_types::ChainEpoch::GENESIS,
        )
        .unwrap();
        assert_eq!(t.sca().child_count(), 1);
        assert_eq!(
            t.accounts().balance(Address::SCA),
            TokenAmount::from_whole(10)
        );
    }
}
