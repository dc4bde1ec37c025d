//! Copy-on-write state overlay for block validation.
//!
//! Validating a block must execute its messages against the current state
//! and compare the resulting root with the header's `state_root` — without
//! corrupting the canonical tree if the block is bad. The seed did this by
//! cloning the whole [`StateTree`] per block (O(state)). A
//! [`StateOverlay`] instead borrows the base tree read-only and
//! materialises only the chunks execution actually touches; the candidate
//! root is the Merkle fold of the base's cached leaf digests with the
//! touched chunks' new ones, so validation costs O(touched · log n) in the
//! account HAMT plus a fixed handful of leaf-layer combines.
//!
//! [`StateOverlay::into_changes`] yields the touched chunks together with
//! the candidate commitment built for them — leaf digests, the re-hashed
//! account-HAMT and registry-AMT clones, the candidate root. On acceptance
//! [`StateTree::apply_changes`] installs all of it, so every changed chunk
//! is hashed once and the tree is left committed: the next flush has
//! nothing to do.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hc_actors::ledger::LedgerError;
use hc_actors::sa::SaState;
use hc_actors::{AtomicExecRegistry, Ledger, MsgGroup, ScaState};
use hc_types::merkle::{leaf_digest, MerkleTree};
use hc_types::{Address, CanonicalEncode, Cid, SubnetId, TokenAmount};

use crate::access::StateAccess;
use crate::amt::Amt;
use crate::chunk::{
    accounts_leaf_blob, registry_leaf_blob, sca_leaf_preimage, ChunkKey, CommitStats, WindowSource,
};
use crate::hamt::{Hamt, HashWork};
use crate::registry::RegistryEntry;
use crate::tree::{AccountState, Accounts, StateTree};

/// Hit/miss counters of the per-block account read memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadMemoStats {
    /// Base-table reads answered from the memo.
    pub hits: u64,
    /// Base-table reads that had to traverse the base (and seeded the
    /// memo).
    pub misses: u64,
}

/// Per-block account read memo: each distinct address pays one base-table
/// traversal per block, repeated reads of a hot account (authentication,
/// balance checks) are answered from the memo. The cached references point
/// into the immutable *base* table, so they stay valid for the overlay's
/// whole lifetime; written accounts are served from `touched` before the
/// memo is ever consulted. Interior mutability is a `Mutex` (not a
/// `RefCell`) so the overlay stays `Sync` — parallel execution lanes read
/// it concurrently.
#[derive(Debug, Default)]
struct ReadMemo<'a> {
    cached: BTreeMap<Address, Option<&'a AccountState>>,
    stats: ReadMemoStats,
}

/// Copy-on-write view of the account table: reads fall through to the base
/// tree (through a per-block read memo), writes materialise the account
/// into a private map.
#[derive(Debug)]
pub struct OverlayAccounts<'a> {
    base: &'a Accounts,
    touched: BTreeMap<Address, AccountState>,
    memo: Mutex<ReadMemo<'a>>,
}

impl OverlayAccounts<'_> {
    /// Read-only view of an account, overlay-first.
    pub fn get(&self, addr: Address) -> Option<&AccountState> {
        if let Some(acc) = self.touched.get(&addr) {
            return Some(acc);
        }
        let mut memo = self.memo.lock().expect("read memo poisoned");
        if let Some(&cached) = memo.cached.get(&addr) {
            memo.stats.hits += 1;
            return cached;
        }
        memo.stats.misses += 1;
        let found = self.base.get(addr);
        memo.cached.insert(addr, found);
        found
    }

    /// Mutable access, copying the account out of the base on first touch.
    pub fn get_or_create(&mut self, addr: Address) -> &mut AccountState {
        self.touched
            .entry(addr)
            .or_insert_with(|| self.base.get(addr).cloned().unwrap_or_default())
    }

    /// Number of accounts materialised so far.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }
}

impl Ledger for OverlayAccounts<'_> {
    fn balance(&self, account: Address) -> TokenAmount {
        self.get(account).map_or(TokenAmount::ZERO, |a| a.balance)
    }

    fn credit(&mut self, account: Address, amount: TokenAmount) {
        self.get_or_create(account).balance += amount;
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

/// The commitment an overlay's writes lead to, built without touching the
/// base tree: what [`StateTree::apply_changes`] installs.
#[derive(Debug)]
pub(crate) struct Candidate {
    /// The state root the base tree has after folding the overlay in.
    pub(crate) root: Cid,
    /// Leaf digest of every rewritten chunk whose content differs from the
    /// base (byte-identical rewrites are left out).
    pub(crate) digests: BTreeMap<ChunkKey, Cid>,
    /// The base's account HAMT with the touched accounts set and their
    /// root paths re-hashed (`None` if no account was touched).
    pub(crate) accounts_hamt: Option<Hamt<Address, AccountState>>,
    /// The base's registry log with the overlay's entries appended and the
    /// rightmost path re-hashed (`None` if nothing was appended).
    pub(crate) registry_log: Option<Amt<RegistryEntry>>,
    /// Hash work spent building this candidate (only the hashing counters
    /// are set), folded into the tree's [`CommitStats`] on apply.
    pub(crate) work: CommitStats,
}

/// The chunk-level writes captured by an overlay, ready to fold into the
/// base tree via [`StateTree::apply_changes`].
#[derive(Debug)]
pub struct OverlayChanges {
    pub(crate) accounts: BTreeMap<Address, AccountState>,
    pub(crate) sca: Option<ScaState>,
    pub(crate) sas: BTreeMap<Address, SaState>,
    pub(crate) atomic: Option<AtomicExecRegistry>,
    pub(crate) next_actor_id: Option<u64>,
    pub(crate) registry: Vec<RegistryEntry>,
    /// Read-memo counters observed while executing on the overlay; folded
    /// into [`crate::CommitStats`] by [`StateTree::apply_changes`]
    /// (bookkeeping only — never part of the observable state).
    pub(crate) read_stats: ReadMemoStats,
    pub(crate) candidate: Candidate,
}

impl OverlayChanges {
    /// Returns `true` if execution wrote nothing.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
            && self.sca.is_none()
            && self.sas.is_empty()
            && self.atomic.is_none()
            && self.next_actor_id.is_none()
            && self.registry.is_empty()
    }

    /// The state root the base tree has once these changes are applied.
    pub fn root(&self) -> Cid {
        self.candidate.root
    }
}

/// A copy-on-write execution scratchpad over a flushed [`StateTree`].
#[derive(Debug)]
pub struct StateOverlay<'a> {
    base: &'a StateTree,
    accounts: OverlayAccounts<'a>,
    sca: Option<ScaState>,
    sas: BTreeMap<Address, SaState>,
    atomic: Option<AtomicExecRegistry>,
    next_actor_id: u64,
    registry: Vec<RegistryEntry>,
}

impl<'a> StateOverlay<'a> {
    /// Creates an overlay over `base`.
    ///
    /// # Panics
    ///
    /// The base tree's commitment must be flushed
    /// ([`StateTree::is_committed`]) so the overlay can derive candidate
    /// roots incrementally; call [`StateTree::flush`] first.
    pub fn new(base: &'a StateTree) -> Self {
        assert!(
            base.is_committed(),
            "StateOverlay requires a flushed base tree (call flush() first)"
        );
        StateOverlay {
            accounts: OverlayAccounts {
                base: base.accounts(),
                touched: BTreeMap::new(),
                memo: Mutex::new(ReadMemo::default()),
            },
            sca: None,
            sas: BTreeMap::new(),
            atomic: None,
            next_actor_id: base.next_actor_id(),
            registry: Vec::new(),
            base,
        }
    }

    fn ensure_sca(&mut self) -> &mut ScaState {
        self.sca.get_or_insert_with(|| self.base.sca().clone())
    }

    fn ensure_atomic(&mut self) -> &mut AtomicExecRegistry {
        self.atomic
            .get_or_insert_with(|| self.base.atomic().clone())
    }

    fn ensure_sa(&mut self, addr: Address) {
        if !self.sas.contains_key(&addr) {
            if let Some(sa) = self.base.sa(addr) {
                self.sas.insert(addr, sa.clone());
            }
        }
    }

    /// Builds the commitment the base tree would have after folding this
    /// overlay in — without mutating anything.
    ///
    /// Touched accounts are folded into a copy-on-write clone of the base's
    /// account HAMT and appended registry entries into a clone of its AMT
    /// log (cloning is O(1); only the touched root paths are re-hashed),
    /// yielding the candidate accounts and registry leaves. The root is the
    /// Merkle fold of the base's cached leaf digests overridden by the
    /// rewritten chunks' new ones — the same fold whether leaves moved or a
    /// deployed SA added one — without re-encoding any untouched chunk.
    fn candidate(&self) -> Candidate {
        fn blob<T: CanonicalEncode + ?Sized>(key: ChunkKey, content: &T) -> Vec<u8> {
            let mut out = key.canonical_bytes();
            content.write_bytes(&mut out);
            out
        }
        let base = &self.base.commitment;
        let mut work = CommitStats::default();
        let mut blobs: Vec<(ChunkKey, Vec<u8>)> = Vec::new();
        let accounts_hamt = (!self.accounts.touched.is_empty()).then(|| {
            let mut hamt = base.accounts_hamt.clone();
            for (addr, state) in &self.accounts.touched {
                hamt.set(*addr, state.clone());
            }
            let mut hamt_work = HashWork::default();
            let root = hamt.flush(&mut hamt_work);
            work.hamt_nodes_hashed += hamt_work.nodes;
            work.bytes_hashed += hamt_work.bytes;
            blobs.push((ChunkKey::Accounts, accounts_leaf_blob(&root)));
            hamt
        });
        let registry_log = (!self.registry.is_empty()).then(|| {
            let mut log = self.base.registry.log.clone();
            for entry in &self.registry {
                log.push(entry.clone());
            }
            let mut amt_work = HashWork::default();
            let root = log.flush(&mut amt_work);
            work.bytes_hashed += amt_work.bytes;
            blobs.push((ChunkKey::Registry, registry_leaf_blob(&root)));
            log
        });
        if let Some(sca) = &self.sca {
            let carried = WindowSource::Carried {
                absorbed_before: base.sca_absorbed,
            };
            let (preimage, window_bytes) = sca_leaf_preimage(sca, carried);
            work.bytes_hashed += window_bytes;
            blobs.push((ChunkKey::Sca, preimage));
        }
        if let Some(atomic) = &self.atomic {
            blobs.push((ChunkKey::Atomic, blob(ChunkKey::Atomic, atomic)));
        }
        for (addr, sa) in &self.sas {
            blobs.push((ChunkKey::Sa(*addr), blob(ChunkKey::Sa(*addr), sa)));
        }
        if self.next_actor_id != self.base.next_actor_id() {
            blobs.push((
                ChunkKey::Meta,
                blob(ChunkKey::Meta, &(self.base.subnet_id(), self.next_actor_id)),
            ));
        }
        let mut digests = BTreeMap::new();
        for (key, bytes) in blobs {
            work.chunks_hashed += 1;
            work.bytes_hashed += bytes.len() as u64 + 1; // + leaf tag
            let digest = leaf_digest(&bytes);
            if base.digests.get(&key) != Some(&digest) {
                digests.insert(key, digest);
            }
        }

        let root = if digests.is_empty() {
            base.merkle.root()
        } else {
            let mut all = base.digests.clone();
            all.extend(digests.iter().map(|(k, d)| (*k, *d)));
            let merkle = MerkleTree::from_leaf_hashes(all.into_values().collect());
            work.bytes_hashed += merkle.interior_hash_bytes();
            merkle.root()
        };
        Candidate {
            root,
            digests,
            accounts_hamt,
            registry_log,
            work,
        }
    }

    /// The state root the base tree *would* have after folding this
    /// overlay in — computed without mutating anything. Callers that go on
    /// to apply the overlay should take the root from
    /// [`OverlayChanges::root`] instead, which builds the commitment once.
    pub fn root(&self) -> Cid {
        self.candidate().root
    }

    /// Consumes the overlay, yielding the captured writes and the candidate
    /// commitment built for them.
    pub fn into_changes(self) -> OverlayChanges {
        let read_stats = self.read_memo_stats();
        let candidate = self.candidate();
        OverlayChanges {
            accounts: self.accounts.touched,
            sca: self.sca,
            sas: self.sas,
            atomic: self.atomic,
            next_actor_id: (self.next_actor_id != self.base.next_actor_id())
                .then_some(self.next_actor_id),
            registry: self.registry,
            read_stats,
            candidate,
        }
    }

    /// Number of account chunks materialised so far (observability hook
    /// for the no-full-clone guarantee).
    pub fn touched_accounts(&self) -> usize {
        self.accounts.touched_len()
    }

    /// Counters of the per-block account read memo: each distinct address
    /// misses once, every further base-table read of it is a hit.
    pub fn read_memo_stats(&self) -> ReadMemoStats {
        self.accounts.memo.lock().expect("read memo poisoned").stats
    }
}

impl<'o> StateAccess for StateOverlay<'o> {
    type Ledger = OverlayAccounts<'o>;

    fn subnet_id(&self) -> &SubnetId {
        self.base.subnet_id()
    }

    fn account(&self, addr: Address) -> Option<&AccountState> {
        self.accounts.get(addr)
    }

    fn account_mut(&mut self, addr: Address) -> &mut AccountState {
        self.accounts.get_or_create(addr)
    }

    fn ledger_mut(&mut self) -> &mut OverlayAccounts<'o> {
        &mut self.accounts
    }

    fn sca(&self) -> &ScaState {
        self.sca.as_ref().unwrap_or_else(|| self.base.sca())
    }

    fn sca_mut(&mut self) -> &mut ScaState {
        self.ensure_sca()
    }

    fn ledger_and_sca_mut(&mut self) -> (&mut OverlayAccounts<'o>, &mut ScaState) {
        self.ensure_sca();
        (
            &mut self.accounts,
            self.sca.as_mut().expect("sca materialised"),
        )
    }

    fn sa(&self, addr: Address) -> Option<&SaState> {
        self.sas.get(&addr).or_else(|| self.base.sa(addr))
    }

    fn ledger_sca_sa_mut(
        &mut self,
        sa: Address,
    ) -> (
        &mut OverlayAccounts<'o>,
        &mut ScaState,
        Option<&mut SaState>,
    ) {
        self.ensure_sca();
        self.ensure_sa(sa);
        (
            &mut self.accounts,
            self.sca.as_mut().expect("sca materialised"),
            self.sas.get_mut(&sa),
        )
    }

    fn deploy_sa(&mut self, sa: SaState) -> Address {
        let addr = Address::new(self.next_actor_id);
        self.next_actor_id += 1;
        self.sas.insert(addr, sa);
        addr
    }

    fn atomic_mut(&mut self) -> &mut AtomicExecRegistry {
        self.ensure_atomic()
    }

    fn append_registry(&mut self, groups: Vec<MsgGroup>) {
        self.registry.extend(groups.into_iter().map(RegistryEntry));
    }

    fn absorb_accounts(&mut self, writes: BTreeMap<Address, AccountState>) {
        // Written accounts are always served from `touched` before the read
        // memo is consulted, so no memo invalidation is needed.
        self.accounts.touched.extend(writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::sa::SaConfig;
    use hc_actors::ScaConfig;
    use hc_types::{Keypair, TokenAmount};

    fn tree() -> StateTree {
        let kp = Keypair::from_seed([0x42; 32]);
        let mut t = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            (0..8).map(|i| {
                (
                    Address::new(100 + i),
                    kp.public(),
                    TokenAmount::from_whole(10),
                )
            }),
        );
        t.flush();
        t
    }

    #[test]
    fn untouched_overlay_root_equals_base_root() {
        let mut t = tree();
        let root = t.flush();
        let overlay = StateOverlay::new(&t);
        assert_eq!(overlay.root(), root);
        assert!(overlay.into_changes().is_empty());
    }

    #[test]
    fn overlay_writes_do_not_leak_into_base_until_applied() {
        let mut t = tree();
        let base_root = t.flush();
        let mut overlay = StateOverlay::new(&t);
        overlay
            .ledger_mut()
            .transfer(
                Address::new(100),
                Address::new(101),
                TokenAmount::from_whole(3),
            )
            .unwrap();
        let candidate = overlay.root();
        assert_ne!(candidate, base_root);
        // Base untouched.
        assert_eq!(
            t.accounts().balance(Address::new(100)),
            TokenAmount::from_whole(10)
        );
        assert_eq!(t.flush(), base_root);
        // Applying reproduces the candidate root exactly.
        let mut overlay = StateOverlay::new(&t);
        overlay
            .ledger_mut()
            .transfer(
                Address::new(100),
                Address::new(101),
                TokenAmount::from_whole(3),
            )
            .unwrap();
        let changes = overlay.into_changes();
        assert_eq!(changes.root(), candidate);
        t.apply_changes(changes);
        // The candidate commitment was installed: nothing left to hash.
        assert!(t.is_committed());
        let hashed = t.commit_stats().bytes_hashed;
        assert_eq!(t.flush(), candidate);
        assert_eq!(t.commit_stats().bytes_hashed, hashed);
        assert_eq!(t.flush(), t.recompute_root());
    }

    #[test]
    fn overlay_root_matches_direct_execution_for_structural_changes() {
        // New account + deployed SA + SCA and atomic writes + a registry
        // append: the leaf set changes, exercising the structural path.
        let mut direct = tree();
        let mut base = tree();
        base.flush();
        let mut overlay = StateOverlay::new(&base);

        fn script<S: StateAccess>(s: &mut S) {
            s.ledger_mut()
                .credit(Address::new(999), TokenAmount::from_whole(1));
            s.deploy_sa(SaState::new(SaConfig::default()));
            s.sca_mut();
            s.atomic_mut();
            s.append_registry(vec![group()]);
        }
        fn group() -> MsgGroup {
            let at = |a| hc_actors::HcAddress::new(SubnetId::root(), Address::new(a));
            MsgGroup::seal(vec![hc_actors::CrossMsg::transfer(
                at(100),
                at(101),
                TokenAmount::from_whole(1),
            )])
        }
        script(&mut direct);
        script(&mut overlay);

        let candidate = overlay.root();
        base.apply_changes(overlay.into_changes());
        assert!(base.is_committed());
        assert_eq!(base.flush(), candidate);
        assert_eq!(direct.flush(), candidate);
        assert_eq!(base.recompute_root(), candidate);
        // The appended group is served from the base's index after apply.
        let group = group();
        assert_eq!(base.resolve_content(&group.cid()), Some(&group));
    }

    #[test]
    fn overlay_reads_fall_through_to_base() {
        let t = tree();
        let overlay = StateOverlay::new(&t);
        assert_eq!(
            overlay.account(Address::new(100)).unwrap().balance,
            TokenAmount::from_whole(10)
        );
        assert!(overlay.account(Address::new(9999)).is_none());
        assert_eq!(overlay.sca().child_count(), 0);
        assert_eq!(overlay.touched_accounts(), 0);
    }

    #[test]
    fn read_memo_pays_one_base_traversal_per_hot_account() {
        let t = tree();
        let overlay = StateOverlay::new(&t);
        assert_eq!(overlay.read_memo_stats(), ReadMemoStats::default());
        for _ in 0..5 {
            assert!(overlay.account(Address::new(100)).is_some());
            assert!(overlay.account(Address::new(9999)).is_none());
        }
        // Two distinct addresses (one absent — negative results memoise
        // too): 2 misses, 8 hits.
        assert_eq!(
            overlay.read_memo_stats(),
            ReadMemoStats { hits: 8, misses: 2 }
        );
    }

    #[test]
    fn read_memo_never_shadows_overlay_writes() {
        let mut t = tree();
        t.flush();
        let mut overlay = StateOverlay::new(&t);
        // Seed the memo with the base state, then write through the
        // overlay: reads must see the write, not the memoised base ref.
        assert_eq!(
            overlay.account(Address::new(100)).unwrap().balance,
            TokenAmount::from_whole(10)
        );
        overlay
            .ledger_mut()
            .credit(Address::new(100), TokenAmount::from_whole(5));
        assert_eq!(
            overlay.account(Address::new(100)).unwrap().balance,
            TokenAmount::from_whole(15)
        );
    }

    #[test]
    #[should_panic(expected = "flushed base tree")]
    fn overlay_requires_flushed_base() {
        let kp = Keypair::from_seed([0x43; 32]);
        let t = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            [(Address::new(100), kp.public(), TokenAmount::from_whole(1))],
        );
        let _ = StateOverlay::new(&t);
    }
}
