//! Building blocks for deterministic parallel intra-block execution.
//!
//! The scheduler in `hc-chain` partitions a block's signed messages into
//! conflict-free lanes using [`access_pair`]: the *static access set* of a
//! message. A message is **parallel-eligible** when the VM provably reads
//! and writes nothing outside the sender and recipient *account* chunks —
//! see the method dispatch in [`crate::vm`]:
//!
//! * [`Method::Send`] touches only the `from`/`to` ledger entries;
//! * [`Method::PutData`], [`Method::LockState`], [`Method::UnlockState`]
//!   touch only `from` (they fail, without other state access, unless
//!   `to == from`);
//! * authentication ([`crate::vm::apply_sealed`]) reads and bumps only the
//!   sender's account.
//!
//! Every other method — and every [`crate::ImplicitMsg`] — can touch the
//! SCA, a Subnet Actor, the atomic registry, the actor-id allocator, or
//! arbitrary ledger accounts (collateral release, checkpoint commits), so
//! it stays on the serial lane.
//!
//! Lanes execute on a [`LaneOverlay`]: a private write-set over a shared
//! read-only base. Its system-state accessors *panic* — by construction a
//! scheduled lane never reaches them, and a loud failure beats a silent
//! determinism break if the eligibility rule and the VM ever drift apart.

use std::collections::BTreeMap;

use hc_actors::ledger::LedgerError;
use hc_actors::sa::SaState;
use hc_actors::{AtomicExecRegistry, Ledger, MsgGroup, ScaState};
use hc_types::{Address, SubnetId, TokenAmount};

use crate::access::StateAccess;
use crate::message::{Message, Method};
use crate::tree::{AccountState, StateTree};

/// The static access set of a parallel-eligible message: the (at most two)
/// account chunks its execution can read or write. Returns `None` for
/// messages that must execute on the serial lane.
pub fn access_pair(msg: &Message) -> Option<[Address; 2]> {
    match msg.method {
        Method::Send
        | Method::PutData { .. }
        | Method::LockState { .. }
        | Method::UnlockState { .. } => Some([msg.from, msg.to]),
        _ => None,
    }
}

const LANE_INVARIANT: &str =
    "parallel lane touched system state outside its access set (scheduler invariant violated)";

/// The account view of a [`LaneOverlay`]: reads fall through to the shared
/// tree, writes land in the lane's private map.
#[derive(Debug)]
pub struct LaneAccounts<'a> {
    base: &'a StateTree,
    touched: BTreeMap<Address, AccountState>,
}

impl LaneAccounts<'_> {
    fn get(&self, addr: Address) -> Option<&AccountState> {
        self.touched
            .get(&addr)
            .or_else(|| self.base.accounts().get(addr))
    }

    fn get_or_create(&mut self, addr: Address) -> &mut AccountState {
        self.touched
            .entry(addr)
            .or_insert_with(|| self.base.accounts().get(addr).cloned().unwrap_or_default())
    }
}

impl Ledger for LaneAccounts<'_> {
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

/// A lane's private execution scratchpad over a shared read-only tree.
///
/// It never derives roots and requires no flushed commitment, so many
/// lanes can run concurrently against one borrowed tree — the same tree
/// whether the block is produced or validated. After the lane finishes,
/// [`LaneOverlay::into_writes`] yields its account write-set for the
/// deterministic merge.
#[derive(Debug)]
pub struct LaneOverlay<'a> {
    accounts: LaneAccounts<'a>,
}

impl<'a> LaneOverlay<'a> {
    /// Creates an empty lane overlay over `base`.
    pub fn new(base: &'a StateTree) -> Self {
        LaneOverlay {
            accounts: LaneAccounts {
                base,
                touched: BTreeMap::new(),
            },
        }
    }

    /// Consumes the lane, yielding the accounts it wrote.
    pub fn into_writes(self) -> BTreeMap<Address, AccountState> {
        self.accounts.touched
    }
}

impl<'a> StateAccess for LaneOverlay<'a> {
    type Ledger = LaneAccounts<'a>;

    fn subnet_id(&self) -> &SubnetId {
        self.accounts.base.subnet_id()
    }

    fn account(&self, addr: Address) -> Option<&AccountState> {
        self.accounts.get(addr)
    }

    fn account_mut(&mut self, addr: Address) -> &mut AccountState {
        self.accounts.get_or_create(addr)
    }

    fn ledger_mut(&mut self) -> &mut LaneAccounts<'a> {
        &mut self.accounts
    }

    fn sca(&self) -> &ScaState {
        panic!("{LANE_INVARIANT}");
    }

    fn sca_mut(&mut self) -> &mut ScaState {
        panic!("{LANE_INVARIANT}");
    }

    fn ledger_and_sca_mut(&mut self) -> (&mut LaneAccounts<'a>, &mut ScaState) {
        panic!("{LANE_INVARIANT}");
    }

    fn sa(&self, _addr: Address) -> Option<&SaState> {
        panic!("{LANE_INVARIANT}");
    }

    fn ledger_sca_sa_mut(
        &mut self,
        _sa: Address,
    ) -> (&mut LaneAccounts<'a>, &mut ScaState, Option<&mut SaState>) {
        panic!("{LANE_INVARIANT}");
    }

    fn deploy_sa(&mut self, _sa: SaState) -> Address {
        panic!("{LANE_INVARIANT}");
    }

    fn atomic_mut(&mut self) -> &mut AtomicExecRegistry {
        panic!("{LANE_INVARIANT}");
    }

    fn append_registry(&mut self, _groups: Vec<MsgGroup>) {
        panic!("{LANE_INVARIANT}");
    }

    fn absorb_accounts(&mut self, writes: BTreeMap<Address, AccountState>) {
        self.accounts.touched.extend(writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::apply_sealed;
    use crate::SealedMessage;
    use hc_actors::ScaConfig;
    use hc_types::{ChainEpoch, Keypair, Nonce};

    fn tree() -> (StateTree, Keypair) {
        let kp = Keypair::from_seed([0x51; 32]);
        let t = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            [(Address::new(100), kp.public(), TokenAmount::from_whole(10))],
        );
        (t, kp)
    }

    #[test]
    fn eligibility_matches_the_vm_access_surface() {
        let msg = |method| Message {
            from: Address::new(1),
            to: Address::new(2),
            value: TokenAmount::ZERO,
            nonce: Nonce::ZERO,
            method,
        };
        assert_eq!(
            access_pair(&msg(Method::Send)),
            Some([Address::new(1), Address::new(2)])
        );
        assert!(access_pair(&msg(Method::PutData {
            key: vec![1].into(),
            data: vec![2].into()
        }))
        .is_some());
        assert!(access_pair(&msg(Method::LockState { key: vec![1] })).is_some());
        assert!(access_pair(&msg(Method::UnlockState { key: vec![1] })).is_some());
        // System-actor methods stay serial.
        assert!(access_pair(&msg(Method::LeaveSubnet)).is_none());
        assert!(access_pair(&msg(Method::KillSubnet)).is_none());
        assert!(access_pair(&msg(Method::SaveState {
            state: hc_types::Cid::NIL
        }))
        .is_none());
    }

    #[test]
    fn lane_overlay_matches_direct_execution_and_absorbs_back() {
        let (mut direct, kp) = tree();
        let mut base = tree().0;
        let sealed: SealedMessage = Message::transfer(
            Address::new(100),
            Address::new(200),
            TokenAmount::from_whole(3),
            Nonce::ZERO,
        )
        .sign(&kp)
        .into();

        let sig_ok = sealed.verify_signature();
        let direct_receipt = apply_sealed(&mut direct, ChainEpoch::new(1), &sealed, sig_ok);

        let mut lane = LaneOverlay::new(&base);
        let lane_receipt = apply_sealed(&mut lane, ChainEpoch::new(1), &sealed, sig_ok);
        assert_eq!(lane_receipt, direct_receipt);
        // Base untouched until the merge.
        assert_eq!(
            base.accounts().balance(Address::new(100)),
            TokenAmount::from_whole(10)
        );
        base.absorb_accounts(lane.into_writes());
        assert_eq!(base.flush(), direct.flush());
    }

    #[test]
    #[should_panic(expected = "scheduler invariant violated")]
    fn system_access_from_a_lane_is_loud() {
        let (base, _) = tree();
        let lane = LaneOverlay::new(&base);
        let _ = lane.sca();
    }
}
