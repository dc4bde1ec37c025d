//! Uniform state access for the VM.
//!
//! [`StateAccess`] abstracts the borrow shapes message execution needs over
//! two backends: the canonical [`crate::StateTree`] (a block's implicit
//! messages and serial segments, produced or validated — validation runs
//! in place inside [`crate::StateTree::commit_if`]) and a parallel lane's
//! [`crate::LaneOverlay`] over it. The VM in [`crate::vm`] is generic over
//! this trait, so both execute the *same* code.

use std::collections::BTreeMap;

use hc_actors::sa::SaState;
use hc_actors::{AtomicExecRegistry, Ledger, MsgGroup, ScaState};
use hc_types::{Address, SubnetId};

use crate::tree::{AccountState, Accounts, StateTree};

/// The state surface message execution runs against.
pub trait StateAccess {
    /// The ledger type backing account balances.
    type Ledger: Ledger;

    /// The subnet this state belongs to.
    fn subnet_id(&self) -> &SubnetId;

    /// Read-only view of one account.
    fn account(&self, addr: Address) -> Option<&AccountState>;

    /// Mutable access to one account, creating it if absent.
    fn account_mut(&mut self, addr: Address) -> &mut AccountState;

    /// The account ledger.
    fn ledger_mut(&mut self) -> &mut Self::Ledger;

    /// The subnet's own SCA, read-only.
    fn sca(&self) -> &ScaState;

    /// Mutable SCA access.
    fn sca_mut(&mut self) -> &mut ScaState;

    /// Simultaneous mutable access to the ledger and the SCA.
    fn ledger_and_sca_mut(&mut self) -> (&mut Self::Ledger, &mut ScaState);

    /// The Subnet Actor deployed at `addr`, if any.
    fn sa(&self, addr: Address) -> Option<&SaState>;

    /// Simultaneous mutable access to ledger, SCA, and one SA.
    fn ledger_sca_sa_mut(
        &mut self,
        sa: Address,
    ) -> (&mut Self::Ledger, &mut ScaState, Option<&mut SaState>);

    /// Deploys a new Subnet Actor, allocating its address.
    fn deploy_sa(&mut self, sa: SaState) -> Address;

    /// Mutable atomic-execution coordinator access.
    fn atomic_mut(&mut self) -> &mut AtomicExecRegistry;

    /// Appends the groups one checkpoint cut produced to the content
    /// registry (a cut without groups appends nothing).
    fn append_registry(&mut self, groups: Vec<MsgGroup>);

    /// Folds a batch of account states in wholesale — the merge step of
    /// parallel lane execution ([`crate::parallel::LaneOverlay`]): each
    /// entry replaces (or creates) the account at its address. The lanes a
    /// schedule produces have disjoint write-sets, so the merge order can
    /// never matter; the engine still merges in lane order for belt and
    /// braces.
    fn absorb_accounts(&mut self, writes: BTreeMap<Address, AccountState>);
}

impl StateAccess for StateTree {
    type Ledger = Accounts;

    fn subnet_id(&self) -> &SubnetId {
        StateTree::subnet_id(self)
    }

    fn account(&self, addr: Address) -> Option<&AccountState> {
        self.accounts().get(addr)
    }

    fn account_mut(&mut self, addr: Address) -> &mut AccountState {
        self.accounts_mut().get_or_create(addr)
    }

    fn ledger_mut(&mut self) -> &mut Accounts {
        self.accounts_mut()
    }

    fn sca(&self) -> &ScaState {
        StateTree::sca(self)
    }

    fn sca_mut(&mut self) -> &mut ScaState {
        StateTree::sca_mut(self)
    }

    fn ledger_and_sca_mut(&mut self) -> (&mut Accounts, &mut ScaState) {
        StateTree::ledger_and_sca_mut(self)
    }

    fn sa(&self, addr: Address) -> Option<&SaState> {
        StateTree::sa(self, addr)
    }

    fn ledger_sca_sa_mut(
        &mut self,
        sa: Address,
    ) -> (&mut Accounts, &mut ScaState, Option<&mut SaState>) {
        StateTree::ledger_sca_sa_mut(self, sa)
    }

    fn deploy_sa(&mut self, sa: SaState) -> Address {
        StateTree::deploy_sa(self, sa)
    }

    fn atomic_mut(&mut self) -> &mut AtomicExecRegistry {
        StateTree::atomic_mut(self)
    }

    fn append_registry(&mut self, groups: Vec<MsgGroup>) {
        StateTree::append_registry(self, groups);
    }

    fn absorb_accounts(&mut self, writes: BTreeMap<Address, AccountState>) {
        for (addr, state) in writes {
            *self.accounts_mut().get_or_create(addr) = state;
        }
    }
}
