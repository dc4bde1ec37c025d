//! The runtime's key ring: every managed account's signing key, keyed
//! subnet → address, and the counter that hands out fresh addresses.
//!
//! A key ring holds no nonce. The nonce a message is signed at is the one
//! its node would accept next ([`crate::SubnetNode::next_nonce`]), read
//! from the node's pool and committed state, so nothing here needs
//! repairing after an eviction, a replay or a snapshot install.

use std::collections::BTreeMap;

use hc_types::{Address, Keypair, SubnetId};

/// Signing keys of every account the runtime manages.
pub(crate) struct Wallets {
    by_subnet: BTreeMap<SubnetId, BTreeMap<Address, Keypair>>,
    next_user_id: u64,
}

impl Wallets {
    pub(crate) fn new() -> Self {
        Wallets {
            by_subnet: BTreeMap::new(),
            next_user_id: 100, // lower ids are system actors and validators
        }
    }

    /// Allocates the next unused account address.
    pub(crate) fn fresh_address(&mut self) -> Address {
        let addr = Address::new(self.next_user_id);
        self.next_user_id += 1;
        addr
    }

    /// Keeps [`Wallets::fresh_address`] clear of `addr`, an address a
    /// journaled run already handed out.
    pub(crate) fn reserve(&mut self, addr: Address) {
        self.next_user_id = self.next_user_id.max(addr.id() + 1);
    }

    /// Installs `addr`'s signing key in `subnet`.
    pub(crate) fn install(&mut self, subnet: &SubnetId, addr: Address, key: Keypair) {
        self.by_subnet
            .entry(subnet.clone())
            .or_default()
            .insert(addr, key);
    }

    /// The signing key of `addr` in `subnet`, if managed.
    pub(crate) fn key(&self, subnet: &SubnetId, addr: Address) -> Option<&Keypair> {
        self.by_subnet.get(subnet)?.get(&addr)
    }

    /// Forgets every key of a retired subnet.
    pub(crate) fn retire(&mut self, subnet: &SubnetId) {
        self.by_subnet.remove(subnet);
    }
}
