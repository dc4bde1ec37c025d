//! The runtime's wallets: every managed account's signing key and signing
//! cursor, keyed subnet → address.
//!
//! [`Wallets`] is the only place a cursor moves: signing advances it, an
//! admission-control eviction rewinds it, state re-built from a journal or
//! from peers raises it to the account nonce that state holds — and
//! installing a wallet never resets one that already exists.

use std::collections::BTreeMap;

use hc_chain::Block;
use hc_state::{Message, Method, SealedMessage, StateTree};
use hc_types::{Address, Keypair, Nonce, SubnetId, TokenAmount};

use crate::config::{RuntimeError, UserHandle};

struct Wallet {
    key: Keypair,
    next_nonce: Nonce,
}

/// Signing keys and cursors of every account the runtime manages.
pub(crate) struct Wallets {
    by_subnet: BTreeMap<SubnetId, BTreeMap<Address, Wallet>>,
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

    /// Installs `addr`'s wallet in `subnet`, signing from `next_nonce`.
    /// An address that already has a wallet there keeps it: a cursor is
    /// never reset under messages it already signed.
    pub(crate) fn install(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
        key: Keypair,
        next_nonce: Nonce,
    ) {
        self.by_subnet
            .entry(subnet.clone())
            .or_default()
            .entry(addr)
            .or_insert(Wallet { key, next_nonce });
    }

    /// The signing key of `addr` in `subnet`, if managed.
    pub(crate) fn key(&self, subnet: &SubnetId, addr: Address) -> Option<&Keypair> {
        Some(&self.by_subnet.get(subnet)?.get(&addr)?.key)
    }

    /// Signs and seals a message from `user` at its cursor, advancing it.
    pub(crate) fn sign(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<SealedMessage, RuntimeError> {
        let wallet = self
            .by_subnet
            .get_mut(&user.subnet)
            .and_then(|w| w.get_mut(&user.addr))
            .ok_or_else(|| RuntimeError::UnknownUser(user.clone()))?;
        let msg = Message {
            from: user.addr,
            to,
            value,
            nonce: wallet.next_nonce.fetch_increment(),
            method,
        };
        Ok(SealedMessage::sign(msg, &wallet.key))
    }

    /// Rewinds cursors to the nonces `subnet`'s pool dropped. An evicted
    /// message's nonce never executes, so its sender re-signs from the
    /// lowest dropped nonce instead of stranding every later message
    /// behind a permanent lane gap.
    pub(crate) fn rewind(&mut self, subnet: &SubnetId, evicted: Vec<(Address, Nonce)>) {
        let Some(wallets) = self.by_subnet.get_mut(subnet) else {
            return;
        };
        for (addr, nonce) in evicted {
            if let Some(w) = wallets.get_mut(&addr) {
                w.next_nonce = w.next_nonce.min(nonce);
            }
        }
    }

    /// Raises the cursor of every managed sender in `blocks` to the nonce
    /// its account expects next in `tree`, never lowering one. A live
    /// block's nonces were advanced when its messages were signed; a block
    /// re-executed or installed into a node was signed by an earlier
    /// process. Only an authenticated message advances an account nonce,
    /// so a message a block carried but execution rejected moves no cursor.
    pub(crate) fn settle<'a>(
        &mut self,
        subnet: &SubnetId,
        tree: &StateTree,
        blocks: impl IntoIterator<Item = &'a Block>,
    ) {
        let Some(wallets) = self.by_subnet.get_mut(subnet) else {
            return;
        };
        for m in blocks.into_iter().flat_map(|b| &b.signed_msgs) {
            let from = m.message().from;
            if let (Some(w), Some(account)) = (wallets.get_mut(&from), tree.accounts().get(from)) {
                w.next_nonce = w.next_nonce.max(account.nonce);
            }
        }
    }

    /// Forgets every wallet of a retired subnet.
    pub(crate) fn retire(&mut self, subnet: &SubnetId) {
        self.by_subnet.remove(subnet);
    }
}
