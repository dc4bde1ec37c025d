//! The runtime's wallets: every managed account's signing key and signing
//! cursor, keyed subnet → address.
//!
//! [`Wallets`] is the only place a cursor moves: signing advances it, an
//! admission-control eviction rewinds it, a block re-committed from a
//! journal or from peers advances it past the nonces that block spent —
//! and installing a wallet never resets one that already exists.

use std::collections::BTreeMap;

use hc_chain::Block;
use hc_state::{Message, Method, SealedMessage};
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

    /// Advances cursors past every user message of a past block. A live
    /// block's nonces were advanced when its messages were signed; a block
    /// replayed or skipped into a node was signed by an earlier process.
    pub(crate) fn advance_past(&mut self, subnet: &SubnetId, block: &Block) {
        let Some(wallets) = self.by_subnet.get_mut(subnet) else {
            return;
        };
        for m in &block.signed_msgs {
            if let Some(w) = wallets.get_mut(&m.message().from) {
                w.next_nonce = w.next_nonce.max(m.message().nonce.next());
            }
        }
    }

    /// Forgets every wallet of a retired subnet.
    pub(crate) fn retire(&mut self, subnet: &SubnetId) {
        self.by_subnet.remove(subnet);
    }
}
