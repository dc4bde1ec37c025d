//! What clients hand a node between blocks: a signed message, the receipt
//! `execute` waits on, an account for the next block to install.

use std::collections::BTreeMap;

use hc_chain::PushOutcome;
use hc_state::{Receipt, SealedMessage};
use hc_types::{Address, Cid, PublicKey, TokenAmount};

use super::SubnetNode;

impl SubnetNode {
    /// Admits a message the client signed to the pool at `fee`; under
    /// overload it may itself be the eviction victim ([`PushOutcome::Full`]).
    pub(crate) fn admit(&mut self, sealed: SealedMessage, fee: u64) -> PushOutcome {
        self.mempool.push_sealed_with_fee(sealed, fee)
    }

    /// Keeps the receipt of message `cid` once a block commits it, for
    /// `execute`, the one reader of receipts; `None` stops waiting.
    pub(crate) fn await_receipt(&mut self, cid: Option<Cid>) {
        self.awaited = cid.map(|cid| (cid, None));
    }

    /// The awaited message's receipt, once a block has committed it.
    pub(crate) fn take_receipt(&mut self) -> Option<Receipt> {
        self.awaited
            .as_mut()
            .and_then(|(_, receipt)| receipt.take())
    }

    /// Queues `addr`'s account, registering `key` and crediting `mint`
    /// (rootnet only), for the node's next block to install
    /// ([`hc_state::ImplicitMsg::InstallAccounts`]). The tree changes only
    /// when that block executes.
    pub(crate) fn queue_install(
        &mut self,
        addr: Address,
        key: PublicKey,
        mint: Option<TokenAmount>,
    ) {
        self.installs.push((addr, key, mint));
    }

    /// Drains the pool's per-sender admission counters (elastic hotness).
    pub(crate) fn take_activity(&mut self) -> BTreeMap<Address, u64> {
        self.mempool.take_activity()
    }
}
