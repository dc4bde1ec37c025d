//! The user-facing half of the runtime: accounts, the keys their handles
//! carry, message submission, and cross-net sends (paper §IV). An account
//! enters state the way everything else does, through a block: creating
//! or adopting one queues it on its subnet's node, and the next block
//! installs it.

use hc_actors::CrossMsg;
use hc_state::{Message, Method, Receipt, SealedMessage};
use hc_types::{Address, Cid, Keypair, SubnetId, TokenAmount};

use crate::config::{RuntimeError, UserHandle};
use crate::runtime::HierarchyRuntime;

impl HierarchyRuntime {
    /// Creates an account in `subnet` with a fresh key. The subnet's next
    /// block installs it ([`hc_state::ImplicitMsg::InstallAccounts`]), so
    /// the handle can sign at once: its messages go in after the install.
    ///
    /// On the rootnet the balance is minted (genesis/faucet, tracked in the
    /// root state's minted total, [`HierarchyRuntime::root_minted`]);
    /// accounts in other subnets must start empty and be funded by
    /// top-down cross-net messages so global supply stays conserved.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets or non-zero balances off the root.
    pub fn create_user(
        &mut self,
        subnet: &SubnetId,
        balance: TokenAmount,
    ) -> Result<UserHandle, RuntimeError> {
        if !subnet.is_root() && !balance.is_zero() {
            return Err(RuntimeError::NonRootMint);
        }
        let addr = Address::new(self.next_user_id);
        self.next_user_id += 1;
        self.install_account(subnet, addr, Some(balance))
    }

    /// The deterministic signing key of account `addr` (a pure function of
    /// the runtime seed, so recovery re-derives the same keys). It is dealt
    /// to the account's handle at install and derived again only where a
    /// node runs the address as a validator.
    pub(crate) fn user_key(runtime_seed: u64, addr: Address) -> Keypair {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&addr.id().to_le_bytes());
        seed[8..16].copy_from_slice(&runtime_seed.to_le_bytes());
        seed[16] = 0xac;
        Keypair::from_seed(seed)
    }

    /// Queues account `addr` with its derived key for `subnet`'s next block
    /// and returns its handle — the shared tail of
    /// [`HierarchyRuntime::create_user`] and [`HierarchyRuntime::adopt_user`].
    /// A created account is minted `Some(balance)`; an adopted one (`None`)
    /// keeps any balance already present.
    fn install_account(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
        mint: Option<TokenAmount>,
    ) -> Result<UserHandle, RuntimeError> {
        let key = Self::user_key(self.config.seed, addr);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        node.queue_install(addr, key.public(), mint);
        Ok(UserHandle {
            subnet: subnet.clone(),
            addr,
            key,
        })
    }

    /// Installs an *existing* logical account in another subnet: same
    /// address, same derived key, starting empty — the account-migration
    /// step of elastic scale-out. The caller funds the new home with a
    /// cross-net transfer from the old one; adoption itself never touches
    /// balances (the account may already have received funds top-down).
    /// Idempotent: re-adopting an address already installed in `subnet`
    /// registers the same key again and hands out its handle.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets.
    pub fn adopt_user(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
    ) -> Result<UserHandle, RuntimeError> {
        self.install_account(subnet, addr, None)
    }

    /// Balance of a user account (zero for unknown accounts).
    pub fn balance(&self, user: &UserHandle) -> TokenAmount {
        self.balance_at(&user.subnet, user.addr)
    }

    /// Balance of `addr` in `subnet`, read from its node's state (zero
    /// for unknown accounts).
    pub(crate) fn balance_at(&self, subnet: &SubnetId, addr: Address) -> TokenAmount {
        self.nodes
            .get(subnet)
            .and_then(|n| n.state().accounts().get(addr))
            .map(|a| a.balance)
            .unwrap_or(TokenAmount::ZERO)
    }

    /// Signs a message with `user`'s key at the nonce its subnet's node
    /// accepts next and queues it in that node's mempool. Returns the
    /// message CID.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets.
    pub fn submit(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<Cid, RuntimeError> {
        let (cid, _) = self.submit_with_fee(user, to, value, method, 0)?;
        Ok(cid)
    }

    /// [`HierarchyRuntime::submit`] with an explicit fee bid. The fee is
    /// node-local admission metadata (not part of the canonical message
    /// encoding): it orders selection and decides who is evicted when the
    /// pool's byte bound overflows. Returns the message CID and the
    /// admission outcome — under overload the message may itself be the
    /// eviction victim ([`hc_chain::PushOutcome::Full`]).
    ///
    /// The message is signed with `user.key`; nothing looks the key up. A
    /// handle whose key is not its account's, or whose account does not
    /// exist, is admitted like any other, and the node's VM rejects the
    /// message when a block carries it.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets.
    pub fn submit_with_fee(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
        fee: u64,
    ) -> Result<(Cid, hc_chain::PushOutcome), RuntimeError> {
        let node = Self::get_node_mut(&mut self.nodes, &user.subnet)?;
        // Signed at the nonce the node accepts next, and sealed in one
        // step: the message CID derived for the signature is memoized and
        // reused by dedup, signature verification, block production, and
        // receipt lookup — it is never recomputed downstream.
        let msg = Message {
            from: user.addr,
            to,
            value,
            nonce: node.next_nonce(user.addr),
            method,
        };
        let sealed = SealedMessage::sign(msg, &user.key);
        let cid = sealed.msg_cid();
        let outcome = node.admit(sealed, fee);
        Ok((cid, outcome))
    }

    /// Submits a message and immediately produces a block on the user's
    /// subnet, returning the message's receipt.
    ///
    /// # Errors
    ///
    /// Fails if the message is not included or reports a non-OK exit.
    pub fn execute(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
    ) -> Result<Receipt, RuntimeError> {
        let subnet = user.subnet.clone();
        // Maximal fee bid: lifecycle operations driven through `execute`
        // (spawn, kill, fund recovery) must not lose the admission
        // auction to a backlogged fee-paying pool.
        let (cid, _) = self.submit_with_fee(user, to, value, method, u64::MAX)?;
        // Receipts are not retained; the node keeps the one it is told to
        // wait for, until this call returns.
        Self::get_node_mut(&mut self.nodes, &subnet)?.await_receipt(Some(cid));
        let receipt = self.tick_until_awaited(&subnet);
        if let Some(node) = self.nodes.get_mut(&subnet) {
            node.await_receipt(None);
        }
        let rec = receipt?;
        if rec.exit.is_ok() {
            Ok(rec)
        } else {
            Err(RuntimeError::Execution(rec.exit.to_string()))
        }
    }

    /// Produces blocks on `subnet` until one commits the message its node
    /// awaits. A block's implicit payload (cross-net applies, checkpoint
    /// commits) can consume its whole capacity under load, so a bounded
    /// number of follow-up blocks is allowed before declaring failure.
    fn tick_until_awaited(&mut self, subnet: &SubnetId) -> Result<Receipt, RuntimeError> {
        const INCLUSION_BLOCKS: usize = 16;
        for _ in 0..INCLUSION_BLOCKS {
            self.tick_subnet(subnet)?;
            if let Some(rec) = Self::get_node_mut(&mut self.nodes, subnet)?.take_receipt() {
                return Ok(rec);
            }
        }
        Err(RuntimeError::Execution(
            "message not included in block".into(),
        ))
    }

    /// Registers a subnet user's identity on the *parent* chain so it can
    /// act there — most importantly to claim recovered funds after its
    /// subnet was killed (paper §III-C). A claimant is an adoption on the
    /// parent ([`HierarchyRuntime::adopt_user`]): same address, same
    /// derived key, any balance already there kept. The returned handle
    /// carries that key.
    ///
    /// # Errors
    ///
    /// Fails for root users (no parent).
    pub fn create_claimant(&mut self, user: &UserHandle) -> Result<UserHandle, RuntimeError> {
        let parent = user
            .subnet
            .parent()
            .ok_or_else(|| RuntimeError::Execution("root users have no parent chain".into()))?;
        self.adopt_user(&parent, user.addr)
    }

    /// Sends a cross-net token transfer from one user to an address in
    /// another subnet and commits it in the source chain (one block is
    /// produced there). Propagation to the destination happens as the
    /// hierarchy advances ([`HierarchyRuntime::step`] /
    /// [`HierarchyRuntime::run_until_quiescent`]).
    ///
    /// # Errors
    ///
    /// Fails if the source-side commit fails (insufficient funds, inactive
    /// subnet, …).
    pub fn cross_transfer(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
    ) -> Result<(), RuntimeError> {
        let msg = CrossMsg::transfer(from.hc_address(), to.hc_address(), amount);
        self.send_cross_msg(from, msg)
    }

    /// Queues a cross-net transfer in the source mempool without forcing a
    /// block — the batching-friendly variant of
    /// [`HierarchyRuntime::cross_transfer`] used by workload generators.
    /// Failures surface in the block receipt rather than here.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn cross_transfer_lazy(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
    ) -> Result<Cid, RuntimeError> {
        let (cid, _) = self.cross_transfer_lazy_with_fee(from, to, amount, 0)?;
        Ok(cid)
    }

    /// [`HierarchyRuntime::cross_transfer_lazy`] with an admission fee bid
    /// (see [`HierarchyRuntime::submit_with_fee`]): cross-net traffic
    /// competes for bounded mempool space on equal terms with local
    /// traffic.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn cross_transfer_lazy_with_fee(
        &mut self,
        from: &UserHandle,
        to: &UserHandle,
        amount: TokenAmount,
        fee: u64,
    ) -> Result<(Cid, hc_chain::PushOutcome), RuntimeError> {
        let msg = CrossMsg::transfer(from.hc_address(), to.hc_address(), amount);
        let value = msg.value + self.cross_fee(&from.subnet)?;
        let method = Method::SendCrossMsg { msg: msg.into() };
        self.submit_with_fee(from, Address::SCA, value, method, fee)
    }

    /// The fee `subnet`'s SCA charges on every cross-net message it sends.
    fn cross_fee(&self, subnet: &SubnetId) -> Result<TokenAmount, RuntimeError> {
        let sca = self.known_node(subnet)?.state().sca();
        Ok(sca.config().cross_msg_fee)
    }

    /// Sends an arbitrary cross-net message originated by `from`.
    ///
    /// # Errors
    ///
    /// Fails if the source-side commit fails.
    pub fn send_cross_msg(&mut self, from: &UserHandle, msg: CrossMsg) -> Result<(), RuntimeError> {
        let value = msg.value + self.cross_fee(&from.subnet)?;
        let method = Method::SendCrossMsg { msg: msg.into() };
        self.execute(from, Address::SCA, value, method)?;
        Ok(())
    }
}
