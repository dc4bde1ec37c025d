//! The user-facing half of the runtime: accounts and their wallets,
//! message submission, and cross-net sends (paper §IV).

use hc_actors::CrossMsg;
use hc_state::{Method, Receipt};
use hc_types::{Address, Cid, Keypair, Nonce, SubnetId, TokenAmount};

use crate::config::{RuntimeError, UserHandle};
use crate::persist::ControlRecord;
use crate::runtime::HierarchyRuntime;

impl HierarchyRuntime {
    /// Creates an account in `subnet` with a fresh key.
    ///
    /// On the rootnet the balance is minted (genesis/faucet, tracked in
    /// [`HierarchyRuntime::root_minted`]); accounts in other subnets must
    /// start empty and be funded by top-down cross-net messages so global
    /// supply stays conserved.
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
        let addr = self.wallets.fresh_address();
        self.install_account(subnet, addr, Some(balance))?;
        self.journal.append(&ControlRecord::UserCreated {
            subnet: subnet.clone(),
            addr,
            balance,
        });
        Ok(UserHandle {
            subnet: subnet.clone(),
            addr,
        })
    }

    /// The deterministic wallet key of account `addr` (a pure function of
    /// the runtime seed, so recovery re-derives the same keys).
    pub(crate) fn user_key(runtime_seed: u64, addr: Address) -> Keypair {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&addr.id().to_le_bytes());
        seed[8..16].copy_from_slice(&runtime_seed.to_le_bytes());
        seed[16] = 0xac;
        Keypair::from_seed(seed)
    }

    /// Installs account `addr` in `subnet` with its derived key and a
    /// wallet — the shared tail of [`HierarchyRuntime::create_user`],
    /// [`HierarchyRuntime::adopt_user`] and their recovery replays. A
    /// created account is minted `Some(balance)` and signs from nonce zero;
    /// an adopted one (`None`) keeps any balance already present and
    /// continues from the account's executed nonce.
    pub(crate) fn install_account(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
        mint: Option<TokenAmount>,
    ) -> Result<(), RuntimeError> {
        let key = Self::user_key(self.config.seed, addr);
        let node = Self::get_node_mut(&mut self.nodes, subnet)?;
        // A crash–rejoin catch-up must repeat the install at this epoch
        // boundary, so the subnet's record notes it.
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.user_installs.push((node.next_epoch, addr));
        }
        let acc = node.tree.accounts_mut().get_or_create(addr);
        acc.key = Some(key.public());
        let mut next_nonce = acc.nonce;
        if let Some(balance) = mint {
            acc.balance = balance;
            next_nonce = Nonce::ZERO;
            if subnet.is_root() {
                self.root_minted += balance;
            }
        }
        self.wallets.install(subnet, addr, key, next_nonce);
        Ok(())
    }

    /// Installs an *existing* logical account in another subnet: same
    /// address, same derived key, starting empty — the account-migration
    /// step of elastic scale-out. The caller funds the new home with a
    /// cross-net transfer from the old one; adoption itself never touches
    /// balances (the account may already have received funds top-down).
    /// Idempotent: re-adopting an address that already has a wallet in
    /// `subnet` is a no-op.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets.
    pub fn adopt_user(
        &mut self,
        subnet: &SubnetId,
        addr: Address,
    ) -> Result<UserHandle, RuntimeError> {
        let handle = UserHandle {
            subnet: subnet.clone(),
            addr,
        };
        if self.wallets.key(subnet, addr).is_some() {
            return Ok(handle);
        }
        self.install_account(subnet, addr, None)?;
        self.journal.append(&ControlRecord::UserAdopted {
            subnet: subnet.clone(),
            addr,
        });
        Ok(handle)
    }

    /// Balance of a user account (zero for unknown accounts).
    pub fn balance(&self, user: &UserHandle) -> TokenAmount {
        self.nodes
            .get(&user.subnet)
            .and_then(|n| n.tree.accounts().get(user.addr))
            .map(|a| a.balance)
            .unwrap_or(TokenAmount::ZERO)
    }

    /// Signs a message for `user` with its tracked nonce and queues it in
    /// the subnet's mempool. Returns the message CID.
    ///
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
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
    /// # Errors
    ///
    /// Fails for unknown users/subnets.
    pub fn submit_with_fee(
        &mut self,
        user: &UserHandle,
        to: Address,
        value: TokenAmount,
        method: Method,
        fee: u64,
    ) -> Result<(Cid, hc_chain::PushOutcome), RuntimeError> {
        // Signed and sealed in one step: the message CID derived for the
        // signature is memoized and reused by dedup, signature
        // verification, block production, and receipt lookup — it is never
        // recomputed downstream.
        let sealed = self.wallets.sign(user, to, value, method)?;
        let cid = sealed.msg_cid();
        let node = Self::get_node_mut(&mut self.nodes, &user.subnet)?;
        let outcome = node.mempool.push_sealed_with_fee(sealed, fee);
        // Admission control may have dropped queued messages to make room.
        self.wallets
            .rewind(&user.subnet, node.mempool.drain_evictions());
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
        Self::get_node_mut(&mut self.nodes, &subnet)?.awaited = Some((cid, None));
        let receipt = self.tick_until_awaited(&subnet);
        if let Some(node) = self.nodes.get_mut(&subnet) {
            node.awaited = None;
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
            let node = Self::get_node_mut(&mut self.nodes, subnet)?;
            if let Some(rec) = node.awaited.as_mut().and_then(|(_, rec)| rec.take()) {
                return Ok(rec);
            }
        }
        Err(RuntimeError::Execution(
            "message not included in block".into(),
        ))
    }

    /// Registers a subnet user's identity on the *parent* chain so it can
    /// act there — most importantly to claim recovered funds after its
    /// subnet was killed (paper §III-C). The parent account reuses the
    /// same address and signing key, starting with zero balance.
    ///
    /// # Errors
    ///
    /// Fails for root users (no parent) or unmanaged users.
    pub fn create_claimant(&mut self, user: &UserHandle) -> Result<UserHandle, RuntimeError> {
        let parent = user
            .subnet
            .parent()
            .ok_or_else(|| RuntimeError::Execution("root users have no parent chain".into()))?;
        let key = self
            .wallets
            .key(&user.subnet, user.addr)
            .ok_or_else(|| RuntimeError::UnknownUser(user.clone()))?
            .clone();
        let node = Self::get_node_mut(&mut self.nodes, &parent)?;
        let acc = node.tree.accounts_mut().get_or_create(user.addr);
        if acc.key.is_none() {
            acc.key = Some(key.public());
        }
        self.wallets.install(&parent, user.addr, key, Nonce::ZERO);
        self.journal.append(&ControlRecord::ClaimantCreated {
            subnet: user.subnet.clone(),
            addr: user.addr,
        });
        Ok(UserHandle {
            subnet: parent,
            addr: user.addr,
        })
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
        self.submit_with_fee(from, Address::SCA, value, Method::SendCrossMsg { msg }, fee)
    }

    /// The fee `subnet`'s SCA charges on every cross-net message it sends.
    fn cross_fee(&self, subnet: &SubnetId) -> Result<TokenAmount, RuntimeError> {
        Ok(self.known_node(subnet)?.tree.sca().config().cross_msg_fee)
    }

    /// Sends an arbitrary cross-net message originated by `from`.
    ///
    /// # Errors
    ///
    /// Fails if the source-side commit fails.
    pub fn send_cross_msg(&mut self, from: &UserHandle, msg: CrossMsg) -> Result<(), RuntimeError> {
        let value = msg.value + self.cross_fee(&from.subnet)?;
        self.execute(from, Address::SCA, value, Method::SendCrossMsg { msg })?;
        Ok(())
    }
}
