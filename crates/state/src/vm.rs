//! Message execution.
//!
//! The VM applies messages to a [`StateTree`](crate::StateTree) and
//! produces [`Receipt`]s.
//! User messages are authenticated (registered key, signature, account
//! nonce) before execution; implicit messages are injected by consensus
//! with system authority (cross-net message application and checkpoint
//! cutting — paper Fig. 3).
//!
//! Handlers are *atomic by construction*: every state machine validates its
//! preconditions before mutating (see `hc-actors`), so a failed message
//! leaves the tree unchanged apart from the sender's nonce bump.

use std::fmt;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::sa::SaState;
use hc_actors::sca::CheckpointOutcome;
use hc_actors::{AtomicExecStatus, CrossMsg, CrossMsgKind, ExecId, HcAddress, Ledger};
use hc_types::{Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId, TokenAmount};

use crate::access::StateAccess;
use crate::message::{ImplicitMsg, Message, Method};
use crate::params::{
    AtomicAbortParams, AtomicInitParams, AtomicSubmitParams, METHOD_ATOMIC_ABORT,
    METHOD_ATOMIC_INIT, METHOD_ATOMIC_SUBMIT,
};
use crate::sealed::SealedMessage;

/// Outcome class of a message application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitCode {
    /// The message executed successfully.
    Ok,
    /// The message was structurally invalid (bad signature, wrong nonce,
    /// unknown sender) and was not executed; no state changed.
    Rejected(String),
    /// The message was valid but its execution failed; only the sender's
    /// nonce advanced.
    Failed(String),
}

impl ExitCode {
    /// Returns `true` for [`ExitCode::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ExitCode::Ok)
    }
}

impl fmt::Display for ExitCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitCode::Ok => f.write_str("ok"),
            ExitCode::Rejected(why) => write!(f, "rejected: {why}"),
            ExitCode::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// Domain events emitted during execution; the runtime reacts to these to
/// drive checkpoint propagation, content resolution, and atomic-execution
/// termination.
#[derive(Debug, Clone, PartialEq)]
pub enum VmEvent {
    /// A Subnet Actor was deployed at this address.
    SaDeployed {
        /// The new actor's address.
        addr: Address,
    },
    /// A child subnet registered with the SCA.
    SubnetRegistered {
        /// The new child's hierarchical ID.
        id: SubnetId,
    },
    /// A child subnet was killed.
    SubnetKilled {
        /// The killed child.
        id: SubnetId,
    },
    /// A validator joined a child subnet.
    ValidatorJoined {
        /// The child subnet.
        subnet: SubnetId,
        /// The validator account.
        validator: Address,
    },
    /// A validator left a child subnet.
    ValidatorLeft {
        /// The child subnet.
        subnet: SubnetId,
        /// The validator account.
        validator: Address,
    },
    /// A child checkpoint was committed; the outcome routes its metas.
    CheckpointCommitted {
        /// The committing child subnet.
        source: SubnetId,
        /// Routing outcome for the carried metas.
        outcome: CheckpointOutcome,
    },
    /// This subnet cut its own checkpoint (to be signed and submitted to
    /// the parent).
    CheckpointCut {
        /// The freshly cut checkpoint.
        checkpoint: Checkpoint,
    },
    /// A cross-net message was accepted for propagation (queued top-down or
    /// added to the checkpoint window).
    CrossMsgQueued {
        /// The outgoing message.
        msg: CrossMsg,
    },
    /// A cross-net message was applied in this (destination) subnet.
    CrossMsgApplied {
        /// The applied message.
        msg: CrossMsg,
    },
    /// A cross-net message failed to apply; a revert message was emitted
    /// towards the original sender (paper §IV-B).
    CrossMsgReverted {
        /// The failing message.
        original: CrossMsg,
        /// The compensating revert message.
        revert: CrossMsg,
    },
    /// An atomic execution changed status.
    AtomicTransition {
        /// The execution.
        exec: ExecId,
        /// Its new status.
        status: AtomicExecStatus,
    },
    /// A fraud proof was accepted and collateral slashed.
    FraudSlashed {
        /// The offending child subnet.
        subnet: SubnetId,
        /// Amount slashed.
        amount: TokenAmount,
    },
    /// A state snapshot CID was persisted via the SCA `save` function.
    StateSaved {
        /// The snapshot CID.
        state: Cid,
    },
}

/// The result of applying one message.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// Outcome class.
    pub exit: ExitCode,
    /// Gas consumed (simulation gas units).
    pub gas_used: u64,
    /// Domain events emitted.
    pub events: Vec<VmEvent>,
    /// Method return bytes (e.g. a deployed actor address or execution ID).
    pub ret: Vec<u8>,
}

impl Receipt {
    fn ok(gas_used: u64) -> Self {
        Receipt {
            exit: ExitCode::Ok,
            gas_used,
            events: Vec::new(),
            ret: Vec::new(),
        }
    }

    fn rejected(why: impl Into<String>) -> Self {
        Receipt {
            exit: ExitCode::Rejected(why.into()),
            gas_used: gas::REJECT,
            events: Vec::new(),
            ret: Vec::new(),
        }
    }

    fn failed(why: impl fmt::Display, gas_used: u64) -> Self {
        Receipt {
            exit: ExitCode::Failed(why.to_string()),
            gas_used,
            events: Vec::new(),
            ret: Vec::new(),
        }
    }

    fn with_event(mut self, ev: VmEvent) -> Self {
        self.events.push(ev);
        self
    }

    fn with_ret(mut self, ret: Vec<u8>) -> Self {
        self.ret = ret;
        self
    }
}

/// Simulation gas schedule (arbitrary but stable units, used by the
/// benchmark harness for load accounting).
pub mod gas {
    /// Flat cost of any executed message.
    pub const BASE: u64 = 1_000;
    /// Cost charged to rejected messages.
    pub const REJECT: u64 = 100;
    /// Extra cost of moving value.
    pub const TRANSFER: u64 = 130;
    /// Per-byte cost of stored data.
    pub const STORAGE_BYTE: u64 = 3;
    /// Cost of committing or cutting a checkpoint.
    pub const CHECKPOINT: u64 = 5_000;
    /// Per-meta cost inside a checkpoint.
    pub const PER_META: u64 = 500;
    /// Cost of routing a cross-net message.
    pub const CROSS_MSG: u64 = 2_000;
    /// Cost of actor deployment.
    pub const DEPLOY: u64 = 10_000;
    /// Cost of atomic-execution coordination steps.
    pub const ATOMIC: u64 = 1_500;
}

/// Applies a sealed user message to the tree at `epoch`. Its signature
/// verdict `sig_ok` the caller already decided (batch pre-verification of
/// the block's messages, which reads a verdict memoized on the value) — it
/// must be the boolean
/// [`SealedMessage::verify_signature`] would produce — which reuses the
/// memoized message CID and keeps signature work off the execution path.
///
/// Authentication: the sender account must exist with a registered key,
/// the signature must be by that key over the message CID, and the message
/// nonce must equal the account nonce. Any violation yields
/// [`ExitCode::Rejected`] with no state change.
pub fn apply_sealed<S: StateAccess>(
    tree: &mut S,
    epoch: ChainEpoch,
    sealed: &SealedMessage,
    sig_ok: bool,
) -> Receipt {
    let msg = sealed.message();
    let Some(account) = tree.account(msg.from) else {
        return Receipt::rejected(format!("unknown sender {}", msg.from));
    };
    let (account_key, account_nonce) = (account.key, account.nonce);
    let Some(key) = account_key else {
        return Receipt::rejected(format!("sender {} has no registered key", msg.from));
    };
    if sealed.signature().signer() != key {
        return Receipt::rejected("signature key does not match account key");
    }
    if !sig_ok {
        return Receipt::rejected("invalid signature");
    }
    if msg.nonce != account_nonce {
        return Receipt::rejected(format!(
            "nonce mismatch: account at {}, message has {}",
            account_nonce, msg.nonce
        ));
    }
    // Authentication passed: the nonce advances regardless of the
    // execution outcome (replay protection).
    tree.account_mut(msg.from).nonce = account_nonce.next();
    execute(tree, epoch, msg)
}

fn execute<S: StateAccess>(tree: &mut S, epoch: ChainEpoch, msg: &Message) -> Receipt {
    match &msg.method {
        Method::Send => {
            let ledger = tree.ledger_mut();
            match ledger.transfer(msg.from, msg.to, msg.value) {
                Ok(()) => Receipt::ok(gas::BASE + gas::TRANSFER),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::PutData { key, data } => {
            if msg.to != msg.from {
                return Receipt::failed("storage writes must target the sender", gas::BASE);
            }
            let acc = tree.account_mut(msg.from);
            if acc.locked.contains(&**key) {
                return Receipt::failed("storage key is locked for an atomic execution", gas::BASE);
            }
            let cost = gas::BASE + gas::STORAGE_BYTE * (key.len() + data.len()) as u64;
            acc.storage.insert(key.to_vec(), data.to_vec());
            Receipt::ok(cost)
        }

        Method::LockState { key } => {
            if msg.to != msg.from {
                return Receipt::failed("locks must target the sender", gas::BASE);
            }
            let acc = tree.account_mut(msg.from);
            if !acc.storage.contains_key(key) {
                return Receipt::failed("cannot lock a missing storage key", gas::BASE);
            }
            if !acc.locked.insert(key.clone()) {
                return Receipt::failed("storage key already locked", gas::BASE);
            }
            Receipt::ok(gas::BASE)
        }

        Method::UnlockState { key } => {
            if msg.to != msg.from {
                return Receipt::failed("unlocks must target the sender", gas::BASE);
            }
            let acc = tree.account_mut(msg.from);
            if !acc.locked.remove(key) {
                return Receipt::failed("storage key is not locked", gas::BASE);
            }
            Receipt::ok(gas::BASE)
        }

        Method::DeploySubnetActor { config } => {
            let addr = tree.deploy_sa(SaState::new((**config).clone()));
            Receipt::ok(gas::DEPLOY)
                .with_event(VmEvent::SaDeployed { addr })
                .with_ret(addr.id().to_le_bytes().to_vec())
        }

        Method::JoinSubnet { key } => {
            let subnet = tree.subnet_id().child(msg.to);
            let (ledger, sca, sa) = tree.ledger_sca_sa_mut(msg.to);
            let Some(sa) = sa else {
                return Receipt::failed(format!("no subnet actor at {}", msg.to), gas::BASE);
            };
            if sca.subnet(&subnet).is_none() {
                return Receipt::failed("subnet not registered with the SCA", gas::BASE);
            }
            if let Err(e) = sa.join(msg.from, *key, msg.value) {
                return Receipt::failed(e, gas::BASE);
            }
            // Validator stake counts towards the subnet's collateral.
            if let Err(e) = sca.add_collateral(ledger, msg.from, &subnet, msg.value) {
                sa.leave(msg.from).expect("just joined");
                return Receipt::failed(e, gas::BASE);
            }
            sa.log_signers(epoch);
            Receipt::ok(gas::BASE + gas::TRANSFER).with_event(VmEvent::ValidatorJoined {
                subnet,
                validator: msg.from,
            })
        }

        Method::LeaveSubnet => {
            let subnet = tree.subnet_id().child(msg.to);
            let (ledger, sca, sa) = tree.ledger_sca_sa_mut(msg.to);
            let Some(sa) = sa else {
                return Receipt::failed(format!("no subnet actor at {}", msg.to), gas::BASE);
            };
            let stake = match sa.leave(msg.from) {
                Ok(stake) => stake,
                Err(e) => return Receipt::failed(e, gas::BASE),
            };
            sa.log_signers(epoch);
            if let Err(e) = sca.release_collateral(ledger, &subnet, msg.from, stake) {
                return Receipt::failed(e, gas::BASE);
            }
            Receipt::ok(gas::BASE + gas::TRANSFER).with_event(VmEvent::ValidatorLeft {
                subnet,
                validator: msg.from,
            })
        }

        Method::KillSubnet => {
            let subnet = tree.subnet_id().child(msg.to);
            let (ledger, sca, sa) = tree.ledger_sca_sa_mut(msg.to);
            let Some(sa) = sa else {
                return Receipt::failed(format!("no subnet actor at {}", msg.to), gas::BASE);
            };
            let is_validator = sa.validators().iter().any(|v| v.addr == msg.from);
            if !sa.validators().is_empty() && !is_validator {
                return Receipt::failed("only validators may kill the subnet", gas::BASE);
            }
            // Release every validator's stake — capped at what is left,
            // since slashing consumes collateral regardless of who staked
            // it — then the remaining collateral to the caller.
            let validators: Vec<(Address, TokenAmount)> =
                sa.validators().iter().map(|v| (v.addr, v.stake)).collect();
            for (addr, stake) in &validators {
                let available = sca
                    .subnet(&subnet)
                    .map(|i| i.collateral)
                    .unwrap_or(TokenAmount::ZERO);
                let amount = (*stake).min(available);
                if !amount.is_zero() {
                    if let Err(e) = sca.release_collateral(ledger, &subnet, *addr, amount) {
                        sa.log_signers(epoch);
                        return Receipt::failed(e, gas::BASE);
                    }
                }
                sa.leave(*addr).expect("validator exists");
            }
            sa.log_signers(epoch);
            match sca.kill_subnet(ledger, &subnet, msg.from) {
                Ok(_) => Receipt::ok(gas::BASE + gas::TRANSFER)
                    .with_event(VmEvent::SubnetKilled { id: subnet }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::RegisterSubnet { sa } => {
            if msg.to != Address::SCA {
                return Receipt::failed("RegisterSubnet must target the SCA", gas::BASE);
            }
            if tree.sa(*sa).is_none() {
                return Receipt::failed(format!("no subnet actor at {sa}"), gas::BASE);
            }
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.register_subnet(ledger, msg.from, *sa, msg.value, epoch) {
                Ok(id) => Receipt::ok(gas::BASE + gas::TRANSFER)
                    .with_event(VmEvent::SubnetRegistered { id }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::AddCollateral { subnet } => {
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.add_collateral(ledger, msg.from, subnet, msg.value) {
                Ok(()) => Receipt::ok(gas::BASE + gas::TRANSFER),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::SendCrossMsg { msg: cross } => {
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.send_cross_msg(ledger, msg.from, (**cross).clone()) {
                Ok(stamped) => {
                    Receipt::ok(gas::CROSS_MSG).with_event(VmEvent::CrossMsgQueued { msg: stamped })
                }
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::ReportFraud { subnet, proof } => {
            let Some(sa_addr) = subnet.actor() else {
                return Receipt::failed("cannot report fraud on the rootnet", gas::BASE);
            };
            let Some(sa) = tree.sa(sa_addr) else {
                return Receipt::failed(format!("no subnet actor at {sa_addr}"), gas::BASE);
            };
            if let Err(why) = proof.validate(sa) {
                return Receipt::failed(format!("invalid fraud proof: {why}"), gas::BASE);
            }
            let collateral = match tree.sca().subnet(subnet) {
                Some(info) => info.collateral,
                None => return Receipt::failed("subnet not registered", gas::BASE),
            };
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.slash(ledger, subnet, collateral, msg.from) {
                Ok(amount) => Receipt::ok(gas::CHECKPOINT).with_event(VmEvent::FraudSlashed {
                    subnet: subnet.clone(),
                    amount,
                }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::SaveState { state } => {
            tree.sca_mut().save_state(epoch, *state);
            Receipt::ok(gas::BASE).with_event(VmEvent::StateSaved { state: *state })
        }

        Method::SaveSnapshot {
            snapshot,
            signatures,
        } => {
            // The snapshot must satisfy the child's SA signature policy:
            // SAs are untrusted, but their validator set gates what the
            // child attests to.
            let Some(sa_addr) = snapshot.subnet.actor() else {
                return Receipt::failed("snapshot subnet has no subnet actor", gas::BASE);
            };
            let Some(sa) = tree.sa(sa_addr) else {
                return Receipt::failed(format!("no subnet actor at {sa_addr}"), gas::BASE);
            };
            let policy = sa.signature_policy();
            if let Err(e) = policy.check(snapshot.cid().as_bytes(), signatures) {
                return Receipt::failed(format!("snapshot signatures: {e}"), gas::BASE);
            }
            match tree.sca_mut().save_child_snapshot((**snapshot).clone()) {
                Ok(()) => Receipt::ok(gas::CHECKPOINT).with_event(VmEvent::StateSaved {
                    state: snapshot.balances_root,
                }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::RecoverFunds { subnet, proof } => {
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.recover_funds(ledger, msg.from, subnet, proof) {
                Ok(amount) => {
                    Receipt::ok(gas::CROSS_MSG).with_ret(amount.atto().to_le_bytes().to_vec())
                }
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::AtomicInit { parties, inputs } => {
            match tree
                .atomic_mut()
                .init(parties.to_vec(), inputs.to_vec(), epoch)
            {
                Ok(exec) => Receipt::ok(gas::ATOMIC)
                    .with_event(VmEvent::AtomicTransition {
                        exec,
                        status: AtomicExecStatus::Pending,
                    })
                    .with_ret(exec.as_bytes().to_vec()),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::AtomicSubmit {
            exec,
            party,
            output,
        } => {
            let own = HcAddress::new(tree.subnet_id().clone(), msg.from);
            if **party != own {
                return Receipt::failed(
                    "local atomic submissions must use the sender's own address",
                    gas::BASE,
                );
            }
            match tree
                .atomic_mut()
                .submit_output(exec, (**party).clone(), **output)
            {
                Ok(status) => Receipt::ok(gas::ATOMIC).with_event(VmEvent::AtomicTransition {
                    exec: **exec,
                    status,
                }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }

        Method::AtomicAbort { exec, party } => {
            let own = HcAddress::new(tree.subnet_id().clone(), msg.from);
            if **party != own {
                return Receipt::failed(
                    "local atomic aborts must use the sender's own address",
                    gas::BASE,
                );
            }
            match tree.atomic_mut().abort(exec, party) {
                Ok(()) => Receipt::ok(gas::ATOMIC).with_event(VmEvent::AtomicTransition {
                    exec: **exec,
                    status: AtomicExecStatus::Aborted,
                }),
                Err(e) => Receipt::failed(e, gas::BASE),
            }
        }
    }
}

/// Applies an implicit (consensus-injected) message.
pub fn apply_implicit<S: StateAccess>(
    tree: &mut S,
    epoch: ChainEpoch,
    msg: &ImplicitMsg,
) -> Receipt {
    match msg {
        ImplicitMsg::ApplyTopDown(cross) => {
            let (ledger, sca) = tree.ledger_and_sca_mut();
            if let Err(e) = sca.apply_top_down(ledger, cross.clone()) {
                return Receipt::failed(e, gas::CROSS_MSG);
            }
            let mut receipt = Receipt::ok(gas::CROSS_MSG)
                .with_event(VmEvent::CrossMsgApplied { msg: cross.clone() });
            // Terminal call messages dispatch into the destination actor.
            if cross.to.subnet == *tree.subnet_id() {
                if let Err(why) = dispatch_cross_call(tree, epoch, cross) {
                    return revert_cross_msg(tree, cross, why, receipt.gas_used);
                }
                if let CrossMsgKind::Call { .. } = cross.kind {
                    receipt.gas_used += gas::ATOMIC;
                }
            }
            receipt
        }

        ImplicitMsg::ApplyBottomUp { meta, msgs } => {
            let (ledger, sca) = tree.ledger_and_sca_mut();
            if let Err(e) = sca.apply_bottom_up(ledger, meta, msgs) {
                return Receipt::failed(e, gas::CROSS_MSG + gas::PER_META);
            }
            let mut receipt = Receipt::ok(gas::CROSS_MSG + gas::PER_META * msgs.len() as u64);
            for m in msgs.iter() {
                if let Err(why) = dispatch_cross_call(tree, epoch, m) {
                    let rc = revert_cross_msg(tree, m, why, 0);
                    receipt.events.extend(rc.events);
                    continue;
                }
                receipt
                    .events
                    .push(VmEvent::CrossMsgApplied { msg: m.clone() });
            }
            receipt
        }

        ImplicitMsg::CutCheckpoint { proof } => {
            let (checkpoint, groups) = tree.sca_mut().cut_checkpoint(epoch, *proof);
            tree.append_registry(groups);
            let gas_used = gas::CHECKPOINT + gas::PER_META * checkpoint.cross_msgs.len() as u64;
            Receipt::ok(gas_used).with_event(VmEvent::CheckpointCut { checkpoint })
        }

        ImplicitMsg::CommitChildCheckpoint { signed } => {
            let Some(sa_addr) = signed.checkpoint.source.actor() else {
                return Receipt::failed("checkpoint source has no subnet actor", gas::BASE);
            };
            // The SA is only read: a commit leaves its chunk clean.
            let Some(sa) = tree.sa(sa_addr) else {
                return Receipt::failed(format!("no subnet actor at {sa_addr}"), gas::BASE);
            };
            if let Err(e) = sa.submit_checkpoint(signed) {
                return Receipt::failed(e, gas::BASE);
            }
            let gas_used =
                gas::CHECKPOINT + gas::PER_META * signed.checkpoint.cross_msgs.len() as u64;
            let (ledger, sca) = tree.ledger_and_sca_mut();
            match sca.commit_child_checkpoint(ledger, &signed.checkpoint) {
                Ok(outcome) => Receipt::ok(gas_used).with_event(VmEvent::CheckpointCommitted {
                    source: signed.checkpoint.source.clone(),
                    outcome,
                }),
                Err(e) => Receipt::failed(e, gas_used),
            }
        }

        ImplicitMsg::SweepAtomicTimeouts { timeout } => {
            let aborted = tree.atomic_mut().abort_stale(epoch, *timeout);
            let mut receipt = Receipt::ok(gas::BASE);
            for exec in aborted {
                receipt.events.push(VmEvent::AtomicTransition {
                    exec,
                    status: AtomicExecStatus::Aborted,
                });
            }
            receipt
        }

        ImplicitMsg::InstallAccounts(accounts) => {
            let mints = accounts
                .iter()
                .any(|(_, _, m)| m.is_some_and(|m| !m.is_zero()));
            if mints && !tree.subnet_id().is_root() {
                // A pulled or replayed block is outside input: no subnet
                // but the rootnet creates tokens.
                return Receipt::failed("only the rootnet mints", 0);
            }
            for &(addr, key, mint) in accounts.iter() {
                // Installing a key an account already holds writes nothing.
                if tree.account(addr).is_none_or(|acc| acc.key != Some(key)) {
                    tree.account_mut(addr).key = Some(key);
                }
                if let Some(amount) = mint.filter(|m| !m.is_zero()) {
                    tree.mint(addr, amount);
                }
            }
            Receipt::ok(0)
        }

        ImplicitMsg::CommitTurnaround { meta, msgs } => {
            if !meta.matches(msgs) {
                return Receipt::failed(
                    format!("messages do not match meta {}", meta.msgs_cid),
                    gas::BASE,
                );
            }
            // The value is already escrowed in this SCA (it never left the
            // ledger when the bottom-up leg was committed); each message
            // only needs restamping onto its top-down route.
            let mut receipt = Receipt::ok(gas::CROSS_MSG * msgs.len().max(1) as u64);
            for m in msgs.iter() {
                let mut down = m.clone();
                down.nonce = hc_types::Nonce::ZERO;
                match tree.sca_mut().commit_top_down(down.clone()) {
                    Ok(stamped) => receipt
                        .events
                        .push(VmEvent::CrossMsgQueued { msg: stamped }),
                    Err(_) => {
                        // Unroutable (e.g. destination subnet killed):
                        // revert towards the sender. The value is already
                        // in this SCA's escrow, so the revert rides a
                        // plain top-down commit; if the sender's branch is
                        // also unreachable the value is burned.
                        let revert = m.revert_msg(tree.subnet_id());
                        match tree.sca_mut().commit_top_down(revert.clone()) {
                            Ok(_) => receipt.events.push(VmEvent::CrossMsgReverted {
                                original: m.clone(),
                                revert,
                            }),
                            Err(_) => {
                                let ledger = tree.ledger_mut();
                                let _ =
                                    ledger.transfer(Address::SCA, Address::BURNT_FUNDS, m.value);
                            }
                        }
                    }
                }
            }
            receipt
        }
    }
}

/// Dispatches the payload of a cross-message that terminated in this
/// subnet. Transfers and reverts have no payload; calls route to system
/// actors by method selector.
fn dispatch_cross_call<S: StateAccess>(
    tree: &mut S,
    epoch: ChainEpoch,
    cross: &CrossMsg,
) -> Result<(), String> {
    let CrossMsgKind::Call { method, params } = &cross.kind else {
        return Ok(());
    };
    if cross.to.raw != Address::ATOMIC_EXEC {
        return Err(format!(
            "no cross-net callable actor at {} (method {method})",
            cross.to.raw
        ));
    }
    match *method {
        METHOD_ATOMIC_INIT => {
            let p = AtomicInitParams::decode(params).map_err(|e| e.to_string())?;
            tree.atomic_mut()
                .init(p.parties, p.inputs, epoch)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        METHOD_ATOMIC_SUBMIT => {
            let p = AtomicSubmitParams::decode(params).map_err(|e| e.to_string())?;
            tree.atomic_mut()
                .submit_output(&p.exec, cross.from.clone(), p.output)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        METHOD_ATOMIC_ABORT => {
            let p = AtomicAbortParams::decode(params).map_err(|e| e.to_string())?;
            tree.atomic_mut()
                .abort(&p.exec, &cross.from)
                .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown cross-net method {other}")),
    }
}

/// Claws back the value just credited to a failing cross-message's target
/// and emits the compensating revert message (paper §IV-B).
fn revert_cross_msg<S: StateAccess>(
    tree: &mut S,
    original: &CrossMsg,
    why: String,
    gas_so_far: u64,
) -> Receipt {
    let (ledger, sca) = tree.ledger_and_sca_mut();
    // The value was credited to the target during application; reclaim it
    // to fund the revert. System invariant: the credit just happened, so
    // the debit cannot fail.
    ledger
        .debit(original.to.raw, original.value)
        .expect("reverting a credit that was just applied");
    match sca.revert_failed_msg(ledger, original) {
        Ok(revert) => Receipt {
            exit: ExitCode::Failed(why),
            gas_used: gas_so_far + gas::CROSS_MSG,
            events: vec![VmEvent::CrossMsgReverted {
                original: original.clone(),
                revert,
            }],
            ret: Vec::new(),
        },
        Err(e) => Receipt::failed(
            format!("{why}; revert also failed: {e}"),
            gas_so_far + gas::CROSS_MSG,
        ),
    }
}
