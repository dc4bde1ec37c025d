//! Client-side orchestration of cross-net atomic executions (paper §IV-D).
//!
//! [`AtomicOrchestrator`] drives the full protocol across a running
//! hierarchy:
//!
//! 1. **Initialization** — each party locks its input storage key in its
//!    own subnet; the execution is registered with the coordinator (the
//!    SCA of the parties' least common ancestor), locally or through a
//!    cross-net call.
//! 2. **Off-chain execution** — the orchestrator plays the users' role of
//!    exchanging locked inputs by CID and computing the output with the
//!    caller-supplied function.
//! 3. **Commit** — each party submits the output commitment; Byzantine
//!    behaviours (divergent outputs, aborts, crashes) are injectable per
//!    party for the security experiments.
//! 4. **Termination** — parties watch the coordinator (they are light
//!    clients of it); on commit they incorporate the output state and
//!    unlock, on abort they just unlock.

use hc_actors::{AtomicExecStatus, CrossMsg, ExecId, HcAddress};
use hc_state::params::{
    AtomicInitParams, AtomicSubmitParams, METHOD_ATOMIC_INIT, METHOD_ATOMIC_SUBMIT,
};
use hc_state::Method;
use hc_types::{Address, CanonicalEncode, Cid, SubnetId, TokenAmount};

use crate::config::{RuntimeError, UserHandle};
use crate::runtime::HierarchyRuntime;

/// How a party behaves during the commit phase (for fault-injection
/// experiments; real users are [`PartyBehavior::Honest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartyBehavior {
    /// Computes and submits the agreed output.
    #[default]
    Honest,
    /// Submits a *different* output commitment (e.g. a compromised subnet
    /// forwarding a corrupt state) — forces an abort.
    Divergent,
    /// Explicitly aborts instead of submitting.
    Abort,
    /// Never submits anything; the execution only terminates through the
    /// coordinator's timeout sweep.
    Crash,
}

/// One participant: a user plus the storage key holding its input state.
#[derive(Debug, Clone)]
pub struct AtomicParty {
    /// The participating user.
    pub user: UserHandle,
    /// The storage key (in the user's own account) used as input.
    pub key: Vec<u8>,
    /// Behaviour during the commit phase.
    pub behavior: PartyBehavior,
}

impl AtomicParty {
    /// An honest party over `key`.
    pub fn honest(user: UserHandle, key: impl Into<Vec<u8>>) -> Self {
        AtomicParty {
            user,
            key: key.into(),
            behavior: PartyBehavior::Honest,
        }
    }

    /// The same party with a different behaviour.
    #[must_use]
    pub fn with_behavior(mut self, behavior: PartyBehavior) -> Self {
        self.behavior = behavior;
        self
    }
}

/// The result of a driven atomic execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicOutcome {
    /// The execution ID at the coordinator.
    pub exec: ExecId,
    /// The coordinator subnet (least common ancestor by default).
    pub coordinator: SubnetId,
    /// Terminal status.
    pub status: AtomicExecStatus,
    /// The agreed output values (one per party), present on commit.
    pub outputs: Option<Vec<Vec<u8>>>,
}

/// Drives atomic executions over a [`HierarchyRuntime`].
#[derive(Debug, Default)]
pub struct AtomicOrchestrator;

impl AtomicOrchestrator {
    /// Runs a full atomic execution over `parties`. `compute` receives the
    /// locked input values (one per party, in order) and returns the new
    /// values (same arity) — e.g. a swap returns them permuted.
    ///
    /// Returns after the protocol terminated and (on commit) the outputs
    /// were incorporated and inputs unlocked in every honest party's
    /// subnet.
    ///
    /// # Errors
    ///
    /// Fails if a party has no value under its input key, locking fails,
    /// or the hierarchy cannot make progress within `max_blocks`.
    pub fn run<F>(
        rt: &mut HierarchyRuntime,
        parties: &[AtomicParty],
        compute: F,
        max_blocks: usize,
    ) -> Result<AtomicOutcome, RuntimeError>
    where
        F: FnOnce(&[Vec<u8>]) -> Vec<Vec<u8>>,
    {
        if parties.len() < 2 {
            return Err(RuntimeError::Execution(
                "atomic execution needs at least two parties".into(),
            ));
        }
        // Coordinator: the least common ancestor of all parties (paper:
        // "generally, subnets will choose the closest common parent").
        let coordinator = parties
            .iter()
            .skip(1)
            .fold(parties[0].user.subnet.clone(), |acc, p| {
                acc.common_ancestor(&p.user.subnet)
            });

        // Phase 1a: read inputs and lock them in each party's subnet.
        let mut inputs: Vec<Vec<u8>> = Vec::with_capacity(parties.len());
        for p in parties {
            let value = rt
                .node(&p.user.subnet)
                .and_then(|n| n.state().accounts().get(p.user.addr))
                .and_then(|a| a.storage.get(&p.key).cloned())
                .ok_or_else(|| {
                    RuntimeError::Execution(format!(
                        "party {} has no state under the input key",
                        p.user
                    ))
                })?;
            rt.execute(
                &p.user,
                p.user.addr,
                TokenAmount::ZERO,
                Method::LockState { key: p.key.clone() },
            )?;
            inputs.push(value);
        }
        let party_addrs: Vec<HcAddress> = parties.iter().map(|p| p.user.hc_address()).collect();
        let input_cids: Vec<Cid> = inputs.iter().map(|v| v.cid()).collect();

        // Phase 1b: register the execution with the coordinator. The first
        // party initiates, locally or through a cross-net call.
        let initiator = &parties[0].user;
        if initiator.subnet == coordinator {
            rt.execute(
                initiator,
                Address::ATOMIC_EXEC,
                TokenAmount::ZERO,
                Method::AtomicInit {
                    parties: party_addrs.clone(),
                    inputs: input_cids.clone(),
                },
            )?;
        } else {
            let params = AtomicInitParams {
                parties: party_addrs.clone(),
                inputs: input_cids.clone(),
            }
            .encode();
            let msg = CrossMsg::call(
                initiator.hc_address(),
                HcAddress::new(coordinator.clone(), Address::ATOMIC_EXEC),
                TokenAmount::ZERO,
                METHOD_ATOMIC_INIT,
                params,
            );
            rt.send_cross_msg(initiator, msg)?;
            rt.run_until_quiescent(max_blocks)?;
        }
        let exec = find_execution(rt, &coordinator, &party_addrs, &input_cids)
            .ok_or_else(|| RuntimeError::Execution("execution not registered".into()))?;

        // Phase 2: off-chain — every party fetches the other inputs by CID
        // and computes the output. The orchestrator plays all users, so
        // the exchange is immediate; honest parties agree on one output.
        let outputs = compute(&inputs);
        if outputs.len() != parties.len() {
            return Err(RuntimeError::Execution(
                "compute must return one output per party".into(),
            ));
        }
        let commitment: Cid = outputs
            .iter()
            .zip(&party_addrs)
            .map(|(v, p)| (p.clone(), v.clone()))
            .collect::<Vec<_>>()
            .cid();

        // Phase 3: submissions per behaviour.
        for p in parties {
            let output = match p.behavior {
                PartyBehavior::Honest => commitment,
                PartyBehavior::Divergent => Cid::digest(b"corrupt state"),
                PartyBehavior::Abort => {
                    Self::send_abort(rt, p, &coordinator, &exec)?;
                    continue;
                }
                PartyBehavior::Crash => continue,
            };
            if p.user.subnet == coordinator {
                // Submission failures (e.g. racing an abort) terminate the
                // protocol rather than failing the orchestration.
                let _ = rt.execute(
                    &p.user,
                    Address::ATOMIC_EXEC,
                    TokenAmount::ZERO,
                    Method::AtomicSubmit {
                        exec,
                        party: p.user.hc_address(),
                        output,
                    },
                );
            } else {
                let params = AtomicSubmitParams { exec, output }.encode();
                let msg = CrossMsg::call(
                    p.user.hc_address(),
                    HcAddress::new(coordinator.clone(), Address::ATOMIC_EXEC),
                    TokenAmount::ZERO,
                    METHOD_ATOMIC_SUBMIT,
                    params,
                );
                rt.send_cross_msg(&p.user, msg)?;
            }
        }

        // Phase 4: termination — drive the hierarchy until the coordinator
        // reaches a terminal status (crashes terminate via the timeout
        // sweep), then incorporate/unlock in every party subnet.
        let mut status = exec_status(rt, &coordinator, &exec);
        let mut budget = max_blocks;
        while status == Some(AtomicExecStatus::Pending) && budget > 0 {
            rt.step()?;
            budget -= 1;
            status = exec_status(rt, &coordinator, &exec);
        }
        rt.run_until_quiescent(max_blocks)?;
        let status = exec_status(rt, &coordinator, &exec)
            .ok_or_else(|| RuntimeError::Execution("execution disappeared".into()))?;

        // Every party unlocks its input; a commit also incorporates the
        // output, an abort leaves the input as it was.
        let committed = match status {
            AtomicExecStatus::Committed => true,
            AtomicExecStatus::Aborted => false,
            AtomicExecStatus::Pending => {
                return Err(RuntimeError::Execution(
                    "atomic execution did not terminate within the block budget".into(),
                ))
            }
        };
        for (p, new_value) in parties.iter().zip(&outputs) {
            let unlock = Method::UnlockState { key: p.key.clone() };
            rt.execute(&p.user, p.user.addr, TokenAmount::ZERO, unlock)?;
            if committed {
                let put = Method::PutData {
                    key: p.key.clone(),
                    data: new_value.clone(),
                };
                rt.execute(&p.user, p.user.addr, TokenAmount::ZERO, put)?;
            }
        }
        Ok(AtomicOutcome {
            exec,
            coordinator,
            status,
            outputs: committed.then_some(outputs),
        })
    }

    fn send_abort(
        rt: &mut HierarchyRuntime,
        p: &AtomicParty,
        coordinator: &SubnetId,
        exec: &ExecId,
    ) -> Result<(), RuntimeError> {
        if p.user.subnet == *coordinator {
            let _ = rt.execute(
                &p.user,
                Address::ATOMIC_EXEC,
                TokenAmount::ZERO,
                Method::AtomicAbort {
                    exec: *exec,
                    party: p.user.hc_address(),
                },
            );
            Ok(())
        } else {
            let params = hc_state::params::AtomicAbortParams { exec: *exec }.encode();
            let msg = CrossMsg::call(
                p.user.hc_address(),
                HcAddress::new(coordinator.clone(), Address::ATOMIC_EXEC),
                TokenAmount::ZERO,
                hc_state::params::METHOD_ATOMIC_ABORT,
                params,
            );
            rt.send_cross_msg(&p.user, msg)
        }
    }
}

fn exec_status(
    rt: &HierarchyRuntime,
    coordinator: &SubnetId,
    exec: &ExecId,
) -> Option<AtomicExecStatus> {
    rt.node(coordinator)
        .and_then(|n| n.state().atomic().get(exec))
        .map(|e| e.status)
}

fn find_execution(
    rt: &HierarchyRuntime,
    coordinator: &SubnetId,
    parties: &[HcAddress],
    inputs: &[Cid],
) -> Option<ExecId> {
    let node = rt.node(coordinator)?;
    node.state()
        .atomic()
        .iter()
        .find(|(_, e)| e.parties == parties && e.inputs == inputs)
        .map(|(id, _)| *id)
}
