//! Adversarial behaviour injection.
//!
//! The firewall property (paper §II) is a claim about what a *fully
//! compromised* child subnet can do to its ancestors. This module lets
//! experiments compromise a subnet explicitly: its validator quorum signs
//! whatever the adversary wants — forged bottom-up withdrawals, inflated
//! supplies, equivocating checkpoints — and the runtime delivers the result
//! to the honest parent, which must contain the damage.

use hc_actors::checkpoint::Checkpoint;
use hc_actors::sa::FraudProof;
use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, MsgGroup};
use hc_net::ResolutionMsg;
use hc_types::{Address, Cid, SubnetId, TokenAmount};

use crate::config::RuntimeError;
use crate::node::Input;
use crate::runtime::HierarchyRuntime;

/// The result of an attempted extraction attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Value the adversary attempted to extract.
    pub attempted: TokenAmount,
    /// Value actually credited to adversary-controlled accounts in the
    /// parent.
    pub extracted: TokenAmount,
    /// The child's circulating supply before the attack (the theoretical
    /// firewall bound).
    pub bound: TokenAmount,
}

impl HierarchyRuntime {
    /// A compromised subnet forges a checkpoint claiming bottom-up
    /// transfers of `amount` to `thief` in the parent — without burning
    /// anything locally. The checkpoint is validly signed (the adversary
    /// controls the subnet's validator quorum) and extends the committed
    /// checkpoint chain, so only the SCA's economic firewall can stop it.
    ///
    /// Returns what actually got extracted after the hierarchy processed
    /// the attack.
    ///
    /// # Errors
    ///
    /// Fails for unknown or root subnets.
    pub fn forge_withdrawal(
        &mut self,
        subnet: &SubnetId,
        thief: Address,
        amount: TokenAmount,
    ) -> Result<AttackReport, RuntimeError> {
        let parent = subnet
            .parent()
            .ok_or_else(|| RuntimeError::Execution("cannot compromise the root".into()))?;

        let bound = self
            .known_node(&parent)?
            .state()
            .sca()
            .subnet(subnet)
            .map(|i| i.circ_supply)
            .unwrap_or(TokenAmount::ZERO);
        let thief_before = self.balance_at(&parent, thief);

        // Build the forged withdrawal: value claimed out of thin air.
        let forged_msgs = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(subnet.clone(), Address::new(666)),
            HcAddress::new(parent.clone(), thief),
            amount,
        )]);
        let meta = CrossMsgMeta::for_group(subnet.clone(), parent.clone(), &forged_msgs);
        self.inject_signed_checkpoint(subnet, |ckpt| {
            ckpt.add_cross_meta(meta.clone());
        })?;
        // Push the forged content to the parent so it can even try to
        // apply it (a real adversary would happily serve it).
        let (cid, msgs) = (forged_msgs.cid(), forged_msgs.to_vec());
        self.inject_gossip(&parent.topic(), ResolutionMsg::Push { cid, msgs });

        self.run_until_quiescent(5_000)?;
        let extracted = self.balance_at(&parent, thief) - thief_before;
        Ok(AttackReport {
            attempted: amount,
            extracted,
            bound,
        })
    }

    /// A compromised subnet equivocates: two different validly-signed
    /// checkpoints extending the same `prev`. Returns the fraud proof an
    /// honest observer can submit via
    /// [`hc_state::Method::ReportFraud`].
    ///
    /// # Errors
    ///
    /// Fails for unknown or root subnets.
    pub fn forge_equivocation(&mut self, subnet: &SubnetId) -> Result<FraudProof, RuntimeError> {
        let node = self.known_node(subnet)?;
        let epoch = node.chain().head_epoch().next();
        let prev = node.state().sca().prev_checkpoint();
        let fork = |proof: &[u8]| {
            let mut ckpt = Checkpoint::template(subnet.clone(), epoch, prev);
            ckpt.proof = Cid::digest(proof);
            node.sign_checkpoint(ckpt)
        };
        Ok(FraudProof {
            a: fork(b"equivocation fork A"),
            b: fork(b"equivocation fork B"),
        })
    }

    /// Injects a validly-signed checkpoint built from the subnet's real
    /// template (correct `prev` chain) after applying `tamper` to it, and
    /// hands it to the parent the way an honest cut goes up. This
    /// *bypasses* the honest node's SCA —
    /// exactly what a compromised validator set can do — and marks the
    /// subnet compromised for [`HierarchyRuntime::check_invariants`].
    ///
    /// # Errors
    ///
    /// Fails for unknown or root subnets.
    pub fn inject_signed_checkpoint<F>(
        &mut self,
        subnet: &SubnetId,
        tamper: F,
    ) -> Result<(), RuntimeError>
    where
        F: FnOnce(&mut Checkpoint),
    {
        let parent = subnet
            .parent()
            .ok_or_else(|| RuntimeError::Execution("root has no parent".into()))?;
        let node = self.known_node(subnet)?;
        // Chain to the last checkpoint the parent actually committed, so
        // only economic checks can reject.
        let prev = self
            .node(&parent)
            .and_then(|p| p.state().sca().subnet(subnet))
            .map(|i| i.prev_checkpoint)
            .unwrap_or(Cid::NIL);
        let mut ckpt = Checkpoint::template(subnet.clone(), node.chain().head_epoch().next(), prev);
        ckpt.proof = Cid::digest(b"compromised head");
        tamper(&mut ckpt);
        let signed = node.sign_checkpoint(ckpt);
        self.deliver(parent, Input::Checkpoint(signed));
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.compromised = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use hc_actors::sa::SaConfig;
    use hc_types::CanonicalEncode;

    #[test]
    fn forged_checkpoint_cids_differ() {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let alice = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(1_000))
            .unwrap();
        let validator = rt
            .create_user(&SubnetId::root(), TokenAmount::from_whole(100))
            .unwrap();
        let subnet = rt
            .spawn_subnet(
                &alice,
                SaConfig::default(),
                TokenAmount::from_whole(10),
                &[(validator, TokenAmount::from_whole(5))],
            )
            .unwrap();
        let proof = rt.forge_equivocation(&subnet).unwrap();
        assert_ne!(proof.a.checkpoint.cid(), proof.b.checkpoint.cid());
        assert_eq!(proof.a.checkpoint.prev, proof.b.checkpoint.prev);
    }
}
