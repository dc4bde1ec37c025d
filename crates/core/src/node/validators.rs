//! A node's validators: the set it runs under, the keys it holds for them,
//! and the one way the subnet attests — every held key signing.

use hc_actors::checkpoint::{Checkpoint, SignedCheckpoint};
use hc_consensus::ValidatorSet;
use hc_types::crypto::AggregateSignature;
use hc_types::{Address, Keypair};

use super::SubnetNode;

impl SubnetNode {
    /// Installs `set` with a key per member, in set order: a held key is
    /// kept, only a member the node lacks gets `derive(addr)`, and an
    /// unchanged set whose keys it holds (a restart's) touches nothing.
    pub(crate) fn install_validators(
        &mut self,
        set: ValidatorSet,
        mut derive: impl FnMut(Address) -> Keypair,
    ) {
        if self.validators == set && self.validator_keys.len() == set.len() {
            return;
        }
        let mut held = std::mem::take(&mut self.validator_keys);
        self.validator_keys = set
            .validators()
            .iter()
            .map(|v| match held.iter().position(|k| k.public() == v.key) {
                Some(at) => held.swap_remove(at),
                None => derive(v.addr),
            })
            .collect();
        self.validators = set;
    }

    /// The subnet's attestation of `bytes` — a checkpoint, fund
    /// certificate or balance snapshot, honest or (adversarial simulation)
    /// forged: every held validator key signs, in set order.
    pub(crate) fn attest(&self, bytes: &[u8]) -> AggregateSignature {
        self.validator_keys.iter().map(|k| k.sign(bytes)).collect()
    }

    /// `checkpoint`, signed by the subnet ([`SubnetNode::attest`]).
    pub(crate) fn sign_checkpoint(&self, checkpoint: Checkpoint) -> SignedCheckpoint {
        let mut signed = SignedCheckpoint::new(checkpoint);
        signed.signatures = self.attest(&signed.signing_bytes());
        signed
    }
}

#[cfg(test)]
mod tests {
    //! A node's keys follow its set, driven without a runtime: churn keeps
    //! the keys held and derives only the joiner's, and neither an
    //! unchanged set nor a restarted node re-learning its set derives any.

    use std::cell::Cell;

    use hc_consensus::Validator;
    use hc_net::SubscriberId;
    use hc_state::CidStore;
    use hc_types::SubnetId;

    use super::*;
    use crate::config::RuntimeConfig;

    fn key(addr: Address) -> Keypair {
        let mut seed = [0x5e; 32];
        seed[..8].copy_from_slice(&addr.id().to_le_bytes());
        Keypair::from_seed(seed)
    }

    fn set(addrs: &[u64]) -> ValidatorSet {
        let member = |&id: &u64| Validator {
            addr: Address::new(id),
            key: key(Address::new(id)).public(),
            power: 1,
        };
        ValidatorSet::new(addrs.iter().map(member).collect())
    }

    fn genesis(config: &RuntimeConfig) -> SubnetNode {
        let (subnet, at) = (SubnetId::root(), SubscriberId::from_raw(0));
        SubnetNode::genesis(subnet, config, None, at, 0, CidStore::new())
    }

    fn publics(node: &SubnetNode) -> Vec<Address> {
        let of = |k: &Keypair| {
            (1..=4)
                .map(Address::new)
                .find(|&a| key(a).public() == k.public())
        };
        node.validator_keys.iter().map(|k| of(k).unwrap()).collect()
    }

    #[test]
    fn a_node_keeps_its_keys_and_derives_only_a_joiner() {
        let config = RuntimeConfig::default();
        let mut node = genesis(&config);
        let derived = Cell::new(Vec::new());
        let derive = |addr: Address| {
            derived.set([derived.take(), vec![addr]].concat());
            key(addr)
        };

        node.install_validators(set(&[1, 2, 3]), derive);
        assert_eq!(derived.take(), [1, 2, 3].map(Address::new));

        // 2 leaves, 4 joins: the held keys stay, in the new set's order.
        node.install_validators(set(&[3, 1, 4]), derive);
        assert_eq!(derived.take(), [Address::new(4)], "only the joiner");
        assert_eq!(publics(&node), [3, 1, 4].map(Address::new));
        assert_eq!(node.validators(), &set(&[3, 1, 4]));

        node.install_validators(set(&[3, 1, 4]), derive);
        assert!(
            derived.take().is_empty(),
            "an unchanged set derives nothing"
        );

        // A restarted node holds the keys its crash left behind before it
        // re-learns its set.
        let (survivor, _, _) = node.crash();
        let mut restarted = genesis(&config);
        restarted.restart(survivor, None, &config, 1, 0);
        restarted.install_validators(set(&[3, 1, 4]), derive);
        assert!(
            derived.take().is_empty(),
            "a restart re-learns, derives nothing"
        );
        assert_eq!(publics(&restarted), [3, 1, 4].map(Address::new));

        let bytes = b"attested";
        let expected = [3, 1, 4].map(|id| key(Address::new(id)).sign(bytes));
        let expected: AggregateSignature = expected.into_iter().collect();
        assert_eq!(
            restarted.attest(bytes),
            expected,
            "one signature per key, in set order"
        );
    }
}
