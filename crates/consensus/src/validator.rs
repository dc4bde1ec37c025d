//! Validator sets: the membership view consensus engines operate over.

use hc_types::crypto::SignaturePolicy;
use hc_types::{Address, PublicKey, TokenAmount};

/// One consensus participant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validator {
    /// Account address in the subnet's parent (where the stake lives).
    pub addr: Address,
    /// Block/checkpoint signing key.
    pub key: PublicKey,
    /// Voting power: mining power for PoW, stake for PoS, 1 for
    /// authority/BFT engines.
    pub power: u64,
}

/// An ordered validator set with power-weighted selection helpers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidatorSet {
    validators: Vec<Validator>,
}

impl ValidatorSet {
    /// Creates a set from validators (order defines round-robin rotation).
    pub fn new(validators: Vec<Validator>) -> Self {
        ValidatorSet { validators }
    }

    /// Builds a set from the Subnet Actor's registered validators, deriving
    /// power from stake (1 power per whole token, minimum 1).
    pub fn from_sa(sa: &hc_actors::SaState) -> Self {
        ValidatorSet {
            validators: sa
                .validators()
                .iter()
                .map(|v| Validator {
                    addr: v.addr,
                    key: v.key,
                    power: (v.stake.atto() / TokenAmount::from_whole(1).atto()).max(1) as u64,
                })
                .collect(),
        }
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Returns `true` for an empty set.
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// The validators in rotation order.
    pub fn validators(&self) -> &[Validator] {
        &self.validators
    }

    /// The validator at `index`.
    pub fn get(&self, index: usize) -> Option<&Validator> {
        self.validators.get(index)
    }

    /// Total voting power.
    pub fn total_power(&self) -> u64 {
        self.validators.iter().map(|v| v.power).sum()
    }

    /// Selects a validator index by sampling `point` uniformly from
    /// `[0, total_power)` — power-weighted selection for PoW/PoS lotteries.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or `point >= total_power()`.
    pub fn select_by_power(&self, point: u64) -> usize {
        assert!(!self.is_empty(), "empty validator set");
        let mut acc = 0u64;
        for (i, v) in self.validators.iter().enumerate() {
            acc += v.power;
            if point < acc {
                return i;
            }
        }
        panic!("selection point {point} out of range {}", acc);
    }

    /// The public keys, in rotation order (for signature policies).
    pub fn keys(&self) -> Vec<PublicKey> {
        self.validators.iter().map(|v| v.key).collect()
    }

    /// The minimum number of signatures for a 2/3 BFT quorum: the
    /// [`SignaturePolicy`] count over this set.
    pub fn quorum_threshold(&self) -> usize {
        SignaturePolicy::quorum(self.validators.len())
    }
}

impl FromIterator<Validator> for ValidatorSet {
    fn from_iter<I: IntoIterator<Item = Validator>>(iter: I) -> Self {
        ValidatorSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_types::Keypair;

    fn set(powers: &[u64]) -> ValidatorSet {
        powers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                seed[1] = 0xf1;
                Validator {
                    addr: Address::new(100 + i as u64),
                    key: Keypair::from_seed(seed).public(),
                    power: p,
                }
            })
            .collect()
    }

    #[test]
    fn power_weighted_selection_covers_ranges() {
        let s = set(&[3, 1, 6]);
        assert_eq!(s.total_power(), 10);
        assert_eq!(s.select_by_power(0), 0);
        assert_eq!(s.select_by_power(2), 0);
        assert_eq!(s.select_by_power(3), 1);
        assert_eq!(s.select_by_power(4), 2);
        assert_eq!(s.select_by_power(9), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn selection_point_out_of_range_panics() {
        set(&[1]).select_by_power(1);
    }

    #[test]
    fn quorum_threshold_is_bft_two_thirds() {
        assert_eq!(set(&[1, 1, 1, 1]).quorum_threshold(), 3); // n=4, f=1
        assert_eq!(set(&[1; 7]).quorum_threshold(), 5); // n=7, f=2
        assert_eq!(set(&[1]).quorum_threshold(), 1);
    }

    #[test]
    fn quorum_threshold_is_the_policy_count_for_every_size() {
        for n in 0..=64 {
            let validators = set(&vec![1; n]);
            let policy = SignaturePolicy::new(validators.keys());
            assert_eq!(
                validators.quorum_threshold(),
                policy.required_signatures(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn from_sa_derives_power_from_stake() {
        let mut sa = hc_actors::SaState::new(hc_actors::sa::SaConfig::default());
        let k = Keypair::from_seed([0x77; 32]);
        sa.join(Address::new(100), k.public(), TokenAmount::from_whole(5))
            .unwrap();
        let set = ValidatorSet::from_sa(&sa);
        assert_eq!(set.len(), 1);
        assert_eq!(set.validators()[0].power, 5);
    }
}
