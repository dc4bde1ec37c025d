//! The checkpoint and block quorum.
//!
//! The paper (§III-B) leaves the checkpoint signature scheme to each Subnet
//! Actor: "this can be the signature of an individual miner, a
//! multi-signature, or a threshold signature, depending on the SA policy".
//! Every Subnet Actor here applies one rule, the BFT quorum, and so does
//! every BFT engine's block justification: a [`SignaturePolicy`] is more
//! than two-thirds of a signer set, evaluated over an
//! [`AggregateSignature`] — a set of individual signatures. A lone signer
//! is its own quorum.

use std::collections::HashSet;
use std::fmt;

use super::sig::{PublicKey, Signature};
use crate::encode::CanonicalEncode;

/// The quorum a Subnet Actor enforces before accepting a checkpoint, and a
/// BFT engine before accepting a block: strictly more than two-thirds of
/// `signers`, [`SignaturePolicy::quorum`] distinct valid signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignaturePolicy {
    signers: Vec<PublicKey>,
}

impl SignaturePolicy {
    /// The quorum over `signers`.
    pub fn new(signers: Vec<PublicKey>) -> Self {
        SignaturePolicy { signers }
    }

    /// The distinct valid signatures a set of `n` signers must produce:
    /// strictly more than two-thirds, `floor(2n / 3) + 1` — one for a lone
    /// signer, and one (which no empty set can give) for none.
    pub fn quorum(n: usize) -> usize {
        n * 2 / 3 + 1
    }

    /// The minimum number of distinct valid signatures this policy
    /// requires.
    pub fn required_signatures(&self) -> usize {
        Self::quorum(self.signers.len())
    }

    /// Checks `agg` against the policy for message `msg`.
    ///
    /// Signatures from non-members, duplicate signers, and signatures that
    /// fail verification are ignored rather than treated as fatal — a
    /// checkpoint with enough honest signatures is accepted even if it also
    /// carries junk (this mirrors how on-chain multisig checks behave).
    /// Every first signature of a member is verified, also once the quorum
    /// is met.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::QuorumNotReached`] if fewer than
    /// [`required_signatures`](Self::required_signatures) distinct eligible
    /// signers produced valid signatures.
    pub fn check(&self, msg: &[u8], agg: &AggregateSignature) -> Result<(), PolicyError> {
        let eligible: HashSet<&PublicKey> = self.signers.iter().collect();
        let mut seen = HashSet::new();
        let mut valid = 0usize;
        for sig in &agg.signatures {
            if !eligible.contains(&sig.signer()) {
                continue;
            }
            if !seen.insert(sig.signer()) {
                continue; // duplicate signer
            }
            if sig.verify(msg).is_ok() {
                valid += 1;
            }
        }
        let need = self.required_signatures();
        if valid >= need {
            Ok(())
        } else {
            Err(PolicyError::QuorumNotReached { got: valid, need })
        }
    }
}

/// A bag of individual signatures submitted towards a policy check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggregateSignature {
    signatures: Vec<Signature>,
}

impl AggregateSignature {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a signature to the aggregate.
    pub fn add(&mut self, sig: Signature) -> &mut Self {
        self.signatures.push(sig);
        self
    }

    /// Returns the number of signatures carried (including any invalid or
    /// duplicate ones).
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Returns `true` if the aggregate carries no signatures.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Iterates over the carried signatures.
    pub fn iter(&self) -> impl Iterator<Item = &Signature> {
        self.signatures.iter()
    }
}

impl FromIterator<Signature> for AggregateSignature {
    fn from_iter<I: IntoIterator<Item = Signature>>(iter: I) -> Self {
        AggregateSignature {
            signatures: iter.into_iter().collect(),
        }
    }
}

impl Extend<Signature> for AggregateSignature {
    fn extend<I: IntoIterator<Item = Signature>>(&mut self, iter: I) {
        self.signatures.extend(iter);
    }
}

impl CanonicalEncode for AggregateSignature {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.signatures.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for AggregateSignature {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(AggregateSignature {
            signatures: Vec::<Signature>::read_bytes(r)?,
        })
    }
}

/// Error produced by [`SignaturePolicy::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// Not enough distinct, eligible, valid signatures.
    QuorumNotReached {
        /// Valid signatures counted.
        got: usize,
        /// Signatures required by the policy.
        need: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PolicyError::QuorumNotReached { got, need } = self;
        write!(f, "signature quorum not reached: got {got}, need {need}")
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Keypair;

    fn validators(n: usize) -> Vec<Keypair> {
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                seed[1] = 0xa5;
                Keypair::from_seed(seed)
            })
            .collect()
    }

    fn quorum_of(kps: &[Keypair]) -> SignaturePolicy {
        SignaturePolicy::new(kps.iter().map(|k| k.public()).collect())
    }

    #[test]
    fn single_policy_accepts_the_designated_signer_only() {
        let kps = validators(2);
        let policy = quorum_of(&kps[..1]);
        assert_eq!(policy.required_signatures(), 1);
        let msg = b"ckpt";

        let mut agg = AggregateSignature::new();
        agg.add(kps[1].sign(msg));
        assert!(policy.check(msg, &agg).is_err());

        agg.add(kps[0].sign(msg));
        assert!(policy.check(msg, &agg).is_ok());
    }

    #[test]
    fn an_empty_signer_set_refuses_every_aggregate() {
        let kps = validators(3);
        let policy = SignaturePolicy::new(Vec::new());
        let msg = b"ckpt";
        let agg: AggregateSignature = kps.iter().map(|k| k.sign(msg)).collect();
        assert_eq!(
            policy.check(msg, &agg),
            Err(PolicyError::QuorumNotReached { got: 0, need: 1 })
        );
        assert!(policy.check(msg, &AggregateSignature::new()).is_err());
    }

    #[test]
    fn multisig_threshold_counts_distinct_valid_signers() {
        let kps = validators(4); // need floor(4*2/3)+1 = 3
        let policy = quorum_of(&kps);
        assert_eq!(policy.required_signatures(), 3);
        let msg = b"ckpt";

        // Two signatures + a duplicate of one of them: still only 2 distinct.
        let agg: AggregateSignature = [kps[0].sign(msg), kps[1].sign(msg), kps[0].sign(msg)]
            .into_iter()
            .collect();
        assert_eq!(
            policy.check(msg, &agg),
            Err(PolicyError::QuorumNotReached { got: 2, need: 3 })
        );

        let agg: AggregateSignature = kps[..3].iter().map(|k| k.sign(msg)).collect();
        assert!(policy.check(msg, &agg).is_ok());
    }

    #[test]
    fn two_thirds_requires_strict_majority_of_two_thirds() {
        for (n, need) in [(1, 1), (2, 2), (3, 3), (4, 3), (6, 5), (7, 5)] {
            assert_eq!(SignaturePolicy::quorum(n), need, "n = {n}");
        }
        let kps = validators(7); // need floor(7*2/3)+1 = 5
        let policy = quorum_of(&kps);
        let msg = b"m";
        let agg: AggregateSignature = kps[..4].iter().map(|k| k.sign(msg)).collect();
        assert!(policy.check(msg, &agg).is_err());
        let agg: AggregateSignature = kps[..5].iter().map(|k| k.sign(msg)).collect();
        assert!(policy.check(msg, &agg).is_ok());
    }

    #[test]
    fn invalid_and_foreign_signatures_do_not_count() {
        let kps = validators(3); // need floor(3*2/3)+1 = 3
        let outsider = Keypair::from_seed([0xffu8; 32]);
        let policy = quorum_of(&kps);
        let msg = b"ckpt";
        let agg: AggregateSignature = [
            kps[0].sign(msg),
            kps[1].sign(b"WRONG MESSAGE"), // invalid
            outsider.sign(msg),            // not a member
            kps[2].sign(msg),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            policy.check(msg, &agg),
            Err(PolicyError::QuorumNotReached { got: 2, need: 3 })
        );
    }
}
