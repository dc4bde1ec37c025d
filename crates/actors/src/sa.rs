//! The Subnet Actor (SA).
//!
//! A Subnet Actor is the user-deployed contract in the *parent* chain that
//! "implements the core logic for the new subnet" (paper §III-A): the
//! consensus protocol the subnet runs, the policies for joining and leaving,
//! the checkpoint period and signature policy, and the conditions for
//! killing the subnet. SAs are untrusted: all fund custody and hierarchy
//! bookkeeping stays in the SCA, which is why [`SaState::submit_checkpoint`]
//! only *validates* checkpoints and hands them to the SCA.

use std::fmt;

use hc_types::crypto::{PolicyError, SignaturePolicy};
use hc_types::{
    decode_fields, encode_fields, Address, ByteReader, CanonicalDecode, CanonicalEncode,
    ChainEpoch, DecodeError, PublicKey, TokenAmount,
};

use crate::checkpoint::SignedCheckpoint;

/// The consensus protocol a subnet runs. Hierarchical consensus is
/// consensus-agnostic: "each subnet can run its own independent consensus
/// algorithm" (paper §I); this label selects the engine in `hc-consensus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsensusKind {
    /// Deterministic rotating proposer (a delegated/ authority setup).
    RoundRobin,
    /// Simulated proof-of-work: block production is a mining-power lottery
    /// with probabilistic finality.
    ProofOfWork,
    /// Simulated proof-of-stake: stake-weighted leader election.
    ProofOfStake,
    /// Tendermint-style BFT: rounds with 2f+1 quorums and instant finality
    /// (the paper's planned Tendermint integration).
    Tendermint,
    /// Mir-style multi-leader BFT: parallel proposers for high throughput
    /// (the paper's planned MirBFT integration).
    Mir,
}

impl fmt::Display for ConsensusKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConsensusKind::RoundRobin => "round-robin",
            ConsensusKind::ProofOfWork => "pow",
            ConsensusKind::ProofOfStake => "pos",
            ConsensusKind::Tendermint => "tendermint",
            ConsensusKind::Mir => "mir",
        };
        f.write_str(s)
    }
}

impl CanonicalEncode for ConsensusKind {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ConsensusKind::RoundRobin => 0,
            ConsensusKind::ProofOfWork => 1,
            ConsensusKind::ProofOfStake => 2,
            ConsensusKind::Tendermint => 3,
            ConsensusKind::Mir => 4,
        });
    }
}

impl CanonicalDecode for ConsensusKind {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(ConsensusKind::RoundRobin),
            1 => Ok(ConsensusKind::ProofOfWork),
            2 => Ok(ConsensusKind::ProofOfStake),
            3 => Ok(ConsensusKind::Tendermint),
            4 => Ok(ConsensusKind::Mir),
            tag => Err(DecodeError::BadTag {
                what: "ConsensusKind",
                tag,
            }),
        }
    }
}

/// Membership policy for validators joining the subnet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinPolicy {
    /// Anyone staking at least the minimum may join.
    Open {
        /// Minimum stake a validator must put up.
        min_stake: TokenAmount,
    },
    /// Only the listed addresses may join (permissioned subnet).
    Allowlist {
        /// Addresses allowed to join.
        allowed: Vec<Address>,
        /// Minimum stake a validator must put up.
        min_stake: TokenAmount,
    },
}

impl JoinPolicy {
    fn min_stake(&self) -> TokenAmount {
        match self {
            JoinPolicy::Open { min_stake } => *min_stake,
            JoinPolicy::Allowlist { min_stake, .. } => *min_stake,
        }
    }

    fn admits(&self, addr: Address) -> bool {
        match self {
            JoinPolicy::Open { .. } => true,
            JoinPolicy::Allowlist { allowed, .. } => allowed.contains(&addr),
        }
    }
}

impl CanonicalEncode for JoinPolicy {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            JoinPolicy::Open { min_stake } => {
                out.push(0);
                min_stake.write_bytes(out);
            }
            JoinPolicy::Allowlist { allowed, min_stake } => {
                out.push(1);
                allowed.write_bytes(out);
                min_stake.write_bytes(out);
            }
        }
    }
}

impl CanonicalDecode for JoinPolicy {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(JoinPolicy::Open {
                min_stake: TokenAmount::read_bytes(r)?,
            }),
            1 => Ok(JoinPolicy::Allowlist {
                allowed: Vec::<Address>::read_bytes(r)?,
                min_stake: TokenAmount::read_bytes(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "JoinPolicy",
                tag,
            }),
        }
    }
}

/// Static configuration of a Subnet Actor, fixed at deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaConfig {
    /// Consensus protocol the subnet runs.
    pub consensus: ConsensusKind,
    /// Membership policy.
    pub join_policy: JoinPolicy,
    /// Minimum number of validators for the subnet to produce blocks.
    pub min_validators: usize,
    /// Checkpoint period, in the subnet's epochs.
    pub checkpoint_period: u64,
}

impl CanonicalEncode for SaConfig {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.consensus.write_bytes(out);
        self.join_policy.write_bytes(out);
        (self.min_validators as u64).write_bytes(out);
        self.checkpoint_period.write_bytes(out);
    }
}

impl CanonicalDecode for SaConfig {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let consensus = ConsensusKind::read_bytes(r)?;
        let join_policy = JoinPolicy::read_bytes(r)?;
        // `min_validators` is a usize in memory but canonically a u64.
        let min_validators = u64::read_bytes(r)? as usize;
        let checkpoint_period = u64::read_bytes(r)?;
        Ok(SaConfig {
            consensus,
            join_policy,
            min_validators,
            checkpoint_period,
        })
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            consensus: ConsensusKind::RoundRobin,
            join_policy: JoinPolicy::Open {
                min_stake: TokenAmount::from_whole(1),
            },
            min_validators: 1,
            checkpoint_period: 10,
        }
    }
}

/// A validator registered in the Subnet Actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatorInfo {
    /// The validator's account in the parent chain.
    pub addr: Address,
    /// Signing key used for blocks and checkpoints in the subnet.
    pub key: PublicKey,
    /// Stake the validator put up when joining.
    pub stake: TokenAmount,
}

encode_fields!(ValidatorInfo { addr, key, stake });
decode_fields!(ValidatorInfo { addr, key, stake });

/// One entry of a Subnet Actor's signer log: the validator keys in force
/// from the block after `epoch` on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SignerSet {
    /// The epoch of the parent block whose execution changed the set.
    epoch: ChainEpoch,
    /// The validator keys from then on, in join order.
    keys: Vec<PublicKey>,
}

encode_fields!(SignerSet { epoch, keys });
decode_fields!(SignerSet { epoch, keys });

/// Errors returned by Subnet Actor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaError {
    /// The address is not admitted by the join policy.
    NotAllowed(Address),
    /// The stake offered is below the policy minimum.
    InsufficientStake {
        /// Stake offered.
        got: TokenAmount,
        /// Minimum stake required.
        need: TokenAmount,
    },
    /// The validator is already registered.
    AlreadyJoined(Address),
    /// The validator is not registered.
    NotAValidator(Address),
    /// The checkpoint's signatures do not satisfy the signature policy.
    Policy(PolicyError),
    /// The checkpoint is for a different subnet.
    WrongSubnet,
}

impl fmt::Display for SaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaError::NotAllowed(a) => write!(f, "{a} is not admitted by the join policy"),
            SaError::InsufficientStake { got, need } => {
                write!(f, "insufficient stake: got {got}, need {need}")
            }
            SaError::AlreadyJoined(a) => write!(f, "{a} already joined"),
            SaError::NotAValidator(a) => write!(f, "{a} is not a validator"),
            SaError::Policy(e) => write!(f, "checkpoint signature policy failed: {e}"),
            SaError::WrongSubnet => f.write_str("checkpoint targets a different subnet"),
        }
    }
}

impl std::error::Error for SaError {}

impl From<PolicyError> for SaError {
    fn from(e: PolicyError) -> Self {
        SaError::Policy(e)
    }
}

/// The Subnet Actor state: validator set and checkpoint gatekeeping for one
/// child subnet, living in the parent chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaState {
    config: SaConfig,
    validators: Vec<ValidatorInfo>,
    /// Append-only: one entry per block that changed the validator set,
    /// oldest first, so a historic checkpoint is checked against the
    /// quorum its commit was checked against.
    signers: Vec<SignerSet>,
}

impl SaState {
    /// Deploys a Subnet Actor with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        SaState {
            config,
            validators: Vec::new(),
            signers: Vec::new(),
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// The current validator set.
    pub fn validators(&self) -> &[ValidatorInfo] {
        &self.validators
    }

    /// Total stake across validators.
    pub fn total_stake(&self) -> TokenAmount {
        self.validators.iter().map(|v| v.stake).sum()
    }

    /// Returns `true` if the subnet has enough validators to operate.
    pub fn has_quorum(&self) -> bool {
        self.validators.len() >= self.config.min_validators
    }

    /// The signature policy checkpoints must satisfy: the 2/3 quorum over
    /// the current validator keys (a lone validator's own signature).
    pub fn signature_policy(&self) -> SignaturePolicy {
        SignaturePolicy::new(self.keys())
    }

    fn keys(&self) -> Vec<PublicKey> {
        self.validators.iter().map(|v| v.key).collect()
    }

    /// Appends the current validator keys to the signer log when the block
    /// at `epoch` changed them: the one write to the log, made by the
    /// messages that join, leave or kill.
    pub fn log_signers(&mut self, epoch: ChainEpoch) {
        let keys = self.keys();
        let changed = match self.signers.last() {
            Some(last) => last.keys != keys,
            None => !keys.is_empty(),
        };
        if changed {
            self.signers.push(SignerSet { epoch, keys });
        }
    }

    /// The signature policy a checkpoint committed by the parent block at
    /// `epoch` was checked against: the signer set logged before that
    /// block. A block runs its implicit messages, checkpoint commits among
    /// them, before its signed ones, so a change made in the committing
    /// block itself does not apply.
    pub fn signature_policy_at(&self, epoch: ChainEpoch) -> SignaturePolicy {
        let before = self.signers.partition_point(|s| s.epoch < epoch);
        let keys = before.checked_sub(1).map(|i| self.signers[i].keys.clone());
        SignaturePolicy::new(keys.unwrap_or_default())
    }

    /// Registers a validator, enforcing the join policy.
    ///
    /// The *stake custody* (moving the funds into the SCA) is handled by
    /// the caller; the SA only records membership — it is untrusted and
    /// never holds funds.
    ///
    /// # Errors
    ///
    /// Fails if the address is not admitted, already joined, or under-staked.
    pub fn join(
        &mut self,
        addr: Address,
        key: PublicKey,
        stake: TokenAmount,
    ) -> Result<(), SaError> {
        if !self.config.join_policy.admits(addr) {
            return Err(SaError::NotAllowed(addr));
        }
        if stake < self.config.join_policy.min_stake() {
            return Err(SaError::InsufficientStake {
                got: stake,
                need: self.config.join_policy.min_stake(),
            });
        }
        if self.validators.iter().any(|v| v.addr == addr) {
            return Err(SaError::AlreadyJoined(addr));
        }
        self.validators.push(ValidatorInfo { addr, key, stake });
        Ok(())
    }

    /// Removes a validator, returning the stake to release.
    ///
    /// # Errors
    ///
    /// Fails if the address is not a validator.
    pub fn leave(&mut self, addr: Address) -> Result<TokenAmount, SaError> {
        let idx = self
            .validators
            .iter()
            .position(|v| v.addr == addr)
            .ok_or(SaError::NotAValidator(addr))?;
        Ok(self.validators.remove(idx).stake)
    }

    /// Validates a signed checkpoint against the SA's signature policy.
    /// On success the caller forwards the checkpoint body to the SCA
    /// ([`crate::sca::ScaState::commit_child_checkpoint`]).
    ///
    /// # Errors
    ///
    /// Fails if the signatures do not satisfy the policy.
    pub fn submit_checkpoint(&self, signed: &SignedCheckpoint) -> Result<(), SaError> {
        let policy = self.signature_policy();
        policy.check(&signed.signing_bytes(), &signed.signatures)?;
        Ok(())
    }
}

// The full SA state is canonically encoded so a state-tree chunk determines
// it exactly: snapshot state-sync reconstructs deployed Subnet Actors —
// including their join policy and consensus configuration — from verified
// chunk blobs alone.
encode_fields!(SaState {
    config,
    validators,
    signers
});
decode_fields!(SaState {
    config,
    validators,
    signers
});

/// An equivocation fraud proof: two *distinct* validly-signed checkpoints
/// extending the same `prev` pointer for the same subnet. Checkpoints "can
/// be used to generate equivocation proofs which, in turn, can be used for
/// penalizing misbehaving entities" (paper §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraudProof {
    /// First conflicting signed checkpoint.
    pub a: SignedCheckpoint,
    /// Second conflicting signed checkpoint.
    pub b: SignedCheckpoint,
}

encode_fields!(FraudProof { a, b });
decode_fields!(FraudProof { a, b });

impl FraudProof {
    /// Validates the proof against the subnet's Subnet Actor: both
    /// checkpoints must satisfy the signature policy, come from the same
    /// subnet, extend the same `prev`, and differ.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the proof does not demonstrate
    /// equivocation.
    pub fn validate(&self, sa: &SaState) -> Result<(), String> {
        if self.a.checkpoint.source != self.b.checkpoint.source {
            return Err("checkpoints come from different subnets".into());
        }
        if self.a.checkpoint.prev != self.b.checkpoint.prev {
            return Err("checkpoints extend different prev pointers".into());
        }
        if self.a.checkpoint.cid() == self.b.checkpoint.cid() {
            return Err("checkpoints are identical".into());
        }
        sa.submit_checkpoint(&self.a)
            .map_err(|e| format!("first checkpoint signatures invalid: {e}"))?;
        sa.submit_checkpoint(&self.b)
            .map_err(|e| format!("second checkpoint signatures invalid: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use hc_types::{ChainEpoch, Cid, Keypair, SubnetId};

    fn kp(i: u8) -> Keypair {
        let mut seed = [0u8; 32];
        seed[0] = i;
        seed[1] = 0x5a;
        Keypair::from_seed(seed)
    }

    fn open_sa() -> SaState {
        SaState::new(SaConfig::default())
    }

    #[test]
    fn join_enforces_stake_and_uniqueness() {
        let mut sa = open_sa();
        let k = kp(1);
        assert!(matches!(
            sa.join(Address::new(100), k.public(), TokenAmount::ZERO),
            Err(SaError::InsufficientStake { .. })
        ));
        sa.join(Address::new(100), k.public(), TokenAmount::from_whole(1))
            .unwrap();
        assert!(matches!(
            sa.join(Address::new(100), k.public(), TokenAmount::from_whole(1)),
            Err(SaError::AlreadyJoined(_))
        ));
        assert_eq!(sa.total_stake(), TokenAmount::from_whole(1));
        assert!(sa.has_quorum());
    }

    #[test]
    fn allowlist_policy_excludes_outsiders() {
        let mut sa = SaState::new(SaConfig {
            join_policy: JoinPolicy::Allowlist {
                allowed: vec![Address::new(100)],
                min_stake: TokenAmount::from_whole(1),
            },
            ..SaConfig::default()
        });
        assert!(matches!(
            sa.join(
                Address::new(999),
                kp(2).public(),
                TokenAmount::from_whole(5)
            ),
            Err(SaError::NotAllowed(_))
        ));
        sa.join(
            Address::new(100),
            kp(3).public(),
            TokenAmount::from_whole(5),
        )
        .unwrap();
    }

    #[test]
    fn leave_returns_stake() {
        let mut sa = open_sa();
        sa.join(
            Address::new(100),
            kp(4).public(),
            TokenAmount::from_whole(3),
        )
        .unwrap();
        assert_eq!(
            sa.leave(Address::new(100)).unwrap(),
            TokenAmount::from_whole(3)
        );
        assert!(matches!(
            sa.leave(Address::new(100)),
            Err(SaError::NotAValidator(_))
        ));
        assert!(!sa.has_quorum());
    }

    fn signed(ckpt: Checkpoint, signers: &[&Keypair]) -> SignedCheckpoint {
        let mut sc = SignedCheckpoint::new(ckpt);
        let bytes = sc.signing_bytes();
        for k in signers {
            sc.signatures.add(k.sign(&bytes));
        }
        sc
    }

    #[test]
    fn checkpoint_needs_policy_quorum() {
        let mut sa = open_sa();
        let keys: Vec<Keypair> = (10..14).map(kp).collect();
        for (i, k) in keys.iter().enumerate() {
            sa.join(
                Address::new(100 + i as u64),
                k.public(),
                TokenAmount::from_whole(1),
            )
            .unwrap();
        }
        let ckpt = Checkpoint::template(
            SubnetId::root().child(Address::new(200)),
            ChainEpoch::new(10),
            Cid::NIL,
        );
        // 2 of 4 signatures: below the 2/3 threshold (needs 3).
        let under = signed(ckpt.clone(), &[&keys[0], &keys[1]]);
        assert!(matches!(
            sa.submit_checkpoint(&under),
            Err(SaError::Policy(_))
        ));
        let enough = signed(ckpt, &[&keys[0], &keys[1], &keys[2]]);
        sa.submit_checkpoint(&enough).unwrap();
    }

    #[test]
    fn single_validator_uses_single_policy() {
        let mut sa = open_sa();
        let k = kp(20);
        sa.join(Address::new(100), k.public(), TokenAmount::from_whole(1))
            .unwrap();
        let policy = sa.signature_policy();
        assert_eq!(policy, SignaturePolicy::new(vec![k.public()]));
        assert_eq!(policy.required_signatures(), 1);
    }

    /// The log gains an entry only when a block changes the set, and a
    /// commit at epoch `e` reads the set logged before block `e`.
    #[test]
    fn the_signer_log_answers_by_committing_epoch() {
        let mut sa = open_sa();
        let (k1, k2) = (kp(40), kp(41));
        let one = TokenAmount::from_whole(1);
        sa.log_signers(ChainEpoch::new(2));
        assert_eq!(sa.signers, [], "an empty set logs nothing");
        sa.join(Address::new(100), k1.public(), one).unwrap();
        sa.log_signers(ChainEpoch::new(3));
        sa.log_signers(ChainEpoch::new(4));
        sa.join(Address::new(101), k2.public(), one).unwrap();
        sa.log_signers(ChainEpoch::new(7));
        assert_eq!(sa.signers.len(), 2, "an unchanged set logs nothing");

        let policy = |sa: &SaState, e: u64| sa.signature_policy_at(ChainEpoch::new(e));
        // Block 3 made the first change: a commit in it had no signer.
        assert_eq!(policy(&sa, 3), SignaturePolicy::new(Vec::new()));
        assert_eq!(policy(&sa, 4), SignaturePolicy::new(vec![k1.public()]));
        assert_eq!(policy(&sa, 7), SignaturePolicy::new(vec![k1.public()]));
        assert_eq!(policy(&sa, 8), sa.signature_policy());

        sa.leave(Address::new(100)).unwrap();
        sa.log_signers(ChainEpoch::new(9));
        assert_eq!(
            policy(&sa, 9),
            SignaturePolicy::new(vec![k1.public(), k2.public()])
        );
        assert_eq!(policy(&sa, 10), SignaturePolicy::new(vec![k2.public()]));
    }

    #[test]
    fn fraud_proof_detects_equivocation() {
        let mut sa = open_sa();
        let k = kp(30);
        sa.join(Address::new(100), k.public(), TokenAmount::from_whole(1))
            .unwrap();
        let subnet = SubnetId::root().child(Address::new(200));
        let c1 = Checkpoint::template(subnet.clone(), ChainEpoch::new(10), Cid::NIL);
        let mut c2 = Checkpoint::template(subnet.clone(), ChainEpoch::new(10), Cid::NIL);
        c2.proof = Cid::digest(b"other head"); // conflicting content

        let proof = FraudProof {
            a: signed(c1.clone(), &[&k]),
            b: signed(c2.clone(), &[&k]),
        };
        proof.validate(&sa).unwrap();

        // Identical checkpoints are not equivocation.
        let not_fraud = FraudProof {
            a: signed(c1.clone(), &[&k]),
            b: signed(c1.clone(), &[&k]),
        };
        assert!(not_fraud.validate(&sa).is_err());

        // Different prev pointers are two honest consecutive checkpoints.
        let mut c3 = Checkpoint::template(subnet, ChainEpoch::new(20), c1.cid());
        c3.proof = Cid::digest(b"later");
        let chained = FraudProof {
            a: signed(c1, &[&k]),
            b: signed(c3, &[&k]),
        };
        assert!(chained.validate(&sa).is_err());
    }

    #[test]
    fn fraud_proof_requires_valid_signatures() {
        let mut sa = open_sa();
        let k = kp(31);
        let outsider = kp(32);
        sa.join(Address::new(100), k.public(), TokenAmount::from_whole(1))
            .unwrap();
        let subnet = SubnetId::root().child(Address::new(200));
        let c1 = Checkpoint::template(subnet.clone(), ChainEpoch::new(10), Cid::NIL);
        let mut c2 = c1.clone();
        c2.proof = Cid::digest(b"x");
        let proof = FraudProof {
            a: signed(c1, &[&outsider]),
            b: signed(c2, &[&k]),
        };
        assert!(proof.validate(&sa).is_err());
    }

    #[test]
    fn sa_state_encoding_round_trips_with_config() {
        let mut sa = SaState::new(SaConfig {
            consensus: ConsensusKind::RoundRobin,
            join_policy: JoinPolicy::Allowlist {
                allowed: vec![Address::new(1), Address::new(2)],
                min_stake: TokenAmount::from_whole(2),
            },
            min_validators: 2,
            checkpoint_period: 7,
        });
        sa.join(Address::new(1), kp(1).public(), TokenAmount::from_whole(3))
            .unwrap();
        sa.join(Address::new(2), kp(2).public(), TokenAmount::from_whole(4))
            .unwrap();
        sa.log_signers(ChainEpoch::new(5));
        let bytes = sa.canonical_bytes();
        let decoded = SaState::decode(&bytes).expect("canonical bytes decode");
        assert_eq!(
            decoded, sa,
            "config, validators and signer log survive the round trip"
        );
        assert!(SaState::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
