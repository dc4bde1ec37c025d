//! The consensus engine abstraction.

use std::fmt;

use rand::rngs::StdRng;

use hc_actors::sa::ConsensusKind;
use hc_chain::Block;
use hc_types::crypto::SignaturePolicy;
use hc_types::ChainEpoch;

use crate::engines::{MirEngine, PosEngine, PowEngine, RoundRobinEngine, TendermintEngine};
use crate::validator::ValidatorSet;

/// The scheduling decision for the next block of a subnet chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOpportunity {
    /// Index (into the validator set) of the proposer.
    pub proposer: usize,
    /// Virtual time since the previous block, in milliseconds. Encodes the
    /// engine's block-interval distribution (constant for authority/BFT,
    /// exponential for PoW).
    pub interval_ms: u64,
    /// Maximum number of messages this block may carry (Mir multiplies
    /// this by its leader count).
    pub capacity: usize,
    /// BFT rounds taken before commit (1 in the happy path; each extra
    /// round added timeout latency). Always 1 for non-BFT engines.
    pub rounds: u32,
    /// Competing blocks orphaned while this one was mined (PoW only).
    pub orphaned: u32,
}

/// Errors from consensus-specific block validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusError {
    /// The block's proposer is not in the validator set.
    UnknownProposer,
    /// It is not this proposer's turn / lottery win.
    WrongProposer {
        /// Validator index expected by the schedule.
        expected: usize,
    },
    /// The justification does not carry a valid 2/3 quorum.
    NoQuorum(String),
    /// The validator set is empty.
    NoValidators,
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::UnknownProposer => f.write_str("proposer not in validator set"),
            ConsensusError::WrongProposer { expected } => {
                write!(f, "wrong proposer: schedule expects validator {expected}")
            }
            ConsensusError::NoQuorum(why) => write!(f, "missing BFT quorum: {why}"),
            ConsensusError::NoValidators => f.write_str("validator set is empty"),
        }
    }
}

impl std::error::Error for ConsensusError {}

/// A consensus engine: schedules block production and validates committed
/// blocks for one subnet chain.
///
/// Engines are deterministic given the caller's seeded RNG, which keeps
/// whole-hierarchy simulations reproducible.
pub trait Consensus: Send {
    /// Which protocol this engine implements.
    fn kind(&self) -> ConsensusKind;

    /// Schedules the next block at `epoch`.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::NoValidators`] for an empty set.
    fn next_block(
        &mut self,
        epoch: ChainEpoch,
        validators: &ValidatorSet,
        rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError>;

    /// Number of descendant blocks after which a block is considered
    /// final. `0` means instant finality at inclusion.
    fn finality_depth(&self) -> u64;

    /// Whether committed blocks must carry a 2/3 quorum justification.
    fn requires_justification(&self) -> bool {
        false
    }

    /// Validates a committed block against this engine's rules: proposer
    /// membership and (for BFT engines) the quorum justification.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ConsensusError`] on violation.
    fn validate_block(
        &self,
        block: &Block,
        validators: &ValidatorSet,
    ) -> Result<(), ConsensusError> {
        if validators.is_empty() {
            return Err(ConsensusError::NoValidators);
        }
        if !validators
            .validators()
            .iter()
            .any(|v| v.key == block.header.proposer)
        {
            return Err(ConsensusError::UnknownProposer);
        }
        if self.requires_justification() {
            let policy = SignaturePolicy::new(validators.keys());
            policy
                .check(block.cid().as_bytes(), &block.justification)
                .map_err(|e| ConsensusError::NoQuorum(e.to_string()))?;
        }
        Ok(())
    }
}

/// Tunable parameters shared by the engine implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineParams {
    /// Target mean block interval, in virtual milliseconds.
    pub block_time_ms: u64,
    /// Messages per block.
    pub block_capacity: usize,
    /// One-way network delay used for BFT round latency, in milliseconds.
    pub net_delay_ms: u64,
    /// Probability that a BFT round times out (leader offline), or that a
    /// PoW block gets orphaned by a competing fork.
    pub fault_rate: f64,
    /// Number of parallel leaders (Mir only).
    pub leaders: usize,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            block_time_ms: 1_000,
            block_capacity: 500,
            net_delay_ms: 50,
            fault_rate: 0.02,
            leaders: 4,
        }
    }
}

impl hc_types::CanonicalEncode for EngineParams {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.block_time_ms.write_bytes(out);
        (self.block_capacity as u64).write_bytes(out);
        self.net_delay_ms.write_bytes(out);
        // f64 travels as its IEEE-754 bit pattern, which round-trips
        // exactly (unlike any decimal rendering).
        self.fault_rate.to_bits().write_bytes(out);
        (self.leaders as u64).write_bytes(out);
    }
}

impl hc_types::CanonicalDecode for EngineParams {
    fn read_bytes(r: &mut hc_types::ByteReader<'_>) -> Result<Self, hc_types::DecodeError> {
        Ok(EngineParams {
            block_time_ms: u64::read_bytes(r)?,
            block_capacity: u64::read_bytes(r)? as usize,
            net_delay_ms: u64::read_bytes(r)?,
            fault_rate: f64::from_bits(u64::read_bytes(r)?),
            leaders: u64::read_bytes(r)? as usize,
        })
    }
}

/// Instantiates the engine for a [`ConsensusKind`] with the given
/// parameters — the hook the Subnet Actor's `consensus` field plugs into.
pub fn make_engine(kind: ConsensusKind, params: EngineParams) -> Box<dyn Consensus> {
    match kind {
        ConsensusKind::RoundRobin => Box::new(RoundRobinEngine::new(params)),
        ConsensusKind::ProofOfWork => Box::new(PowEngine::new(params)),
        ConsensusKind::ProofOfStake => Box::new(PosEngine::new(params)),
        ConsensusKind::Tendermint => Box::new(TendermintEngine::new(params)),
        ConsensusKind::Mir => Box::new(MirEngine::new(params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_maps_kind_to_engine() {
        for kind in [
            ConsensusKind::RoundRobin,
            ConsensusKind::ProofOfWork,
            ConsensusKind::ProofOfStake,
            ConsensusKind::Tendermint,
            ConsensusKind::Mir,
        ] {
            let engine = make_engine(kind, EngineParams::default());
            assert_eq!(engine.kind(), kind);
        }
    }

    #[test]
    fn finality_profile_matches_paper_expectations() {
        let p = EngineParams::default();
        assert_eq!(
            make_engine(ConsensusKind::Tendermint, p.clone()).finality_depth(),
            0
        );
        assert_eq!(
            make_engine(ConsensusKind::Mir, p.clone()).finality_depth(),
            0
        );
        assert!(make_engine(ConsensusKind::ProofOfWork, p.clone()).finality_depth() > 0);
        assert!(make_engine(ConsensusKind::ProofOfStake, p).finality_depth() > 0);
    }
}
