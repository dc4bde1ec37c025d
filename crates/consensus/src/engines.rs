//! The five consensus engine implementations.

use rand::rngs::StdRng;
use rand::Rng;

use hc_actors::sa::ConsensusKind;
use hc_types::ChainEpoch;

use crate::engine::{BlockOpportunity, Consensus, ConsensusError, EngineParams};
use crate::validator::ValidatorSet;

/// Samples an exponential interval with the given mean (for PoW's
/// memoryless block discovery).
fn sample_exponential(rng: &mut StdRng, mean_ms: u64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let interval = -(u.ln()) * mean_ms as f64;
    interval.round().max(1.0) as u64
}

fn ensure_validators(validators: &ValidatorSet) -> Result<(), ConsensusError> {
    if validators.is_empty() {
        Err(ConsensusError::NoValidators)
    } else {
        Ok(())
    }
}

/// Deterministic rotating-proposer authority consensus: the paper's
/// "delegated" baseline. Constant block time, proposer = epoch mod n.
#[derive(Debug, Clone)]
pub struct RoundRobinEngine {
    params: EngineParams,
}

impl RoundRobinEngine {
    /// Creates the engine.
    pub fn new(params: EngineParams) -> Self {
        RoundRobinEngine { params }
    }
}

impl Consensus for RoundRobinEngine {
    fn kind(&self) -> ConsensusKind {
        ConsensusKind::RoundRobin
    }

    fn next_block(
        &mut self,
        epoch: ChainEpoch,
        validators: &ValidatorSet,
        _rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError> {
        ensure_validators(validators)?;
        Ok(BlockOpportunity {
            proposer: (epoch.value() as usize) % validators.len(),
            interval_ms: self.params.block_time_ms,
            capacity: self.params.block_capacity,
            rounds: 1,
            orphaned: 0,
        })
    }

    fn finality_depth(&self) -> u64 {
        1
    }
}

/// Simulated proof-of-work: a mining-power lottery with exponentially
/// distributed block intervals. With probability `fault_rate` (at most
/// one half, drawn again each time) a competing discovery costs one more
/// interval before the block lands, and is counted in `orphaned`; no fork
/// is ever adopted, so the chain never reorganises.
#[derive(Debug, Clone)]
pub struct PowEngine {
    params: EngineParams,
    /// Cumulative orphan count (exposed for efficiency metrics).
    orphan_total: u64,
}

impl PowEngine {
    /// Creates the engine.
    pub fn new(params: EngineParams) -> Self {
        PowEngine {
            params,
            orphan_total: 0,
        }
    }

    /// Blocks orphaned so far — wasted work, the classic PoW inefficiency.
    pub fn orphan_total(&self) -> u64 {
        self.orphan_total
    }
}

impl Consensus for PowEngine {
    fn kind(&self) -> ConsensusKind {
        ConsensusKind::ProofOfWork
    }

    fn next_block(
        &mut self,
        _epoch: ChainEpoch,
        validators: &ValidatorSet,
        rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError> {
        ensure_validators(validators)?;
        let mut interval = sample_exponential(rng, self.params.block_time_ms);
        let mut orphaned = 0u32;
        // Each lost race wastes one extra discovery interval before the
        // block lands; no competing block is kept.
        while rng.gen_bool(self.params.fault_rate.clamp(0.0, 0.5)) {
            interval += sample_exponential(rng, self.params.block_time_ms);
            orphaned += 1;
        }
        self.orphan_total += u64::from(orphaned);
        let point = rng.gen_range(0..validators.total_power());
        Ok(BlockOpportunity {
            proposer: validators.select_by_power(point),
            interval_ms: interval,
            capacity: self.params.block_capacity,
            rounds: 1,
            orphaned,
        })
    }

    fn finality_depth(&self) -> u64 {
        6
    }
}

/// Simulated proof-of-stake: stake-weighted leader election with constant
/// slot time. Without checkpoint anchoring, PoS is exposed to long-range
/// attacks; the checkpointing experiments (E4) quantify how anchoring into
/// the parent bounds the rewritable suffix.
#[derive(Debug, Clone)]
pub struct PosEngine {
    params: EngineParams,
}

impl PosEngine {
    /// Creates the engine.
    pub fn new(params: EngineParams) -> Self {
        PosEngine { params }
    }
}

impl Consensus for PosEngine {
    fn kind(&self) -> ConsensusKind {
        ConsensusKind::ProofOfStake
    }

    fn next_block(
        &mut self,
        _epoch: ChainEpoch,
        validators: &ValidatorSet,
        rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError> {
        ensure_validators(validators)?;
        let point = rng.gen_range(0..validators.total_power());
        Ok(BlockOpportunity {
            proposer: validators.select_by_power(point),
            interval_ms: self.params.block_time_ms,
            capacity: self.params.block_capacity,
            rounds: 1,
            orphaned: 0,
        })
    }

    fn finality_depth(&self) -> u64 {
        20
    }
}

/// Tendermint-style BFT: rotating proposer, commit after one round of
/// prevote/precommit in the happy path, view change (extra round) when the
/// leader is faulty. Committed blocks carry a 2/3 quorum justification and
/// are instantly final.
#[derive(Debug, Clone)]
pub struct TendermintEngine {
    params: EngineParams,
}

impl TendermintEngine {
    /// Creates the engine.
    pub fn new(params: EngineParams) -> Self {
        TendermintEngine { params }
    }
}

impl Consensus for TendermintEngine {
    fn kind(&self) -> ConsensusKind {
        ConsensusKind::Tendermint
    }

    fn next_block(
        &mut self,
        epoch: ChainEpoch,
        validators: &ValidatorSet,
        rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError> {
        ensure_validators(validators)?;
        let mut rounds = 1u32;
        let mut proposer = (epoch.value() as usize) % validators.len();
        while rng.gen_bool(self.params.fault_rate.clamp(0.0, 0.5)) {
            // View change: round times out, next proposer takes over.
            rounds += 1;
            proposer = (proposer + 1) % validators.len();
        }
        // Happy path: propose + prevote + precommit = 3 one-way delays;
        // each failed round adds a timeout of the same magnitude.
        let interval_ms = 3 * self.params.net_delay_ms * u64::from(rounds);
        Ok(BlockOpportunity {
            proposer,
            interval_ms: interval_ms.max(1),
            capacity: self.params.block_capacity,
            rounds,
            orphaned: 0,
        })
    }

    fn finality_depth(&self) -> u64 {
        0
    }

    fn requires_justification(&self) -> bool {
        true
    }
}

/// Mir-style multi-leader BFT: several leaders propose batches in parallel
/// within one epoch, multiplying throughput at the same round latency
/// (the paper's planned high-throughput engine).
#[derive(Debug, Clone)]
pub struct MirEngine {
    params: EngineParams,
}

impl MirEngine {
    /// Creates the engine.
    pub fn new(params: EngineParams) -> Self {
        MirEngine { params }
    }
}

impl Consensus for MirEngine {
    fn kind(&self) -> ConsensusKind {
        ConsensusKind::Mir
    }

    fn next_block(
        &mut self,
        epoch: ChainEpoch,
        validators: &ValidatorSet,
        rng: &mut StdRng,
    ) -> Result<BlockOpportunity, ConsensusError> {
        ensure_validators(validators)?;
        let leaders = self.params.leaders.clamp(1, validators.len().max(1));
        let mut rounds = 1u32;
        while rng.gen_bool(self.params.fault_rate.clamp(0.0, 0.5)) {
            rounds += 1;
        }
        // The epoch's primary leader seals the merged batch; parallel
        // leaders multiply the effective capacity.
        Ok(BlockOpportunity {
            proposer: (epoch.value() as usize) % validators.len(),
            interval_ms: (3 * self.params.net_delay_ms * u64::from(rounds)).max(1),
            capacity: self.params.block_capacity * leaders,
            rounds,
            orphaned: 0,
        })
    }

    fn finality_depth(&self) -> u64 {
        0
    }

    fn requires_justification(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    use hc_types::{Address, Keypair};

    use crate::validator::Validator;

    fn set(n: usize) -> ValidatorSet {
        (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                seed[1] = 0xa7;
                Validator {
                    addr: Address::new(100 + i as u64),
                    key: Keypair::from_seed(seed).public(),
                    power: 1 + i as u64,
                }
            })
            .collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn round_robin_rotates_deterministically() {
        let mut e = RoundRobinEngine::new(EngineParams::default());
        let vs = set(3);
        let mut r = rng();
        for epoch in 0..9u64 {
            let opp = e.next_block(ChainEpoch::new(epoch), &vs, &mut r).unwrap();
            assert_eq!(opp.proposer, (epoch as usize) % 3);
            assert_eq!(opp.interval_ms, 1_000);
            assert_eq!(opp.rounds, 1);
        }
    }

    #[test]
    fn engines_reject_empty_validator_sets() {
        let vs = ValidatorSet::default();
        let mut r = rng();
        for kind in [
            ConsensusKind::RoundRobin,
            ConsensusKind::ProofOfWork,
            ConsensusKind::ProofOfStake,
            ConsensusKind::Tendermint,
            ConsensusKind::Mir,
        ] {
            let mut e = crate::engine::make_engine(kind, EngineParams::default());
            assert_eq!(
                e.next_block(ChainEpoch::new(1), &vs, &mut r).unwrap_err(),
                ConsensusError::NoValidators
            );
        }
    }

    #[test]
    fn pow_intervals_are_exponential_with_requested_mean() {
        let mut e = PowEngine::new(EngineParams {
            block_time_ms: 1_000,
            fault_rate: 0.0,
            ..EngineParams::default()
        });
        let vs = set(4);
        let mut r = rng();
        let n = 4_000;
        let total: u64 = (0..n)
            .map(|i| {
                e.next_block(ChainEpoch::new(i), &vs, &mut r)
                    .unwrap()
                    .interval_ms
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!((700.0..1300.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn pow_forks_produce_orphans_and_longer_intervals() {
        let base = EngineParams {
            block_time_ms: 1_000,
            fault_rate: 0.0,
            ..EngineParams::default()
        };
        let forky = EngineParams {
            fault_rate: 0.3,
            ..base.clone()
        };
        let vs = set(4);

        let mut clean = PowEngine::new(base);
        let mut r = rng();
        for i in 0..500 {
            clean.next_block(ChainEpoch::new(i), &vs, &mut r).unwrap();
        }
        assert_eq!(clean.orphan_total(), 0);

        let mut dirty = PowEngine::new(forky);
        let mut r = rng();
        for i in 0..500 {
            dirty.next_block(ChainEpoch::new(i), &vs, &mut r).unwrap();
        }
        assert!(dirty.orphan_total() > 50, "{}", dirty.orphan_total());
    }

    #[test]
    fn stake_weighted_lotteries_favor_power() {
        // Validator 3 has power 4 of total 10: expect ~40% of blocks.
        let vs = set(4);
        let mut r = rng();
        let mut wins = [0usize; 4];
        let mut pos = PosEngine::new(EngineParams::default());
        for i in 0..5_000u64 {
            let opp = pos.next_block(ChainEpoch::new(i), &vs, &mut r).unwrap();
            wins[opp.proposer] += 1;
        }
        let share = wins[3] as f64 / 5_000.0;
        assert!((0.33..0.47).contains(&share), "share {share}");
        assert!(wins[0] < wins[3]);
    }

    #[test]
    fn tendermint_view_changes_add_rounds_and_latency() {
        let vs = set(4);
        let mut r = rng();
        let mut e = TendermintEngine::new(EngineParams {
            fault_rate: 0.5,
            net_delay_ms: 50,
            ..EngineParams::default()
        });
        let mut saw_view_change = false;
        for i in 0..200u64 {
            let opp = e.next_block(ChainEpoch::new(i), &vs, &mut r).unwrap();
            assert_eq!(opp.interval_ms, 150 * u64::from(opp.rounds));
            if opp.rounds > 1 {
                saw_view_change = true;
            }
            // The proposer is the primary rotated by the failed rounds.
            assert_eq!(opp.proposer, (i as usize + opp.rounds as usize - 1) % 4);
        }
        assert!(saw_view_change);
    }

    #[test]
    fn mir_multiplies_capacity_by_leaders() {
        let vs = set(8);
        let mut r = rng();
        let mut e = MirEngine::new(EngineParams {
            leaders: 4,
            block_capacity: 100,
            fault_rate: 0.0,
            ..EngineParams::default()
        });
        let opp = e.next_block(ChainEpoch::new(1), &vs, &mut r).unwrap();
        assert_eq!(opp.capacity, 400);
        // Leaders never exceed the validator count.
        let vs2 = set(2);
        let opp = e.next_block(ChainEpoch::new(1), &vs2, &mut r).unwrap();
        assert_eq!(opp.capacity, 200);
    }
}
