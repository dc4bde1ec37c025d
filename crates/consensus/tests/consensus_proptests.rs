//! Property-based tests of the consensus engines: fairness, liveness, and
//! validation invariants under arbitrary validator sets and seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hc_actors::sa::ConsensusKind;
use hc_chain::{Block, BlockHeader};
use hc_consensus::{make_engine, EngineParams, Validator, ValidatorSet};
use hc_types::{Address, ChainEpoch, Cid, Keypair, SubnetId};

fn arb_validators() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..100, 1..12)
}

fn make_set(powers: &[u64]) -> (ValidatorSet, Vec<Keypair>) {
    let mut keys = Vec::new();
    let set = powers
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            seed[8] = 0xcc;
            let kp = Keypair::from_seed(seed);
            keys.push(kp.clone());
            Validator {
                addr: Address::new(100 + i as u64),
                key: kp.public(),
                power: p,
            }
        })
        .collect();
    (set, keys)
}

const ALL_KINDS: [ConsensusKind; 5] = [
    ConsensusKind::RoundRobin,
    ConsensusKind::ProofOfWork,
    ConsensusKind::ProofOfStake,
    ConsensusKind::Tendermint,
    ConsensusKind::Mir,
];

proptest! {
    /// Every engine always schedules a valid proposer, positive interval,
    /// and positive capacity (liveness with any honest validator set).
    #[test]
    fn engines_always_schedule_valid_opportunities(
        powers in arb_validators(),
        seed in any::<u64>(),
        kind_i in 0usize..5,
    ) {
        let (set, _) = make_set(&powers);
        let mut engine = make_engine(ALL_KINDS[kind_i], EngineParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for epoch in 0..50u64 {
            let opp = engine
                .next_block(ChainEpoch::new(epoch), &set, &mut rng)
                .unwrap();
            prop_assert!(opp.proposer < set.len());
            prop_assert!(opp.interval_ms > 0);
            prop_assert!(opp.capacity > 0);
            prop_assert!(opp.rounds >= 1);
        }
    }

    /// Engines are deterministic under a seed.
    #[test]
    fn engines_replay_deterministically(
        powers in arb_validators(),
        seed in any::<u64>(),
        kind_i in 0usize..5,
    ) {
        let (set, _) = make_set(&powers);
        let run = || {
            let mut engine = make_engine(ALL_KINDS[kind_i], EngineParams::default());
            let mut rng = StdRng::seed_from_u64(seed);
            (0..30u64)
                .map(|e| engine.next_block(ChainEpoch::new(e), &set, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Power-weighted engines never elect a zero-power validator more
    /// often than proportionality plus generous noise allows.
    #[test]
    fn lotteries_are_roughly_proportional(powers in prop::collection::vec(1u64..50, 2..6)) {
        let (set, _) = make_set(&powers);
        let mut engine = make_engine(ConsensusKind::ProofOfStake, EngineParams::default());
        let mut rng = StdRng::seed_from_u64(7);
        let rounds = 3_000u64;
        let mut wins = vec![0u64; powers.len()];
        for e in 0..rounds {
            let opp = engine.next_block(ChainEpoch::new(e), &set, &mut rng).unwrap();
            wins[opp.proposer] += 1;
        }
        let total_power: u64 = powers.iter().sum();
        for (i, &p) in powers.iter().enumerate() {
            let expected = rounds as f64 * p as f64 / total_power as f64;
            let got = wins[i] as f64;
            // Loose 3-sigma-ish binomial bound.
            let sigma = (expected.max(1.0)).sqrt() * 4.0 + 10.0;
            prop_assert!(
                (got - expected).abs() < sigma.max(expected * 0.5),
                "validator {i}: got {got}, expected ~{expected}"
            );
        }
    }

    /// BFT block validation accepts exactly the blocks carrying a real
    /// quorum of the validator set.
    #[test]
    fn bft_validation_requires_quorum(
        powers in prop::collection::vec(1u64..10, 2..8),
        signers in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let (set, keys) = make_set(&powers);
        let engine = make_engine(ConsensusKind::Tendermint, EngineParams::default());

        let proposer = &keys[0];
        let header = BlockHeader {
            subnet: SubnetId::root(),
            epoch: ChainEpoch::new(1),
            parent: Cid::NIL,
            state_root: Cid::digest(b"s"),
            msgs_root: Cid::NIL,
            proposer: proposer.public(),
            timestamp_ms: 1,
        };
        let mut block = Block::seal(header, vec![], vec![], proposer);
        let cid = block.cid();
        let mut distinct = std::collections::HashSet::new();
        for idx in &signers {
            let i = idx.index(keys.len());
            block.justification.add(keys[i].sign(cid.as_bytes()));
            distinct.insert(i);
        }
        let valid = engine.validate_block(&block, &set).is_ok();
        prop_assert_eq!(valid, distinct.len() >= set.quorum_threshold());
    }
}
