//! E6 — consensus pluggability (paper §II: "subnets can run a consensus
//! algorithm of their choosing").
//!
//! The same workload runs in one subnet per engine. Expected shape:
//! BFT engines (Tendermint, Mir) give instant finality and fast blocks at
//! LAN delays; Mir's parallel leaders multiply throughput; PoW pays
//! exponential intervals, probabilistic finality, and orphaned work; PoS
//! and RoundRobin sit in between.

use hc_actors::sa::ConsensusKind;
use hc_core::RuntimeError;
use hc_types::SubnetId;
use hc_workload::ClosedBatch;

use crate::table::{f2, Table};
use crate::topology::TopologyBuilder;

/// E6 parameters.
#[derive(Debug, Clone)]
pub struct E6Params {
    /// Engines to compare.
    pub engines: Vec<ConsensusKind>,
    /// Validators in the subnet.
    pub validators: usize,
    /// Messages submitted.
    pub msgs: usize,
    /// Block capacity — small enough that the workload spans many blocks,
    /// so throughput reflects the engine, not idle slack.
    pub block_capacity: usize,
}

impl Default for E6Params {
    fn default() -> Self {
        E6Params {
            engines: vec![
                ConsensusKind::RoundRobin,
                ConsensusKind::ProofOfWork,
                ConsensusKind::ProofOfStake,
                ConsensusKind::Tendermint,
                ConsensusKind::Mir,
            ],
            validators: 4,
            msgs: 1_000,
            block_capacity: 100,
        }
    }
}

/// One engine's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Row {
    /// The engine.
    pub engine: ConsensusKind,
    /// Mean block interval, virtual ms.
    pub block_interval_ms: f64,
    /// Time to finality for a freshly included message:
    /// `(finality_depth + 1) × mean interval` for chained engines, one
    /// interval for instant finality.
    pub finality_ms: f64,
    /// Successful user messages per virtual second.
    pub tps: f64,
    /// Blocks orphaned during the run (PoW wasted work).
    pub orphaned: u64,
    /// Extra BFT rounds beyond the happy path (view changes).
    pub extra_rounds: u64,
}

/// Runs the E6 comparison.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e6_run(params: &E6Params) -> Result<Vec<E6Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &engine in &params.engines {
        let mut builder = TopologyBuilder::new();
        builder
            .users_per_subnet(4)
            .consensus(engine)
            .runtime_config(hc_core::RuntimeConfig {
                engine_params: hc_consensus::EngineParams {
                    block_capacity: params.block_capacity,
                    ..hc_consensus::EngineParams::default()
                },
                ..hc_core::RuntimeConfig::default()
            });
        let mut topo = builder.flat(1)?;
        // Extra validators so quorum sizes are meaningful.
        for _ in 1..params.validators {
            let v = topo
                .rt
                .create_user(&SubnetId::root(), hc_types::TokenAmount::from_whole(50))?;
            let key_user = v.clone();
            let sa = topo.subnets[0].actor().expect("child has an SA");
            topo.rt.execute(
                &key_user,
                sa,
                hc_types::TokenAmount::from_whole(5),
                hc_state::Method::JoinSubnet {
                    key: join_key(&topo.rt, &v),
                },
            )?;
        }
        topo.users.remove(&SubnetId::root());
        let subnets = topo.all_subnets();
        let report = ClosedBatch {
            msgs_per_subnet: params.msgs,
            seed: 21,
            ..ClosedBatch::default()
        }
        .run(&mut topo.rt, &subnets, &topo.users)?;

        let node = topo.rt.node(&topo.subnets[0]).unwrap();
        let stats = node.stats();
        let interval = node.mean_block_interval_ms();
        let depth = node.engine().finality_depth();
        rows.push(E6Row {
            engine,
            block_interval_ms: interval,
            finality_ms: (depth + 1) as f64 * interval,
            tps: report.aggregate_tps,
            orphaned: stats.orphaned,
            extra_rounds: stats.extra_rounds,
        });
    }
    Ok(rows)
}

// The runtime owns user keys; JoinSubnet needs the public key of the
// joining validator's wallet. The wallets are deterministic, so derive the
// same key the runtime created.
fn join_key(rt: &hc_core::HierarchyRuntime, user: &hc_core::UserHandle) -> hc_types::PublicKey {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&user.addr.id().to_le_bytes());
    seed[8..16].copy_from_slice(&rt.config().seed.to_le_bytes());
    seed[16] = 0xac;
    hc_types::Keypair::from_seed(seed).public()
}

/// Renders E6 rows.
pub fn table(rows: &[E6Row]) -> Table {
    let mut t = Table::new(
        "E6: consensus engines under identical subnet workload",
        &[
            "engine",
            "block interval ms",
            "finality ms",
            "tps",
            "orphaned",
            "extra rounds",
        ],
    );
    for r in rows {
        t.row(&[
            r.engine.to_string(),
            f2(r.block_interval_ms),
            f2(r.finality_ms),
            f2(r.tps),
            r.orphaned.to_string(),
            r.extra_rounds.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_profiles_differ_as_expected() {
        let rows = e6_run(&E6Params {
            engines: vec![
                ConsensusKind::RoundRobin,
                ConsensusKind::ProofOfWork,
                ConsensusKind::Tendermint,
                ConsensusKind::Mir,
            ],
            validators: 4,
            msgs: 600,
            block_capacity: 50,
        })
        .unwrap();
        let get = |k: ConsensusKind| rows.iter().find(|r| r.engine == k).unwrap();
        // BFT at LAN delays is faster than 1 s authority slots.
        assert!(
            get(ConsensusKind::Tendermint).block_interval_ms
                < get(ConsensusKind::RoundRobin).block_interval_ms
        );
        // Instant finality beats PoW's 6-deep probabilistic finality.
        assert!(
            get(ConsensusKind::Tendermint).finality_ms
                < get(ConsensusKind::ProofOfWork).finality_ms
        );
        // Mir's throughput is at least Tendermint's (parallel leaders).
        assert!(get(ConsensusKind::Mir).tps >= get(ConsensusKind::Tendermint).tps * 0.9);
    }
}
