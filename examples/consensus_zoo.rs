//! Consensus pluggability (paper §II): five subnets, five different
//! consensus engines, one identical workload — block times, finality, and
//! throughput side by side.
//!
//! ```text
//! cargo run --example consensus_zoo
//! ```

use hierarchical_consensus::prelude::*;

fn main() -> Result<(), RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let funder = rt.create_user(&root, TokenAmount::from_whole(100_000))?;

    let engines = [
        ConsensusKind::RoundRobin,
        ConsensusKind::ProofOfWork,
        ConsensusKind::ProofOfStake,
        ConsensusKind::Tendermint,
        ConsensusKind::Mir,
    ];

    // One subnet per engine, one busy user each.
    let mut handles = Vec::new();
    for &engine in &engines {
        let v = rt.create_user(&root, TokenAmount::from_whole(100))?;
        let subnet = rt.spawn_subnet(
            &funder,
            SaConfig {
                consensus: engine,
                ..SaConfig::default()
            },
            TokenAmount::from_whole(10),
            &[(v, TokenAmount::from_whole(5))],
        )?;
        let user = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.cross_transfer(&funder, &user, TokenAmount::from_whole(100))?;
        handles.push((engine, subnet, user));
    }
    rt.run_until_quiescent(50_000)?;

    // Identical workload everywhere: 300 self-ping messages.
    for (_, _, user) in &handles {
        for i in 0..300u32 {
            rt.submit(
                user,
                user.addr,
                TokenAmount::ZERO,
                Method::PutData {
                    key: b"n".as_slice().into(),
                    data: i.to_le_bytes().as_slice().into(),
                },
            )?;
        }
    }
    rt.run_until_quiescent(1_000_000)?;

    println!(
        "{:<12} {:>10} {:>12} {:>9} {:>9} {:>12}",
        "engine", "blocks", "interval ms", "tps", "orphaned", "view changes"
    );
    for (engine, subnet, _) in &handles {
        let node = rt.node(subnet).unwrap();
        let s = node.stats();
        println!(
            "{:<12} {:>10} {:>12.0} {:>9.1} {:>9} {:>12}",
            engine.to_string(),
            s.blocks,
            node.mean_block_interval_ms(),
            node.user_throughput_per_s(),
            s.orphaned,
            s.extra_rounds,
        );
    }
    println!(
        "\nfinality: Tendermint/Mir are final at inclusion; round-robin after 1 block;\n\
         PoS after {} blocks; PoW only probabilistically after {} blocks.",
        20, 6
    );
    Ok(())
}
