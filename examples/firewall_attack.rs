//! The firewall property under attack (paper §II): a fully compromised
//! subnet tries to drain its parent, and the SCA bounds the damage to the
//! subnet's circulating supply — then the attacker is slashed via an
//! equivocation fraud proof.
//!
//! ```text
//! cargo run --example firewall_attack
//! ```

use hierarchical_consensus::prelude::*;

fn main() -> Result<(), RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let honest = rt.create_user(&root, TokenAmount::from_whole(1_000_000))?;
    let validator = rt.create_user(&root, TokenAmount::from_whole(100))?;

    let subnet = rt.spawn_subnet(
        &honest,
        SaConfig::default(),
        TokenAmount::from_whole(10),
        &[(validator, TokenAmount::from_whole(5))],
    )?;

    // 40 HC of circulating supply enters the (soon compromised) subnet.
    let insider = rt.create_user(&subnet, TokenAmount::ZERO)?;
    rt.cross_transfer(&honest, &insider, TokenAmount::from_whole(40))?;
    rt.run_until_quiescent(10_000)?;
    println!("subnet {subnet} holds 40 HC of circulating supply\n");

    // The subnet's validator quorum is now adversarial: it signs forged
    // checkpoints claiming withdrawals that were never funded.
    let thief = Address::new(66_666);
    for claim in [25u64, 1_000, 15, 1_000_000] {
        let report = rt.forge_withdrawal(&subnet, thief, TokenAmount::from_whole(claim))?;
        println!(
            "forged claim of {:>9} HC | remaining bound {:>3} | extracted {:>3} | naive sharding would lose {:>9} HC",
            claim,
            report.bound,
            report.extracted,
            claim,
        );
    }
    let root_node = rt.node(&root).unwrap();
    let total_stolen = root_node
        .state()
        .accounts()
        .get(thief)
        .map(|a| a.balance)
        .unwrap_or(TokenAmount::ZERO);
    println!(
        "\ntotal extracted: {total_stolen} — hard-capped at the 40 HC that ever entered the subnet"
    );
    audit_quiescent(&rt).map_err(RuntimeError::Execution)?;
    println!("invariant check after the attack: ok\n");

    // The compromised quorum also equivocated; any honest observer can
    // slash its collateral.
    let proof = rt.forge_equivocation(&subnet)?;
    rt.execute(
        &honest,
        Address::SCA,
        TokenAmount::ZERO,
        Method::ReportFraud {
            subnet: subnet.clone(),
            proof: Box::new(proof),
        },
    )?;
    let info = rt
        .node(&root)
        .unwrap()
        .state()
        .sca()
        .subnet(&subnet)
        .unwrap()
        .clone();
    println!(
        "after fraud proof: collateral={} status={} (half burned, half to the reporter)",
        info.collateral, info.status
    );
    Ok(())
}
