//! Fund recovery from a dead subnet (paper §III-C): snapshot the state
//! while the subnet lives, kill it, and let users migrate their funds
//! back to the parent with Merkle proofs.
//!
//! ```text
//! cargo run --example fund_recovery
//! ```

use hierarchical_consensus::prelude::*;

fn main() -> Result<(), RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let operator = rt.create_user(&root, TokenAmount::from_whole(10_000))?;
    let validator = rt.create_user(&root, TokenAmount::from_whole(100))?;

    let subnet = rt.spawn_subnet(
        &operator,
        SaConfig::default(),
        TokenAmount::from_whole(10),
        &[(validator.clone(), TokenAmount::from_whole(5))],
    )?;

    // Three users hold funds inside the subnet.
    let mut insiders = Vec::new();
    for amount in [25u64, 12, 3] {
        let u = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.cross_transfer(&operator, &u, TokenAmount::from_whole(amount))?;
        insiders.push((u, amount));
    }
    rt.run_until_quiescent(10_000)?;
    println!("subnet {subnet} holds user funds: 25 + 12 + 3 = 40 HC\n");

    // Anyone can persist the state: "users may choose to perform this
    // snapshot with the latest state right before the subnet is killed".
    let tree = rt.save_snapshot(&operator, &subnet)?;
    println!(
        "snapshot persisted in the parent SCA: {} accounts, validated by the \
         subnet's signature policy",
        tree.leaves().len()
    );

    // The validators abandon ship and kill the subnet.
    let sa = subnet.actor().expect("child has an SA");
    rt.execute(&validator, sa, TokenAmount::ZERO, Method::KillSubnet)?;
    println!("subnet killed — its chain no longer exists\n");

    // Every user migrates their balance back to the parent with a proof.
    for (insider, amount) in &insiders {
        let claimant = rt.create_claimant(insider)?;
        let proof = tree
            .prove(insider.addr)
            .expect("insider is in the snapshot");
        rt.execute(
            &claimant,
            Address::SCA,
            TokenAmount::ZERO,
            Method::RecoverFunds {
                subnet: subnet.clone(),
                proof: proof.into(),
            },
        )?;
        println!(
            "{} recovered {} HC on the rootnet (balance now {})",
            claimant,
            amount,
            rt.balance(&claimant)
        );
    }

    // A replayed claim is rejected.
    let (first, _) = &insiders[0];
    let claimant = rt.create_claimant(first)?;
    let proof = tree.prove(first.addr).unwrap();
    let err = rt
        .execute(
            &claimant,
            Address::SCA,
            TokenAmount::ZERO,
            Method::RecoverFunds {
                subnet: subnet.clone(),
                proof: proof.into(),
            },
        )
        .unwrap_err();
    println!("\nreplay attempt rejected: {err}");

    audit_quiescent(&rt).map_err(RuntimeError::Execution)?;
    println!("invariant check after full recovery: ok");
    Ok(())
}
