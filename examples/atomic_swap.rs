//! Atomic cross-net execution (paper Fig. 5): an asset swap between two
//! subnets, orchestrated as a two-phase commit by the SCA of their least
//! common ancestor — including what happens when a party misbehaves.
//!
//! ```text
//! cargo run --example atomic_swap
//! ```

use hierarchical_consensus::prelude::*;

fn main() -> Result<(), RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let funder = rt.create_user(&root, TokenAmount::from_whole(10_000))?;

    // Two subnets, one trader each, each holding an asset record.
    let mut traders = Vec::new();
    for asset in ["100 GOLD", "7000 SILVER"] {
        let v = rt.create_user(&root, TokenAmount::from_whole(100))?;
        let subnet = rt.spawn_subnet(
            &funder,
            SaConfig::default(),
            TokenAmount::from_whole(10),
            &[(v, TokenAmount::from_whole(5))],
        )?;
        let trader = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.execute(
            &trader,
            trader.addr,
            TokenAmount::ZERO,
            Method::PutData {
                key: b"vault".as_slice().into(),
                data: asset.as_bytes().into(),
            },
        )?;
        println!("{trader} holds {asset:?}");
        traders.push(trader);
    }
    let (gold_trader, silver_trader) = (traders[0].clone(), traders[1].clone());

    // ---- Honest swap ----
    println!("\n== honest atomic swap ==");
    let outcome = AtomicOrchestrator::run(
        &mut rt,
        &[
            AtomicParty::honest(gold_trader.clone(), b"vault"),
            AtomicParty::honest(silver_trader.clone(), b"vault"),
        ],
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        100_000,
    )?;
    println!(
        "coordinator={} status={} (exec {})",
        outcome.coordinator, outcome.status, outcome.exec
    );
    print_vaults(&rt, &gold_trader, &silver_trader);

    // ---- A Byzantine counterparty submits a corrupt output ----
    println!("\n== swap against a divergent (Byzantine) party ==");
    let outcome = AtomicOrchestrator::run(
        &mut rt,
        &[
            AtomicParty::honest(gold_trader.clone(), b"vault"),
            AtomicParty::honest(silver_trader.clone(), b"vault")
                .with_behavior(PartyBehavior::Divergent),
        ],
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        100_000,
    )?;
    println!(
        "status={} — outputs did not match, both subnets reverted",
        outcome.status
    );
    print_vaults(&rt, &gold_trader, &silver_trader);

    // ---- A party crashes mid-protocol: the timeout sweep guarantees
    //      timeliness ----
    println!("\n== swap against a crashed party (timeout) ==");
    let outcome = AtomicOrchestrator::run(
        &mut rt,
        &[
            AtomicParty::honest(gold_trader.clone(), b"vault"),
            AtomicParty::honest(silver_trader.clone(), b"vault")
                .with_behavior(PartyBehavior::Crash),
        ],
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        200_000,
    )?;
    println!(
        "status={} — coordinator sweep aborted the stale execution",
        outcome.status
    );
    print_vaults(&rt, &gold_trader, &silver_trader);

    Ok(())
}

fn print_vaults(rt: &HierarchyRuntime, a: &UserHandle, b: &UserHandle) {
    for t in [a, b] {
        let vault = rt
            .node(&t.subnet)
            .and_then(|n| n.state().accounts().get(t.addr))
            .and_then(|acc| acc.storage.get(b"vault".as_slice()).cloned())
            .unwrap_or_default();
        println!("  {t} vault: {:?}", String::from_utf8_lossy(&vault));
    }
}
