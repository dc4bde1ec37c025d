//! A chaos drill (DESIGN.md §12): a subnet node crashes mid-epoch while
//! the network loses, duplicates, and reorders messages — and the
//! hierarchy rides it out. The crashed node rejoins, catches back up
//! from peers over the still-faulty network under retry/backoff, and
//! every in-flight cross-net transfer lands exactly once.
//!
//! ```text
//! cargo run --example chaos_drill
//! ```

use hierarchical_consensus::net::{FaultKind, FaultPlan, FaultRule};
use hierarchical_consensus::prelude::*;

fn main() -> Result<(), RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, TokenAmount::from_whole(1_000))?;
    let validator = rt.create_user(&root, TokenAmount::from_whole(100))?;
    let subnet = rt.spawn_subnet(
        &alice,
        SaConfig::default(),
        TokenAmount::from_whole(10),
        &[(validator, TokenAmount::from_whole(5))],
    )?;
    let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
    let carol = rt.create_user(&root, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &bob, TokenAmount::from_whole(30))?;
    rt.run_until_quiescent(10_000)?;
    println!("calm before the storm: bob holds {}\n", rt.balance(&bob));

    // Value in flight in both directions while the faults bite.
    rt.cross_transfer(&bob, &carol, TokenAmount::from_whole(8))?;
    rt.cross_transfer(&alice, &bob, TokenAmount::from_whole(20))?;

    // The schedule: 35% loss on the child's topic, duplication and
    // reordering everywhere, and the child node crashing mid-epoch.
    let now = rt.now_ms();
    rt.extend_faults(FaultPlan {
        rules: vec![
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Loss {
                    topic: Some(subnet.topic()),
                    from: None,
                    to: None,
                    rate: 0.35,
                },
            ),
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Duplicate {
                    topic: None,
                    rate: 0.5,
                    max_copies: 2,
                    spread_ms: 400,
                },
            ),
            FaultRule::new(
                now,
                now + 15_000,
                FaultKind::Reorder {
                    topic: None,
                    rate: 0.5,
                    max_extra_delay_ms: 900,
                },
            ),
            FaultRule::new(
                now + 1_200,
                now + 6_500,
                FaultKind::Crash {
                    subnet: subnet.clone(),
                },
            ),
        ],
    });
    println!("fault schedule injected: loss 35% on {subnet}, dup 50%, reorder 50%,");
    println!("crash at +1.2s, rejoin at +6.5s\n");

    rt.run_until_quiescent(10_000)?;

    let chaos = rt.chaos_stats();
    let net = rt.net_stats();
    println!("the hierarchy reconverged:");
    println!("  bob   = {} (30 + 20 - 8, exactly once)", rt.balance(&bob));
    println!("  carol = {} (8, exactly once)", rt.balance(&carol));
    println!(
        "  crashes {} | rejoins {} | catch-ups {} | blocks caught up {}",
        chaos.crashes, chaos.rejoins, chaos.catch_ups_completed, chaos.blocks_caught_up
    );
    println!(
        "  pulls {} ({} retried) | batches {}",
        chaos.block_pulls, chaos.block_pull_retries, chaos.block_batches
    );
    println!(
        "  net: {} targeted-dropped, {} duplicated, {} reordered, {} offline-dropped",
        net.targeted_dropped, net.duplicated, net.reordered, net.offline_dropped
    );

    assert_eq!(rt.balance(&bob), TokenAmount::from_whole(42));
    assert_eq!(rt.balance(&carol), TokenAmount::from_whole(8));
    audit_quiescent(&rt).map_err(RuntimeError::Execution)?;
    println!("\nthe invariant check holds — the firewall survived the weather.");
    Ok(())
}
