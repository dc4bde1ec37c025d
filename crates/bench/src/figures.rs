//! Executable scenarios reproducing the paper's figures.
//!
//! Each function builds the situation the figure illustrates, drives the
//! protocol through it, and renders the observed behaviour as a table.

use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_core::{AtomicOrchestrator, AtomicParty, HierarchyRuntime, RuntimeConfig, RuntimeError};
use hc_sim::Table;
use hc_state::{Method, VmEvent};
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// F1 (paper Fig. 1) — system overview: a hierarchy `/root`, `/root/A`,
/// `/root/A/B`, `/root/C` with per-subnet consensus, producing blocks
/// independently.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f1_overview() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;

    let spawn = |rt: &mut HierarchyRuntime,
                 creator: &hc_core::UserHandle,
                 kind: ConsensusKind|
     -> Result<SubnetId, RuntimeError> {
        rt.spawn_subnet(
            creator,
            SaConfig {
                consensus: kind,
                ..SaConfig::default()
            },
            whole(10),
            &[(creator.clone(), whole(5))],
        )
    };
    let a = spawn(&mut rt, &alice, ConsensusKind::Tendermint)?;
    let c = spawn(&mut rt, &alice, ConsensusKind::ProofOfStake)?;
    let creator_b = rt.create_user(&a, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &creator_b, whole(50))?;
    rt.run_until_quiescent(10_000)?;
    let b = spawn(&mut rt, &creator_b, ConsensusKind::RoundRobin)?;

    rt.run_blocks(60)?;
    let mut t = Table::new(
        "F1: hierarchy overview — independent subnets, independent chains",
        &[
            "subnet",
            "consensus",
            "height",
            "blocks",
            "mean interval ms",
        ],
    );
    for subnet in [&root, &a, &b, &c] {
        let node = rt.node(subnet).unwrap();
        t.row(&[
            subnet.to_string(),
            node.engine().kind().to_string(),
            node.chain().head_epoch().to_string(),
            node.stats().blocks.to_string(),
            format!("{:.0}", node.mean_block_interval_ms()),
        ]);
    }
    Ok(t)
}

/// F2 (paper Fig. 2) — checkpoint template population: cross-messages sent
/// during a window land in that window's checkpoint; messages after the
/// window close land in the next one.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f2_windows() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;
    let v = rt.create_user(&root, whole(100))?;
    let subnet = rt.spawn_subnet(
        &alice,
        SaConfig {
            checkpoint_period: 10,
            ..SaConfig::default()
        },
        whole(10),
        &[(v, whole(5))],
    )?;
    let sender = rt.create_user(&subnet, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &sender, whole(100))?;
    rt.run_until_quiescent(10_000)?;
    rt.drain_events();

    // Send bottom-up messages at chosen child epochs and observe which
    // checkpoint carries them.
    let send_epochs: Vec<u64> = vec![3, 7, 12, 18, 23];
    let mut sent_at = Vec::new();
    let mut next = 0;
    // Drive the child one block at a time; submit when its epoch matches.
    let base_epoch = rt.node(&subnet).unwrap().chain().head_epoch().value();
    for _ in 0..40 {
        let epoch = rt.node(&subnet).unwrap().chain().head_epoch().value() - base_epoch;
        if next < send_epochs.len() && epoch >= send_epochs[next] {
            rt.cross_transfer(&sender, &alice, whole(1))?;
            sent_at.push(send_epochs[next]);
            next += 1;
        }
        rt.tick_subnet(&subnet)?;
    }
    rt.run_until_quiescent(10_000)?;

    // Collect checkpoint cuts: (epoch, msgs carried).
    let mut t = Table::new(
        "F2: checkpoint template population (period = 10 epochs)",
        &["checkpoint at epoch", "cross-msgs carried"],
    );
    for (s, ev) in rt.drain_events() {
        if s != subnet {
            continue;
        }
        if let VmEvent::CheckpointCut { checkpoint } = ev {
            t.row(&[
                (checkpoint.epoch.value() - base_epoch).to_string(),
                checkpoint.cross_msg_count().to_string(),
            ]);
        }
    }
    Ok(t)
}

/// F3 (paper Fig. 3) — cross-message commitment: top-down nonce assignment
/// and in-order application; bottom-up meta aggregation, nonce stamping,
/// and application after resolution.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f3_commitment() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;
    let v = rt.create_user(&root, whole(100))?;
    let subnet = rt.spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])?;
    let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
    rt.drain_events();

    // Three top-down messages and, once funded, two bottom-up ones.
    for _ in 0..3 {
        rt.cross_transfer(&alice, &bob, whole(10))?;
    }
    rt.run_until_quiescent(10_000)?;
    for _ in 0..2 {
        rt.cross_transfer(&bob, &alice, whole(2))?;
    }
    rt.run_until_quiescent(10_000)?;

    let mut t = Table::new(
        "F3: cross-msg commitment traces (nonces, checkpoints, application)",
        &["subnet", "event"],
    );
    for (s, ev) in rt.drain_events() {
        let text = match ev {
            VmEvent::CrossMsgQueued { msg } => {
                format!(
                    "committed {} -> {} with nonce {}",
                    msg.from, msg.to, msg.nonce
                )
            }
            VmEvent::CrossMsgApplied { msg } => {
                format!("applied {} -> {} ({})", msg.from, msg.to, msg.value)
            }
            VmEvent::CheckpointCut { checkpoint } => format!(
                "cut checkpoint at {} carrying {} msg(s)",
                checkpoint.epoch,
                checkpoint.cross_msg_count()
            ),
            VmEvent::CheckpointCommitted { source, outcome } => format!(
                "committed checkpoint of {source}: {} for here (meta nonce(s) {:?})",
                outcome.applied_here.len(),
                outcome
                    .applied_here
                    .iter()
                    .map(|m| m.nonce.value())
                    .collect::<Vec<_>>(),
            ),
            _ => continue,
        };
        t.row(&[s.to_string(), text]);
    }
    Ok(t)
}

/// F4 (paper Fig. 4) — content resolution: push hit rates with the push
/// path on, pull round-trips with it off.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f4_resolution() -> Result<Table, RuntimeError> {
    let mut t = Table::new(
        "F4: content resolution — push vs miss-then-pull",
        &[
            "mode",
            "pushes cached",
            "cache hits",
            "misses",
            "pulls served",
            "resolves",
        ],
    );
    for (mode, push_enabled) in [("push", true), ("pull", false)] {
        let mut rt = HierarchyRuntime::new(RuntimeConfig {
            push_enabled,
            ..RuntimeConfig::default()
        });
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(10_000))?;
        let v = rt.create_user(&root, whole(100))?;
        let subnet = rt.spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])?;
        let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.cross_transfer(&alice, &bob, whole(100))?;
        rt.run_until_quiescent(10_000)?;
        for _ in 0..4 {
            rt.cross_transfer(&bob, &alice, whole(1))?;
            rt.run_until_quiescent(10_000)?;
        }
        let root_stats = rt.node(&root).unwrap().resolver().stats();
        let child_stats = rt.node(&subnet).unwrap().resolver().stats();
        t.row(&[
            mode.to_string(),
            root_stats.pushes_cached.to_string(),
            root_stats.cache_hits.to_string(),
            root_stats.cache_misses.to_string(),
            child_stats.pulls_served.to_string(),
            root_stats.resolves_cached.to_string(),
        ]);
    }
    Ok(t)
}

/// F5 (paper Fig. 5) — the atomic execution protocol phase by phase, with
/// virtual timestamps.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f5_atomic() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let funder = rt.create_user(&root, whole(10_000))?;
    let mut parties = Vec::new();
    for asset in [b"A".to_vec(), b"B".to_vec()] {
        let v = rt.create_user(&root, whole(100))?;
        let subnet = rt.spawn_subnet(&funder, SaConfig::default(), whole(10), &[(v, whole(5))])?;
        let user = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.execute(
            &user,
            user.addr,
            TokenAmount::ZERO,
            Method::PutData {
                key: b"state".as_slice().into(),
                data: asset.into(),
            },
        )?;
        parties.push(AtomicParty::honest(user, b"state"));
    }

    let mut t = Table::new(
        "F5: atomic execution timeline (2 parties, coordinator = LCA)",
        &["phase", "virtual ms"],
    );
    let t0 = rt.now_ms();
    t.row(&["lock inputs + init at coordinator".into(), "0".into()]);
    let outcome = AtomicOrchestrator::run(
        &mut rt,
        &parties,
        |inputs| vec![inputs[1].clone(), inputs[0].clone()],
        100_000,
    )?;
    t.row(&[
        format!("terminated: {}", outcome.status),
        (rt.now_ms() - t0).to_string(),
    ]);
    t.row(&[
        "outputs incorporated, inputs unlocked".into(),
        (rt.now_ms() - t0).to_string(),
    ]);
    Ok(t)
}

/// F6 — incremental snapshot sharing: every checkpoint cut persists the
/// child's state as a chunk manifest into the runtime-wide content store.
/// The account ledger is a content-addressed HAMT whose persist prunes
/// subtrees already in the store, so consecutive snapshots share unchanged
/// accounts without even re-putting them: sharing shows up as per-persist
/// blob/byte growth staying O(touched path) instead of O(state). The small
/// fixed chunks (metadata, atomic registry, ...) are skipped too when their
/// leaf digest has not moved since the last persist, and the content
/// registry adds its AMT's rightmost path per cut that carried bottom-up
/// messages — so `put hits` stays at zero: every put stores something new.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f6_snapshot_sharing() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;
    let v = rt.create_user(&root, whole(100))?;
    let subnet = rt.spawn_subnet(
        &alice,
        SaConfig {
            checkpoint_period: 5,
            ..SaConfig::default()
        },
        whole(10),
        &[(v, whole(5))],
    )?;
    let bob = rt.create_user(&subnet, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &bob, whole(100))?;
    // A population of idle accounts: their chunks never change, so every
    // snapshot after the first re-uses them wholesale.
    for _ in 0..16 {
        rt.create_user(&subnet, TokenAmount::ZERO)?;
    }
    rt.run_until_quiescent(10_000)?;

    let mut t = Table::new(
        "F6: snapshot sharing — chunk manifests in the content store",
        &[
            "after",
            "persists",
            "blobs stored",
            "bytes stored",
            "put hits (shared)",
            "put misses (new)",
        ],
    );
    let mut record = |rt: &HierarchyRuntime, label: &str| {
        let s = rt.store_stats();
        let persists: u64 = rt
            .subnets()
            .filter_map(|id| rt.node(id))
            .map(|n| n.stats().state_persists)
            .sum();
        t.row(&[
            label.to_string(),
            persists.to_string(),
            s.blobs.to_string(),
            s.total_bytes.to_string(),
            s.put_hits.to_string(),
            s.put_misses.to_string(),
        ]);
    };
    record(&rt, "setup + funding");

    // Idle checkpoints: nothing but the SCA window changes between cuts,
    // so each persist adds only the SCA chunk and a new manifest; the
    // whole account HAMT and the (empty) registry log are pruned as
    // already-present.
    for _ in 0..15 {
        rt.tick_subnet(&subnet)?;
    }
    record(&rt, "3 idle checkpoint periods");

    // One transfer per period: exactly the touched account's HAMT path
    // and the registry log's rightmost path (plus the SCA window and the
    // new manifest) are new; the rest is shared.
    for _ in 0..3 {
        rt.cross_transfer(&bob, &alice, whole(1))?;
        rt.run_until_quiescent(10_000)?;
    }
    record(&rt, "3 periods with 1 transfer each");
    Ok(t)
}

/// F7 — the message-path crypto pipeline: signature verdicts along
/// admission → production. Every submitted message pays exactly one full
/// verification at mempool admission (a `miss`; the verdict is memoized on
/// the admitted message); block production then reads those verdicts as
/// `hits`, re-verifying nothing. The content store's counters are shown
/// alongside: together they describe the node's redundant-work elision
/// (signatures and state chunks respectively).
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f7_sig_cache() -> Result<Table, RuntimeError> {
    let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;
    let bob = rt.create_user(&root, whole(10_000))?;

    let mut t = Table::new(
        "F7: signature verdicts — one full verification per message",
        &[
            "after",
            "sig hits",
            "sig misses",
            "store put hits",
            "store put misses",
        ],
    );
    let mut record = |rt: &HierarchyRuntime, label: &str| {
        let sig = rt.sig_cache_stats();
        let store = rt.store_stats();
        t.row(&[
            label.to_string(),
            sig.hits.to_string(),
            sig.misses.to_string(),
            store.put_hits.to_string(),
            store.put_misses.to_string(),
        ]);
    };
    record(&rt, "genesis");

    for _ in 0..50 {
        rt.submit(&alice, bob.addr, whole(1), Method::Send)?;
        rt.submit(&bob, alice.addr, whole(1), Method::Send)?;
    }
    record(&rt, "100 admissions (verify once each)");

    rt.run_until_quiescent(10_000)?;
    record(&rt, "blocks produced (verdicts consumed)");
    Ok(t)
}

/// F8 — durable persistence and crash recovery: a journaled hierarchy is
/// crashed at quiescence (the device survives, the runtime is dropped) and
/// restarted with [`HierarchyRuntime::recover`], which replays the control
/// log — blocks and all — back to a bit-identical world. A second crash
/// with a torn journal tail recovers a valid *prefix* instead. The snapshot GC
/// (`keep_manifests`) runs throughout; its reclaimed blob/byte counters are
/// reported alongside.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f8_crash_recovery() -> Result<Table, RuntimeError> {
    use std::sync::Arc;

    use hc_core::persist::{DurableOptions, PersistenceConfig};
    use hc_store::{InMemoryDevice, Persistence, WalOptions};

    let device = InMemoryDevice::new();
    let config = |device: &InMemoryDevice| RuntimeConfig {
        net: hc_net::NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..hc_net::NetConfig::default()
        },
        persistence: PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(device.clone()),
            wal: WalOptions::default(),
            keep_manifests: 2,
        }),
        ..RuntimeConfig::default()
    };

    // A journaled world under load: two subnets, rolling transfers across
    // several checkpoint periods, one saved snapshot.
    let mut rt = HierarchyRuntime::new(config(&device));
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(10_000))?;
    let mut pairs = Vec::new();
    let mut subnets = Vec::new();
    for _ in 0..2 {
        let v = rt.create_user(&root, whole(100))?;
        let subnet = rt.spawn_subnet(&alice, SaConfig::default(), whole(10), &[(v, whole(5))])?;
        let a = rt.create_user(&subnet, TokenAmount::ZERO)?;
        let b = rt.create_user(&subnet, TokenAmount::ZERO)?;
        rt.cross_transfer(&alice, &a, whole(100))?;
        subnets.push(subnet);
        pairs.push((a, b));
    }
    rt.run_until_quiescent(100_000)?;
    for round in 0..12 {
        for (a, b) in &pairs {
            let (from, to) = if round % 2 == 0 { (a, b) } else { (b, a) };
            rt.submit(from, to.addr, whole(1), Method::Send)?;
        }
        rt.run_until_quiescent(100_000)?;
        rt.run_blocks(10)?;
    }
    rt.save_snapshot(&alice, &subnets[0])?;
    rt.run_until_quiescent(100_000)?;

    let heights: Vec<(SubnetId, u64, hc_types::Cid)> = rt
        .subnets()
        .map(|s| {
            let node = rt.node(s).unwrap();
            let root = node.chain().head_block().unwrap().header.state_root;
            (s.clone(), node.chain().head_epoch().value(), root)
        })
        .collect();
    let store = rt.store_stats();
    let journal_bytes = device.total_bytes();
    drop(rt); // the crash

    let recovered = HierarchyRuntime::recover(config(&device));
    let mut t = Table::new(
        "F8: crash recovery — journaled world replayed to a bit-identical state \
         (GC window = 2 manifests)",
        &["subnet / metric", "at crash", "recovered", "bit-identical"],
    );
    for (subnet, epoch, state_root) in &heights {
        let node = recovered.node(subnet).unwrap();
        let got = node.chain().head_block().unwrap().header.state_root;
        t.row(&[
            subnet.to_string(),
            format!("epoch {epoch}"),
            format!("epoch {}", node.chain().head_epoch().value()),
            (node.chain().head_epoch().value() == *epoch && got == *state_root).to_string(),
        ]);
    }
    t.row(&[
        "journal size (bytes)".to_owned(),
        journal_bytes.to_string(),
        device.total_bytes().to_string(),
        String::new(),
    ]);
    let rec_store = recovered.store_stats();
    t.row(&[
        "gc pruned_blobs".to_owned(),
        store.pruned_blobs.to_string(),
        rec_store.pruned_blobs.to_string(),
        (store.pruned_blobs == rec_store.pruned_blobs).to_string(),
    ]);
    t.row(&[
        "gc pruned_bytes".to_owned(),
        store.pruned_bytes.to_string(),
        rec_store.pruned_bytes.to_string(),
        (store.pruned_bytes == rec_store.pruned_bytes).to_string(),
    ]);
    drop(recovered);

    // A second crash with a torn journal tail: recovery lands on a valid
    // prefix of the same history.
    let torn = device.fork();
    let tail = torn
        .streams()
        .into_iter()
        .filter(|s| s.starts_with("control/"))
        .max()
        .expect("a journaled run has at least one control segment");
    torn.truncate(&tail, torn.len(&tail) * 9 / 10);
    let prefix = HierarchyRuntime::recover(config(&torn));
    for (subnet, epoch, _) in &heights {
        let got = prefix
            .node(subnet)
            .map_or(0, |n| n.chain().head_epoch().value());
        t.row(&[
            format!("{subnet} after torn tail"),
            format!("epoch {epoch}"),
            format!("epoch {got} (prefix)"),
            (got <= *epoch).to_string(),
        ]);
    }
    Ok(t)
}

/// F9 — deterministic chaos: the same seeded world is run twice, once
/// undisturbed and once under a fault schedule (message loss, duplication,
/// reordering, and a live mid-epoch crash–rejoin of the child). The
/// chaotic run rides out the faults through retry/backoff and the
/// catch-up protocol, and must reconverge to the *same* state roots and
/// balances as the clean run. Checkpointing is disabled (huge period) so
/// the state commitment carries no wall-clock-coupled checkpoint CIDs.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f9_chaos() -> Result<Table, RuntimeError> {
    use hc_net::{FaultKind, FaultPlan, FaultRule};

    let sa = SaConfig {
        checkpoint_period: 10_000,
        ..SaConfig::default()
    };
    struct Run {
        child_root: hc_types::Cid,
        bob_balance: TokenAmount,
        chaos: hc_core::ChaosStats,
        net: hc_net::NetStats,
        abandoned: u64,
    }
    let run = |faulty: bool| -> Result<Run, RuntimeError> {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(10_000))?;
        let v = rt.create_user(&root, whole(100))?;
        let child = rt.spawn_subnet(&alice, sa.clone(), whole(10), &[(v, whole(5))])?;
        let bob = rt.create_user(&child, TokenAmount::ZERO)?;
        rt.cross_transfer(&alice, &bob, whole(20))?;
        rt.run_until_quiescent(2_000)?;

        rt.cross_transfer(&alice, &bob, whole(5))?;
        rt.cross_transfer(&bob, &alice, whole(3))?;
        if faulty {
            let now = rt.now_ms();
            let loss = FaultKind::Loss {
                topic: Some(child.topic()),
                from: None,
                to: None,
                rate: 0.3,
            };
            let duplicate = FaultKind::Duplicate {
                topic: None,
                rate: 0.4,
                max_copies: 2,
                spread_ms: 400,
            };
            let reorder = FaultKind::Reorder {
                topic: None,
                rate: 0.4,
                max_extra_delay_ms: 700,
            };
            let crash = FaultKind::Crash {
                subnet: child.clone(),
            };
            rt.extend_faults(FaultPlan {
                rules: vec![
                    FaultRule::new(now, now + 15_000, loss),
                    FaultRule::new(now, now + 15_000, duplicate),
                    FaultRule::new(now, now + 15_000, reorder),
                    FaultRule::new(now + 1_200, now + 6_500, crash),
                ],
            });
        }
        rt.run_until_quiescent(6_000)?;

        let child_root = rt
            .node(&child)
            .unwrap()
            .chain()
            .head_block()
            .unwrap()
            .header
            .state_root;
        let abandoned = rt
            .subnets()
            .filter_map(|s| rt.node(s))
            .map(|n| n.resolver().stats().pulls_abandoned)
            .sum();
        Ok(Run {
            child_root,
            bob_balance: rt.balance(&bob),
            chaos: rt.chaos_stats(),
            net: rt.net_stats(),
            abandoned,
        })
    };

    let clean = run(false)?;
    let chaotic = run(true)?;
    let mut t = Table::new(
        "F9: deterministic chaos — faulty run reconverges to the clean run's state",
        &["metric", "clean run", "chaotic run"],
    );
    let mut row = |metric: &str, a: String, b: String| {
        t.row(&[metric.to_string(), a, b]);
    };
    row(
        "child state root",
        clean.child_root.to_string(),
        chaotic.child_root.to_string(),
    );
    row(
        "state roots identical",
        String::new(),
        (clean.child_root == chaotic.child_root).to_string(),
    );
    row(
        "bob balance",
        clean.bob_balance.to_string(),
        chaotic.bob_balance.to_string(),
    );
    row(
        "crashes / rejoins / catch-ups",
        format!(
            "{} / {} / {}",
            clean.chaos.crashes, clean.chaos.rejoins, clean.chaos.catch_ups_completed
        ),
        format!(
            "{} / {} / {}",
            chaotic.chaos.crashes, chaotic.chaos.rejoins, chaotic.chaos.catch_ups_completed
        ),
    );
    row(
        "blocks caught up",
        clean.chaos.blocks_caught_up.to_string(),
        chaotic.chaos.blocks_caught_up.to_string(),
    );
    row(
        "block pulls (retries)",
        format!(
            "{} ({})",
            clean.chaos.block_pulls, clean.chaos.block_pull_retries
        ),
        format!(
            "{} ({})",
            chaotic.chaos.block_pulls, chaotic.chaos.block_pull_retries
        ),
    );
    row(
        "net targeted-dropped",
        clean.net.targeted_dropped.to_string(),
        chaotic.net.targeted_dropped.to_string(),
    );
    row(
        "net duplicated (redelivered)",
        format!("{} ({})", clean.net.duplicated, clean.net.redelivered),
        format!("{} ({})", chaotic.net.duplicated, chaotic.net.redelivered),
    );
    row(
        "net reordered",
        clean.net.reordered.to_string(),
        chaotic.net.reordered.to_string(),
    );
    row(
        "net offline-dropped",
        clean.net.offline_dropped.to_string(),
        chaotic.net.offline_dropped.to_string(),
    );
    row(
        "pulls abandoned",
        clean.abandoned.to_string(),
        chaotic.abandoned.to_string(),
    );
    Ok(t)
}

/// F10 — snapshot state-sync: the cost of bootstrapping a rejoining node
/// as a function of missed history. Full replay re-executes every missed
/// block (linear); snapshot sync fetches the checkpoint-anchored manifest
/// closure and replays only the post-anchor suffix (flat). Costs are
/// SHA-256 compression counts, the deterministic work proxy.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn f10_state_sync() -> Result<Table, RuntimeError> {
    use crate::state_sync::{rejoin_cost, CHAIN_LENGTHS};
    use hc_core::SyncMode;

    let mut t = Table::new(
        "F10: snapshot state-sync — O(state) bootstrap vs O(chain) replay",
        &[
            "chain blocks",
            "replay sha256",
            "snapshot sha256",
            "speedup",
            "replayed (replay)",
            "replayed (snapshot)",
            "blobs synced",
            "roots identical",
        ],
    );
    for &len in CHAIN_LENGTHS {
        let replay = rejoin_cost(len, SyncMode::Replay);
        let snapshot = rejoin_cost(len, SyncMode::Snapshot);
        t.row(&[
            replay.chain_blocks.to_string(),
            replay.sha256_blocks.to_string(),
            snapshot.sha256_blocks.to_string(),
            format!(
                "{:.1}x",
                replay.sha256_blocks as f64 / snapshot.sha256_blocks.max(1) as f64
            ),
            replay.blocks_replayed.to_string(),
            snapshot.blocks_replayed.to_string(),
            snapshot.blobs_synced.to_string(),
            (replay.final_state_root == snapshot.final_state_root).to_string(),
        ]);
    }
    Ok(t)
}

/// F11 — HAMT state-tree scaling: bytes re-hashed by a single-account
/// write and manifest size, versus the flat chunk-per-account baseline,
/// across account counts. The flat costs are the pre-HAMT design's exact
/// economics: a structural write rebuilt the full Merkle interior
/// (`NODE_HASH_BYTES` per pair, measured on a real tree of that size) and
/// the manifest carried one `(key, CID)` entry per account.
///
/// # Errors
///
/// Propagates runtime failures (none in practice — kept uniform with the
/// other figures).
pub fn f11_state_tree_scaling() -> Result<Table, RuntimeError> {
    use hc_state::{ChunkManifest, CidStore, StateTree};
    use hc_types::merkle::MerkleTree;
    use hc_types::{Address, CanonicalEncode, Cid, Keypair};

    let mut t = Table::new(
        "F11: HAMT state tree — single-write hashing and manifest size vs account count",
        &[
            "accounts",
            "hamt write bytes",
            "flat write bytes",
            "hashing ratio",
            "manifest bytes",
            "flat manifest bytes",
        ],
    );
    let key = Keypair::from_seed([0xf1; 32]).public();
    for n in [1_000u64, 10_000, 100_000] {
        let mut tree = StateTree::genesis(
            SubnetId::root(),
            hc_actors::ScaConfig::default(),
            (0..n).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
        );
        tree.flush();

        // One fresh-account insert: the structural write the flat design
        // paid a full interior rebuild for.
        let before = tree.commit_stats().bytes_hashed;
        tree.accounts_mut()
            .get_or_create(Address::new(100 + n))
            .balance = TokenAmount::from_whole(7);
        tree.flush();
        let hamt_bytes = tree.commit_stats().bytes_hashed - before;

        // Flat baseline, measured on a real Merkle tree over one leaf per
        // account plus the fixed chunks.
        let flat_bytes = MerkleTree::from_leaf_hashes(
            (0..n + 4).map(|i| Cid::digest(&i.to_le_bytes())).collect(),
        )
        .interior_hash_bytes();

        let store = CidStore::new();
        let manifest_cid = tree.persist(&store);
        let manifest_bytes = store.get(&manifest_cid).map_or(0, |b| b.len());
        let _ = ChunkManifest::decode(&store.get(&manifest_cid).unwrap())
            .expect("persisted manifest decodes");
        // Flat manifest: the same fixed entries plus one per account; an
        // account entry is a tagged address key and a 32-byte CID.
        let account_entry_bytes = {
            let mut buf = Vec::new();
            hc_state::ChunkKey::Sa(Address::new(100)).write_bytes(&mut buf);
            buf.len() as u64 + 32
        };
        let flat_manifest_bytes = manifest_bytes as u64 + (n + 1) * account_entry_bytes;

        t.row(&[
            (n + 1).to_string(),
            hamt_bytes.to_string(),
            flat_bytes.to_string(),
            format!("{:.0}x", flat_bytes as f64 / hamt_bytes.max(1) as f64),
            manifest_bytes.to_string(),
            flat_manifest_bytes.to_string(),
        ]);
    }
    Ok(t)
}

/// F12 — deterministic parallel execution: the access-set schedule's shape
/// and critical path across conflict ratios. Each row runs the
/// `exec_block` workload at one contention level, builds the schedule the
/// engine executes, and prices its critical path under 1/2/4/8 workers —
/// the exact per-segment LPT assignment the executor uses, so "bound 4w" is
/// the best speedup four workers can realise on that block. Receipts and
/// roots are bit-identical at every setting (the `exec_block` guard and the
/// `parallel_exec` proptests enforce it); wall-clock lives in
/// `hc-e2e --workload flat8-par2`.
///
/// # Errors
///
/// Propagates runtime failures (none in practice — kept uniform with the
/// other figures).
pub fn f12_parallel_execution() -> Result<Table, RuntimeError> {
    use crate::exec_block::{schedule_of, workload};

    const MSGS: usize = 400;
    let mut t = Table::new(
        "F12: parallel execution — schedule shape and critical path vs conflict ratio",
        &[
            "conflict %",
            "messages",
            "lanes",
            "longest lane",
            "critical path 4w",
            "bound 4w",
            "bound 8w",
        ],
    );
    for conflict_pct in [0u32, 25, 50, 75, 100] {
        let msgs = workload(MSGS, conflict_pct);
        let schedule = schedule_of(&msgs);
        let stats = schedule.stats();
        let cp4 = schedule.critical_path(4);
        let cp8 = schedule.critical_path(8);
        t.row(&[
            conflict_pct.to_string(),
            stats.messages.to_string(),
            stats.lanes.to_string(),
            stats.longest_lane.to_string(),
            cp4.to_string(),
            format!("{:.2}x", MSGS as f64 / cp4.max(1) as f64),
            format!("{:.2}x", MSGS as f64 / cp8.max(1) as f64),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_scenario_produces_rows() {
        assert!(!f1_overview().unwrap().is_empty());
        assert!(!f2_windows().unwrap().is_empty());
        assert!(!f3_commitment().unwrap().is_empty());
        assert!(!f4_resolution().unwrap().is_empty());
        assert!(!f5_atomic().unwrap().is_empty());
        assert!(!f6_snapshot_sharing().unwrap().is_empty());
        assert!(!f7_sig_cache().unwrap().is_empty());
        assert!(!f8_crash_recovery().unwrap().is_empty());
        assert!(!f9_chaos().unwrap().is_empty());
        assert!(!f10_state_sync().unwrap().is_empty());
        assert!(!f11_state_tree_scaling().unwrap().is_empty());
        assert!(!f12_parallel_execution().unwrap().is_empty());
    }

    #[test]
    fn f12_critical_path_tracks_the_conflict_ratio() {
        let text = f12_parallel_execution().unwrap().to_string();
        let rows: Vec<Vec<String>> = text
            .lines()
            .filter(|l| l.contains('|'))
            .skip(1) // header
            .map(|l| l.split('|').map(|c| c.trim().to_string()).collect())
            .collect();
        assert_eq!(rows.len(), 5, "{text}");
        // Disjoint workload: 4 workers cut the path to a quarter.
        let disjoint_cp: usize = rows[0][5].parse().unwrap();
        let msgs: usize = rows[0][2].parse().unwrap();
        assert_eq!(disjoint_cp, msgs / 4, "{text}");
        // Fully conflicting workload: one chain, no extractable speedup.
        let hot_cp: usize = rows[4][5].parse().unwrap();
        assert_eq!(hot_cp, msgs, "{text}");
        // Contention only ever lengthens the critical path.
        let cps: Vec<usize> = rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(cps.windows(2).all(|w| w[0] <= w[1]), "{text}");
    }

    #[test]
    fn f11_hamt_writes_beat_the_flat_baseline_and_keep_manifests_flat() {
        let t = f11_state_tree_scaling().unwrap();
        let text = t.to_string();
        let mut manifest_sizes = Vec::new();
        for line in text.lines().filter(|l| l.contains('x')) {
            let cols: Vec<&str> = line.split('|').map(str::trim).collect();
            let hamt: u64 = cols[2].parse().unwrap();
            let flat: u64 = cols[3].parse().unwrap();
            assert!(
                flat >= 10 * hamt,
                "flat baseline must lose by 10x on row: {line}\n{text}"
            );
            manifest_sizes.push(cols[5].parse::<u64>().unwrap());
        }
        assert!(
            manifest_sizes.len() >= 3,
            "expected one row per size\n{text}"
        );
        // The manifest no longer grows with the account count.
        assert_eq!(
            manifest_sizes.first(),
            manifest_sizes.last(),
            "manifest must stay O(system actors)\n{text}"
        );
    }

    #[test]
    fn f10_every_row_reconverges_identically() {
        let text = f10_state_sync().unwrap().to_string();
        assert!(
            !text.contains("false"),
            "a snapshot bootstrap diverged from replay:\n{text}"
        );
    }

    #[test]
    fn f9_chaotic_run_reconverges_and_abandons_nothing() {
        let text = f9_chaos().unwrap().to_string();
        let identical = text
            .lines()
            .find(|l| l.contains("state roots identical"))
            .unwrap()
            .to_string();
        assert!(identical.contains("true"), "{text}");
        let abandoned = text
            .lines()
            .find(|l| l.contains("pulls abandoned"))
            .unwrap()
            .to_string();
        let cols: Vec<&str> = abandoned.split('|').map(str::trim).collect();
        assert_eq!(cols[3], "0", "{text}");
    }

    #[test]
    fn f8_recovers_bit_identically_and_prunes() {
        let text = f8_crash_recovery().unwrap().to_string();
        assert!(!text.contains("false"), "a recovery check failed:\n{text}");
        let pruned = text
            .lines()
            .find(|l| l.contains("gc pruned_blobs"))
            .unwrap()
            .to_string();
        assert!(
            !pruned.contains(" 0 "),
            "the GC window must actually prune: {pruned}"
        );
    }

    #[test]
    fn f7_production_reads_the_memoized_verdicts() {
        let t = f7_sig_cache().unwrap();
        let text = t.to_string();
        let last = text
            .lines()
            .rev()
            .find(|l| l.contains("blocks produced"))
            .unwrap()
            .to_string();
        // 100 admissions: 100 misses; production hits all 100 off the
        // memoized verdicts.
        let cells: Vec<&str> = last.split('|').map(str::trim).collect();
        assert_eq!(cells[2..4], ["100", "100"], "unexpected F7 row: {last}");
    }

    #[test]
    fn f6_snapshots_share_unchanged_chunks() {
        let t = f6_snapshot_sharing().unwrap();
        let text = t.to_string();
        // Structural sharing with the HAMT ledger: unchanged account
        // subtrees are not even re-put (the persist prunes them), so the
        // evidence is per-persist blob growth staying O(touched path) —
        // far below the ~15+ blobs a from-scratch persist of this state
        // writes — and unchanged fixed chunks are skipped the same way, so
        // no put is ever a dedup hit.
        let last = text
            .lines()
            .rev()
            .find(|l| l.contains("transfer"))
            .expect("final row present");
        let cols: Vec<&str> = last.split('|').map(str::trim).collect();
        let persists: u64 = cols[2].parse().unwrap();
        let blobs: u64 = cols[3].parse().unwrap();
        let hits: u64 = cols[5].parse().unwrap();
        assert!(
            blobs < persists * 7,
            "snapshots must share structure: {blobs} blobs over {persists} persists\n{text}"
        );
        assert_eq!(hits, 0, "unchanged chunks are skipped, not re-put\n{text}");
    }

    #[test]
    fn f2_messages_batch_into_period_checkpoints() {
        let t = f2_windows().unwrap();
        // At least two checkpoints carried messages (epochs 3,7 -> first
        // window; 12,18 -> second; 23 -> third).
        let text = t.to_string();
        let carrying: usize = text
            .lines()
            .filter(|l| {
                let cols: Vec<&str> = l.split('|').collect();
                cols.len() > 2
                    && cols[2]
                        .trim()
                        .parse::<u64>()
                        .map(|v| v > 0)
                        .unwrap_or(false)
            })
            .count();
        assert!(carrying >= 2, "{text}");
    }
}
