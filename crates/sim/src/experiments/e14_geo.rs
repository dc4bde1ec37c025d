//! E14 — geo-aware placement under region-scoped disasters.
//!
//! The PR-5 fault machinery injected faults by topic and subscriber; real
//! deployments fail by *place*. This experiment places a two-parent,
//! two-child hierarchy on a three-region geography (a trans-oceanic
//! latency/loss matrix under the base per-topic model) in two ways —
//! *co-located* (every subnet follows its parent into the root's region)
//! and *geo-spread* (round-robin across regions) — and drives the E2/E3
//! workloads (top-down and bottom-up transfers, periodic checkpoints)
//! through region-scoped disasters: a whole-region outage (every node in
//! the region crashed and blackholed, healed on schedule), an
//! inter-region partition, and a degraded trans-oceanic link.
//!
//! Measured per cell: post-heal top-down and bottom-up (checkpoint
//! settlement) latency, the delivered-latency histogram of the parent's
//! gossip topic (p50/p99), checkpoints committed at the root, and the
//! recovery counters. Every seed must *reconverge*: exact balances, clean
//! supply audits, every region-crashed node caught back up through
//! re-validated replay (exact state roots by construction), and a network
//! ledger with zero unaccounted messages.

use hc_actors::sa::SaConfig;
use hc_core::{
    audit_escrow, audit_quiescent, HierarchyRuntime, PlacementPolicy, RuntimeConfig, RuntimeError,
    SyncMode, UserHandle,
};
use hc_net::{FaultKind, FaultPlan, FaultRule, PartitionPolicy, RegionLink, RegionMap};
use hc_types::{SubnetId, TokenAmount};

use crate::metrics::measure_delivery;
use crate::table::{f2, yes_no, Table};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// The three regions of the E14 geography.
pub const E14_REGIONS: [&str; 3] = ["us-east", "eu-west", "ap-south"];

/// The disaster scenarios E14 sweeps.
pub const E14_SCENARIOS: [&str; 4] = ["none", "outage", "partition", "degrade"];

/// E14 parameters.
#[derive(Debug, Clone)]
pub struct E14Params {
    /// Placement policies compared (labelled `co-located` /
    /// `geo-spread` / `uniform` in the rows).
    pub placements: Vec<PlacementPolicy>,
    /// Disaster scenarios (subset of [`E14_SCENARIOS`]).
    pub scenarios: Vec<&'static str>,
    /// Seeds swept per cell; every seed must reconverge.
    pub seeds: Vec<u64>,
    /// Checkpoint period (epochs) of every subnet.
    pub checkpoint_period: u64,
}

impl Default for E14Params {
    fn default() -> Self {
        E14Params {
            placements: vec![PlacementPolicy::FollowParent, PlacementPolicy::RoundRobin],
            scenarios: E14_SCENARIOS.to_vec(),
            seeds: vec![11, 12, 13],
            checkpoint_period: 5,
        }
    }
}

/// One E14 cell: a (placement, scenario) pair aggregated over the seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Row {
    /// Placement label.
    pub placement: &'static str,
    /// Disaster scenario.
    pub scenario: &'static str,
    /// Seeds aggregated.
    pub seeds: usize,
    /// Mean post-heal top-down delivery latency, virtual ms.
    pub topdown_ms: f64,
    /// Mean post-heal bottom-up (checkpoint-settlement) latency,
    /// virtual ms.
    pub bottomup_ms: f64,
    /// Mean p50 of the parent-topic delivered-latency histogram, ms.
    pub gossip_p50_ms: f64,
    /// Mean p99 of the parent-topic delivered-latency histogram, ms.
    pub gossip_p99_ms: f64,
    /// Mean checkpoints committed at the root over the run.
    pub checkpoints: f64,
    /// Nodes crashed by region outages, summed over the seeds.
    pub region_crashes: u64,
    /// Region outages fully healed, summed over the seeds.
    pub region_heals: u64,
    /// Member rejoins deferred behind a still-recovering parent, summed.
    pub deferred_rejoins: u64,
    /// Messages destroyed by region rules (partition drops + lossy-link
    /// losses), summed over the seeds — every one accounted in the
    /// [`hc_net::NetStats`] ledger, and the cell must reconverge anyway.
    pub region_dropped: u64,
    /// Every seed reconverged: exact balances, clean audits, all crashed
    /// members caught up through re-validated replay, zero unaccounted
    /// messages in the network ledger.
    pub converged: bool,
}

/// The E14 geography: three regions with an asymmetric-capable (here
/// symmetric) trans-oceanic latency/jitter/loss matrix layered under the
/// base per-topic model.
pub fn geography() -> RegionMap {
    let mut map = RegionMap::named(&E14_REGIONS);
    map.set_link_symmetric(
        "us-east",
        "eu-west",
        RegionLink {
            extra_delay_ms: 40,
            jitter_ms: 10,
            loss_rate: 0.0,
            delay_factor_pct: 120,
        },
    );
    map.set_link_symmetric(
        "us-east",
        "ap-south",
        RegionLink {
            extra_delay_ms: 110,
            jitter_ms: 20,
            loss_rate: 0.01,
            delay_factor_pct: 150,
        },
    );
    map.set_link_symmetric(
        "eu-west",
        "ap-south",
        RegionLink {
            extra_delay_ms: 80,
            jitter_ms: 15,
            loss_rate: 0.01,
            delay_factor_pct: 140,
        },
    );
    map
}

fn placement_label(p: PlacementPolicy) -> &'static str {
    match p {
        PlacementPolicy::Uniform => "uniform",
        PlacementPolicy::RoundRobin => "geo-spread",
        PlacementPolicy::FollowParent => "co-located",
    }
}

/// Root + two parents + one child each, placed by `placement` on the E14
/// geography, plus the users the workload drives.
struct GeoWorld {
    rt: HierarchyRuntime,
    alice: UserHandle,
    /// User in `c1` (the deep endpoint of the measured legs).
    bob: UserHandle,
    /// User in `c2` (the outage target's deep endpoint).
    carol: UserHandle,
    p1: SubnetId,
    c1: SubnetId,
    c2: SubnetId,
}

fn build(
    placement: PlacementPolicy,
    seed: u64,
    checkpoint_period: u64,
) -> Result<GeoWorld, RuntimeError> {
    let mut config = RuntimeConfig {
        seed,
        placement,
        sync_mode: SyncMode::Snapshot,
        ..RuntimeConfig::default()
    };
    config.net.regions = geography();
    let sa = SaConfig {
        checkpoint_period,
        ..SaConfig::default()
    };
    let mut rt = HierarchyRuntime::new(config);
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000))?;
    let v1 = rt.create_user(&root, whole(100))?;
    let v2 = rt.create_user(&root, whole(100))?;

    // Boot order fixes the round-robin slots: p1, c1, p2, c2.
    let p1 = rt.spawn_subnet(&alice, sa.clone(), whole(10), &[(v1, whole(5))])?;
    let u1 = rt.create_user(&p1, TokenAmount::ZERO)?;
    let w1 = rt.create_user(&p1, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &u1, whole(100))?;
    rt.cross_transfer(&alice, &w1, whole(50))?;
    rt.run_until_quiescent(20_000)?;
    let c1 = rt.spawn_subnet(&u1, sa.clone(), whole(10), &[(w1, whole(5))])?;

    let p2 = rt.spawn_subnet(&alice, sa.clone(), whole(10), &[(v2, whole(5))])?;
    let u2 = rt.create_user(&p2, TokenAmount::ZERO)?;
    let w2 = rt.create_user(&p2, TokenAmount::ZERO)?;
    rt.cross_transfer(&alice, &u2, whole(100))?;
    rt.cross_transfer(&alice, &w2, whole(50))?;
    rt.run_until_quiescent(20_000)?;
    let c2 = rt.spawn_subnet(&u2, sa, whole(10), &[(w2, whole(5))])?;

    let bob = rt.create_user(&c1, TokenAmount::ZERO)?;
    let carol = rt.create_user(&c2, TokenAmount::ZERO)?;
    rt.run_until_quiescent(20_000)?;
    Ok(GeoWorld {
        rt,
        alice,
        bob,
        carol,
        p1,
        c1,
        c2,
    })
}

/// Injects `scenario` as a `[now+400, now+5400)` window of region-scoped
/// fault rules, resolved against the *actual* placements of this run (so
/// a co-located hierarchy is — correctly — immune to inter-region rules).
/// Returns the heal time.
fn inject(rt: &mut HierarchyRuntime, scenario: &str, c1: &SubnetId, c2: &SubnetId) -> u64 {
    let now = rt.now_ms();
    let from_ms = now + 400;
    let heal_ms = now + 5_400;
    let region_of = |s: &SubnetId| rt.region_of_subnet(s).unwrap_or(E14_REGIONS[0]).to_owned();
    let (a, b) = (region_of(&SubnetId::root()), region_of(c1));
    let degrade = |from: &String, to: &String| FaultKind::RegionDegrade {
        from: from.clone(),
        to: to.clone(),
        extra_delay_ms: 150,
        loss_rate: 0.25,
    };
    let kinds = match scenario {
        "outage" => vec![FaultKind::RegionOutage {
            region: region_of(c2),
        }],
        "partition" if a != b => vec![FaultKind::RegionPartition {
            name: "oceanic-cut".into(),
            a,
            b,
            policy: PartitionPolicy::Drop,
        }],
        "degrade" if a != b => vec![degrade(&a, &b), degrade(&b, &a)],
        _ => Vec::new(),
    };
    let rules = kinds
        .into_iter()
        .map(|kind| FaultRule::new(from_ms, heal_ms, kind));
    rt.extend_faults(FaultPlan {
        rules: rules.collect(),
    });
    heal_ms
}

/// One seed's measurements plus its reconvergence verdict.
struct SeedOutcome {
    topdown_ms: u64,
    bottomup_ms: u64,
    gossip_p50_ms: u64,
    gossip_p99_ms: u64,
    checkpoints: u64,
    region_crashes: u64,
    region_heals: u64,
    deferred_rejoins: u64,
    region_dropped: u64,
    converged: bool,
}

fn run_seed(
    placement: PlacementPolicy,
    scenario: &'static str,
    seed: u64,
    checkpoint_period: u64,
) -> Result<SeedOutcome, RuntimeError> {
    let mut w = build(placement, seed, checkpoint_period)?;
    let root = SubnetId::root();
    let ckpts_before =
        w.rt.node(&root)
            .map_or(0, |n| n.stats().checkpoints_committed);

    let heal_ms = inject(&mut w.rt, scenario, &w.c1, &w.c2);

    // E2-style workload crossing the disaster window: top-down into both
    // children, a bottom-up leg out of c1 (which pays the checkpoint
    // wait, the E3 load).
    w.rt.cross_transfer(&w.alice, &w.bob, whole(40))?;
    w.rt.cross_transfer(&w.alice, &w.carol, whole(30))?;
    w.rt.run_until_quiescent(30_000)?;
    w.rt.cross_transfer(&w.bob, &w.alice, whole(7))?;
    w.rt.run_until_quiescent(30_000)?;

    // A further bottom-up leg submitted *inside* the fault window (the
    // legs above quiesce at ~+4.1s virtual, past the +0.4s onset but
    // before the +5.4s heal): its fund certificate publishes on the root
    // topic mid-disaster, so an inter-region partition or degrade
    // actually intersects traffic instead of expiring unobserved. Under
    // a co-located outage the sender's subnet is region-crashed and has
    // nothing to submit, so the leg is conditionally skipped.
    let mid_leg = if w.rt.is_crashed(&w.c1) {
        0
    } else {
        w.rt.cross_transfer(&w.bob, &w.alice, whole(1))?;
        w.rt.run_until_quiescent(30_000)?;
        1
    };

    // Make sure the heal time has passed (a fully quiescent hierarchy
    // stops advancing on its own), then let the recovery wave finish.
    let mut guard = 0u32;
    while w.rt.now_ms() < heal_ms {
        w.rt.step()?;
        guard += 1;
        if guard > 200_000 {
            return Err(RuntimeError::Execution(
                "virtual time failed to reach the heal point".into(),
            ));
        }
    }
    w.rt.run_until_quiescent(30_000)?;

    // Post-heal measured legs: top-down into c2 (the healed region) and
    // bottom-up out of c1 — settlement must work *after* the disaster.
    let td = measure_delivery(&mut w.rt, &w.alice, &w.carol, whole(3), 20_000)?;
    w.rt.run_until_quiescent(10_000)?;
    let bu = measure_delivery(&mut w.rt, &w.bob, &w.alice, whole(2), 20_000)?;
    w.rt.run_until_quiescent(10_000)?;

    // Reconvergence oracle. Catch-up re-validates and re-executes every
    // missed block (a state-root mismatch aborts the replay), so
    // `catch_ups_completed == region_crashes` *is* the exact-root check
    // for every region-crashed member.
    let chaos = w.rt.chaos_stats();
    let net = w.rt.net_stats();
    let ledger_reconciles = net.attempts
        == net.scheduled
            + net.dropped
            + net.partition_dropped
            + net.targeted_dropped
            + net.offline_dropped
            + net.region_dropped
            + net.region_lost;
    let subnets: Vec<SubnetId> = w.rt.subnets().cloned().collect();
    let all_live = subnets
        .iter()
        .all(|s| !w.rt.is_crashed(s) && !w.rt.is_catching_up(s));
    let no_abandons = subnets.iter().all(|s| {
        w.rt.node(s)
            .is_some_and(|n| n.resolver().stats().pulls_abandoned == 0)
    });
    let converged = audit_escrow(&w.rt).is_ok()
        && audit_quiescent(&w.rt).is_ok()
        && w.rt.balance(&w.bob) == whole(40 - 7 - mid_leg - 2)
        && w.rt.balance(&w.carol) == whole(30 + 3)
        && chaos.region_heals == chaos.region_outages
        && chaos.catch_ups_completed == chaos.region_crashes
        && ledger_reconciles
        && all_live
        && no_abandons;

    // Certificates for bottom-up transfers publish on the *destination*
    // topic, so the root topic is where cross-region gossip latency shows
    // up (c1 → root crosses an ocean under geo-spread).
    let gossip =
        w.rt.topic_latency(&root)
            .or_else(|| w.rt.topic_latency(&w.p1))
            .or_else(|| w.rt.topic_latency(&w.c1));
    Ok(SeedOutcome {
        topdown_ms: td.latency_ms,
        bottomup_ms: bu.latency_ms,
        gossip_p50_ms: gossip.map_or(0, |g| g.p50_ms),
        gossip_p99_ms: gossip.map_or(0, |g| g.p99_ms),
        checkpoints: w
            .rt
            .node(&root)
            .map_or(0, |n| n.stats().checkpoints_committed)
            - ckpts_before,
        region_crashes: chaos.region_crashes,
        region_heals: chaos.region_heals,
        deferred_rejoins: chaos.region_heals_deferred,
        region_dropped: net.region_dropped + net.region_lost,
        converged,
    })
}

/// Runs the E14 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e14_run(params: &E14Params) -> Result<Vec<E14Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &placement in &params.placements {
        for &scenario in &params.scenarios {
            let mut outcomes = Vec::new();
            for &seed in &params.seeds {
                outcomes.push(run_seed(
                    placement,
                    scenario,
                    seed,
                    params.checkpoint_period,
                )?);
            }
            let n = outcomes.len().max(1) as f64;
            let mean = |f: &dyn Fn(&SeedOutcome) -> u64| {
                outcomes.iter().map(|o| f(o) as f64).sum::<f64>() / n
            };
            rows.push(E14Row {
                placement: placement_label(placement),
                scenario,
                seeds: outcomes.len(),
                topdown_ms: mean(&|o| o.topdown_ms),
                bottomup_ms: mean(&|o| o.bottomup_ms),
                gossip_p50_ms: mean(&|o| o.gossip_p50_ms),
                gossip_p99_ms: mean(&|o| o.gossip_p99_ms),
                checkpoints: mean(&|o| o.checkpoints),
                region_crashes: outcomes.iter().map(|o| o.region_crashes).sum(),
                region_heals: outcomes.iter().map(|o| o.region_heals).sum(),
                deferred_rejoins: outcomes.iter().map(|o| o.deferred_rejoins).sum(),
                region_dropped: outcomes.iter().map(|o| o.region_dropped).sum(),
                converged: outcomes.iter().all(|o| o.converged),
            });
        }
    }
    Ok(rows)
}

/// Renders E14 rows (figure F14).
pub fn table(rows: &[E14Row]) -> Table {
    let mut t = Table::new(
        "E14/F14: geo placement under region disasters — settlement latency and reconvergence",
        &[
            "placement",
            "disaster",
            "seeds",
            "topdown ms",
            "bottomup ms",
            "gossip p50",
            "gossip p99",
            "ckpts",
            "crashes",
            "heals",
            "deferred",
            "rgn-drop",
            "reconverged",
        ],
    );
    for r in rows {
        t.row(&[
            r.placement.to_string(),
            r.scenario.to_string(),
            r.seeds.to_string(),
            f2(r.topdown_ms),
            f2(r.bottomup_ms),
            f2(r.gossip_p50_ms),
            f2(r.gossip_p99_ms),
            f2(r.checkpoints),
            r.region_crashes.to_string(),
            r.region_heals.to_string(),
            r.deferred_rejoins.to_string(),
            r.region_dropped.to_string(),
            yes_no(r.converged),
        ]);
    }
    t.note(
        "co-located = FollowParent (root's region), geo-spread = RoundRobin; \
         disasters scoped to the run's actual placements, heal at +5.4s",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> E14Params {
        E14Params {
            scenarios: vec!["none", "outage"],
            seeds: vec![11],
            ..E14Params::default()
        }
    }

    #[test]
    fn geo_spread_pays_latency_and_outages_reconverge() {
        let rows = e14_run(&quick()).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.converged, "cell must reconverge: {r:?}");
        }
        let get = |p: &str, s: &str| {
            rows.iter()
                .find(|r| r.placement == p && r.scenario == s)
                .unwrap()
        };
        // Geography is real: spreading across regions costs gossip
        // latency (certificates cross an ocean to reach the root topic)
        // relative to co-location on the same seed.
        assert!(
            get("geo-spread", "none").gossip_p50_ms > get("co-located", "none").gossip_p50_ms,
            "{rows:?}"
        );
        // The outage crashed someone, and every crash healed.
        let outage = get("geo-spread", "outage");
        assert!(outage.region_crashes >= 1, "{outage:?}");
        assert_eq!(outage.region_heals, 1, "{outage:?}");
        let co_outage = get("co-located", "outage");
        assert!(co_outage.region_crashes >= co_outage.region_heals);
    }

    #[test]
    fn e14_is_bit_identical_across_runs() {
        let params = E14Params {
            scenarios: vec!["outage"],
            seeds: vec![11],
            ..E14Params::default()
        };
        let a = e14_run(&params).unwrap();
        let b = e14_run(&params).unwrap();
        assert_eq!(a, b);
    }
}
