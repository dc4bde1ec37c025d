//! E5 — atomic execution cost and fault behaviour (paper §IV-D).
//!
//! Measures the two-phase commit across subnets: commit latency as the
//! number of parties grows, and termination behaviour for each fault type
//! (divergent outputs, explicit abort, crash + timeout).

use hc_actors::AtomicExecStatus;
use hc_core::{AtomicOrchestrator, AtomicParty, PartyBehavior, RuntimeError};
use hc_state::Method;
use hc_types::TokenAmount;

use crate::table::Table;
use crate::topology::TopologyBuilder;

/// E5 parameters.
#[derive(Debug, Clone)]
pub struct E5Params {
    /// Party counts to sweep (each party lives in its own subnet).
    pub party_counts: Vec<usize>,
    /// Fault scenarios to run at the smallest party count.
    pub fault_scenarios: bool,
}

impl Default for E5Params {
    fn default() -> Self {
        E5Params {
            party_counts: vec![2, 3, 4, 6, 8],
            fault_scenarios: true,
        }
    }
}

/// One measured execution of E5.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Row {
    /// Number of parties / subnets involved.
    pub parties: usize,
    /// Scenario label.
    pub scenario: &'static str,
    /// Terminal status.
    pub status: AtomicExecStatus,
    /// Virtual milliseconds from initiation to applied termination.
    pub latency_ms: u64,
    /// Whether every honest party's state was consistent afterwards
    /// (swapped on commit, untouched on abort) and unlocked.
    pub consistent: bool,
}

fn run_scenario(
    parties_n: usize,
    scenario: &'static str,
    behavior_of_last: PartyBehavior,
) -> Result<E5Row, RuntimeError> {
    let mut topo = TopologyBuilder::new().users_per_subnet(1).flat(parties_n)?;
    let mut parties = Vec::new();
    for (i, s) in topo.subnets.clone().iter().enumerate() {
        let user = topo.users[s][0].clone();
        topo.rt.execute(
            &user,
            user.addr,
            TokenAmount::ZERO,
            Method::PutData {
                key: b"asset".as_slice().into(),
                data: vec![i as u8; 4].into(),
            },
        )?;
        let behavior = if i == parties_n - 1 {
            behavior_of_last
        } else {
            PartyBehavior::Honest
        };
        parties.push(AtomicParty::honest(user, b"asset").with_behavior(behavior));
    }

    let t0 = topo.rt.now_ms();
    let outcome = AtomicOrchestrator::run(
        &mut topo.rt,
        &parties,
        |inputs| {
            // Rotate the assets by one party.
            let mut out = inputs.to_vec();
            out.rotate_right(1);
            out
        },
        200_000,
    )?;
    let latency_ms = topo.rt.now_ms() - t0;

    // Consistency: on commit the first party holds the last party's asset;
    // on abort everyone holds their original; locks are always released.
    let read = |topo: &crate::topology::FlatTopology, p: &AtomicParty| {
        topo.rt
            .node(&p.user.subnet)
            .and_then(|n| n.state().accounts().get(p.user.addr).cloned())
    };
    let mut consistent = true;
    for (i, p) in parties.iter().enumerate() {
        let Some(acc) = read(&topo, p) else {
            consistent = false;
            break;
        };
        if acc.locked.contains(b"asset".as_slice()) && p.behavior == PartyBehavior::Honest {
            consistent = false;
        }
        let expected: Vec<u8> = match outcome.status {
            AtomicExecStatus::Committed => {
                vec![((i + parties_n - 1) % parties_n) as u8; 4]
            }
            _ => vec![i as u8; 4],
        };
        if acc.storage.get(b"asset".as_slice()) != Some(&expected) {
            consistent = false;
        }
    }

    Ok(E5Row {
        parties: parties_n,
        scenario,
        status: outcome.status,
        latency_ms,
        consistent,
    })
}

/// Runs the E5 sweep.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e5_run(params: &E5Params) -> Result<Vec<E5Row>, RuntimeError> {
    let mut rows = Vec::new();
    for &n in &params.party_counts {
        rows.push(run_scenario(n, "honest", PartyBehavior::Honest)?);
    }
    if params.fault_scenarios {
        let n = *params.party_counts.first().unwrap_or(&2);
        rows.push(run_scenario(n, "divergent", PartyBehavior::Divergent)?);
        rows.push(run_scenario(n, "abort", PartyBehavior::Abort)?);
        rows.push(run_scenario(n, "crash+timeout", PartyBehavior::Crash)?);
    }
    Ok(rows)
}

/// Renders E5 rows.
pub fn table(rows: &[E5Row]) -> Table {
    let mut t = Table::new(
        "E5: atomic execution latency and fault behaviour",
        &["parties", "scenario", "status", "latency ms", "consistent"],
    );
    for r in rows {
        t.row(&[
            r.parties.to_string(),
            r.scenario.to_string(),
            r.status.to_string(),
            r.latency_ms.to_string(),
            crate::table::yes_no(r.consistent),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_commits_and_faults_abort_consistently() {
        let rows = e5_run(&E5Params {
            party_counts: vec![2, 3],
            fault_scenarios: true,
        })
        .unwrap();
        assert!(rows.iter().all(|r| r.consistent), "{rows:#?}");
        assert!(rows
            .iter()
            .filter(|r| r.scenario == "honest")
            .all(|r| r.status == AtomicExecStatus::Committed));
        assert!(rows
            .iter()
            .filter(|r| r.scenario != "honest")
            .all(|r| r.status == AtomicExecStatus::Aborted));
    }
}
