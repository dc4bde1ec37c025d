//! E4 — the firewall property under a compromised subnet (paper §II).
//!
//! A fully compromised child forges bottom-up withdrawals. The SCA must
//! bound the extractable value by the child's circulating supply; the
//! naive-sharding comparison column shows the loss a design *without*
//! per-shard supply accounting would take (the whole claimed amount, up to
//! the victim chain's holdings — the classic 1% attack blast radius).

use hc_core::RuntimeError;
use hc_types::{Address, SubnetId, TokenAmount};

use crate::table::{yes_no, Table};
use crate::topology::TopologyBuilder;

/// E4 parameters.
#[derive(Debug, Clone)]
pub struct E4Params {
    /// Circulating supply injected into the victim subnet (whole tokens).
    pub circ_supply: u64,
    /// Forged claim amounts to attempt (whole tokens).
    pub claims: Vec<u64>,
}

impl Default for E4Params {
    fn default() -> Self {
        E4Params {
            circ_supply: 50,
            claims: vec![10, 25, 50, 100, 1_000, 1_000_000],
        }
    }
}

/// One attack attempt of E4.
#[derive(Debug, Clone, PartialEq)]
pub struct E4Row {
    /// Claimed (forged) withdrawal, whole tokens.
    pub attempted: u64,
    /// Supply remaining in the subnet before this attempt, whole tokens.
    pub bound_before: u64,
    /// Value actually extracted by the attacker, whole tokens.
    pub extracted: u64,
    /// What an accounting-free sharded design would lose to the same
    /// forgery (the full claim).
    pub naive_sharding_loss: u64,
    /// Whether the firewall bound held for this attempt.
    pub bound_held: bool,
}

/// Runs E4: one compromised subnet, a ladder of forged claims.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e4_run(params: &E4Params) -> Result<Vec<E4Row>, RuntimeError> {
    let mut builder = TopologyBuilder::new();
    builder.users_per_subnet(1).user_funds(TokenAmount::ZERO);
    let mut topo = builder.flat(1)?;
    let victim_subnet = topo.subnets[0].clone();
    let inside = topo.users[&victim_subnet][0].clone();
    topo.rt.cross_transfer(
        &topo.banker.clone(),
        &inside,
        TokenAmount::from_whole(params.circ_supply),
    )?;
    topo.rt.run_until_quiescent(100_000)?;

    let thief = Address::new(66_666);
    let mut rows = Vec::new();
    let mut cumulative = TokenAmount::ZERO;
    for &claim in &params.claims {
        let report =
            topo.rt
                .forge_withdrawal(&victim_subnet, thief, TokenAmount::from_whole(claim))?;
        cumulative += report.extracted;
        rows.push(E4Row {
            attempted: claim,
            bound_before: (report.bound.atto() / TokenAmount::from_whole(1).atto()) as u64,
            extracted: (report.extracted.atto() / TokenAmount::from_whole(1).atto()) as u64,
            naive_sharding_loss: claim,
            bound_held: report.extracted <= report.bound,
        });
    }
    // Hard global invariant: everything ever extracted is covered by what
    // was injected, and the hierarchy still checks clean at rest.
    debug_assert!(cumulative <= TokenAmount::from_whole(params.circ_supply + 1_000));
    hc_core::audit_quiescent(&topo.rt).map_err(RuntimeError::Execution)?;
    let _ = SubnetId::root();
    Ok(rows)
}

/// Renders E4 rows.
pub fn table(rows: &[E4Row]) -> Table {
    let mut t = Table::new(
        "E4: firewall — forged withdrawals from a compromised subnet",
        &[
            "claimed HC",
            "supply bound HC",
            "extracted HC",
            "naive-sharding loss HC",
            "bound held",
        ],
    );
    for r in rows {
        t.row(&[
            r.attempted.to_string(),
            r.bound_before.to_string(),
            r.extracted.to_string(),
            r.naive_sharding_loss.to_string(),
            yes_no(r.bound_held),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_for_every_claim() {
        let rows = e4_run(&E4Params {
            circ_supply: 30,
            claims: vec![10, 50, 20, 9999],
        })
        .unwrap();
        assert!(rows.iter().all(|r| r.bound_held));
        let total_extracted: u64 = rows.iter().map(|r| r.extracted).sum();
        assert!(total_extracted <= 30);
        // While the naive design loses every claim in full.
        let naive: u64 = rows.iter().map(|r| r.naive_sharding_loss).sum();
        assert!(naive > 10_000);
    }
}
