//! E8 — collateral lifecycle and slashing (paper §III-B/C).
//!
//! Walks one subnet through its economic lifecycle: registration, a
//! validator joining and leaving, an equivocation fraud proof slashing the
//! collateral into inactivity, recovery by topping up, a state snapshot
//! via the SCA `save` function, and finally killing the subnet.

use hc_actors::SubnetStatus;
use hc_core::RuntimeError;
use hc_state::Method;
use hc_types::{Address, Cid, SubnetId, TokenAmount};

use crate::table::Table;
use crate::topology::TopologyBuilder;

/// E8 parameters.
#[derive(Debug, Clone)]
pub struct E8Params {
    /// Registration collateral, whole tokens.
    pub collateral: u64,
    /// Validator stake, whole tokens.
    pub stake: u64,
}

impl Default for E8Params {
    fn default() -> Self {
        E8Params {
            collateral: 10,
            stake: 5,
        }
    }
}

/// One lifecycle step of E8.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Row {
    /// Step label.
    pub step: &'static str,
    /// Collateral frozen after the step, whole tokens.
    pub collateral: u64,
    /// Subnet status after the step.
    pub status: SubnetStatus,
    /// Burnt funds on the parent after the step, whole tokens.
    pub burnt: u64,
}

/// Runs the E8 lifecycle.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn e8_run(params: &E8Params) -> Result<Vec<E8Row>, RuntimeError> {
    let mut topo = TopologyBuilder::new().users_per_subnet(1).flat(1)?;
    let subnet = topo.subnets[0].clone();
    let banker = topo.banker.clone();
    let whole = TokenAmount::from_whole;
    let as_whole = |v: TokenAmount| (v.atto() / whole(1).atto()) as u64;

    let mut rows = Vec::new();
    let mut record = |rt: &hc_core::HierarchyRuntime, step: &'static str| {
        let root = rt.node(&SubnetId::root()).unwrap();
        let info = root.state().sca().subnet(&subnet).unwrap();
        let burnt = root
            .state()
            .accounts()
            .get(Address::BURNT_FUNDS)
            .map(|a| a.balance)
            .unwrap_or(TokenAmount::ZERO);
        rows.push(E8Row {
            step,
            collateral: as_whole(info.collateral),
            status: info.status,
            burnt: as_whole(burnt),
        });
    };

    record(&topo.rt, "registered + validator joined");

    // A second validator joins and later leaves.
    let v2 = topo.rt.create_user(&SubnetId::root(), whole(100))?;
    let sa = subnet.actor().expect("child has an SA");
    let key = v2.key.public();
    topo.rt
        .execute(&v2, sa, whole(params.stake), Method::JoinSubnet { key })?;
    record(&topo.rt, "second validator joined");

    topo.rt
        .execute(&v2, sa, TokenAmount::ZERO, Method::LeaveSubnet)?;
    record(&topo.rt, "second validator left");

    // Equivocation → fraud proof → slash to zero → inactive.
    let proof = topo.rt.forge_equivocation(&subnet)?;
    topo.rt.execute(
        &banker,
        Address::SCA,
        TokenAmount::ZERO,
        Method::ReportFraud {
            subnet: subnet.clone(),
            proof: Box::new(proof),
        },
    )?;
    record(&topo.rt, "fraud proof slashed");

    // Recovery: top the collateral back up.
    topo.rt.execute(
        &banker,
        Address::SCA,
        whole(params.collateral + params.stake),
        Method::AddCollateral {
            subnet: subnet.clone(),
        },
    )?;
    record(&topo.rt, "collateral topped up");

    // Persist a state snapshot before killing (fund-recovery path,
    // paper §III-C).
    let child_user = topo.users[&subnet][0].clone();
    let snapshot = topo
        .rt
        .node(&subnet)
        .map(|n| n.state().recompute_root())
        .unwrap_or(Cid::NIL);
    topo.rt.execute(
        &child_user,
        Address::SCA,
        TokenAmount::ZERO,
        Method::SaveState { state: snapshot },
    )?;
    record(&topo.rt, "state snapshot saved");

    // Kill: remaining collateral released.
    topo.rt
        .execute(&banker, sa, TokenAmount::ZERO, Method::KillSubnet)?;
    record(&topo.rt, "subnet killed");

    Ok(rows)
}

/// Renders E8 rows.
pub fn table(rows: &[E8Row]) -> Table {
    let mut t = Table::new(
        "E8: collateral lifecycle — join, slash, recover, save, kill",
        &["step", "collateral HC", "status", "burnt HC"],
    );
    for r in rows {
        t.row(&[
            r.step.to_string(),
            r.collateral.to_string(),
            r.status.to_string(),
            r.burnt.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_follows_the_paper() {
        let rows = e8_run(&E8Params::default()).unwrap();
        let get = |step: &str| rows.iter().find(|r| r.step == step).unwrap();
        assert_eq!(get("registered + validator joined").collateral, 15);
        assert_eq!(get("second validator joined").collateral, 20);
        assert_eq!(get("second validator left").collateral, 15);
        let slashed = get("fraud proof slashed");
        assert_eq!(slashed.collateral, 0);
        assert_eq!(slashed.status, SubnetStatus::Inactive);
        assert!(slashed.burnt >= 7, "half the slash is burned");
        let recovered = get("collateral topped up");
        assert_eq!(recovered.status, SubnetStatus::Active);
        assert_eq!(get("subnet killed").status, SubnetStatus::Killed);
        // The snapshot is registered in the SCA's save registry… of the
        // child; killing does not erase it.
    }
}
