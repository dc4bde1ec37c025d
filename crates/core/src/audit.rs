//! Hierarchy-wide supply and firewall audits.
//!
//! These checks make the paper's economic claims *observable*:
//!
//! * **Escrow coverage** (always) — every SCA holds at least the frozen
//!   collateral plus the circulating supply of each of its children, so a
//!   child can never withdraw unbacked value.
//! * **Per-edge backing** (at quiescence) — the circulating supply a
//!   parent records for a child equals the child's *live* supply (tokens
//!   minted into it minus tokens burned leaving it), i.e. the pegged
//!   sidechain accounting balances exactly.
//! * **Global conservation** (always) — the rootnet's gross supply equals
//!   what was minted at genesis/faucet; cross-net traffic never creates or
//!   destroys root tokens.
//!
//! Beside them, debug builds check the commitment rather than the economy:
//! every SCA's carried checkpoint-window digest is the digest of the window
//! it holds.

use hc_types::{Address, SubnetId, TokenAmount};

use crate::runtime::HierarchyRuntime;

/// Per-subnet supply snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupplyReport {
    /// The subnet.
    pub subnet: SubnetId,
    /// Sum of every account balance (incl. system actors and burnt funds).
    pub gross: TokenAmount,
    /// Balance of the burnt-funds actor.
    pub burnt: TokenAmount,
    /// Balance of the SCA (escrow for children + pending releases).
    pub escrow: TokenAmount,
    /// `gross - burnt`: the value actually alive in the subnet.
    pub live: TokenAmount,
    /// Σ circulating supply recorded for this subnet's children.
    pub children_circ: TokenAmount,
    /// Σ collateral frozen for this subnet's children.
    pub children_collateral: TokenAmount,
}

/// Computes the supply snapshot of one subnet.
pub fn supply_report(rt: &HierarchyRuntime, subnet: &SubnetId) -> Option<SupplyReport> {
    let node = rt.node(subnet)?;
    let tree = node.state();
    let gross = tree.total_supply();
    let burnt = tree
        .accounts()
        .get(Address::BURNT_FUNDS)
        .map(|a| a.balance)
        .unwrap_or(TokenAmount::ZERO);
    let escrow = tree
        .accounts()
        .get(Address::SCA)
        .map(|a| a.balance)
        .unwrap_or(TokenAmount::ZERO);
    let children_circ = tree.sca().subnets().map(|s| s.circ_supply).sum();
    let children_collateral = tree.sca().subnets().map(|s| s.collateral).sum();
    Some(SupplyReport {
        subnet: subnet.clone(),
        gross,
        burnt,
        escrow,
        live: gross - burnt,
        children_circ,
        children_collateral,
    })
}

/// Checks the always-true invariants: escrow coverage in every subnet and
/// global conservation at the root.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn audit_escrow(rt: &HierarchyRuntime) -> Result<(), String> {
    for subnet in rt.subnets() {
        let report = supply_report(rt, subnet).expect("subnet exists");
        let needed = report.children_circ + report.children_collateral;
        if report.escrow < needed {
            return Err(format!(
                "escrow violation in {subnet}: SCA holds {} but children need {} \
                 ({} circulating + {} collateral)",
                report.escrow, needed, report.children_circ, report.children_collateral
            ));
        }
    }
    let root_report = supply_report(rt, &SubnetId::root()).expect("root exists");
    if root_report.gross != rt.root_minted() {
        return Err(format!(
            "conservation violation at root: gross supply {} != minted {}",
            root_report.gross,
            rt.root_minted()
        ));
    }
    Ok(())
}

/// Checks that every subnet's SCA carries the digest of the checkpoint
/// window it holds: the running window digest the state root commits to
/// equals one SHA-256 over the window's encoding. Debug builds run it after
/// every wave. The hashing done here is a self-check, not the system's
/// work, so it is left out of [`hc_types::crypto::sha256_block_count`] and
/// a debug build counts what a release build does.
///
/// # Errors
///
/// Returns a description naming the first subnet whose digest is stale.
#[cfg(debug_assertions)]
pub(crate) fn audit_window_digests(rt: &HierarchyRuntime) -> Result<(), String> {
    use hc_types::crypto::{sha256, uncounted};
    uncounted(|| {
        for subnet in rt.subnets() {
            let sca = rt.node(subnet).expect("subnet exists").state().sca();
            let window = sca.window_encoding();
            if sca.window_digest() != sha256(&window) {
                return Err(format!(
                    "window digest violation in {subnet}: the SCA's carried digest is not \
                     the hash of its {}-byte window",
                    window.len()
                ));
            }
        }
        Ok(())
    })
}

/// Checks the quiescent-state invariant: for every parent→child edge, the
/// recorded circulating supply equals the child's live supply. Only
/// meaningful when [`HierarchyRuntime::all_quiescent`] holds (no value in
/// flight).
///
/// # Errors
///
/// Returns a description of the first violated edge, or of non-quiescence.
pub fn audit_quiescent(rt: &HierarchyRuntime) -> Result<(), String> {
    if !rt.all_quiescent() {
        return Err("hierarchy is not quiescent: value is still in flight".into());
    }
    audit_escrow(rt)?;
    for subnet in rt.subnets() {
        let Some(parent) = subnet.parent() else {
            continue;
        };
        let parent_node = rt.node(&parent).expect("parent exists");
        let Some(info) = parent_node.state().sca().subnet(subnet) else {
            continue;
        };
        let report = supply_report(rt, subnet).expect("subnet exists");
        if info.circ_supply != report.live {
            return Err(format!(
                "backing violation on {parent} -> {subnet}: parent records {} \
                 circulating but the child holds {} live",
                info.circ_supply, report.live
            ));
        }
    }
    Ok(())
}
