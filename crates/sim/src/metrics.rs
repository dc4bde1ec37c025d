//! Virtual-time measurement helpers.

use hc_core::{HierarchyRuntime, RuntimeError, UserHandle};
use hc_types::TokenAmount;

/// What [`measure_delivery`] observed for one cross-net transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryMeasurement {
    /// Virtual milliseconds from source-side commit to destination credit.
    pub latency_ms: u64,
    /// Destination-chain epochs that elapsed while the message was in
    /// flight.
    pub dest_epochs: u64,
    /// Hierarchy-wide blocks produced while the message was in flight.
    pub blocks: u64,
}

/// Sends `amount` from `from` to `to` and steps the hierarchy until the
/// destination balance increases by exactly `amount`, measuring the
/// delivery latency in virtual time.
///
/// # Errors
///
/// Fails if the transfer cannot be committed or does not arrive within
/// `max_blocks`.
pub fn measure_delivery(
    rt: &mut HierarchyRuntime,
    from: &UserHandle,
    to: &UserHandle,
    amount: TokenAmount,
    max_blocks: usize,
) -> Result<DeliveryMeasurement, RuntimeError> {
    let balance_before = rt.balance(to);
    let expected = balance_before + amount;
    let dest_epoch_before = rt
        .node(&to.subnet)
        .ok_or_else(|| RuntimeError::UnknownSubnet(to.subnet.clone()))?
        .chain()
        .head_epoch();

    rt.cross_transfer(from, to, amount)?;
    let t0 = rt.now_ms();

    let mut blocks = 0u64;
    while rt.balance(to) < expected {
        if blocks as usize >= max_blocks {
            return Err(RuntimeError::Execution(format!(
                "transfer did not arrive within {max_blocks} blocks"
            )));
        }
        rt.step()?;
        blocks += 1;
    }
    let dest_epoch_after = rt.node(&to.subnet).unwrap().chain().head_epoch();
    Ok(DeliveryMeasurement {
        latency_ms: rt.now_ms() - t0,
        dest_epochs: dest_epoch_after - dest_epoch_before,
        blocks,
    })
}

/// Rides a fault window out: steps until virtual time passes `heal_ms` (a
/// quiescent hierarchy does not advance on its own), then runs to
/// quiescence, which waits for every crashed node to rejoin and catch up.
///
/// # Errors
///
/// Fails when 200 000 steps do not reach `heal_ms`; propagates step
/// failures.
pub fn ride_out(rt: &mut HierarchyRuntime, heal_ms: u64) -> Result<(), RuntimeError> {
    let mut guard = 0u32;
    while rt.now_ms() < heal_ms {
        rt.step()?;
        guard += 1;
        if guard > 200_000 {
            return Err(RuntimeError::Execution(
                "virtual time failed to reach the heal point".into(),
            ));
        }
    }
    rt.run_until_quiescent(30_000)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    #[test]
    fn top_down_delivery_is_measured() {
        let mut topo = TopologyBuilder::new().users_per_subnet(1).flat(1).unwrap();
        let from = topo.users[&hc_types::SubnetId::root()][0].clone();
        let to = topo.users[&topo.subnets[0]][0].clone();
        let m = measure_delivery(
            &mut topo.rt,
            &from,
            &to,
            TokenAmount::from_atto(500),
            10_000,
        )
        .unwrap();
        assert!(m.latency_ms > 0);
        assert!(m.blocks > 0);
    }

    #[test]
    fn bottom_up_is_slower_than_top_down() {
        let mut topo = TopologyBuilder::new().users_per_subnet(1).flat(1).unwrap();
        let root_user = topo.users[&hc_types::SubnetId::root()][0].clone();
        let child_user = topo.users[&topo.subnets[0]][0].clone();
        let td = measure_delivery(
            &mut topo.rt,
            &root_user,
            &child_user,
            TokenAmount::from_atto(500),
            10_000,
        )
        .unwrap();
        let bu = measure_delivery(
            &mut topo.rt,
            &child_user,
            &root_user,
            TokenAmount::from_atto(100),
            10_000,
        )
        .unwrap();
        // Bottom-up waits for a checkpoint window; top-down does not.
        assert!(
            bu.latency_ms > td.latency_ms,
            "bottom-up {} <= top-down {}",
            bu.latency_ms,
            td.latency_ms
        );
    }
}
