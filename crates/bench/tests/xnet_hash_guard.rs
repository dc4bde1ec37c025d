//! Tier-1 work guard for the cross-net path: how much SHA-256 work one
//! applied cross-net message costs the whole hierarchy.
//!
//! A tree(2,1) hierarchy — the root and two siblings — carries bottom-up
//! traffic (child → root) and path traffic (child → sibling, turning
//! around at the root), so every hand-off of a cross-msg group is on the
//! measured path: the cut, the content registry, push and pull, the
//! resolver cache, the cross-msg pool, the `ApplyBottomUp` /
//! `CommitTurnaround` implicit messages, block sealing and the block's
//! append to its own chain. A group is hashed where it is cut and once
//! per node it reaches over the network, a block payload where it is
//! sealed — not again at each hand-off (DESIGN.md §10, "hash-once rule").
//!
//! The ceiling is the measured count plus 2 %, on
//! [`hc_types::crypto::sha256_block_count`], like its sibling
//! `msg_pipeline_guard.rs`; and like it this file holds a single `#[test]`
//! so the process-wide counter sees no other test's hashing.

use hc_core::HierarchyRuntime;
use hc_sim::TopologyBuilder;
use hc_types::crypto::sha256_block_count;
use hc_types::{SubnetId, TokenAmount};

const ROUNDS: usize = 6;
const SENDERS: usize = 8;

/// Cross-net messages the workload gets applied: per round every sender
/// of both children sends one message up (one apply at the root) and one
/// across (one apply at the sibling).
const APPLIED: u64 = (ROUNDS * 2 * SENDERS * 2) as u64;

/// Measured: 13 682 compressions for the 192 applied messages (71.26 per
/// applied message, the blocks of every quiescence drain included; it was
/// 21 192 = 110.38 before groups and block payloads carried their
/// digests), plus 2 %.
const MAX_SHA256_BLOCKS: u64 = 13_955;

fn cross_applied(rt: &HierarchyRuntime) -> u64 {
    rt.subnets()
        .map(|s| rt.node(s).expect("listed subnet").stats().cross_applied)
        .sum()
}

#[test]
fn a_cross_net_message_is_hashed_once_per_hop_not_once_per_hand_off() {
    let mut topo = TopologyBuilder::new()
        .users_per_subnet(SENDERS)
        .checkpoint_period(5)
        .tree(2, 1)
        .unwrap();
    let root_users = topo.users[&SubnetId::root()].clone();
    let children: Vec<_> = topo.subnets.iter().map(|s| topo.users[s].clone()).collect();
    let rt = &mut topo.rt;

    let applied_before = cross_applied(rt);
    let blocks_before = sha256_block_count();
    let one = TokenAmount::from_whole(1);
    for _ in 0..ROUNDS {
        for (side, senders) in children.iter().enumerate() {
            let siblings = &children[1 - side];
            for (i, sender) in senders.iter().enumerate() {
                rt.cross_transfer_lazy(sender, &root_users[i], one).unwrap();
                rt.cross_transfer_lazy(sender, &siblings[i], one).unwrap();
            }
        }
        rt.run_until_quiescent(10_000).unwrap();
    }
    let blocks = sha256_block_count() - blocks_before;
    let applied = cross_applied(rt) - applied_before;
    hc_core::audit_quiescent(rt).unwrap();

    eprintln!(
        "xnet tree(2,1): {blocks} sha256 blocks for {applied} applied cross-net \
         messages ({:.2} per message)",
        blocks as f64 / applied as f64
    );
    assert_eq!(applied, APPLIED, "every message sent was applied");
    assert!(
        blocks <= MAX_SHA256_BLOCKS,
        "{blocks} sha256 blocks ({:.2} per applied message), ceiling {MAX_SHA256_BLOCKS}",
        blocks as f64 / applied as f64
    );
}
