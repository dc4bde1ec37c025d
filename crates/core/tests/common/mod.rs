//! Helpers shared by the `hc-core` integration suites: the per-subnet
//! fingerprint every twin-run comparison (recovered vs crashed, wave vs
//! sequential, rejoined vs never-crashed) is made on.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use hc_core::{HierarchyRuntime, NodeStats};
use hc_types::{CanonicalEncode, ChainEpoch, Cid, Nonce, SubnetId};

/// The node-local cursors a committed block advances besides the chain
/// itself: where the cross-net conversation with the parent stands and
/// what is queued for the next block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursors {
    pub next_top_down_nonce: Nonce,
    pub pending_top_down: usize,
    pub pending_bottom_up: usize,
    pub pending_checkpoints: usize,
    pub pending_turnarounds: usize,
}

/// Everything consensus-critical about one subnet plus the bookkeeping a
/// committed block leaves on its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubnetFingerprint {
    pub subnet: SubnetId,
    pub head: Cid,
    pub head_epoch: ChainEpoch,
    pub state_root: Cid,
    pub stats: NodeStats,
    pub cursors: Cursors,
    /// Virtual time of the next scheduled block. A rejoined node is
    /// rescheduled from its catch-up time, so rejoin comparisons override
    /// this field; recovery comparisons keep it.
    pub next_block_at_ms: u64,
    /// CIDs of the subnet's archived checkpoints, oldest first.
    pub checkpoints: Vec<Cid>,
}

/// The fingerprint of one subnet. Cross-checks the head's committed state
/// root against a from-scratch recompute over the node's state content.
pub fn subnet_fingerprint(rt: &HierarchyRuntime, subnet: &SubnetId) -> SubnetFingerprint {
    let node = rt.node(subnet).unwrap();
    let head = node.chain().head();
    let state_root = node.chain().get(&head).unwrap().header.state_root;
    assert_eq!(
        node.state().recompute_root(),
        state_root,
        "incremental root diverged from content for {subnet}"
    );
    let checkpoints = rt
        .checkpoint_archive()
        .history(subnet)
        .iter()
        .map(|e| Cid::digest(&e.signed.checkpoint.canonical_bytes()))
        .collect();
    SubnetFingerprint {
        subnet: subnet.clone(),
        head,
        head_epoch: node.chain().head_epoch(),
        state_root,
        stats: node.stats(),
        cursors: Cursors {
            next_top_down_nonce: node.cross_pool().next_top_down_nonce(),
            pending_top_down: node.cross_pool().pending_top_down(),
            pending_bottom_up: node.cross_pool().pending_bottom_up(),
            pending_checkpoints: node.pending_checkpoint_count(),
            pending_turnarounds: node.pending_turnaround_count(),
        },
        next_block_at_ms: node.next_block_at_ms(),
        checkpoints,
    }
}

/// The fingerprint of every subnet, in subnet order.
pub fn fingerprint(rt: &HierarchyRuntime) -> Vec<SubnetFingerprint> {
    rt.subnets().map(|s| subnet_fingerprint(rt, s)).collect()
}

/// Field-wise `now - then`: the counters accumulated since `then` was
/// sampled on the same node.
pub fn stats_since(now: NodeStats, then: NodeStats) -> NodeStats {
    NodeStats {
        blocks: now.blocks - then.blocks,
        user_msgs_ok: now.user_msgs_ok - then.user_msgs_ok,
        user_msgs_failed: now.user_msgs_failed - then.user_msgs_failed,
        cross_applied: now.cross_applied - then.cross_applied,
        checkpoints_committed: now.checkpoints_committed - then.checkpoints_committed,
        checkpoint_bytes: now.checkpoint_bytes - then.checkpoint_bytes,
        checkpoints_cut: now.checkpoints_cut - then.checkpoints_cut,
        gas_used: now.gas_used - then.gas_used,
        total_interval_ms: now.total_interval_ms - then.total_interval_ms,
        orphaned: now.orphaned - then.orphaned,
        extra_rounds: now.extra_rounds - then.extra_rounds,
        state_persists: now.state_persists - then.state_persists,
    }
}
