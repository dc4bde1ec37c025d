//! The snapshot state-sync experiment: what it costs a crashed node to
//! rejoin, as a function of how much history it missed.
//!
//! [`rejoin_cost`] builds a child subnet, drives its chain to a target
//! length with a state-size-constant workload, crashes the node, rejoins
//! it in the given [`SyncMode`], and measures the hash work between the
//! rejoin and catch-up completion on
//! [`hc_types::crypto::sha256_block_count`] — the same deterministic
//! work proxy the crypto-pipeline experiment uses, immune to machine
//! noise.
//!
//! The shape under test: full replay re-executes every missed block, so
//! its cost grows linearly with chain length; snapshot sync fetches the
//! checkpoint-anchored manifest closure (O(state), constant here) and
//! replays only the short post-anchor suffix, so its cost stays flat.
//! The speedup guard in `tests/state_sync_guard.rs` enforces both the
//! flatness and the headline ratio.

use hc_actors::sa::SaConfig;
use hc_core::{HierarchyRuntime, RuntimeConfig, SyncMode};
use hc_types::{ChainEpoch, Cid, SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Checkpoint period used throughout the experiment. Deliberately *not*
/// a divisor of any [`CHAIN_LENGTHS`] entry, so every snapshot rejoin
/// also replays a non-empty suffix.
pub const CHECKPOINT_PERIOD: u64 = 9;

/// Child chain lengths (in blocks) the experiment sweeps.
pub const CHAIN_LENGTHS: &[u64] = &[40, 80, 160];

/// What one crash–rejoin–catch-up cycle cost and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncCost {
    /// Child chain length at the moment of the crash.
    pub chain_blocks: u64,
    /// SHA-256 compression invocations between rejoin and catch-up
    /// completion (includes the root blocks produced while waiting).
    pub sha256_blocks: u64,
    /// Blocks re-executed by the catch-up replay.
    pub blocks_replayed: u64,
    /// Snapshot-closure blobs fetched over the resolver (0 under replay).
    pub blobs_synced: u64,
    /// Snapshot installs (1 when the bootstrap ran over the snapshot).
    pub snapshot_installs: u64,
    /// Child head state root after reconvergence — replay and snapshot
    /// runs of the same length must agree bit for bit.
    pub final_state_root: Cid,
}

/// Builds the world under `mode`, drives the child chain to `target`
/// blocks, and crashes the child. Returns the runtime, the child's id, and
/// the chain length at the crash.
fn build_crashed(target: u64, mode: SyncMode) -> (HierarchyRuntime, SubnetId, u64) {
    let sa = SaConfig {
        checkpoint_period: CHECKPOINT_PERIOD,
        ..SaConfig::default()
    };
    let mut rt = HierarchyRuntime::new(RuntimeConfig {
        sync_mode: mode,
        ..RuntimeConfig::default()
    });
    let root = SubnetId::root();
    let alice = rt.create_user(&root, whole(1_000_000)).unwrap();
    let validator = rt.create_user(&root, whole(100)).unwrap();
    let child = rt
        .spawn_subnet(&alice, sa, whole(10), &[(validator, whole(5))])
        .unwrap();
    let a = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    let b = rt.create_user(&child, TokenAmount::ZERO).unwrap();
    rt.cross_transfer(&alice, &a, whole(500)).unwrap();
    rt.run_until_quiescent(2_000).unwrap();

    // Constant-size state, growing history: the same two accounts trade
    // back and forth while the chain extends to the target length.
    let mut round = 0u64;
    while rt.node(&child).unwrap().chain().head_epoch() < ChainEpoch::new(target) {
        if round.is_multiple_of(4) {
            let (from, to) = if round.is_multiple_of(8) {
                (&a, &b)
            } else {
                (&b, &a)
            };
            rt.submit(from, to.addr, whole(1), hc_state::Method::Send)
                .unwrap();
        }
        rt.step().unwrap();
        round += 1;
    }
    // Settle in-flight work so the crash drops no signed-but-unmined
    // message (its nonce would be consumed and leave a gap).
    rt.run_until_quiescent(2_000).unwrap();
    let chain_blocks = rt.node(&child).unwrap().chain().len() as u64;
    rt.crash_node(&child).unwrap();
    (rt, child, chain_blocks)
}

/// One full crash–rejoin cycle at `target` chain blocks under `mode`,
/// measuring the hash work of the bootstrap alone.
pub fn rejoin_cost(target: u64, mode: SyncMode) -> SyncCost {
    let (mut rt, child, chain_blocks) = build_crashed(target, mode);

    let before = hc_types::crypto::sha256_block_count();
    rt.rejoin_node(&child).unwrap();
    while rt.is_catching_up(&child) {
        rt.step().unwrap();
    }
    let sha256_blocks = hc_types::crypto::sha256_block_count() - before;

    rt.run_until_quiescent(2_000).unwrap();
    let stats = rt.chaos_stats();
    let final_state_root = rt
        .node(&child)
        .unwrap()
        .chain()
        .head_block()
        .unwrap()
        .header
        .state_root;
    SyncCost {
        chain_blocks,
        sha256_blocks,
        blocks_replayed: stats.blocks_caught_up,
        blobs_synced: stats.blobs_synced,
        snapshot_installs: stats.snapshot_installs,
        final_state_root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_replay_agree_at_one_length() {
        let replay = rejoin_cost(40, SyncMode::Replay);
        let snapshot = rejoin_cost(40, SyncMode::Snapshot);
        assert_eq!(replay.snapshot_installs, 0);
        assert_eq!(snapshot.snapshot_installs, 1);
        assert!(snapshot.blobs_synced >= 2);
        assert!(snapshot.blocks_replayed < replay.blocks_replayed);
        assert_eq!(snapshot.final_state_root, replay.final_state_root);
    }
}
