//! The one test world every `hc-core` integration suite builds on, and the
//! per-subnet fingerprint every twin-run comparison (recovered vs crashed,
//! wave vs sequential, rejoined vs never-crashed) is made on.
//!
//! [`Harness`] owns a runtime and its funded root user. Every helper that
//! moves the hierarchy ends in [`Harness::check_state`], the runtime's one
//! invariant check (`HierarchyRuntime::check_invariants`). It holds after a
//! theft and after a kill too: the edge of a compromised or killed child
//! may fall below the child's live supply, never above it.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::fmt::{Debug, Display};

use hc_actors::sa::SaConfig;
use hc_actors::SubnetInfo;
use hc_core::{HierarchyRuntime, NodeStats, RuntimeConfig, UserHandle};
use hc_types::{CanonicalEncode, ChainEpoch, Cid, Nonce, SubnetId, TokenAmount};

/// Blocks [`Harness::settle`] may produce before it declares the hierarchy
/// stuck.
const SETTLE_BLOCKS: usize = 200_000;

/// `n` whole tokens.
pub fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// Asserts that `result` failed with an error whose text contains `needle`,
/// and returns that text.
pub fn expect_exit<T: Debug, E: Display>(result: Result<T, E>, needle: &str) -> String {
    let err = result
        .expect_err("the call was expected to fail")
        .to_string();
    assert!(err.contains(needle), "expected {needle:?} in {err:?}");
    err
}

/// A runtime with a funded root user.
pub struct Harness {
    pub rt: HierarchyRuntime,
    /// The root user: the default creator of subnets and source of funds.
    pub alice: UserHandle,
}

impl Harness {
    /// A default runtime whose root user holds 1 000 000 HC.
    pub fn setup() -> Self {
        Self::with(RuntimeConfig::default(), 1_000_000)
    }

    /// A runtime under `config` whose root user holds `genesis` HC.
    pub fn with(config: RuntimeConfig, genesis: u64) -> Self {
        let mut rt = HierarchyRuntime::new(config);
        let alice = rt.create_user(&SubnetId::root(), whole(genesis)).unwrap();
        let h = Harness { rt, alice };
        h.check_state();
        h
    }

    /// Spawns a child of `creator`'s subnet with 10 HC collateral and one
    /// validator staking 5 HC. Under the root the validator is a fresh
    /// root account holding 100 HC; deeper, it is a fresh account of the
    /// parent funded there with 100 HC from the root user.
    pub fn spawn(&mut self, creator: &UserHandle, sa: SaConfig) -> SubnetId {
        let validator = if creator.subnet.is_root() {
            self.rt.create_user(&SubnetId::root(), whole(100)).unwrap()
        } else {
            let v = self.user(&creator.subnet);
            self.fund(&v, 100);
            v
        };
        let child = self
            .rt
            .spawn_subnet(creator, sa, whole(10), &[(validator, whole(5))])
            .unwrap();
        self.check_state();
        child
    }

    /// A fresh empty account in `subnet`.
    pub fn user(&mut self, subnet: &SubnetId) -> UserHandle {
        let user = self.rt.create_user(subnet, TokenAmount::ZERO).unwrap();
        self.check_state();
        user
    }

    /// Sends `n` HC top-down from the root user to `to`, then settles.
    pub fn fund(&mut self, to: &UserHandle, n: u64) {
        self.rt.cross_transfer(&self.alice, to, whole(n)).unwrap();
        self.settle();
    }

    /// Sends `n` HC from `from` up to `to` (bottom-up, or on through their
    /// common ancestor and down), then settles.
    pub fn release(&mut self, from: &UserHandle, to: &UserHandle, n: u64) {
        self.rt.cross_transfer(from, to, whole(n)).unwrap();
        self.settle();
    }

    /// Runs the hierarchy until no value is in flight, asserting that it
    /// gets there. Returns the blocks produced.
    pub fn settle(&mut self) -> usize {
        let produced = self.rt.run_until_quiescent(SETTLE_BLOCKS).unwrap();
        assert!(
            produced < SETTLE_BLOCKS,
            "the hierarchy did not settle within {SETTLE_BLOCKS} blocks"
        );
        self.check_state();
        produced
    }

    /// Steps the hierarchy until the parent commits one more checkpoint of
    /// `child`, then settles.
    pub fn commit_checkpoint(&mut self, child: &SubnetId) {
        let before = self.child_info(child).committed_checkpoints;
        for _ in 0..SETTLE_BLOCKS {
            if self.child_info(child).committed_checkpoints > before {
                self.settle();
                return;
            }
            self.rt.step().unwrap();
        }
        panic!("no checkpoint of {child} was committed within {SETTLE_BLOCKS} blocks");
    }

    /// The parent's record of `child`.
    pub fn child_info(&self, child: &SubnetId) -> SubnetInfo {
        let parent = child.parent().expect("the root has no parent");
        let node = self.rt.node(&parent).expect("the parent is live");
        node.state().sca().subnet(child).unwrap().clone()
    }

    /// Panics with every break `check_invariants` reports. Its hashing is
    /// left out of the SHA-256 work counter, so suites that difference it
    /// are unaffected.
    pub fn check_state(&self) {
        if let Err(breaks) = self.rt.check_invariants() {
            let lines: Vec<String> = breaks.iter().map(ToString::to_string).collect();
            panic!("{}", lines.join("\n"));
        }
    }
}

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
    /// CIDs of the subnet's committed checkpoints, oldest first, as its
    /// parent's chain verifies them.
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
    let checkpoints = match subnet.parent() {
        Some(_) => rt.verify_checkpoint_chain(subnet).unwrap(),
        None => Vec::new(),
    };
    let checkpoints = checkpoints
        .iter()
        .map(|c| Cid::digest(&c.checkpoint.canonical_bytes()))
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
            pending_checkpoints: node.pending_checkpoints().len(),
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

/// Funded user pairs per subnet of [`flat8`].
const FLAT8_PAIRS: usize = 8;

/// Rounds of [`flat8`]'s load.
const FLAT8_ROUNDS: usize = 4;

/// The same 8-subnet flat tree under load in every call — the wave
/// determinism suite's world and the thread-budget guard's: construction
/// and funding are driven sequentially so the runs differ only in how the
/// final drain is stepped.
pub fn flat8(parallelism: usize) -> (HierarchyRuntime, Vec<SubnetId>) {
    let config = RuntimeConfig {
        net: hc_net::NetConfig {
            jitter_ms: 0,
            drop_rate: 0.0,
            ..hc_net::NetConfig::default()
        },
        parallelism,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let mut subnets = Vec::new();
    let mut pairs: Vec<Vec<(UserHandle, UserHandle)>> = Vec::new();
    for _ in 0..8 {
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let mut local = Vec::new();
        for _ in 0..FLAT8_PAIRS {
            let (a, b) = (h.user(&subnet), h.user(&subnet));
            h.rt.cross_transfer(&h.alice, &a, whole(50)).unwrap();
            h.rt.cross_transfer(&h.alice, &b, whole(50)).unwrap();
            local.push((a, b));
        }
        subnets.push(subnet);
        pairs.push(local);
    }
    // Drain the funding traffic sequentially in every world so the load
    // below starts from one identical snapshot (`settle` would step in
    // waves above parallelism 1).
    drive_sequential(&mut h.rt);
    h.check_state();
    let mut rt = h.rt;

    // Load: intra-subnet transfers, one conflict-free lane per pair, plus
    // sibling-to-sibling cross-net transfers (bottom-up through the root),
    // all lazily queued so the drain itself commits them. The cross-net
    // sends touch the SCA and run serially, so each subnet's block
    // interleaves serial barriers with parallel segments of several lanes.
    for _ in 0..FLAT8_ROUNDS {
        for (i, local) in pairs.iter().enumerate() {
            for (j, (a, b)) in local.iter().enumerate() {
                rt.submit(a, b.addr, whole(3), hc_state::Method::Send)
                    .unwrap();
                rt.submit(b, a.addr, whole(2), hc_state::Method::Send)
                    .unwrap();
                let (next_a, _) = &pairs[(i + 1) % pairs.len()][j];
                rt.cross_transfer_lazy(a, next_a, whole(1)).unwrap();
            }
        }
    }
    (rt, subnets)
}

/// Steps `rt` one block at a time until it is quiescent.
pub fn drive_sequential(rt: &mut HierarchyRuntime) {
    for _ in 0..200_000 {
        if rt.all_quiescent() {
            return;
        }
        rt.step().unwrap();
    }
    panic!("sequential drain did not quiesce");
}
