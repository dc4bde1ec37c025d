//! Runtime configuration and the plain data types of the runtime's public
//! API: the knobs a caller sets ([`RuntimeConfig`], [`PlacementPolicy`]),
//! the handles and reports it gets back ([`UserHandle`], [`StepReport`],
//! [`PoolStats`]) and the one error type ([`RuntimeError`]).

use std::fmt;

use hc_actors::{HcAddress, ScaConfig};
use hc_chain::{MempoolConfig, MempoolStats};
use hc_consensus::EngineParams;
use hc_net::{NetConfig, ResolverStats, RetryPolicy};
use hc_state::DEFAULT_SIG_CACHE_CAPACITY;
use hc_types::{Address, ChainEpoch, SubnetId};

use crate::persist::PersistenceConfig;

/// How validators/subnets are assigned to the regions declared in
/// [`NetConfig::regions`] at boot (paper §V geo-distribution). Placement
/// is deterministic from the config alone, recorded in the control log
/// ([`crate::ControlRecord::RegionAssigned`]) for recovery, and a no-op on
/// a uniform map — the default stays bit-identical to a place-less network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Every node stays in the default region (index 0). With
    /// [`hc_net::RegionMap::uniform`] this is the region-less behaviour.
    #[default]
    Uniform,
    /// Nodes cycle through the declared regions in boot order (root takes
    /// the first region) — the *geo-spread* placement of experiment E14.
    RoundRobin,
    /// A child subnet is placed in its parent's region; the root takes the
    /// first region — the *co-located* placement of experiment E14.
    FollowParent,
}

/// Global runtime parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Network delay/loss model.
    pub net: NetConfig,
    /// Consensus engine parameters (applied to every subnet).
    pub engine_params: EngineParams,
    /// SCA parameters (the checkpoint period is overridden per subnet by
    /// its Subnet Actor config).
    pub sca: ScaConfig,
    /// RNG seed: identical configs and call sequences replay identically.
    pub seed: u64,
    /// Enable the *push* path of content resolution (paper §IV-C); when
    /// disabled every meta is resolved by pull, which experiment E7
    /// compares.
    pub push_enabled: bool,
    /// Emit fund certificates for slow (bottom-up/path) cross-net messages
    /// so destinations learn of pending payments immediately
    /// (the §IV-A acceleration).
    pub certificates_enabled: bool,
    /// Worker threads, the size of three fan-outs ([`hc_chain::fan_out`]):
    /// subnets due in the same [`crate::HierarchyRuntime::step_wave`] produce
    /// their blocks concurrently, each block's signatures are batch
    /// pre-verified, and the lanes of each block's access-set schedule
    /// execute concurrently (system-touching messages stay serial). `1`
    /// (the default) keeps everything on the caller's thread — the same
    /// code with nothing spawned; receipts, gas, and state roots are
    /// bit-identical at every setting.
    pub parallelism: usize,
    /// Capacity of each node's verified-signature cache (entries). The
    /// cache memoizes `(signer, message CID, signature)` triples whose
    /// full verification already passed — at mempool admission — so block
    /// production and validation skip re-verifying them. `0` disables the
    /// cache entirely; receipts and state roots are bit-identical either
    /// way (the cache only elides provably redundant work).
    pub sig_cache_capacity: usize,
    /// Durable persistence. The default, [`PersistenceConfig::InMemory`],
    /// journals nothing and preserves the pre-persistence behaviour
    /// exactly; [`PersistenceConfig::Durable`] journals blocks and control
    /// records (one log, one sync a wave) and state blobs so the hierarchy
    /// can be rebuilt by [`crate::HierarchyRuntime::recover`] after a crash.
    pub persistence: PersistenceConfig,
    /// Timeout/backoff policy for cross-net pull requests and crash
    /// catch-up block pulls. The default (unbounded attempts, capped
    /// exponential backoff) never abandons a request; setting
    /// [`RetryPolicy::max_attempts`] bounds the budget, after which the
    /// request is abandoned and surfaces in
    /// [`hc_net::ResolverStats::pulls_abandoned`] — degraded, never
    /// silently lost.
    pub retry: RetryPolicy,
    /// Mempool admission control applied to every subnet node: the
    /// byte-capacity bound (`0` = unbounded, the historical behaviour)
    /// and the seen-CID horizon. Overload then degrades by deterministic
    /// lowest-fee-first eviction instead of growing without bound; see
    /// [`hc_chain::MempoolConfig`].
    pub mempool: MempoolConfig,
    /// How a rejoining node ([`crate::HierarchyRuntime::rejoin_node`]) and
    /// a restarting runtime ([`crate::HierarchyRuntime::recover`]) bootstrap
    /// missed history: [`crate::SyncMode::Replay`] re-executes every missed
    /// block, [`crate::SyncMode::Snapshot`] installs the latest
    /// checkpoint-anchored state snapshot and replays only the
    /// post-checkpoint suffix, degrading to replay when no usable anchor
    /// exists.
    pub sync_mode: crate::chaos::SyncMode,
    /// How booted nodes are assigned to the regions of
    /// [`NetConfig::regions`] (see [`PlacementPolicy`]). Ignored — and
    /// draw-free — when the map declares at most one region.
    pub placement: PlacementPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            net: NetConfig::default(),
            engine_params: EngineParams::default(),
            sca: ScaConfig::default(),
            seed: 42,
            push_enabled: true,
            certificates_enabled: true,
            parallelism: 1,
            sig_cache_capacity: DEFAULT_SIG_CACHE_CAPACITY,
            persistence: PersistenceConfig::InMemory,
            retry: RetryPolicy::default(),
            mempool: MempoolConfig::default(),
            sync_mode: crate::chaos::SyncMode::default(),
            placement: PlacementPolicy::default(),
        }
    }
}

/// Hierarchy-wide message-pool counters: every subnet node's mempool,
/// cross-net pool, and resolver folded into one aggregate (see
/// [`crate::HierarchyRuntime::pool_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Summed mempool admission/eviction counters.
    pub mempool: MempoolStats,
    /// User messages currently pending across every mempool.
    pub mempool_pending: u64,
    /// Bytes currently held across every mempool.
    pub mempool_bytes: u64,
    /// Top-down cross-net messages applied locally but not yet executed,
    /// summed over subnets.
    pub pending_top_down: u64,
    /// Bottom-up/path cross-net message groups awaiting content
    /// resolution or commitment, summed over subnets.
    pub pending_bottom_up: u64,
    /// Summed resolver counters, including `pulls_abandoned` — requests
    /// that exhausted their retry budget and degraded instead of
    /// resolving.
    pub resolver: ResolverStats,
}

/// A user account handle: the subnet it lives in plus its address. The
/// runtime keeps the signing key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserHandle {
    /// The subnet the account lives in.
    pub subnet: SubnetId,
    /// The account address.
    pub addr: Address,
}

impl UserHandle {
    /// The hierarchical address of this user.
    pub fn hc_address(&self) -> HcAddress {
        HcAddress::new(self.subnet.clone(), self.addr)
    }
}

impl fmt::Display for UserHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.subnet, self.addr)
    }
}

/// What one [`crate::HierarchyRuntime::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The subnet that produced a block.
    pub subnet: SubnetId,
    /// The block's epoch.
    pub epoch: ChainEpoch,
    /// Virtual time of the block, in milliseconds.
    pub at_ms: u64,
    /// Messages carried (signed + implicit).
    pub msgs: usize,
    /// Gas executed.
    pub gas_used: u64,
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The referenced subnet does not exist in the hierarchy.
    UnknownSubnet(SubnetId),
    /// The referenced user is not managed by this runtime.
    UnknownUser(UserHandle),
    /// A message executed with a non-OK exit code.
    Execution(String),
    /// Child-subnet accounts can only be created empty; fund them with a
    /// top-down cross-net message so supply stays conserved.
    NonRootMint,
    /// The spawn flow failed at the given stage.
    Spawn(String),
    /// A subnet could not be retired (not killed, not drained, not a
    /// leaf, …).
    Retire(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownSubnet(id) => write!(f, "unknown subnet {id}"),
            RuntimeError::UnknownUser(u) => write!(f, "unknown user {u}"),
            RuntimeError::Execution(why) => write!(f, "execution failed: {why}"),
            RuntimeError::NonRootMint => {
                f.write_str("non-root accounts must be created empty and funded cross-net")
            }
            RuntimeError::Spawn(why) => write!(f, "subnet spawn failed: {why}"),
            RuntimeError::Retire(why) => write!(f, "subnet retire refused: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
