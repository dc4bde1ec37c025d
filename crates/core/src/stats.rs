//! Hierarchy-wide statistics: the accessors that fold every node's (or
//! the shared network's and store's) counters into one value.

use std::collections::BTreeMap;

use hc_chain::MempoolStats;
use hc_state::SigCacheStats;
use hc_types::{Address, SubnetId};

use crate::config::PoolStats;
use crate::node::SubnetNode;
use crate::runtime::HierarchyRuntime;

impl HierarchyRuntime {
    /// The shared network's traffic statistics.
    pub fn net_stats(&self) -> hc_net::NetStats {
        self.network.stats()
    }

    /// Delivered-latency summary (p50/p99/max) of `subnet`'s gossip topic,
    /// or `None` before its first delivery — the cross-net message-latency
    /// probe of experiment E14.
    pub fn topic_latency(&self, subnet: &SubnetId) -> Option<hc_net::TopicLatency> {
        self.network.topic_latency(&subnet.topic())
    }

    /// Snapshot of the blob store's counters. `put_hits` counts blobs that
    /// were already present when persisted again — i.e. chunks structurally
    /// shared between consecutive snapshots or across subnets.
    pub fn store_stats(&self) -> hc_state::CidStoreStats {
        self.store.stats()
    }

    /// Aggregate signature-verification counters across every subnet
    /// node. `hits` counts verifications elided because the value already
    /// carried a passing verdict this node reached (memoized at
    /// admission); `misses` counts full verifications.
    pub fn sig_cache_stats(&self) -> SigCacheStats {
        let mut total = SigCacheStats::default();
        for node in self.nodes.values() {
            total.merge(node.sig_cache_stats());
        }
        total
    }

    /// Aggregate mempool admission/eviction counters across every subnet
    /// node (same aggregation discipline as
    /// [`HierarchyRuntime::sig_cache_stats`]). High-water marks sum over
    /// nodes, bounding hierarchy-wide peak memory.
    pub fn mempool_stats(&self) -> MempoolStats {
        self.pool_stats().mempool
    }

    /// One hierarchy-wide snapshot of every message pool: user-message
    /// admission counters plus live occupancy, the cross-net pools'
    /// pending backlogs (paper §IV-B), and resolver activity including
    /// abandoned pulls — the previously unobservable corners of the
    /// message path, folded into a single aggregate.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for node in self.nodes.values() {
            total.mempool.merge(node.mempool_stats());
            total.mempool_pending += node.mempool_len() as u64;
            total.mempool_bytes += node.mempool_bytes() as u64;
            total.pending_top_down += node.cross_pool().pending_top_down() as u64;
            total.pending_bottom_up += node.cross_pool().pending_bottom_up() as u64;
            total.resolver.merge(node.resolver_stats());
        }
        total
    }

    /// Drains the per-sender admission counters of `subnet`'s mempool —
    /// the hotness signal the elastic controller samples at evaluation
    /// boundaries. Empty for unknown subnets.
    pub fn take_mempool_activity(&mut self, subnet: &SubnetId) -> BTreeMap<Address, u64> {
        self.nodes
            .get_mut(subnet)
            .map(SubnetNode::take_activity)
            .unwrap_or_default()
    }
}
