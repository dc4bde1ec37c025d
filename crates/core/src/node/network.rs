//! A node's network traffic (paper §IV-C): it reads its own inbox, answers
//! content traffic, and pulls what its pending cross-net work lacks. What
//! needs other chains — checking a certificate, the surviving peers' side
//! of a catch-up — is the runtime's, handed back from [`SubnetNode::poll`].

use hc_actors::{CrossMsgMeta, FundCertificate};
use hc_net::{BackoffStep, Network, ResolutionMsg, Resolver};
use hc_types::{ChainEpoch, Cid};

use super::SubnetNode;

/// The sync traffic [`SubnetNode::poll`] read from the node's inbox, in
/// arrival order, for the catch-up that acts on it.
#[derive(Debug, Default)]
pub(crate) struct SyncInbox {
    /// First epochs of the [`ResolutionMsg::BlockPull`]s for the node's
    /// own subnet.
    pub(crate) block_pulls: Vec<ChainEpoch>,
    /// Blocks of the [`ResolutionMsg::BlockBatch`]es for the node's own
    /// subnet.
    pub(crate) block_batches: Vec<Vec<Vec<u8>>>,
    /// [`ResolutionMsg::BlobPull`]s: the CIDs asked for and the reply topic.
    pub(crate) blob_pulls: Vec<(Vec<Cid>, String)>,
    /// Blobs of the [`ResolutionMsg::BlobBatch`]es.
    pub(crate) blob_batches: Vec<Vec<Vec<u8>>>,
}

impl SubnetNode {
    /// The node's one inbox read, live or catching up: answers content
    /// traffic through the resolver — a pull from the cache, else from its
    /// state tree's registry of the groups its subnet cut — with the node
    /// as origin. Returns the unchecked fund certificates addressed to its
    /// subnet and the sync traffic; the resolver ignores any other stray.
    pub(crate) fn poll(
        &mut self,
        network: &Network<ResolutionMsg>,
        now_ms: u64,
    ) -> (Vec<FundCertificate>, SyncInbox) {
        let here = &self.subnet_id;
        let mut certs = Vec::new();
        let mut sync = SyncInbox::default();
        for msg in network.poll(self.subscription, now_ms) {
            match msg {
                ResolutionMsg::Certificate(cert) if cert.body.msg.to.subnet == *here => {
                    certs.push(*cert);
                }
                ResolutionMsg::BlockPull {
                    subnet, from_epoch, ..
                } if subnet == *here => sync.block_pulls.push(from_epoch),
                ResolutionMsg::BlockBatch { subnet, blocks } if subnet == *here => {
                    sync.block_batches.push(blocks);
                }
                ResolutionMsg::BlobPull { cids, reply_topic } => {
                    sync.blob_pulls.push((cids, reply_topic));
                }
                ResolutionMsg::BlobBatch { blobs } => sync.blob_batches.push(blobs),
                // A pushed group off its way up to the subnet that opens it
                // is dropped unhashed (paper §IV-C: peers may cache or
                // discard pushed content).
                ResolutionMsg::Push { msgs, .. } if !hc_net::keeps_push(here, &msgs) => {}
                msg => {
                    let own = |cid: &Cid| self.tree.resolve_content(cid);
                    if let Some((topic, reply)) = self.resolver.handle(msg, own) {
                        // The replying node is the origin, so region-scoped
                        // rules see the true (from, to) region pair.
                        network.publish(&topic, reply, now_ms, Some(self.subscription));
                    }
                }
            }
        }
        (certs, sync)
    }

    /// Attempts to resolve pending bottom-up metas and turnaround metas;
    /// publishes pull requests for misses (paper §IV-C). Each miss goes
    /// through the resolver's per-request timeout/backoff tracker
    /// ([`Resolver::should_pull`]): the first miss pulls immediately,
    /// repeat misses wait out the capped exponential backoff, and once a
    /// bounded retry budget is spent the request is abandoned — counted in
    /// [`hc_net::ResolverStats::pulls_abandoned`], never silently lost.
    pub(crate) fn resolve_pending(&mut self, network: &Network<ResolutionMsg>, now_ms: u64) {
        let own_topic = self.subnet_id.topic();
        // Looks a group up in the node's cache; a miss that is due a pull
        // publishes one. The pulling node is the origin: a pull that must
        // cross a severed or degraded region pair is subject to those rules.
        let origin = Some(self.subscription);
        let lookup = |resolver: &mut Resolver, meta: &CrossMsgMeta| {
            let pull = match resolver.lookup_or_pull(meta.msgs_cid, &own_topic) {
                Ok(group) => return Some(group),
                Err(pull) => pull,
            };
            if let BackoffStep::Send(_) = resolver.should_pull(meta.msgs_cid, now_ms) {
                network.publish(&meta.from.topic(), pull, now_ms, origin);
            }
            None
        };
        for meta in self.cross_pool.unresolved_metas() {
            if let Some(group) = lookup(&mut self.resolver, &meta) {
                self.cross_pool.resolve(group);
            }
        }
        for (meta, content) in &mut self.turnarounds {
            if content.is_none() {
                *content = lookup(&mut self.resolver, meta);
            }
        }
    }
}
