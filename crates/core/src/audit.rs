//! The one invariant check, [`HierarchyRuntime::check_invariants`]: the
//! paper's safety story as identities over the whole runtime, every broken
//! one reported.
//!
//! * **escrow** — every SCA holds at least its children's frozen collateral
//!   plus their circulating supply;
//! * **conservation** — the rootnet's gross supply equals the minted total
//!   its state holds (genesis and faucet installs): cross-net traffic never
//!   creates root tokens;
//! * **checkpoint chain** — every live child's committed checkpoints verify
//!   from its live parent ([`HierarchyRuntime::verify_checkpoint_chain`]);
//! * **top-down nonce** — no live child expects a top-down nonce its live
//!   parent has not assigned;
//! * **top-down delivery** — every live child under a live parent holds
//!   each top-down message its parent committed and it has not applied:
//!   its next nonce plus the messages its pool holds is the nonce its
//!   parent assigns next;
//! * **bottom-up delivery** — every active, uncompromised live child under a
//!   live parent has each checkpoint it cut either committed by its parent
//!   or waiting in the parent's queue: from the parent's committed head, the
//!   queue's `prev` links reach the child's last cut;
//! * **node records** — every node has a subnet record, and every record
//!   without a node is crashed, or was opened by a top-down delivery to a
//!   child not yet booted (it holds no boot parameters);
//! * **backing** (at quiescence) — a parent's record of a child's
//!   circulating supply equals the child's live supply (minted in, less
//!   burned out). A child killed in its parent's SCA, or compromised by the
//!   runtime itself, may fall below it, never above: fund recovery and theft
//!   only lower the parent's liability — the firewall bound (paper §II);
//! * **window digest**, **head root** (debug builds) — the from-scratch
//!   re-hashes: each SCA's carried window digest hashes its window, and each
//!   live subnet's head has `recompute_root()` as its state root. State
//!   changes only through blocks, so a write outside one breaks it.
//!
//! Its hashing is a self-check, left out of
//! [`hc_types::crypto::sha256_block_count`].

use std::fmt;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::{Ledger, SubnetStatus};
use hc_state::ImplicitMsg;
use hc_types::crypto::uncounted;
use hc_types::{Address, CanonicalEncode, SubnetId, TokenAmount};

use crate::node::SubnetNode;
use crate::runtime::HierarchyRuntime;

/// One identity [`HierarchyRuntime::check_invariants`] found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantBreak {
    /// The identity: `"escrow"`, `"conservation"`, `"backing"`, ….
    pub identity: &'static str,
    /// The subnet it broke in.
    pub subnet: SubnetId,
    /// What was found.
    pub detail: String,
}

impl fmt::Display for InvariantBreak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (identity, subnet, detail) = (self.identity, &self.subnet, &self.detail);
        write!(f, "{identity} violation in {subnet}: {detail}")
    }
}

/// The breaks, one a line.
pub(crate) fn describe(breaks: &[InvariantBreak]) -> String {
    let lines: Vec<String> = breaks.iter().map(ToString::to_string).collect();
    lines.join("\n")
}

impl HierarchyRuntime {
    /// Checks every identity in the [module docs](crate::audit).
    ///
    /// # Errors
    ///
    /// Returns every break found.
    pub fn check_invariants(&self) -> Result<(), Vec<InvariantBreak>> {
        self.check_invariants_rehashing(None)
    }

    /// [`HierarchyRuntime::check_invariants`], re-hashing only the heads of
    /// `heads` when given: a wave's members, so each committed block is
    /// re-hashed once, when it commits. A child's checkpoint chain is then
    /// walked only when its parent is a member whose head block committed
    /// one of its checkpoints. A parent's whole chain is decoded at most
    /// once per check, for all the children walked over it.
    pub(crate) fn check_invariants_rehashing(
        &self,
        heads: Option<&[SubnetId]>,
    ) -> Result<(), Vec<InvariantBreak>> {
        let mut breaks = Vec::new();
        let mut fail = |identity, subnet: &SubnetId, detail| {
            let subnet = subnet.clone();
            breaks.push(InvariantBreak {
                identity,
                subnet,
                detail,
            });
        };
        let record = |s: &SubnetId| self.subnets.by_id.get(s);
        let live = |s: &SubnetId| self.nodes.get(s).is_some_and(SubnetNode::is_live);
        let quiescent = self.all_quiescent();
        uncounted(|| {
            for (subnet, r) in &self.subnets.by_id {
                let booted_and_up = r.boot.is_some() && r.crashed.is_none();
                if booted_and_up && !self.nodes.contains_key(subnet) {
                    fail("node records", subnet, "no node, yet booted and up".into());
                }
            }
            for (subnet, node) in &self.nodes {
                let (tree, sca) = (node.state(), node.state().sca());
                if record(subnet).is_none_or(|r| r.crashed.is_some()) {
                    fail("node records", subnet, "a node, yet no live record".into());
                }
                let escrow = tree.accounts().balance(Address::SCA);
                let circ: TokenAmount = sca.subnets().map(|c| c.circ_supply).sum();
                let frozen: TokenAmount = sca.subnets().map(|c| c.collateral).sum();
                if escrow < circ + frozen {
                    let detail = format!("SCA holds {escrow} < {circ} + {frozen} frozen");
                    fail("escrow", subnet, detail);
                }
                #[cfg(debug_assertions)]
                {
                    let window = sca.window_encoding();
                    if sca.window_digest() != hc_types::crypto::sha256(&window) {
                        let detail = format!("stale for a {}-byte window", window.len());
                        fail("window digest", subnet, detail);
                    }
                    let rehash = heads.is_none_or(|h| h.contains(subnet)) && live(subnet);
                    let head = node.chain().head_block().filter(|_| rehash);
                    if head.is_some_and(|h| h.header.state_root != tree.recompute_root()) {
                        fail("head root", subnet, "state root != recompute_root()".into());
                    }
                }
                let Some(parent) = subnet.parent() else {
                    continue;
                };
                let parent_sca = self.nodes.get(&parent).map(|p| p.state().sca());
                let Some(info) = parent_sca.and_then(|sca| sca.subnet(subnet)) else {
                    continue;
                };
                if live(subnet) && live(&parent) {
                    let (next, assigned) =
                        (node.cross_pool().next_top_down_nonce(), info.topdown_nonce);
                    if next > assigned {
                        let detail = format!("expects {next}, {parent} assigned {assigned}");
                        fail("top-down nonce", subnet, detail);
                    }
                    let held = node.cross_pool().pending_top_down() as u64;
                    if next.value() + held != assigned.value() {
                        let detail =
                            format!("expects {next}, holds {held}, {parent} assigned {assigned}");
                        fail("top-down delivery", subnet, detail);
                    }
                    let honest = info.status == SubnetStatus::Active
                        && !record(subnet).is_some_and(|r| r.compromised);
                    let queued = self.nodes[&parent].pending_checkpoints().iter();
                    let own = queued
                        .map(|s| &s.checkpoint)
                        .filter(|c| c.source == *subnet);
                    let link = |head, c: &Checkpoint| if c.prev == head { c.cid() } else { head };
                    let reached = own.fold(info.prev_checkpoint, link);
                    let cut = sca.prev_checkpoint();
                    if honest && reached != cut {
                        let detail = format!("{parent} reaches {reached}, the child cut {cut}");
                        fail("bottom-up delivery", subnet, detail);
                    }
                }
                if !quiescent {
                    continue;
                }
                let burnt = tree.accounts().balance(Address::BURNT_FUNDS);
                let (recorded, held) = (info.circ_supply, tree.total_supply() - burnt);
                let may_fall_short = info.status == SubnetStatus::Killed
                    || record(subnet).is_some_and(|r| r.compromised);
                if recorded != held && !(may_fall_short && recorded < held) {
                    let detail = format!("{parent} records {recorded}, the child holds {held}");
                    fail("backing", subnet, detail);
                }
            }
            // A parent's chain is decoded once, for every child walked
            // over it, and dropped before the next parent's.
            for (parent, node) in self.nodes.iter().filter(|(p, _)| live(p)) {
                let mut committed = None;
                for child in node.state().sca().subnets().map(|c| &c.id) {
                    let walk = heads
                        .is_none_or(|h| h.contains(parent) && commits_checkpoint_of(node, child));
                    if !walk || !live(child) {
                        continue;
                    }
                    let committed =
                        committed.get_or_insert_with(|| self.committed_checkpoints(parent));
                    if let Err(e) = self.walk_checkpoint_chain(child, committed) {
                        fail("checkpoint chain", child, e);
                    }
                }
            }
            let root = SubnetId::root();
            let supply = self.nodes.get(&root).map(|n| n.state());
            let supply = supply.map(|t| (t.total_supply(), t.minted()));
            if let Some((gross, minted)) = supply.filter(|(gross, minted)| gross != minted) {
                let detail = format!("gross supply {gross} != minted {minted}");
                fail("conservation", &root, detail);
            }
        });
        if breaks.is_empty() {
            Ok(())
        } else {
            Err(breaks)
        }
    }
}

/// Whether `parent`'s head block carries a checkpoint of `child`.
fn commits_checkpoint_of(parent: &SubnetNode, child: &SubnetId) -> bool {
    let head = parent.chain().head_block();
    head.is_some_and(|b| {
        b.implicit_msgs.iter().any(|m| {
            matches!(m, ImplicitMsg::CommitChildCheckpoint { signed }
                if signed.checkpoint.source == *child)
        })
    })
}

/// [`HierarchyRuntime::check_invariants`] at rest, once no value is in
/// flight ([`HierarchyRuntime::all_quiescent`]).
///
/// # Errors
///
/// Reports non-quiescence, or every break, one a line.
pub fn audit_quiescent(rt: &HierarchyRuntime) -> Result<(), String> {
    if !rt.all_quiescent() {
        return Err("hierarchy is not quiescent: value is still in flight".into());
    }
    rt.check_invariants().map_err(|breaks| describe(&breaks))
}

#[cfg(test)]
mod tests {
    //! Every identity has teeth: a world that settled clean, one break
    //! planted through the runtime's crate-private fields, and the wave (or
    //! the call) that must report it. The window digest has no planted
    //! case: hc-actors fills the digest and the window it covers together
    //! and exposes neither, so no field of this crate can part them.

    use std::collections::BTreeSet;

    use hc_actors::sa::SaConfig;
    use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, Ledger, MsgGroup};
    use hc_chain::CrossMsgPool;
    use hc_types::{Address, ChainEpoch, Nonce, SubnetId, TokenAmount};

    use super::{describe, Checkpoint};
    use crate::config::{RuntimeConfig, UserHandle};
    use crate::runtime::HierarchyRuntime;

    fn whole(n: u64) -> TokenAmount {
        TokenAmount::from_whole(n)
    }

    /// A settled rootnet with one child holding 30 HC of circulating
    /// supply: the runtime, its root user and the child.
    fn world() -> (HierarchyRuntime, UserHandle, SubnetId) {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let alice = rt.create_user(&SubnetId::root(), whole(1_000)).unwrap();
        let validator = rt.create_user(&SubnetId::root(), whole(100)).unwrap();
        let stake = [(validator, whole(5))];
        let child = rt
            .spawn_subnet(&alice, SaConfig::default(), whole(10), &stake)
            .unwrap();
        let inside = rt.create_user(&child, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &inside, whole(30)).unwrap();
        rt.run_until_quiescent(10_000).unwrap();
        check(&rt);
        (rt, alice, child)
    }

    /// Panics with every break [`HierarchyRuntime::check_invariants`]
    /// reports.
    fn check(rt: &HierarchyRuntime) {
        if let Err(breaks) = rt.check_invariants() {
            panic!("{}", describe(&breaks));
        }
    }

    /// Moves the root SCA's whole balance to `to`: gross supply is
    /// unchanged, the children's escrow is gone.
    fn drain_root_escrow(rt: &mut HierarchyRuntime, to: Address) {
        let root = rt.nodes.get_mut(&SubnetId::root()).unwrap();
        let accounts = root.tree_mut().accounts_mut();
        let held = accounts.balance(Address::SCA);
        accounts.debit(Address::SCA, held).unwrap();
        accounts.credit(to, held);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "escrow violation")]
    fn a_drained_sca_breaks_escrow() {
        let (mut rt, alice, _) = world();
        drain_root_escrow(&mut rt, alice.addr);
        rt.step_wave().unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "conservation violation")]
    fn a_mint_outside_create_user_breaks_conservation() {
        let (mut rt, alice, _) = world();
        let root = rt.nodes.get_mut(&SubnetId::root()).unwrap();
        root.tree_mut().accounts_mut().credit(alice.addr, whole(1));
        rt.step_wave().unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the head-root re-hash is debug-only")]
    #[should_panic(expected = "head root violation")]
    fn an_edit_flushed_past_the_head_breaks_the_head_root() {
        let (mut rt, alice, _) = world();
        let root = rt.nodes.get_mut(&SubnetId::root()).unwrap();
        let account = root.tree_mut().accounts_mut().get_or_create(alice.addr);
        account
            .storage
            .insert(b"planted".to_vec(), b"edit".to_vec());
        root.tree_mut().flush();
        check(&rt);
    }

    /// A write between blocks, not flushed: the tree is dirty, and no
    /// exemption keeps the check from re-hashing it.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the head-root re-hash is debug-only")]
    #[should_panic(expected = "head root violation")]
    fn a_write_outside_a_block_breaks_the_head_root() {
        let (mut rt, _, child) = world();
        let node = rt.nodes.get_mut(&child).unwrap();
        node.tree_mut()
            .accounts_mut()
            .get_or_create(Address::new(4_242));
        check(&rt);
    }

    /// The root's SCA commits a checkpoint outside any block: the head it
    /// records for the child is then a checkpoint no committed block
    /// carries.
    #[test]
    #[should_panic(expected = "checkpoint chain violation")]
    fn a_tampered_archive_breaks_the_checkpoint_chain() {
        let (mut rt, _, child) = world();
        let root = rt.nodes.get_mut(&SubnetId::root()).unwrap();
        let head = root.state().sca().subnet(&child).unwrap().prev_checkpoint;
        let forged = Checkpoint::template(child, ChainEpoch::new(1_000), head);
        let (ledger, sca) = root.tree_mut().ledger_and_sca_mut();
        sca.commit_child_checkpoint(ledger, &forged).unwrap();
        check(&rt);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "top-down nonce violation")]
    fn a_child_ahead_of_its_parent_breaks_the_top_down_nonce() {
        let (mut rt, _, child) = world();
        let node = rt.nodes.get_mut(&child).unwrap();
        node.cross_pool_mut().note_top_down_applied(Nonce::new(99));
        rt.step_wave().unwrap();
    }

    /// The root commits a transfer into the child, and the child's pool
    /// then loses the message it was handed.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "top-down delivery violation")]
    fn a_dropped_delivery_breaks_the_top_down_delivery() {
        let (mut rt, alice, child) = world();
        let inside = rt.create_user(&child, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &inside, whole(3)).unwrap();
        let node = rt.nodes.get_mut(&child).unwrap();
        let pool = node.cross_pool();
        assert_eq!(
            (pool.next_top_down_nonce(), pool.pending_top_down()),
            (Nonce::new(1), 1)
        );
        // The same pool less the message: nonce 0 applied, nothing held.
        let mut emptied = CrossMsgPool::new();
        emptied.note_top_down_applied(Nonce::ZERO);
        *node.cross_pool_mut() = emptied;
        rt.step_wave().unwrap();
    }

    /// The child cuts a checkpoint and hands it up, and the root's queue
    /// then loses it before any block commits it.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "bottom-up delivery violation")]
    fn a_dropped_cut_breaks_the_bottom_up_delivery() {
        let (mut rt, _, _) = world();
        let root = SubnetId::root();
        while rt.nodes[&root].pending_checkpoints().is_empty() {
            rt.step().unwrap();
        }
        rt.nodes.get_mut(&root).unwrap().drop_pending_checkpoints();
        rt.step_wave().unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "node records violation")]
    fn a_node_without_a_record_breaks_the_node_records() {
        let (mut rt, _, child) = world();
        rt.subnets.by_id.remove(&child);
        rt.step_wave().unwrap();
    }

    /// A theft over an edge the runtime never compromised: the forged
    /// withdrawal of the child's whole supply goes through
    /// `inject_signed_checkpoint` and settles, and the runtime is then made
    /// to forget it. Escrow stays covered; the parent's record falls below
    /// the child's live supply, and the next wave says so. (Forgotten any
    /// earlier, the forged checkpoint breaks the bottom-up delivery first.)
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the per-wave check is debug-only")]
    #[should_panic(expected = "backing violation")]
    fn a_theft_over_an_honest_edge_breaks_backing() {
        let (mut rt, alice, child) = world();
        let root = SubnetId::root();
        let thief = HcAddress::new(root.clone(), alice.addr);
        let from = HcAddress::new(child.clone(), Address::new(666));
        let group = MsgGroup::seal(vec![CrossMsg::transfer(from, thief, whole(30))]);
        let meta = CrossMsgMeta::for_group(child.clone(), root.clone(), &group);
        rt.inject_signed_checkpoint(&child, |ckpt| {
            ckpt.add_cross_meta(meta);
        })
        .unwrap();
        let (cid, msgs) = (group.cid(), group.to_vec());
        rt.inject_gossip(&root.topic(), hc_net::ResolutionMsg::Push { cid, msgs });
        rt.run_until_quiescent(5_000).unwrap();
        rt.subnets.by_id.get_mut(&child).unwrap().compromised = false;
        rt.step_wave().unwrap();
    }

    #[test]
    fn every_break_is_reported() {
        let (mut rt, alice, child) = world();
        drain_root_escrow(&mut rt, alice.addr);
        rt.subnets.by_id.remove(&child);
        let breaks = rt.check_invariants().unwrap_err();
        let found: BTreeSet<(&str, SubnetId)> = breaks
            .iter()
            .map(|b| (b.identity, b.subnet.clone()))
            .collect();
        let mut planted = BTreeSet::from([("escrow", SubnetId::root()), ("node records", child)]);
        if cfg!(debug_assertions) {
            // The drain is a write outside a block.
            planted.insert(("head root", SubnetId::root()));
        }
        assert_eq!(found, planted, "{}", describe(&breaks));
    }
}
