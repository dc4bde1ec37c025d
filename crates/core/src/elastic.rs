//! Load-driven hierarchy elasticity: automating the paper's §III-C
//! lifecycle (subnet spawning, fund migration via snapshots, killing)
//! from observed traffic.
//!
//! The [`ElasticController`] wraps a [`HierarchyRuntime`] and is polled
//! after every step. Its policy is a **pure function of committed,
//! deterministic signals** — per-subnet mempool backlog and drained
//! per-sender admission counters, sampled when a subnet's head epoch
//! crosses an evaluation boundary (aligned with the checkpoint period, so
//! a replicated deployment evaluating the same committed chain reaches
//! the same verdicts). No wall clock, no randomness: identical seeds and
//! call sequences scale out and merge back identically.
//!
//! **Scale-out** (hot subnet): when backlog exceeds
//! [`ElasticConfig::split_backlog`], the controller spawns a child subnet
//! under the hot subnet (its funded operator acts as creator and sole
//! validator), *adopts* the hottest accounts into the child
//! ([`HierarchyRuntime::adopt_user`] — same address, same derived key),
//! and migrates half of each account's balance down with a cross-net
//! transfer. The account is rerouted (the [`ElasticController::home_of`]
//! directory flips) only once the migrated funds are spendable at the new
//! home, so no submission window ever finds an empty account; the
//! retained half keeps the old home's pending messages funded.
//!
//! **Scale-in** (cold child): a child whose sampled activity stays below
//! [`ElasticConfig::merge_backlog`] for [`ElasticConfig::merge_idle_evals`]
//! consecutive evaluations is drained (its accounts reroute to the
//! parent), then — once [`HierarchyRuntime::subnet_settled`] — merged
//! away through the §III-C recovery path: snapshot, kill, per-account
//! fund recovery on the parent, and finally
//! [`HierarchyRuntime::retire_subnet`]. Because recovered funds land on
//! the same address on the parent, each logical account's *summed*
//! balance across its homes is preserved by the whole dance (modulo the
//! configured cross-message fee, zero by default).

use std::collections::BTreeMap;

use hc_actors::sa::SaConfig;
use hc_state::Method;
use hc_types::{Address, SubnetId, TokenAmount};

use crate::config::{RuntimeError, UserHandle};
use crate::runtime::HierarchyRuntime;

/// Tuning knobs of the elasticity policy.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Epochs between policy evaluations per subnet (align with the
    /// checkpoint period so decisions ride checkpoint boundaries).
    pub eval_period: u64,
    /// Pending mempool messages at an evaluation above which a subnet is
    /// *hot* and splits.
    pub split_backlog: usize,
    /// Sampled admissions per evaluation below which a child counts as
    /// *cold*.
    pub merge_backlog: u64,
    /// Consecutive cold evaluations before a child is merged back.
    pub merge_idle_evals: u32,
    /// How many of the hottest accounts migrate into a fresh child.
    pub migrate_top_k: usize,
    /// Ceiling on concurrently live controller-spawned children.
    pub max_children: usize,
    /// Collateral frozen from the operator when registering a child.
    pub child_collateral: TokenAmount,
    /// Stake the operator puts up as the child's sole validator.
    pub child_stake: TokenAmount,
    /// Subnet Actor template for spawned children (checkpoint period,
    /// consensus, policies).
    pub sa_config: SaConfig,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            eval_period: 10,
            split_backlog: 300,
            merge_backlog: 5,
            merge_idle_evals: 2,
            migrate_top_k: 8,
            max_children: 4,
            child_collateral: TokenAmount::from_whole(10),
            child_stake: TokenAmount::from_whole(5),
            sa_config: SaConfig::default(),
        }
    }
}

/// Counters of the controller's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Policy evaluations run (one per subnet per boundary crossing).
    pub evals: u64,
    /// Child subnets spawned under hot subnets.
    pub splits: u64,
    /// Cold children merged back into their parents.
    pub merges: u64,
    /// Accounts adopted into a child with a funding transfer in flight.
    pub migrations_started: u64,
    /// Migrations whose funds arrived and whose routing flipped.
    pub migrations_settled: u64,
    /// Fund-recovery claims executed while merging children away.
    pub funds_recovered: u64,
}

/// An account adopted into a new home, waiting for its funding transfer
/// to land before routing flips.
#[derive(Debug, Clone)]
struct PendingMigration {
    addr: Address,
    to: SubnetId,
    amount: TokenAmount,
}

/// What the controller knows about a child it spawned.
#[derive(Debug, Clone)]
struct ChildState {
    /// Consecutive cold evaluations observed.
    cold_evals: u32,
    /// Set once the child entered the merge path: routing is rehomed and
    /// the controller waits for the child to settle before killing it.
    draining: bool,
}

/// The load-driven elasticity controller (see the module docs for the
/// policy).
#[derive(Debug, Clone)]
pub struct ElasticController {
    config: ElasticConfig,
    /// Funded spawn operators, per subnet the controller may split.
    operators: BTreeMap<SubnetId, UserHandle>,
    /// Current routing home of managed accounts; absent = original home.
    home: BTreeMap<Address, SubnetId>,
    /// Children this controller spawned, keyed by subnet.
    children: BTreeMap<SubnetId, ChildState>,
    /// Adoptions whose funding transfer has not yet landed.
    pending: Vec<PendingMigration>,
    /// Last evaluation boundary (head epoch / eval period) seen per subnet.
    last_eval: BTreeMap<SubnetId, u64>,
    stats: ElasticStats,
}

impl ElasticController {
    /// Creates a controller that may split the root, spending
    /// `root_operator`'s funds on collateral and stakes. `root_operator`
    /// must be a funded root-chain user.
    pub fn new(root_operator: UserHandle, config: ElasticConfig) -> Self {
        let mut operators = BTreeMap::new();
        operators.insert(root_operator.subnet.clone(), root_operator);
        ElasticController {
            config,
            operators,
            home: BTreeMap::new(),
            children: BTreeMap::new(),
            pending: Vec::new(),
            last_eval: BTreeMap::new(),
            stats: ElasticStats::default(),
        }
    }

    /// The controller's lifetime counters.
    pub fn stats(&self) -> ElasticStats {
        self.stats
    }

    /// The children currently managed (spawned and not yet merged away).
    pub fn children(&self) -> impl Iterator<Item = &SubnetId> {
        self.children.keys()
    }

    /// Where traffic for `addr` should be submitted right now: the
    /// migrated home if one settled, otherwise `original`.
    pub fn home_of(&self, addr: Address, original: &SubnetId) -> SubnetId {
        self.home
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| original.clone())
    }

    /// Every account whose routing currently points away from its
    /// original home, with its present home.
    pub fn homes(&self) -> impl Iterator<Item = (Address, &SubnetId)> {
        self.home.iter().map(|(a, s)| (*a, s))
    }

    /// Runs the policy: settles in-flight migrations, evaluates every
    /// subnet whose head crossed an evaluation boundary, and advances any
    /// draining children through the merge path. Call after every runtime
    /// step; cheap when nothing crossed a boundary.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures from spawning, migrating, or merging.
    pub fn poll(&mut self, rt: &mut HierarchyRuntime) -> Result<(), RuntimeError> {
        self.settle_migrations(rt);
        self.advance_merges(rt)?;

        let heads: Vec<(SubnetId, u64)> = rt
            .subnets()
            .map(|s| {
                let head = rt
                    .node(s)
                    .map(|n| n.chain().head_epoch().value())
                    .unwrap_or(0);
                (s.clone(), head)
            })
            .collect();
        for (subnet, head) in heads {
            let boundary = head / self.config.eval_period.max(1);
            let last = self.last_eval.get(&subnet).copied().unwrap_or(0);
            if boundary > last {
                self.last_eval.insert(subnet.clone(), boundary);
                self.evaluate(rt, &subnet)?;
            }
        }
        Ok(())
    }

    /// One policy evaluation of `subnet`.
    fn evaluate(
        &mut self,
        rt: &mut HierarchyRuntime,
        subnet: &SubnetId,
    ) -> Result<(), RuntimeError> {
        self.stats.evals += 1;
        let backlog = rt.node(subnet).map(|n| n.mempool_len()).unwrap_or(0);
        let activity = rt.take_mempool_activity(subnet);
        let sampled: u64 = activity.values().sum();

        // Cold-child bookkeeping. A child still waiting for migration
        // funding is *arriving*, not cold — routing has not flipped yet,
        // so its silence says nothing about demand.
        let migrations_inbound = self.pending.iter().any(|m| m.to == *subnet);
        if let Some(child) = self.children.get_mut(subnet) {
            if !child.draining && !migrations_inbound {
                if sampled <= self.config.merge_backlog && backlog == 0 {
                    child.cold_evals += 1;
                } else {
                    child.cold_evals = 0;
                }
                if child.cold_evals >= self.config.merge_idle_evals {
                    self.begin_merge(subnet);
                }
            }
            return Ok(());
        }

        // Hot-subnet split.
        if backlog >= self.config.split_backlog
            && self.children.len() < self.config.max_children
            && self.operators.contains_key(subnet)
        {
            self.split(rt, subnet, activity)?;
        }
        Ok(())
    }

    /// Spawns a child under `hot` and starts migrating its hottest
    /// accounts.
    fn split(
        &mut self,
        rt: &mut HierarchyRuntime,
        hot: &SubnetId,
        activity: BTreeMap<Address, u64>,
    ) -> Result<(), RuntimeError> {
        let operator = self.operators.get(hot).cloned().expect("checked by caller");
        let child = rt.spawn_subnet(
            &operator,
            self.config.sa_config.clone(),
            self.config.child_collateral,
            &[(operator.clone(), self.config.child_stake)],
        )?;
        self.children.insert(
            child.clone(),
            ChildState {
                cold_evals: 0,
                draining: false,
            },
        );
        self.stats.splits += 1;

        // Hottest first; address ascending breaks count ties so the pick
        // is independent of map iteration quirks.
        let mut hottest: Vec<(Address, u64)> = activity
            .into_iter()
            .filter(|(addr, _)| *addr != operator.addr)
            .collect();
        hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut migrated = 0usize;
        for (addr, _) in hottest {
            if migrated >= self.config.migrate_top_k {
                break;
            }
            // One migration per account at a time: a second funding
            // transfer drawn against the pre-migration balance can exceed
            // what remains once the first lands, fail on execution, and
            // leave a pending migration that never settles — pinning the
            // target child in the "arriving" state forever.
            if self.pending.iter().any(|m| m.addr == addr) {
                continue;
            }
            let old_home = UserHandle {
                subnet: hot.clone(),
                addr,
            };
            // Move half the decision-time balance: the retained half keeps
            // every message still pending at the old home funded.
            let half = TokenAmount::from_atto(rt.balance(&old_home).atto() / 2);
            if half.is_zero() {
                continue;
            }
            let new_home = rt.adopt_user(&child, addr)?;
            // Top fee bid: the funding transfer competes with the very
            // backlog that triggered the split and must not starve.
            rt.cross_transfer_lazy_with_fee(&old_home, &new_home, half, u64::MAX)?;
            self.pending.push(PendingMigration {
                addr,
                to: child.clone(),
                amount: half,
            });
            self.stats.migrations_started += 1;
            migrated += 1;
        }
        Ok(())
    }

    /// Flips routing for every migration whose funds became spendable.
    fn settle_migrations(&mut self, rt: &HierarchyRuntime) {
        let mut still_pending = Vec::new();
        for m in self.pending.drain(..) {
            let arrived = rt.balance(&UserHandle {
                subnet: m.to.clone(),
                addr: m.addr,
            }) >= m.amount;
            // Never flip routing into a child that started draining while
            // the transfer was in flight.
            let target_live = self.children.get(&m.to).is_none_or(|c| !c.draining);
            if arrived && target_live {
                self.home.insert(m.addr, m.to.clone());
                self.stats.migrations_settled += 1;
            } else if arrived {
                self.stats.migrations_settled += 1;
            } else {
                still_pending.push(m);
            }
        }
        self.pending = still_pending;
    }

    /// Starts draining `child`: all accounts routed to it rehome to its
    /// parent immediately; the kill happens once the child settles.
    fn begin_merge(&mut self, child: &SubnetId) {
        let Some(parent) = child.parent() else {
            return;
        };
        for (_, home) in self.home.iter_mut().filter(|(_, h)| *h == child) {
            *home = parent.clone();
        }
        if let Some(state) = self.children.get_mut(child) {
            state.draining = true;
        }
    }

    /// Completes the merge of any draining child that has settled:
    /// snapshot → kill → recover every account's funds on the parent →
    /// retire the node.
    fn advance_merges(&mut self, rt: &mut HierarchyRuntime) -> Result<(), RuntimeError> {
        let draining: Vec<SubnetId> = self
            .children
            .iter()
            .filter(|(_, c)| c.draining)
            .map(|(s, _)| s.clone())
            .collect();
        for child in draining {
            if !rt.subnet_settled(&child) {
                continue;
            }
            let Some(parent) = child.parent() else {
                continue;
            };
            let operator = self
                .operators
                .get(&parent)
                .cloned()
                .expect("children are only spawned where an operator exists");
            let sa = child
                .actor()
                .ok_or_else(|| RuntimeError::Retire(format!("{child} has no actor")))?;

            // §III-C: persist the balance snapshot while the subnet is
            // alive, then kill it (the operator is its sole validator).
            let tree = rt.save_snapshot(&operator, &child)?;
            rt.execute(&operator, sa, TokenAmount::ZERO, Method::KillSubnet)?;

            // Recover every surviving balance to the same address on the
            // parent; claims merge with the account's parent-side home.
            for leaf in tree.leaves().to_vec() {
                let addr = leaf.addr;
                let claimant = rt.create_claimant(&UserHandle {
                    subnet: child.clone(),
                    addr,
                })?;
                let proof = tree.prove(addr).ok_or_else(|| {
                    RuntimeError::Retire(format!("no snapshot proof for {addr} in {child}"))
                })?;
                rt.execute(
                    &claimant,
                    Address::SCA,
                    TokenAmount::ZERO,
                    Method::RecoverFunds {
                        subnet: child.clone(),
                        proof,
                    },
                )?;
                self.stats.funds_recovered += 1;
            }

            rt.retire_subnet(&child)?;
            self.children.remove(&child);
            self.last_eval.remove(&child);
            self.operators.remove(&child);
            self.stats.merges += 1;
        }
        Ok(())
    }
}
