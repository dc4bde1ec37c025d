//! Hierarchy topology builders.

use hc_actors::sa::{ConsensusKind, SaConfig};
use hc_core::{HierarchyRuntime, RuntimeConfig, RuntimeError, UserHandle};
use hc_types::{SubnetId, TokenAmount};

fn whole(n: u64) -> TokenAmount {
    TokenAmount::from_whole(n)
}

/// A configured hierarchy builder.
///
/// # Example
///
/// ```
/// use hc_sim::TopologyBuilder;
///
/// # fn main() -> Result<(), hc_core::RuntimeError> {
/// let flat = TopologyBuilder::new().users_per_subnet(2).flat(3)?;
/// assert_eq!(flat.subnets.len(), 3);
/// assert_eq!(flat.users[&flat.subnets[0]].len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    config: RuntimeConfig,
    sa_config: SaConfig,
    users_per_subnet: usize,
    user_funds: TokenAmount,
    collateral: TokenAmount,
    validator_stake: TokenAmount,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// A builder with default runtime and subnet configuration.
    pub fn new() -> Self {
        TopologyBuilder {
            config: RuntimeConfig::default(),
            sa_config: SaConfig::default(),
            users_per_subnet: 4,
            user_funds: whole(1_000),
            collateral: whole(10),
            validator_stake: whole(5),
        }
    }

    /// Overrides the runtime configuration.
    pub fn runtime_config(&mut self, config: RuntimeConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Sets the consensus engine used by every spawned subnet.
    pub fn consensus(&mut self, kind: ConsensusKind) -> &mut Self {
        self.sa_config.consensus = kind;
        self
    }

    /// Worker threads for waves, signature batches and execution lanes
    /// ([`hc_core::RuntimeConfig::parallelism`]); `1` keeps everything on
    /// the calling thread.
    pub fn parallelism(&mut self, threads: usize) -> &mut Self {
        self.config.parallelism = threads.max(1);
        self
    }

    /// Sets the checkpoint period of every spawned subnet.
    pub fn checkpoint_period(&mut self, period: u64) -> &mut Self {
        self.sa_config.checkpoint_period = period;
        self
    }

    /// Number of funded users created per subnet (including the root).
    pub fn users_per_subnet(&mut self, n: usize) -> &mut Self {
        self.users_per_subnet = n;
        self
    }

    /// Initial funds per user (minted at root, funded cross-net below).
    pub fn user_funds(&mut self, funds: TokenAmount) -> &mut Self {
        self.user_funds = funds;
        self
    }

    /// Builds `n` sibling subnets directly under the root.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn flat(&self, n: usize) -> Result<FlatTopology, RuntimeError> {
        self.tree(n, 1)
    }

    /// Builds a single chain of subnets of the given depth
    /// (`/root/a/b/c/…`).
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn deep(&self, depth: usize) -> Result<FlatTopology, RuntimeError> {
        self.tree(1, depth)
    }

    /// Builds a `fanout`-ary tree of subnets of the given depth. Depth 0
    /// yields only the root; returns every spawned subnet in BFS order.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn tree(&self, fanout: usize, depth: usize) -> Result<FlatTopology, RuntimeError> {
        let mut rt = HierarchyRuntime::new(self.config.clone());
        let root = SubnetId::root();
        // The banker funds everything; sized for large sweeps.
        let banker = rt.create_user(&root, whole(1_000_000_000))?;

        let mut topo = FlatTopology {
            rt,
            banker: banker.clone(),
            subnets: Vec::new(),
            users: std::collections::BTreeMap::new(),
        };
        topo.add_users(&root, self.users_per_subnet, self.user_funds)?;

        let mut frontier = vec![root];
        for _level in 0..depth {
            let mut next = Vec::new();
            for parent in &frontier {
                for _ in 0..fanout {
                    let subnet = topo.spawn_under(
                        parent,
                        self.sa_config.clone(),
                        self.collateral,
                        self.validator_stake,
                    )?;
                    topo.add_users(&subnet, self.users_per_subnet, self.user_funds)?;
                    topo.subnets.push(subnet.clone());
                    next.push(subnet);
                }
            }
            frontier = next;
        }
        topo.rt.run_until_quiescent(100_000)?;
        Ok(topo)
    }
}

/// A built hierarchy: the runtime plus handles to its subnets and users.
pub struct FlatTopology {
    /// The runtime.
    pub rt: HierarchyRuntime,
    /// A deeply funded root account used to bankroll spawning and funding.
    pub banker: UserHandle,
    /// Spawned subnets in BFS order (the root is *not* included).
    pub subnets: Vec<SubnetId>,
    /// Funded users per subnet (including the root).
    pub users: std::collections::BTreeMap<SubnetId, Vec<UserHandle>>,
}

impl FlatTopology {
    /// Spawns one subnet under `parent`, bankrolled by the banker: a local
    /// creator/validator account is funded cross-net first when the parent
    /// is not the root.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn spawn_under(
        &mut self,
        parent: &SubnetId,
        sa_config: SaConfig,
        collateral: TokenAmount,
        stake: TokenAmount,
    ) -> Result<SubnetId, RuntimeError> {
        let creator = if parent.is_root() {
            self.banker.clone()
        } else {
            let c = self.rt.create_user(parent, TokenAmount::ZERO)?;
            self.rt
                .cross_transfer(&self.banker, &c, collateral + stake + whole(10))?;
            self.rt.run_until_quiescent(50_000)?;
            c
        };
        let validator = (creator.clone(), stake);
        self.rt
            .spawn_subnet(&creator, sa_config, collateral, &[validator])
    }

    /// Creates `n` users in `subnet` with `funds` each (funded cross-net
    /// below the root).
    ///
    /// # Errors
    ///
    /// Propagates funding failures.
    pub fn add_users(
        &mut self,
        subnet: &SubnetId,
        n: usize,
        funds: TokenAmount,
    ) -> Result<(), RuntimeError> {
        let mut users = Vec::with_capacity(n);
        for _ in 0..n {
            if subnet.is_root() {
                users.push(self.rt.create_user(subnet, funds)?);
            } else {
                let u = self.rt.create_user(subnet, TokenAmount::ZERO)?;
                if !funds.is_zero() {
                    self.rt.cross_transfer(&self.banker, &u, funds)?;
                }
                users.push(u);
            }
        }
        if !subnet.is_root() && !funds.is_zero() {
            self.rt.run_until_quiescent(50_000)?;
        }
        self.users.entry(subnet.clone()).or_default().extend(users);
        Ok(())
    }

    /// All subnets including the root.
    pub fn all_subnets(&self) -> Vec<SubnetId> {
        let mut all = vec![SubnetId::root()];
        all.extend(self.subnets.iter().cloned());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_spawns_siblings_with_funded_users() {
        let topo = TopologyBuilder::new().users_per_subnet(2).flat(3).unwrap();
        assert_eq!(topo.subnets.len(), 3);
        for s in &topo.subnets {
            assert_eq!(s.depth(), 1);
            for u in &topo.users[s] {
                assert_eq!(topo.rt.balance(u), whole(1_000));
            }
        }
        hc_core::audit_quiescent(&topo.rt).unwrap();
    }

    #[test]
    fn deep_topology_builds_a_chain() {
        let topo = TopologyBuilder::new().users_per_subnet(1).deep(3).unwrap();
        assert_eq!(topo.subnets.len(), 3);
        assert_eq!(topo.subnets[2].depth(), 3);
        assert!(topo.subnets[1].is_ancestor_of(&topo.subnets[2]));
        hc_core::audit_quiescent(&topo.rt).unwrap();
    }

    #[test]
    fn tree_topology_has_fanout_times_levels() {
        let topo = TopologyBuilder::new()
            .users_per_subnet(1)
            .tree(2, 2)
            .unwrap();
        // 2 children + 4 grandchildren.
        assert_eq!(topo.subnets.len(), 6);
        assert_eq!(topo.subnets.iter().filter(|s| s.depth() == 2).count(), 4);
    }
}
