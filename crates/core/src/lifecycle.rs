//! Subnet lifecycle (paper §III): spawning and booting child subnets,
//! region placement, validator refresh, balance snapshots, and retiring
//! a killed subnet.

use hc_actors::sa::SaConfig;
use hc_consensus::{EngineParams, ValidatorSet};
use hc_state::Method;
use hc_types::{Address, CanonicalEncode, Keypair, SubnetId, TokenAmount};

use crate::config::{PlacementPolicy, RuntimeError, UserHandle};
use crate::node::SubnetNode;
use crate::persist::ControlRecord;
use crate::runtime::HierarchyRuntime;

impl HierarchyRuntime {
    /// Spawns a child subnet of `creator`'s subnet: deploys the Subnet
    /// Actor, registers it with the SCA (freezing `collateral` from the
    /// creator), joins the given validators with their stakes, and boots
    /// the child chain (paper §III-A).
    ///
    /// # Errors
    ///
    /// Fails if any stage of the flow fails (insufficient funds, duplicate
    /// registration, validators on the wrong subnet, …).
    pub fn spawn_subnet(
        &mut self,
        creator: &UserHandle,
        sa_config: SaConfig,
        collateral: TokenAmount,
        validators: &[(UserHandle, TokenAmount)],
    ) -> Result<SubnetId, RuntimeError> {
        let params = self.config.engine_params.clone();
        self.spawn_subnet_with_params(creator, sa_config, collateral, validators, params)
    }

    /// [`HierarchyRuntime::spawn_subnet`] with subnet-specific consensus
    /// engine parameters — "each subnet can … set its own security and
    /// performance guarantees" (paper §I): block time, capacity, network
    /// delay, fault rate, and leader count can all differ per subnet.
    ///
    /// # Errors
    ///
    /// Same as [`HierarchyRuntime::spawn_subnet`].
    pub fn spawn_subnet_with_params(
        &mut self,
        creator: &UserHandle,
        sa_config: SaConfig,
        collateral: TokenAmount,
        validators: &[(UserHandle, TokenAmount)],
        engine_params: EngineParams,
    ) -> Result<SubnetId, RuntimeError> {
        let parent = creator.subnet.clone();
        let boot_config = sa_config.clone();

        // 1. Deploy the Subnet Actor.
        let rec = self.execute(
            creator,
            Address::SYSTEM,
            TokenAmount::ZERO,
            Method::DeploySubnetActor { config: sa_config },
        )?;
        let sa_bytes: [u8; 8] = rec
            .ret
            .as_slice()
            .try_into()
            .map_err(|_| RuntimeError::Spawn("deploy returned no address".into()))?;
        let sa = Address::new(u64::from_le_bytes(sa_bytes));

        // 2. Register with the parent SCA.
        self.execute(
            creator,
            Address::SCA,
            collateral,
            Method::RegisterSubnet { sa },
        )?;
        let child_id = parent.child(sa);

        // 3. Validators join.
        for (v, stake) in validators {
            if v.subnet != parent {
                return Err(RuntimeError::Spawn(format!(
                    "validator {} lives in {}, not the parent {}",
                    v.addr, v.subnet, parent
                )));
            }
            let key = self
                .wallets
                .key(&parent, v.addr)
                .ok_or_else(|| RuntimeError::UnknownUser(v.clone()))?
                .public();
            self.execute(v, sa, *stake, Method::JoinSubnet { key })?;
        }

        // 4. Boot the child chain.
        self.boot_child_node(&child_id, &boot_config, &engine_params);
        self.journal.append(&ControlRecord::SubnetBoot {
            child: child_id.clone(),
            config: boot_config,
            engine_params,
        });
        // After SubnetBoot so replay sees records in dependency order.
        self.journal_region(&child_id);
        Ok(child_id)
    }

    /// Boots a child subnet's node structure (spawn step 4) — the shared
    /// tail of [`HierarchyRuntime::spawn_subnet_with_params`] and its
    /// recovery replay. The parent-side actor state (SA deployment,
    /// registration, joins) is *not* created here; it comes from executed
    /// blocks.
    pub(crate) fn boot_child_node(
        &mut self,
        child_id: &SubnetId,
        config: &SaConfig,
        engine_params: &EngineParams,
    ) {
        let Some(parent) = child_id.parent() else {
            return;
        };
        let subscription = self.network.subscribe(&child_id.topic());
        // Child nodes also run full nodes on the parent (paper §II): they
        // follow the parent's topic for resolution traffic.
        self.network.join(subscription, &parent.topic());
        let node = SubnetNode::genesis(
            child_id.clone(),
            &self.config,
            Some((config, engine_params)),
            subscription,
            self.now_ms + engine_params.block_time_ms,
            self.store.clone(),
        );
        self.nodes.insert(child_id.clone(), node);
        // The boot parameters are remembered so a crashed node can be
        // rebuilt from genesis at rejoin ([`HierarchyRuntime::rejoin_node`]).
        self.subnets
            .boot(child_id, Some((config.clone(), engine_params.clone())));
        self.assign_boot_region(child_id);
        self.refresh_validators(child_id);
    }

    /// Refreshes a child node's validator set and keys from the parent's
    /// Subnet Actor (membership changes take effect as the child syncs the
    /// parent chain).
    pub(crate) fn refresh_validators(&mut self, subnet: &SubnetId) {
        let Some(parent) = subnet.parent() else {
            return;
        };
        let Some(sa_addr) = subnet.actor() else {
            return;
        };
        let Some(parent_node) = self.nodes.get(&parent) else {
            return;
        };
        let Some(sa) = parent_node.tree.sa(sa_addr) else {
            return;
        };
        let set = ValidatorSet::from_sa(sa);
        let keys: Vec<Keypair> = set
            .validators()
            .iter()
            .filter_map(|v| self.wallets.key(&parent, v.addr).cloned())
            .collect();
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.validators = set;
            node.validator_keys = keys;
        }
    }

    /// Assigns a freshly booted node to a region per the placement policy
    /// (paper §V geo-distribution). A no-op — no placement, no journal
    /// record — when the region map declares at most one region, so
    /// default configurations stay bit-identical to a place-less network.
    /// Journaling happens at the caller's control-log point (after
    /// [`ControlRecord::SubnetBoot`]), never here, so replay sees records
    /// in dependency order.
    pub(crate) fn assign_boot_region(&mut self, subnet: &SubnetId) {
        let names = self.network.region_map().region_names().to_vec();
        if names.len() <= 1 {
            return;
        }
        let region = match self.config.placement {
            PlacementPolicy::Uniform => return,
            PlacementPolicy::RoundRobin => {
                names[self.subnets.next_region_slot() % names.len()].clone()
            }
            PlacementPolicy::FollowParent => subnet
                .parent()
                .and_then(|parent| self.region_of_subnet(&parent))
                .map_or_else(|| names[0].clone(), str::to_owned),
        };
        self.apply_region(subnet, &region);
    }

    /// Applies a region placement to the live network (via the node's
    /// subscription, when booted) and the subnet's record. Idempotent.
    pub(crate) fn apply_region(&mut self, subnet: &SubnetId, region: &str) {
        if let Some(node) = self.nodes.get(subnet) {
            self.network.place_in_region(node.subscription, region);
        }
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.region = Some(region.to_owned());
        }
    }

    /// Journals `subnet`'s placement, if it has one.
    pub(crate) fn journal_region(&mut self, subnet: &SubnetId) {
        if let Some(region) = self.region_of_subnet(subnet).map(str::to_owned) {
            self.journal.append(&ControlRecord::RegionAssigned {
                subnet: subnet.clone(),
                region,
            });
        }
    }

    /// Explicitly places `subnet`'s node in `region`, overriding the
    /// boot-time placement policy. The override is journaled (control log)
    /// so recovery reproduces it, and recorded so a crash–rejoin re-places
    /// the node's fresh subscription.
    ///
    /// # Errors
    ///
    /// Fails for unknown subnets and for regions the network's
    /// [`hc_net::RegionMap`] never declared.
    pub fn place_subnet(&mut self, subnet: &SubnetId, region: &str) -> Result<(), RuntimeError> {
        self.known_node(subnet)?;
        if self.network.region_map().region_index(region).is_none() {
            return Err(RuntimeError::Execution(format!(
                "region {region} is not declared in the network's region map"
            )));
        }
        self.apply_region(subnet, region);
        self.journal_region(subnet);
        Ok(())
    }

    /// The region `subnet`'s node is placed in, or `None` for default
    /// (region-less) placement.
    pub fn region_of_subnet(&self, subnet: &SubnetId) -> Option<&str> {
        self.subnets.by_id.get(subnet)?.region.as_deref()
    }

    /// Removes a killed, fully drained leaf subnet's node from the
    /// hierarchy — the final step of elastic scale-in after traffic was
    /// rehomed, the subnet killed via [`Method::KillSubnet`], and funds
    /// recovered on the parent. Retirement only tears down runtime
    /// machinery (node, wallets, anchors); fund recovery stays possible
    /// afterwards because it runs on the *parent* against the saved
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Refused for the root, subnets with live children, crashed or
    /// catching-up subnets, subnets whose SA is not killed on the parent,
    /// or subnets that still hold pending work.
    pub fn retire_subnet(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let parent = subnet
            .parent()
            .ok_or_else(|| RuntimeError::Retire("the root cannot be retired".into()))?;
        // Before the membership test: a crashed subnet's node is out of
        // `nodes`, yet the subnet is anything but unknown.
        if self.subnets.by_id.get(subnet).is_some_and(|r| !r.is_live()) {
            return Err(RuntimeError::Retire(format!(
                "{subnet} is crashed or catching up"
            )));
        }
        let node = self.known_node(subnet)?;
        if self
            .nodes
            .keys()
            .any(|s| s.parent().as_ref() == Some(subnet))
        {
            return Err(RuntimeError::Retire(format!(
                "{subnet} still has live child subnets"
            )));
        }
        let status = self
            .nodes
            .get(&parent)
            .and_then(|p| p.tree.sca().subnet(subnet))
            .map(|info| info.status);
        if status != Some(hc_actors::SubnetStatus::Killed) {
            return Err(RuntimeError::Retire(format!(
                "{subnet} must be killed on its parent before retirement"
            )));
        }
        if !node.is_quiescent() {
            return Err(RuntimeError::Retire(format!(
                "{subnet} still holds pending work"
            )));
        }
        self.retire_node(subnet);
        self.journal.append(&ControlRecord::SubnetRetired {
            subnet: subnet.clone(),
        });
        Ok(())
    }

    /// The shared tail of [`HierarchyRuntime::retire_subnet`] and its
    /// recovery replay: drops the node and every piece of runtime state
    /// keyed by the subnet, and takes its network subscription offline so
    /// undeliverable traffic stops queueing.
    pub(crate) fn retire_node(&mut self, subnet: &SubnetId) {
        if let Some(node) = self.nodes.remove(subnet) {
            self.network.set_offline(node.subscription, true);
        }
        self.wallets.retire(subnet);
        self.subnets.by_id.remove(subnet);
    }

    /// Builds a balance snapshot of `subnet` from its current state, signs
    /// it with the subnet's validators, and persists it in the parent's
    /// SCA through `submitter` (a funded parent-chain user). Returns the
    /// prover-side [`hc_actors::SnapshotTree`] from which users mint
    /// recovery proofs (paper §III-C).
    ///
    /// # Errors
    ///
    /// Fails for root/unknown subnets or if the persist message fails.
    pub fn save_snapshot(
        &mut self,
        submitter: &UserHandle,
        subnet: &SubnetId,
    ) -> Result<hc_actors::SnapshotTree, RuntimeError> {
        let Some(parent) = subnet.parent() else {
            return Err(RuntimeError::Execution(
                "the rootnet has no parent to persist snapshots in".into(),
            ));
        };
        if submitter.subnet != parent {
            return Err(RuntimeError::Execution(format!(
                "snapshots of {subnet} are persisted in {parent}; the submitter lives in {}",
                submitter.subnet
            )));
        }
        let (snapshot, tree, signatures) = {
            let node = self.known_node(subnet)?;
            // Snapshot user balances only: system-actor balances (escrow,
            // burnt funds, rewards) are protocol bookkeeping, not
            // user-recoverable value.
            let balances = node
                .tree
                .accounts()
                .iter()
                .filter(|(addr, acc)| !addr.is_system() && !acc.balance.is_zero())
                .map(|(addr, acc)| (*addr, acc.balance));
            let (snapshot, tree) =
                hc_actors::StateSnapshot::build(subnet.clone(), node.chain.head_epoch(), balances);
            let mut signatures = hc_types::crypto::AggregateSignature::new();
            let bytes = snapshot.cid();
            for key in &node.validator_keys {
                signatures.add(key.sign(bytes.as_bytes()));
            }
            (snapshot, tree, signatures)
        };
        self.execute(
            submitter,
            Address::SCA,
            TokenAmount::ZERO,
            Method::SaveSnapshot {
                snapshot,
                signatures,
            },
        )?;
        // Persist the child's full state alongside the balance snapshot:
        // the chunk manifest in the shared CidStore structurally shares
        // every chunk unchanged since the last persist.
        if let Some(node) = self.nodes.get_mut(subnet) {
            let manifest = node.tree.persist(&node.store);
            node.stats.state_persists += 1;
            self.journal.append(&ControlRecord::SnapshotAnchor {
                subnet: subnet.clone(),
                manifest,
            });
            self.track_manifest(subnet, manifest);
        }
        Ok(tree)
    }
}
