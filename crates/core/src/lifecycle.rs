//! Subnet lifecycle (paper §III): spawning and booting child subnets,
//! region placement, validator refresh, balance snapshots, and retiring
//! a killed subnet.

use hc_actors::sa::{SaConfig, SaState};
use hc_consensus::{EngineParams, ValidatorSet};
use hc_net::SubscriberId;
use hc_state::Method;
use hc_types::{Address, CanonicalEncode, SubnetId, TokenAmount};

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
            Method::DeploySubnetActor {
                config: sa_config.into(),
            },
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
            let key = v.key.public();
            self.execute(v, sa, *stake, Method::JoinSubnet { key })?;
        }

        // 4. Boot the child chain.
        self.boot_child_node(&child_id, &boot_config, &engine_params);
        self.journal.append(&ControlRecord::SubnetBoot {
            child: child_id.clone(),
            config: boot_config,
            engine_params,
        });
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
        let due_ms = self.now_ms + engine_params.block_time_ms;
        let boot = Some((config, engine_params));
        self.genesis_node(child_id, boot, subscription, due_ms);
        // The boot parameters are remembered so a crashed node can be
        // rebuilt from genesis at rejoin ([`HierarchyRuntime::rejoin_node`]).
        self.subnets
            .boot(child_id, Some((config.clone(), engine_params.clone())));
        self.assign_boot_region(child_id);
        self.refresh_validators(child_id);
    }

    /// The one way a node comes up, at genesis on the shared blob store and
    /// due at `due_ms`: the rootnet's boot (`boot` is `None`), a child's
    /// boot, and the restart of [`HierarchyRuntime::restart_node`]. The
    /// node receives, in order, the inbox its record kept while no node of
    /// the subnet ran.
    pub(crate) fn genesis_node(
        &mut self,
        subnet: &SubnetId,
        boot: Option<(&SaConfig, &EngineParams)>,
        subscription: SubscriberId,
        due_ms: u64,
    ) -> &mut SubnetNode {
        let (config, store) = (&self.config, self.store.clone());
        let mut node =
            SubnetNode::genesis(subnet.clone(), config, boot, subscription, due_ms, store);
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            for input in std::mem::take(&mut record.inbox) {
                node.receive(input);
            }
        }
        self.nodes.insert(subnet.clone(), node);
        self.nodes.get_mut(subnet).expect("just inserted")
    }

    /// The Subnet Actor of `subnet` as its parent chain holds it: `None`
    /// for the rootnet, or while the parent has no node.
    pub(crate) fn sa_of(&self, subnet: &SubnetId) -> Option<&SaState> {
        let parent = self.nodes.get(&subnet.parent()?)?;
        parent.state().sa(subnet.actor()?)
    }

    /// Refreshes a child node's validator set from the parent's Subnet
    /// Actor (membership changes take effect as the child syncs the parent
    /// chain); the node derives the key of a member it lacks from the
    /// member's address ([`SubnetNode::install_validators`]).
    pub(crate) fn refresh_validators(&mut self, subnet: &SubnetId) {
        let Some(sa) = self.sa_of(subnet) else {
            return;
        };
        let set = ValidatorSet::from_sa(sa);
        let seed = self.config.seed;
        if let Some(node) = self.nodes.get_mut(subnet) {
            node.install_validators(set, |addr| Self::user_key(seed, addr));
        }
    }

    /// Assigns a freshly booted node to a region per the placement policy
    /// (paper §V geo-distribution), on the live network (via the node's
    /// subscription) and in the subnet's record. A no-op when the region
    /// map declares at most one region, so default configurations stay
    /// bit-identical to a place-less network. Nothing is journaled: the
    /// placement is a function of the config and the boot order, and
    /// recovery boots the root and replays every
    /// [`ControlRecord::SubnetBoot`] in that order, so it places each
    /// subnet again where it was.
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
        if let Some(node) = self.nodes.get(subnet) {
            self.network.place_in_region(node.subscription(), &region);
        }
        if let Some(record) = self.subnets.by_id.get_mut(subnet) {
            record.region = Some(region);
        }
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
    /// machinery (node, record, anchors); fund recovery stays possible
    /// afterwards because it runs on the *parent* against the saved
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Refused for the root, subnets with children (crashed or not yet
    /// booted ones included), crashed or catching-up subnets, subnets whose
    /// SA is not killed on the parent, or subnets that still hold pending
    /// work.
    pub fn retire_subnet(&mut self, subnet: &SubnetId) -> Result<(), RuntimeError> {
        let parent = subnet
            .parent()
            .ok_or_else(|| RuntimeError::Retire("the root cannot be retired".into()))?;
        // Before the membership test: a crashed subnet's node is out of
        // `nodes`, yet the subnet is anything but unknown.
        if self.is_crashed(subnet) || self.is_catching_up(subnet) {
            return Err(RuntimeError::Retire(format!(
                "{subnet} is crashed or catching up"
            )));
        }
        let node = self.known_node(subnet)?;
        if self
            .subnets
            .by_id
            .keys()
            .any(|s| s.parent().as_ref() == Some(subnet))
        {
            return Err(RuntimeError::Retire(format!(
                "{subnet} still has child subnets"
            )));
        }
        let status = self
            .nodes
            .get(&parent)
            .and_then(|p| p.state().sca().subnet(subnet))
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
            self.network.set_offline(node.subscription(), true);
        }
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
            let mut balances = Vec::new();
            node.state().accounts().for_each(|addr, acc| {
                if !addr.is_system() && !acc.balance.is_zero() {
                    balances.push((*addr, acc.balance));
                }
            });
            let epoch = node.chain().head_epoch();
            let (snapshot, tree) = hc_actors::StateSnapshot::build(subnet.clone(), epoch, balances);
            let signatures = node.attest(snapshot.cid().as_bytes());
            (snapshot, tree, signatures)
        };
        self.execute(
            submitter,
            Address::SCA,
            TokenAmount::ZERO,
            Method::SaveSnapshot {
                snapshot: snapshot.into(),
                signatures,
            },
        )?;
        // Persist the child's full state alongside the balance snapshot:
        // the chunk manifest in the shared CidStore structurally shares
        // every chunk unchanged since the last persist.
        if let Some(node) = self.nodes.get_mut(subnet) {
            let manifest = node.persist_state();
            self.journal.append(&ControlRecord::SnapshotAnchor {
                subnet: subnet.clone(),
                manifest,
            });
            self.track_manifest(subnet, manifest);
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use hc_actors::sa::SaConfig;
    use hc_actors::{CrossMsg, HcAddress, Ledger};
    use hc_state::Method;
    use hc_types::{Address, SubnetId, TokenAmount};

    use crate::config::RuntimeConfig;
    use crate::node::Input;
    use crate::runtime::HierarchyRuntime;

    /// A top-down transfer committed for a child that is registered but
    /// not yet booted — `spawn_subnet`'s steps by hand, the boot last —
    /// waits in the record its delivery opens, and the node the boot
    /// builds takes it and applies it.
    #[test]
    fn a_delivery_before_the_boot_waits_for_the_node() {
        let whole = TokenAmount::from_whole;
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(1_000)).unwrap();
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let config = SaConfig::default();
        let deploy = Method::DeploySubnetActor {
            config: config.clone().into(),
        };
        let ret = rt.execute(&alice, Address::SYSTEM, TokenAmount::ZERO, deploy);
        let sa = Address::new(u64::from_le_bytes(ret.unwrap().ret.try_into().unwrap()));
        let register = Method::RegisterSubnet { sa };
        rt.execute(&alice, Address::SCA, whole(10), register)
            .unwrap();
        let join = Method::JoinSubnet {
            key: validator.key.public(),
        };
        rt.execute(&validator, sa, whole(5), join).unwrap();
        let child = root.child(sa);
        let to = HcAddress::new(child.clone(), Address::new(500));
        let transfer = CrossMsg::transfer(alice.hc_address(), to, whole(3));
        rt.send_cross_msg(&alice, transfer).unwrap();

        assert_eq!(rt.subnets.by_id[&child].inbox.len(), 1);
        assert!(!rt.all_quiescent(), "the transfer is in flight");
        rt.check_invariants().unwrap();

        let params = rt.config.engine_params.clone();
        rt.boot_child_node(&child, &config, &params);
        let record = &rt.subnets.by_id[&child];
        assert!(record.inbox.is_empty() && record.boot.is_some());
        rt.run_until_quiescent(10_000).unwrap();
        let accounts = rt.node(&child).unwrap().state().accounts();
        assert_eq!(accounts.balance(Address::new(500)), whole(3));
        crate::audit_quiescent(&rt).unwrap();
    }

    /// A middle subnet that goes down holding both kinds of input — a
    /// top-down transfer it has not applied and a checkpoint its child cut
    /// that it has not committed — leaves both in its record's inbox, and
    /// the node its rejoin builds holds them again.
    #[test]
    fn a_crashed_node_hands_its_inbox_to_the_next() {
        let whole = TokenAmount::from_whole;
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let alice = rt.create_user(&root, whole(1_000)).unwrap();
        let validator = rt.create_user(&root, whole(100)).unwrap();
        let stake = [(validator, whole(5))];
        let middle = rt
            .spawn_subnet(&alice, SaConfig::default(), whole(10), &stake)
            .unwrap();
        let creator = rt.create_user(&middle, TokenAmount::ZERO).unwrap();
        let staker = rt.create_user(&middle, TokenAmount::ZERO).unwrap();
        rt.cross_transfer(&alice, &creator, whole(50)).unwrap();
        rt.cross_transfer(&alice, &staker, whole(50)).unwrap();
        rt.run_until_quiescent(10_000).unwrap();
        let stake = [(staker, whole(5))];
        let leaf = rt
            .spawn_subnet(&creator, SaConfig::default(), whole(10), &stake)
            .unwrap();

        // The leaf's cut waits in the middle's queue; the leaf stays down
        // so that the middle, its only descendant gone, may go down too.
        while rt.nodes[&middle].pending_checkpoints().is_empty() {
            rt.step().unwrap();
        }
        rt.crash_node(&leaf).unwrap();
        // The root commits a transfer into the middle subnet, which
        // produces no block before it goes down.
        let had = rt.balance(&creator);
        rt.cross_transfer_lazy_with_fee(&alice, &creator, whole(3), u64::MAX)
            .unwrap();
        rt.tick_subnet(&root).unwrap();
        let node = &rt.nodes[&middle];
        let checkpoints = node.pending_checkpoints().to_vec();
        let top_down = node.cross_pool().pending_top_down();
        assert_eq!(top_down, 1);

        rt.crash_node(&middle).unwrap();
        let inbox = &rt.subnets.by_id[&middle].inbox;
        let held_top_down = inbox
            .iter()
            .filter(|i| matches!(i, Input::TopDown(_)))
            .count();
        let held_checkpoints: Vec<_> = inbox
            .iter()
            .filter_map(|i| match i {
                Input::Checkpoint(signed) => Some(signed.clone()),
                _ => None,
            })
            .collect();
        assert_eq!((held_top_down, &held_checkpoints), (top_down, &checkpoints));

        rt.rejoin_node(&middle).unwrap();
        let node = &rt.nodes[&middle];
        assert_eq!(node.pending_checkpoints(), checkpoints.as_slice());
        assert_eq!(node.cross_pool().pending_top_down(), top_down);
        assert!(rt.subnets.by_id[&middle].inbox.is_empty());
        rt.rejoin_node(&leaf).unwrap();
        rt.run_until_quiescent(10_000).unwrap();
        assert_eq!(rt.balance(&creator), had + whole(3));
        crate::audit_quiescent(&rt).unwrap();
    }
}
