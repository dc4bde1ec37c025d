//! The Subnet Coordinator Actor (SCA).
//!
//! One SCA instance lives in every subnet's state. It is the trusted system
//! actor that (paper §III-A) "exposes the interface for subnets to interact
//! with the hierarchical consensus protocol", enforcing security
//! assumptions, fund management, and cryptoeconomics on top of the
//! user-defined (and untrusted) Subnet Actors:
//!
//! * **Registration & collateral** — children register with an initial
//!   collateral which is frozen for the subnet's lifetime, slashed on fraud
//!   proofs, and gates the subnet's `Active` status
//!   ([`ScaState::register_subnet`], [`ScaState::add_collateral`],
//!   [`ScaState::release_collateral`], [`ScaState::kill_subnet`],
//!   [`ScaState::slash`]).
//! * **Top-down messages** — committing a message towards a child freezes
//!   its value in the SCA escrow, stamps the child's next top-down nonce,
//!   and queues it for the child's consensus
//!   ([`ScaState::commit_top_down`], [`ScaState::apply_top_down`]).
//! * **Bottom-up messages** — messages leaving the subnet burn funds
//!   locally and are aggregated per destination into the current checkpoint
//!   window; committed child checkpoints release escrow, update circulating
//!   supply (the **firewall**), and sort metas into
//!   apply-here / turn-around / propagate-up
//!   ([`ScaState::send_cross_msg`], [`ScaState::commit_child_checkpoint`],
//!   [`ScaState::apply_bottom_up`]).
//! * **Checkpointing** — the SCA owns the checkpoint template of its subnet
//!   and cuts it at every period boundary ([`ScaState::cut_checkpoint`]).
//! * **Content registry** — the raw messages behind every `CrossMsgMeta`
//!   this SCA cuts are handed to the caller of
//!   [`ScaState::cut_checkpoint`], which commits them to the state tree's
//!   append-only registry log (the SCA itself keeps no history).
//! * **State snapshots** — the `save` function persisting subnet state
//!   proofs ([`ScaState::save_state`]).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use hc_types::decode::{ByteReader, CanonicalDecode, DecodeError};
use hc_types::{
    decode_fields, encode_fields, Address, CanonicalEncode, ChainEpoch, Cid, Nonce, SubnetId,
    TokenAmount,
};

use crate::checkpoint::Checkpoint;
use crate::ledger::{Ledger, LedgerError};
use crate::msg::{CrossMsg, CrossMsgMeta, MsgGroup};
use crate::snapshot::{BalanceProof, StateSnapshot};

/// Static parameters of an SCA instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaConfig {
    /// Checkpoint period of this subnet, in its own epochs. At every
    /// multiple of this period the current checkpoint template is cut and
    /// handed to the validators for signing (paper Fig. 2).
    pub checkpoint_period: u64,
    /// Minimum collateral a child subnet must hold to stay `Active`
    /// (`minCollateral_subnet`, paper §III-B).
    pub min_collateral: TokenAmount,
    /// Flat fee charged per cross-net message, paid to the reward actor of
    /// the subnet committing the message ("miners in subnets are rewarded
    /// with fees", paper §II).
    pub cross_msg_fee: TokenAmount,
}

impl Default for ScaConfig {
    fn default() -> Self {
        ScaConfig {
            checkpoint_period: 10,
            min_collateral: TokenAmount::from_whole(10),
            cross_msg_fee: TokenAmount::ZERO,
        }
    }
}

encode_fields!(ScaConfig {
    checkpoint_period,
    min_collateral,
    cross_msg_fee,
});
decode_fields!(ScaConfig {
    checkpoint_period,
    min_collateral,
    cross_msg_fee,
});

/// Lifecycle status of a registered child subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubnetStatus {
    /// Collateral ≥ minimum; the subnet may interact with the hierarchy.
    Active,
    /// Collateral dropped below the minimum; cross-net interaction is
    /// suspended until users top the collateral back up (paper §III-B).
    Inactive,
    /// The subnet was killed; only state recovery via saved snapshots
    /// remains possible.
    Killed,
}

impl fmt::Display for SubnetStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubnetStatus::Active => "active",
            SubnetStatus::Inactive => "inactive",
            SubnetStatus::Killed => "killed",
        };
        f.write_str(s)
    }
}

impl CanonicalEncode for SubnetStatus {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            SubnetStatus::Active => 0,
            SubnetStatus::Inactive => 1,
            SubnetStatus::Killed => 2,
        };
        tag.write_bytes(out);
    }
}

impl CanonicalDecode for SubnetStatus {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(SubnetStatus::Active),
            1 => Ok(SubnetStatus::Inactive),
            2 => Ok(SubnetStatus::Killed),
            tag => Err(DecodeError::BadTag {
                what: "SubnetStatus",
                tag,
            }),
        }
    }
}

/// Everything the SCA tracks about one registered child subnet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubnetInfo {
    /// The child's hierarchical ID.
    pub id: SubnetId,
    /// Address of the child's Subnet Actor in this chain.
    pub sa: Address,
    /// Collateral currently frozen for the child. Not part of the child's
    /// circulating supply.
    pub collateral: TokenAmount,
    /// Circulating supply of the parent token inside the child: the
    /// (positive) balance between value injected top-down and value
    /// returned bottom-up. This is exactly the firewall bound: a fully
    /// compromised child can extract at most this amount (paper §II).
    pub circ_supply: TokenAmount,
    /// Lifecycle status.
    pub status: SubnetStatus,
    /// Epoch (of this chain) at which the child registered.
    pub registered_at: ChainEpoch,
    /// CID of the child's most recent committed checkpoint
    /// ([`Cid::NIL`] before the first).
    pub prev_checkpoint: Cid,
    /// Next top-down nonce to assign for messages directed at this child.
    pub topdown_nonce: Nonce,
    /// Number of checkpoints the child has committed.
    pub committed_checkpoints: u64,
}

encode_fields!(SubnetInfo {
    id,
    sa,
    collateral,
    circ_supply,
    status,
    registered_at,
    prev_checkpoint,
    topdown_nonce,
    committed_checkpoints,
});
decode_fields!(SubnetInfo {
    id,
    sa,
    collateral,
    circ_supply,
    status,
    registered_at,
    prev_checkpoint,
    topdown_nonce,
    committed_checkpoints,
});

/// Result of committing a child checkpoint: where each carried
/// `CrossMsgMeta` must go next.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CheckpointOutcome {
    /// Metas whose destination is this subnet; stamped with fresh bottom-up
    /// nonces, queued for application once their content is resolved.
    pub applied_here: Vec<CrossMsgMeta>,
    /// Metas whose destination is a *descendant* of this subnet (path
    /// messages turning around at their least common ancestor). The runtime
    /// resolves their content and re-commits each message top-down.
    pub turnaround: Vec<CrossMsgMeta>,
    /// Metas propagated further up inside this subnet's next checkpoint.
    pub propagated_up: Vec<CrossMsgMeta>,
}

/// Errors returned by SCA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaError {
    /// The referenced child subnet is not registered.
    SubnetNotFound(SubnetId),
    /// The child subnet exists but is not `Active`.
    SubnetNotActive(SubnetId, SubnetStatus),
    /// A subnet with this Subnet Actor is already registered.
    AlreadyRegistered(SubnetId),
    /// The collateral provided is below the configured minimum.
    InsufficientCollateral {
        /// Collateral offered.
        got: TokenAmount,
        /// Minimum required.
        need: TokenAmount,
    },
    /// **Firewall violation**: the child attempted to move more value out
    /// than its circulating supply. The offending amount is rejected,
    /// bounding the impact of a compromised child (paper §II).
    FirewallViolation {
        /// The child attempting the withdrawal.
        subnet: SubnetId,
        /// Value the child tried to move out.
        attempted: TokenAmount,
        /// The child's current circulating supply (the bound).
        available: TokenAmount,
    },
    /// A structurally invalid checkpoint (wrong source, broken `prev`
    /// chain, stale epoch, …).
    BadCheckpoint(String),
    /// A message was applied out of nonce order.
    NonceMismatch {
        /// Nonce expected next.
        expected: Nonce,
        /// Nonce presented.
        got: Nonce,
    },
    /// The message is not a cross-net message for this operation.
    NotCrossNet,
    /// The destination cannot be reached from this subnet (e.g. message
    /// committed top-down for a child that is not on the route).
    BadRoute(String),
    /// The presented messages do not match the meta's committed CID.
    ContentMismatch(Cid),
    /// Underlying balance operation failed.
    Ledger(LedgerError),
    /// The fraud proof did not demonstrate equivocation.
    InvalidFraudProof(String),
}

impl fmt::Display for ScaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaError::SubnetNotFound(id) => write!(f, "subnet {id} is not registered"),
            ScaError::SubnetNotActive(id, s) => write!(f, "subnet {id} is {s}, not active"),
            ScaError::AlreadyRegistered(id) => write!(f, "subnet {id} is already registered"),
            ScaError::InsufficientCollateral { got, need } => {
                write!(f, "insufficient collateral: got {got}, need {need}")
            }
            ScaError::FirewallViolation {
                subnet,
                attempted,
                available,
            } => write!(
                f,
                "firewall violation: {subnet} attempted to withdraw {attempted} with circulating supply {available}"
            ),
            ScaError::BadCheckpoint(why) => write!(f, "invalid checkpoint: {why}"),
            ScaError::NonceMismatch { expected, got } => {
                write!(f, "nonce mismatch: expected {expected}, got {got}")
            }
            ScaError::NotCrossNet => f.write_str("message is not cross-net"),
            ScaError::BadRoute(why) => write!(f, "unroutable message: {why}"),
            ScaError::ContentMismatch(cid) => {
                write!(f, "messages do not match committed content {cid}")
            }
            ScaError::Ledger(e) => write!(f, "ledger error: {e}"),
            ScaError::InvalidFraudProof(why) => write!(f, "invalid fraud proof: {why}"),
        }
    }
}

impl std::error::Error for ScaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScaError::Ledger(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LedgerError> for ScaError {
    fn from(e: LedgerError) -> Self {
        ScaError::Ledger(e)
    }
}

/// The Subnet Coordinator Actor state for one subnet.
///
/// See the [module docs](self) for the full protocol surface. The state is
/// deterministic and fully serializable; all token movement goes through
/// the [`Ledger`] passed into each operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaState {
    /// The subnet this SCA instance governs.
    subnet_id: SubnetId,
    /// Static configuration.
    config: ScaConfig,
    /// Registered child subnets.
    subnets: BTreeMap<SubnetId, SubnetInfo>,
    /// Committed-but-unapplied top-down messages per child, in nonce order.
    /// Child nodes sync this queue from the parent state (paper Fig. 3).
    top_down_queue: BTreeMap<SubnetId, VecDeque<CrossMsg>>,
    /// Bottom-up messages of the *current* checkpoint window, grouped by
    /// destination subnet (paper Fig. 2: the template being populated).
    window_bottom_up: BTreeMap<SubnetId, Vec<CrossMsg>>,
    /// Metas received from children that must continue upward in the next
    /// checkpoint.
    window_propagated: Vec<CrossMsgMeta>,
    /// Child checkpoint CIDs committed during the current window, included
    /// in the next cut checkpoint's `children` tree.
    window_child_checks: Vec<(SubnetId, Cid)>,
    /// Next nonce stamped on each bottom-up message *sent from* this
    /// subnet (makes every message globally distinguishable and
    /// replay-proof).
    bottomup_send_nonce: Nonce,
    /// Next nonce for bottom-up metas arriving at this subnet.
    bottomup_nonce: Nonce,
    /// Next bottom-up meta nonce expected to be applied.
    applied_bottomup_nonce: Nonce,
    /// Next top-down nonce expected from the parent.
    applied_topdown_nonce: Nonce,
    /// CID of this subnet's own previous cut checkpoint.
    prev_checkpoint: Cid,
    /// Saved state snapshots: `(epoch, state CID)`, via the `save`
    /// function (paper §III-C).
    saved_states: Vec<(ChainEpoch, Cid)>,
    /// Latest balance snapshot persisted for each child (parent-side
    /// `save` function; survives the child being killed).
    child_snapshots: BTreeMap<SubnetId, StateSnapshot>,
    /// Funds already recovered per `(child, claimant)` to prevent double
    /// claims.
    recovered: BTreeMap<(SubnetId, Address), TokenAmount>,
}

impl ScaState {
    /// Creates the SCA for `subnet_id` with the given configuration.
    pub fn new(subnet_id: SubnetId, config: ScaConfig) -> Self {
        ScaState {
            subnet_id,
            config,
            subnets: BTreeMap::new(),
            top_down_queue: BTreeMap::new(),
            window_bottom_up: BTreeMap::new(),
            window_propagated: Vec::new(),
            window_child_checks: Vec::new(),
            bottomup_send_nonce: Nonce::ZERO,
            bottomup_nonce: Nonce::ZERO,
            applied_bottomup_nonce: Nonce::ZERO,
            applied_topdown_nonce: Nonce::ZERO,
            prev_checkpoint: Cid::NIL,
            saved_states: Vec::new(),
            child_snapshots: BTreeMap::new(),
            recovered: BTreeMap::new(),
        }
    }

    /// The subnet this SCA governs.
    pub fn subnet_id(&self) -> &SubnetId {
        &self.subnet_id
    }

    /// The SCA configuration.
    pub fn config(&self) -> &ScaConfig {
        &self.config
    }

    /// Info about a registered child subnet.
    pub fn subnet(&self, id: &SubnetId) -> Option<&SubnetInfo> {
        self.subnets.get(id)
    }

    /// Iterates over all registered child subnets.
    pub fn subnets(&self) -> impl Iterator<Item = &SubnetInfo> {
        self.subnets.values()
    }

    /// Number of registered children (any status).
    pub fn child_count(&self) -> usize {
        self.subnets.len()
    }

    fn active_subnet_mut(&mut self, id: &SubnetId) -> Result<&mut SubnetInfo, ScaError> {
        let info = self
            .subnets
            .get_mut(id)
            .ok_or_else(|| ScaError::SubnetNotFound(id.clone()))?;
        if info.status != SubnetStatus::Active {
            return Err(ScaError::SubnetNotActive(id.clone(), info.status));
        }
        Ok(info)
    }

    // ------------------------------------------------------------------
    // Registration and collateral (paper §III-A, §III-B, §III-C)
    // ------------------------------------------------------------------

    /// Registers a new child subnet governed by the Subnet Actor at `sa`,
    /// freezing `collateral` from `payer` into the SCA.
    ///
    /// The new subnet's ID is derived deterministically:
    /// `self.subnet_id / sa`.
    ///
    /// # Errors
    ///
    /// Fails if the subnet is already registered, the collateral is below
    /// the minimum, or `payer` cannot cover it.
    pub fn register_subnet<L: Ledger>(
        &mut self,
        ledger: &mut L,
        payer: Address,
        sa: Address,
        collateral: TokenAmount,
        now: ChainEpoch,
    ) -> Result<SubnetId, ScaError> {
        let id = self.subnet_id.child(sa);
        if self.subnets.contains_key(&id) {
            return Err(ScaError::AlreadyRegistered(id));
        }
        if collateral < self.config.min_collateral {
            return Err(ScaError::InsufficientCollateral {
                got: collateral,
                need: self.config.min_collateral,
            });
        }
        ledger.transfer(payer, Address::SCA, collateral)?;
        self.subnets.insert(
            id.clone(),
            SubnetInfo {
                id: id.clone(),
                sa,
                collateral,
                circ_supply: TokenAmount::ZERO,
                status: SubnetStatus::Active,
                registered_at: now,
                prev_checkpoint: Cid::NIL,
                topdown_nonce: Nonce::ZERO,
                committed_checkpoints: 0,
            },
        );
        self.top_down_queue.insert(id.clone(), VecDeque::new());
        Ok(id)
    }

    /// Adds collateral to a child subnet, potentially reactivating it.
    ///
    /// # Errors
    ///
    /// Fails if the subnet is unknown or killed, or the payer cannot cover
    /// the amount.
    pub fn add_collateral<L: Ledger>(
        &mut self,
        ledger: &mut L,
        payer: Address,
        id: &SubnetId,
        amount: TokenAmount,
    ) -> Result<(), ScaError> {
        let min = self.config.min_collateral;
        let info = self
            .subnets
            .get_mut(id)
            .ok_or_else(|| ScaError::SubnetNotFound(id.clone()))?;
        if info.status == SubnetStatus::Killed {
            return Err(ScaError::SubnetNotActive(id.clone(), info.status));
        }
        ledger.transfer(payer, Address::SCA, amount)?;
        info.collateral += amount;
        if info.collateral >= min {
            info.status = SubnetStatus::Active;
        }
        Ok(())
    }

    /// Releases `amount` of a child's collateral to `recipient` (a miner
    /// leaving the subnet, paper §III-C). If the remaining collateral drops
    /// below the minimum, the subnet becomes `Inactive`.
    ///
    /// # Errors
    ///
    /// Fails if the subnet is unknown/killed or `amount` exceeds the frozen
    /// collateral.
    pub fn release_collateral<L: Ledger>(
        &mut self,
        ledger: &mut L,
        id: &SubnetId,
        recipient: Address,
        amount: TokenAmount,
    ) -> Result<(), ScaError> {
        let min = self.config.min_collateral;
        let info = self
            .subnets
            .get_mut(id)
            .ok_or_else(|| ScaError::SubnetNotFound(id.clone()))?;
        if info.status == SubnetStatus::Killed {
            return Err(ScaError::SubnetNotActive(id.clone(), info.status));
        }
        let remaining =
            info.collateral
                .checked_sub(amount)
                .ok_or(ScaError::InsufficientCollateral {
                    got: info.collateral,
                    need: amount,
                })?;
        ledger.transfer(Address::SCA, recipient, amount)?;
        info.collateral = remaining;
        if info.collateral < min {
            info.status = SubnetStatus::Inactive;
        }
        Ok(())
    }

    /// Kills a child subnet, releasing all remaining collateral to
    /// `recipient` (paper §III-C). The subnet can no longer interact with
    /// the hierarchy; saved snapshots remain available for state recovery.
    ///
    /// # Errors
    ///
    /// Fails if the subnet is unknown or already killed.
    pub fn kill_subnet<L: Ledger>(
        &mut self,
        ledger: &mut L,
        id: &SubnetId,
        recipient: Address,
    ) -> Result<TokenAmount, ScaError> {
        let info = self
            .subnets
            .get_mut(id)
            .ok_or_else(|| ScaError::SubnetNotFound(id.clone()))?;
        if info.status == SubnetStatus::Killed {
            return Err(ScaError::SubnetNotActive(id.clone(), info.status));
        }
        let released = info.collateral;
        ledger.transfer(Address::SCA, recipient, released)?;
        info.collateral = TokenAmount::ZERO;
        info.status = SubnetStatus::Killed;
        self.top_down_queue.remove(id);
        Ok(released)
    }

    /// Slashes `amount` from a child's collateral after a valid fraud
    /// proof: half is burned, half rewards the reporter. The subnet drops
    /// to `Inactive` if the remainder is below the minimum.
    ///
    /// The fraud-proof *validation* lives in
    /// [`crate::sa::FraudProof::validate`]; this method applies the
    /// economic consequence.
    ///
    /// # Errors
    ///
    /// Fails if the subnet is unknown.
    pub fn slash<L: Ledger>(
        &mut self,
        ledger: &mut L,
        id: &SubnetId,
        amount: TokenAmount,
        reporter: Address,
    ) -> Result<TokenAmount, ScaError> {
        let min = self.config.min_collateral;
        let info = self
            .subnets
            .get_mut(id)
            .ok_or_else(|| ScaError::SubnetNotFound(id.clone()))?;
        let slashed = amount.min(info.collateral);
        info.collateral -= slashed;
        let reward = TokenAmount::from_atto(slashed.atto() / 2);
        ledger.transfer(Address::SCA, reporter, reward)?;
        ledger.transfer(Address::SCA, Address::BURNT_FUNDS, slashed - reward)?;
        if info.collateral < min {
            info.status = SubnetStatus::Inactive;
        }
        Ok(slashed)
    }

    // ------------------------------------------------------------------
    // Cross-net messages (paper §IV)
    // ------------------------------------------------------------------

    /// Entry point for a cross-net message originated by `sender` *in this
    /// subnet*. Dispatches on direction:
    ///
    /// * destination below → committed top-down immediately;
    /// * destination above or in another branch → burned locally and added
    ///   to the current checkpoint window (bottom-up leg first).
    ///
    /// # Errors
    ///
    /// Fails for local (non-cross-net) messages, inactive child subnets,
    /// or insufficient sender funds (value + fee).
    pub fn send_cross_msg<L: Ledger>(
        &mut self,
        ledger: &mut L,
        sender: Address,
        mut msg: CrossMsg,
    ) -> Result<CrossMsg, ScaError> {
        if msg.from.subnet != self.subnet_id {
            return Err(ScaError::BadRoute(format!(
                "message source {} is not this subnet {}",
                msg.from.subnet, self.subnet_id
            )));
        }
        if msg.to.subnet == self.subnet_id {
            return Err(ScaError::NotCrossNet);
        }
        msg.fee = self.config.cross_msg_fee;
        // Collect value + fee from the sender up front.
        ledger.debit(sender, msg.value + msg.fee)?;
        ledger.credit(Address::REWARD, msg.fee);
        if msg.is_top_down() {
            // Freeze value in the SCA escrow and queue for the child.
            ledger.credit(Address::SCA, msg.value);
            self.commit_top_down(msg)
        } else {
            // Bottom-up (or the bottom-up leg of a path message): value
            // leaves this subnet, so it is burned here; the parent releases
            // the escrowed equivalent when the checkpoint commits.
            ledger.credit(Address::BURNT_FUNDS, msg.value);
            Ok(self.queue_bottom_up(msg))
        }
    }

    /// Commits an already-funded top-down message: stamps the next top-down
    /// nonce of the child on the route and appends it to that child's
    /// queue. The value is assumed to already sit in the SCA escrow.
    ///
    /// # Errors
    ///
    /// Fails if the route's child subnet is not registered and active.
    pub fn commit_top_down(&mut self, mut msg: CrossMsg) -> Result<CrossMsg, ScaError> {
        if !self.subnet_id.is_ancestor_of(&msg.to.subnet) {
            return Err(ScaError::BadRoute(format!(
                "{} is not a descendant of {}",
                msg.to.subnet, self.subnet_id
            )));
        }
        let child = self
            .subnet_id
            .child(msg.to.subnet.route()[self.subnet_id.depth()]);
        let info = self.active_subnet_mut(&child)?;
        msg.nonce = info.topdown_nonce.fetch_increment();
        info.circ_supply += msg.value;
        // The relay queue is transport bookkeeping excluded from the
        // canonical encoding, so a snapshot-installed SCA starts without one
        // even for registered children — recreate it lazily.
        self.top_down_queue
            .entry(child.clone())
            .or_default()
            .push_back(msg.clone());
        Ok(msg)
    }

    /// Drops committed top-down messages for `child` below `below` — safe
    /// once the child acknowledged application up to that nonce (in this
    /// system: once its checkpoints prove the corresponding state). Keeps
    /// the registry bounded in long-running deployments. Returns how many
    /// messages were pruned.
    pub fn prune_top_down(&mut self, child: &SubnetId, below: Nonce) -> usize {
        let Some(queue) = self.top_down_queue.get_mut(child) else {
            return 0;
        };
        let before = queue.len();
        queue.retain(|m| m.nonce >= below);
        before - queue.len()
    }

    /// Returns the committed top-down messages for `child` with nonce ≥
    /// `from_nonce` — what a syncing child node pulls into its cross-msg
    /// pool (paper Fig. 3).
    pub fn top_down_msgs(&self, child: &SubnetId, from_nonce: Nonce) -> Vec<CrossMsg> {
        self.top_down_queue
            .get(child)
            .map(|q| {
                q.iter()
                    .filter(|m| m.nonce >= from_nonce)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Applies a top-down message *in the destination (this) subnet*,
    /// enforcing nonce order. Returns the minted recipient credit, or
    /// re-commits transit messages for the next child on the route.
    ///
    /// For messages terminating here, value is minted to the recipient
    /// (the parent holds the escrowed equivalent). For transit messages
    /// (destination deeper in the hierarchy), value is minted into this
    /// subnet's own SCA escrow and the message is re-committed top-down.
    ///
    /// # Errors
    ///
    /// Fails on nonce gaps ([`ScaError::NonceMismatch`]) or unroutable
    /// destinations.
    pub fn apply_top_down<L: Ledger>(
        &mut self,
        ledger: &mut L,
        msg: CrossMsg,
    ) -> Result<(), ScaError> {
        if msg.nonce != self.applied_topdown_nonce {
            return Err(ScaError::NonceMismatch {
                expected: self.applied_topdown_nonce,
                got: msg.nonce,
            });
        }
        if msg.to.subnet == self.subnet_id {
            self.applied_topdown_nonce = self.applied_topdown_nonce.next();
            ledger.mint(msg.to.raw, msg.value);
            Ok(())
        } else if self.subnet_id.is_ancestor_of(&msg.to.subnet) {
            self.applied_topdown_nonce = self.applied_topdown_nonce.next();
            // Transit: escrow here and continue down.
            ledger.mint(Address::SCA, msg.value);
            let mut transit = msg;
            transit.nonce = Nonce::ZERO; // restamped per hop
            self.commit_top_down(transit).map(|_| ())
        } else {
            Err(ScaError::BadRoute(format!(
                "top-down message for {} applied in {}",
                msg.to.subnet, self.subnet_id
            )))
        }
    }

    /// Queues a bottom-up message into the current checkpoint window,
    /// grouped by destination subnet, stamping the subnet's next bottom-up
    /// send nonce (every cross-msg carries a unique nonce, paper §III-B).
    /// Fund movement is the caller's responsibility
    /// ([`ScaState::send_cross_msg`] burns locally).
    fn queue_bottom_up(&mut self, mut msg: CrossMsg) -> CrossMsg {
        msg.nonce = self.bottomup_send_nonce.fetch_increment();
        self.window_bottom_up
            .entry(msg.to.subnet.clone())
            .or_default()
            .push(msg.clone());
        msg
    }

    /// Returns `true` when the current checkpoint window carries no
    /// value-bearing cross-net work (outgoing groups or pass-through
    /// metas). Child-checkpoint CIDs are excluded: they are periodic
    /// heartbeats, not pending value.
    pub fn window_is_value_empty(&self) -> bool {
        self.window_bottom_up.is_empty() && self.window_propagated.is_empty()
    }

    /// Test/diagnostic view of the current window's bottom-up groups.
    pub fn window_bottom_up_counts(&self) -> BTreeMap<SubnetId, usize> {
        self.window_bottom_up
            .iter()
            .map(|(k, v)| (k.clone(), v.len()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Checkpoints (paper §III-B)
    // ------------------------------------------------------------------

    /// Returns `true` if `epoch` closes a checkpoint window (non-genesis
    /// multiples of the checkpoint period).
    pub fn is_checkpoint_epoch(&self, epoch: ChainEpoch) -> bool {
        epoch.value() != 0 && epoch.is_multiple_of(self.config.checkpoint_period)
    }

    /// Cuts the checkpoint for the window ending at `epoch`, committing the
    /// chain head `proof`. Drains the window state: outgoing bottom-up
    /// groups become `CrossMsgMeta` entries, child checkpoint CIDs fill the
    /// `children` tree, and pass-through metas are appended.
    ///
    /// Also returns the raw messages behind every meta cut here, sealed
    /// with the digest their meta carries, in destination order: the
    /// content registry (paper §IV-C) is state-tree content, so the caller
    /// appends them there. This is the registry's only writer, which makes
    /// it append-only in block-execution order by construction — and the
    /// one place a group's Merkle root is derived from messages this node
    /// produced; everything downstream carries it.
    ///
    /// A root SCA (no parent to checkpoint into) cuts like any other —
    /// callers decide whether to.
    pub fn cut_checkpoint(&mut self, epoch: ChainEpoch, proof: Cid) -> (Checkpoint, Vec<MsgGroup>) {
        let mut ckpt = Checkpoint::template(self.subnet_id.clone(), epoch, self.prev_checkpoint);
        ckpt.proof = proof;
        for (child, cid) in self.window_child_checks.drain(..) {
            ckpt.add_child_check(child, cid);
        }
        let window = std::mem::take(&mut self.window_bottom_up);
        let mut groups = Vec::with_capacity(window.len());
        for (dest, msgs) in window {
            let group = MsgGroup::seal(msgs);
            ckpt.add_cross_meta(CrossMsgMeta::for_group(
                self.subnet_id.clone(),
                dest,
                &group,
            ));
            groups.push(group);
        }
        for meta in self.window_propagated.drain(..) {
            ckpt.add_cross_meta(meta);
        }
        self.prev_checkpoint = ckpt.cid();
        (ckpt, groups)
    }

    /// CID of this subnet's most recently cut checkpoint.
    pub fn prev_checkpoint(&self) -> Cid {
        self.prev_checkpoint
    }

    /// Commits a checkpoint from child `source` (already validated against
    /// the child's Subnet Actor signature policy).
    ///
    /// Verifies the `prev` hash chain, records the child checkpoint CID for
    /// inclusion in this subnet's own next checkpoint, and routes every
    /// carried [`CrossMsgMeta`]:
    ///
    /// * metas for **this** subnet get the next bottom-up nonce; the value
    ///   they carry is released from this SCA's escrow when applied;
    /// * metas for a **descendant** are returned as `turnaround` (resolved
    ///   and re-committed top-down by the runtime);
    /// * all other metas continue **upward** in the next checkpoint.
    ///
    /// Any meta moving value out of the child's subtree decrements the
    /// child's circulating supply; exceeding it is a
    /// [`ScaError::FirewallViolation`] and rejects the checkpoint. Value
    /// continuing *above* this subnet is burned from the local escrow —
    /// the corresponding real tokens live in an ancestor's escrow ("funds
    /// are conveniently released and burned in each of the subnets as
    /// cross-msgs flow", paper §IV-A).
    ///
    /// # Errors
    ///
    /// Fails for unknown/inactive children, broken `prev` chains, or
    /// firewall violations.
    pub fn commit_child_checkpoint<L: Ledger>(
        &mut self,
        ledger: &mut L,
        ckpt: &Checkpoint,
    ) -> Result<CheckpointOutcome, ScaError> {
        let child_id = ckpt.source.clone();
        if ckpt.source.parent().as_ref() != Some(&self.subnet_id) {
            return Err(ScaError::BadCheckpoint(format!(
                "checkpoint source {} is not a direct child of {}",
                ckpt.source, self.subnet_id
            )));
        }
        // Pre-validate against a read-only view before mutating anything.
        {
            let info = self
                .subnets
                .get(&child_id)
                .ok_or_else(|| ScaError::SubnetNotFound(child_id.clone()))?;
            if info.status != SubnetStatus::Active {
                return Err(ScaError::SubnetNotActive(child_id.clone(), info.status));
            }
            if ckpt.prev != info.prev_checkpoint {
                return Err(ScaError::BadCheckpoint(format!(
                    "prev pointer {} does not extend committed chain {}",
                    ckpt.prev, info.prev_checkpoint
                )));
            }
            // Firewall pre-check: total value leaving the child's subtree
            // must not exceed its circulating supply.
            let leaving: TokenAmount = ckpt
                .cross_msgs
                .iter()
                .filter(|m| !child_id.is_prefix_of(&m.to))
                .map(|m| m.total_value)
                .sum();
            if leaving > info.circ_supply {
                return Err(ScaError::FirewallViolation {
                    subnet: child_id,
                    attempted: leaving,
                    available: info.circ_supply,
                });
            }
        }

        let mut outcome = CheckpointOutcome::default();
        for meta in &ckpt.cross_msgs {
            let mut meta = meta.clone();
            if !child_id.is_prefix_of(&meta.to) {
                // Value exits the child's subtree.
                let info = self.subnets.get_mut(&child_id).expect("checked above");
                info.circ_supply -= meta.total_value;
            }
            if meta.to == self.subnet_id {
                meta.nonce = self.bottomup_nonce.fetch_increment();
                outcome.applied_here.push(meta);
            } else if self.subnet_id.is_ancestor_of(&meta.to) {
                // This subnet is the LCA: the meta turns around here and
                // continues top-down after content resolution.
                outcome.turnaround.push(meta);
            } else {
                // The value continues above this subnet: burn the local
                // escrow; the parent releases its own escrow when this
                // subnet's next checkpoint commits there.
                ledger.transfer(Address::SCA, Address::BURNT_FUNDS, meta.total_value)?;
                self.window_propagated.push(meta.clone());
                outcome.propagated_up.push(meta);
            }
        }

        let info = self.subnets.get_mut(&child_id).expect("checked above");
        info.prev_checkpoint = ckpt.cid();
        info.committed_checkpoints += 1;
        self.window_child_checks.push((child_id, ckpt.cid()));
        Ok(outcome)
    }

    /// Applies a resolved bottom-up message group in this (destination)
    /// subnet: verifies the group's digest against the meta's committed
    /// CID, enforces meta nonce order, and pays recipients out of the SCA
    /// escrow.
    ///
    /// # Errors
    ///
    /// Fails on nonce gaps, content mismatches, or if the escrow cannot
    /// cover the total (which indicates double-spend attempts upstream and
    /// is rejected as a firewall violation).
    pub fn apply_bottom_up<L: Ledger>(
        &mut self,
        ledger: &mut L,
        meta: &CrossMsgMeta,
        msgs: &MsgGroup,
    ) -> Result<(), ScaError> {
        if meta.nonce != self.applied_bottomup_nonce {
            return Err(ScaError::NonceMismatch {
                expected: self.applied_bottomup_nonce,
                got: meta.nonce,
            });
        }
        if !meta.matches(msgs) {
            return Err(ScaError::ContentMismatch(meta.msgs_cid));
        }
        // Root holds no escrow above it: for the rootnet the escrow *is*
        // the SCA balance accumulated from top-down funding.
        let total: TokenAmount = msgs.iter().map(|m| m.value).sum();
        if ledger.balance(Address::SCA) < total {
            return Err(ScaError::FirewallViolation {
                subnet: meta.from.clone(),
                attempted: total,
                available: ledger.balance(Address::SCA),
            });
        }
        self.applied_bottomup_nonce = self.applied_bottomup_nonce.next();
        for m in msgs.iter() {
            ledger.transfer(Address::SCA, m.to.raw, m.value)?;
        }
        Ok(())
    }

    /// Persists a state snapshot CID (`save` function, paper §III-C),
    /// enabling fund/state recovery proofs after a subnet is killed.
    pub fn save_state(&mut self, epoch: ChainEpoch, state: Cid) {
        self.saved_states.push((epoch, state));
    }

    /// Saved state snapshots, oldest first.
    pub fn saved_states(&self) -> &[(ChainEpoch, Cid)] {
        &self.saved_states
    }

    /// Builds the revert message for a cross-message that failed to apply
    /// in this subnet (paper §IV-B) and queues it back towards the original
    /// sender. The reverted value rides the normal cross-net flow, undoing
    /// intermediate supply changes hop by hop.
    ///
    /// # Errors
    ///
    /// Fails if the revert itself cannot be routed.
    pub fn revert_failed_msg<L: Ledger>(
        &mut self,
        ledger: &mut L,
        failed: &CrossMsg,
    ) -> Result<CrossMsg, ScaError> {
        let revert = failed.revert_msg(&self.subnet_id);
        // The failed message's value was minted/credited here on apply;
        // recover it from the SCA escrow path: send it back as a cross-msg
        // funded by the SCA itself.
        if revert.to.subnet == self.subnet_id {
            return Err(ScaError::NotCrossNet);
        }
        if revert.is_top_down() {
            ledger.credit(Address::SCA, revert.value);
            let stamped = self.commit_top_down(revert)?;
            Ok(stamped)
        } else {
            ledger.credit(Address::BURNT_FUNDS, revert.value);
            Ok(self.queue_bottom_up(revert))
        }
    }
}

impl ScaState {
    /// Persists a balance snapshot of a child subnet (the parent-side
    /// `save` function, paper §III-C). The caller (the VM) has already
    /// validated the child's Subnet Actor signature policy over the
    /// snapshot. Only the newest snapshot per child is kept.
    ///
    /// # Errors
    ///
    /// Fails for unregistered children, killed children (nothing new can
    /// be persisted once the subnet is gone), or stale epochs.
    pub fn save_child_snapshot(&mut self, snapshot: StateSnapshot) -> Result<(), ScaError> {
        let info = self
            .subnets
            .get(&snapshot.subnet)
            .ok_or_else(|| ScaError::SubnetNotFound(snapshot.subnet.clone()))?;
        if info.status == SubnetStatus::Killed {
            return Err(ScaError::SubnetNotActive(
                snapshot.subnet.clone(),
                info.status,
            ));
        }
        if let Some(existing) = self.child_snapshots.get(&snapshot.subnet) {
            if snapshot.epoch <= existing.epoch {
                return Err(ScaError::BadCheckpoint(format!(
                    "snapshot at {} does not advance the saved one at {}",
                    snapshot.epoch, existing.epoch
                )));
            }
        }
        self.child_snapshots
            .insert(snapshot.subnet.clone(), snapshot);
        Ok(())
    }

    /// Recovers `claimant`'s funds from a killed child subnet against the
    /// persisted snapshot (paper §III-C: "users are able to provide proof
    /// of pending funds held in the subnet"). Pays from the SCA escrow,
    /// debits the child's circulating supply, and records the claim so it
    /// cannot be replayed. Returns the amount paid.
    ///
    /// # Errors
    ///
    /// Fails if the child is not killed, no snapshot exists, the proof
    /// does not verify for `claimant`, the claim was already paid, or the
    /// remaining circulating supply cannot cover it (firewall: recoveries
    /// can never mint value that was not in the subnet).
    pub fn recover_funds<L: Ledger>(
        &mut self,
        ledger: &mut L,
        claimant: Address,
        subnet: &SubnetId,
        proof: &BalanceProof,
    ) -> Result<TokenAmount, ScaError> {
        let info = self
            .subnets
            .get(subnet)
            .ok_or_else(|| ScaError::SubnetNotFound(subnet.clone()))?;
        if info.status != SubnetStatus::Killed {
            return Err(ScaError::BadRoute(format!(
                "funds can only be recovered from killed subnets; {subnet} is {}",
                info.status
            )));
        }
        let snapshot = self
            .child_snapshots
            .get(subnet)
            .ok_or_else(|| ScaError::BadCheckpoint("no snapshot persisted".into()))?;
        if proof.leaf.addr != claimant {
            return Err(ScaError::InvalidFraudProof(
                "proof is for a different address".into(),
            ));
        }
        if !proof.verify(snapshot) {
            return Err(ScaError::ContentMismatch(snapshot.balances_root));
        }
        let key = (subnet.clone(), claimant);
        if self.recovered.contains_key(&key) {
            return Err(ScaError::BadRoute("claim already recovered".into()));
        }
        let amount = proof.leaf.amount;
        let info = self.subnets.get_mut(subnet).expect("checked above");
        if amount > info.circ_supply {
            return Err(ScaError::FirewallViolation {
                subnet: subnet.clone(),
                attempted: amount,
                available: info.circ_supply,
            });
        }
        ledger.transfer(Address::SCA, claimant, amount)?;
        info.circ_supply -= amount;
        self.recovered.insert(key, amount);
        Ok(amount)
    }
}

/// The *complete* canonical encoding of the SCA: every consensus-relevant
/// field, in declaration order, so the state root commits to the exact SCA
/// content and a verified chunk blob reconstructs it bit-for-bit (snapshot
/// state-sync depends on this).
///
/// Two things a reader might look for are *not* in this chunk:
///
/// * `top_down_queue` is transport bookkeeping — the parent-side relay
///   buffer of committed top-down messages, pruned *outside* block
///   execution as children acknowledge application (see
///   [`ScaState::prune_top_down`]). Including it would make the state root
///   depend on relay timing rather than executed history. Every message in
///   it is recoverable from the committed top-down history, and only
///   subnets with children ever hold entries.
/// * The content registry (raw messages behind every cut `CrossMsgMeta`) is
///   not a field at all: it grows with cross-net history, so it is
///   committed as an append-only AMT under its own state-root leaf (see
///   `hc_state::ChunkKey::Registry`), where a cut re-hashes one root path
///   instead of this whole chunk. What remains here is O(children +
///   current window).
impl CanonicalEncode for ScaState {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.subnet_id.write_bytes(out);
        self.config.write_bytes(out);
        self.subnets.write_bytes(out);
        self.window_bottom_up.write_bytes(out);
        self.window_propagated.write_bytes(out);
        self.window_child_checks.write_bytes(out);
        self.bottomup_send_nonce.write_bytes(out);
        self.bottomup_nonce.write_bytes(out);
        self.applied_bottomup_nonce.write_bytes(out);
        self.applied_topdown_nonce.write_bytes(out);
        self.prev_checkpoint.write_bytes(out);
        self.saved_states.write_bytes(out);
        self.child_snapshots.write_bytes(out);
        self.recovered.write_bytes(out);
    }
}

impl CanonicalDecode for ScaState {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(ScaState {
            subnet_id: CanonicalDecode::read_bytes(r)?,
            config: CanonicalDecode::read_bytes(r)?,
            subnets: CanonicalDecode::read_bytes(r)?,
            // Not part of the encoding (relay bookkeeping, see the encode
            // impl); a freshly installed SCA starts with empty relay queues.
            top_down_queue: BTreeMap::new(),
            window_bottom_up: CanonicalDecode::read_bytes(r)?,
            window_propagated: CanonicalDecode::read_bytes(r)?,
            window_child_checks: CanonicalDecode::read_bytes(r)?,
            bottomup_send_nonce: CanonicalDecode::read_bytes(r)?,
            bottomup_nonce: CanonicalDecode::read_bytes(r)?,
            applied_bottomup_nonce: CanonicalDecode::read_bytes(r)?,
            applied_topdown_nonce: CanonicalDecode::read_bytes(r)?,
            prev_checkpoint: CanonicalDecode::read_bytes(r)?,
            saved_states: CanonicalDecode::read_bytes(r)?,
            child_snapshots: CanonicalDecode::read_bytes(r)?,
            recovered: CanonicalDecode::read_bytes(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::MapLedger;
    use crate::msg::HcAddress;

    fn subnet(route: &[u64]) -> SubnetId {
        SubnetId::from_route(route.iter().copied().map(Address::new))
    }

    fn haddr(route: &[u64], id: u64) -> HcAddress {
        HcAddress::new(subnet(route), Address::new(id))
    }

    fn funded_ledger(accounts: &[(u64, u64)]) -> MapLedger {
        MapLedger::with_balances(
            accounts
                .iter()
                .map(|&(a, v)| (Address::new(a), TokenAmount::from_whole(v))),
        )
    }

    fn root_sca_with_child() -> (ScaState, MapLedger, SubnetId) {
        let mut sca = ScaState::new(SubnetId::root(), ScaConfig::default());
        let mut ledger = funded_ledger(&[(100, 1000)]);
        let child = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(200),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            )
            .unwrap();
        (sca, ledger, child)
    }

    #[test]
    fn register_freezes_collateral_and_derives_id() {
        let (sca, ledger, child) = root_sca_with_child();
        assert_eq!(child, subnet(&[200]));
        let info = sca.subnet(&child).unwrap();
        assert_eq!(info.collateral, TokenAmount::from_whole(10));
        assert_eq!(info.status, SubnetStatus::Active);
        assert_eq!(ledger.balance(Address::SCA), TokenAmount::from_whole(10));
        assert_eq!(
            ledger.balance(Address::new(100)),
            TokenAmount::from_whole(990)
        );
    }

    #[test]
    fn register_rejects_duplicates_and_low_collateral() {
        let (mut sca, mut ledger, _) = root_sca_with_child();
        assert!(matches!(
            sca.register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(200),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            ),
            Err(ScaError::AlreadyRegistered(_))
        ));
        assert!(matches!(
            sca.register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(201),
                TokenAmount::from_whole(1),
                ChainEpoch::GENESIS,
            ),
            Err(ScaError::InsufficientCollateral { .. })
        ));
    }

    #[test]
    fn leave_below_min_collateral_deactivates() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        sca.release_collateral(
            &mut ledger,
            &child,
            Address::new(100),
            TokenAmount::from_whole(5),
        )
        .unwrap();
        assert_eq!(sca.subnet(&child).unwrap().status, SubnetStatus::Inactive);
        // Topping back up reactivates.
        sca.add_collateral(
            &mut ledger,
            Address::new(100),
            &child,
            TokenAmount::from_whole(7),
        )
        .unwrap();
        assert_eq!(sca.subnet(&child).unwrap().status, SubnetStatus::Active);
    }

    #[test]
    fn kill_releases_all_collateral() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let released = sca
            .kill_subnet(&mut ledger, &child, Address::new(100))
            .unwrap();
        assert_eq!(released, TokenAmount::from_whole(10));
        assert_eq!(sca.subnet(&child).unwrap().status, SubnetStatus::Killed);
        assert_eq!(
            ledger.balance(Address::new(100)),
            TokenAmount::from_whole(1000)
        );
        // Dead subnets reject everything.
        assert!(sca
            .kill_subnet(&mut ledger, &child, Address::new(100))
            .is_err());
    }

    #[test]
    fn top_down_send_freezes_value_and_stamps_nonces() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let to = HcAddress::new(child.clone(), Address::new(300));
        for i in 0..3u64 {
            let msg = CrossMsg::transfer(haddr(&[], 100), to.clone(), TokenAmount::from_whole(1));
            sca.send_cross_msg(&mut ledger, Address::new(100), msg)
                .unwrap();
            let queued = sca.top_down_msgs(&child, Nonce::ZERO);
            assert_eq!(queued.len() as u64, i + 1);
            assert_eq!(queued[i as usize].nonce, Nonce::new(i));
        }
        // Escrow = collateral (10) + 3 × 1.
        assert_eq!(ledger.balance(Address::SCA), TokenAmount::from_whole(13));
        assert_eq!(
            sca.subnet(&child).unwrap().circ_supply,
            TokenAmount::from_whole(3)
        );
        // Partial sync from a later nonce.
        assert_eq!(sca.top_down_msgs(&child, Nonce::new(2)).len(), 1);
    }

    #[test]
    fn send_to_unregistered_child_fails() {
        let (mut sca, mut ledger, _) = root_sca_with_child();
        let msg = CrossMsg::transfer(
            haddr(&[], 100),
            haddr(&[999], 300),
            TokenAmount::from_whole(1),
        );
        assert!(matches!(
            sca.send_cross_msg(&mut ledger, Address::new(100), msg),
            Err(ScaError::SubnetNotFound(_))
        ));
    }

    #[test]
    fn local_message_is_rejected_as_not_cross_net() {
        let (mut sca, mut ledger, _) = root_sca_with_child();
        let msg = CrossMsg::transfer(haddr(&[], 100), haddr(&[], 101), TokenAmount::from_whole(1));
        assert_eq!(
            sca.send_cross_msg(&mut ledger, Address::new(100), msg),
            Err(ScaError::NotCrossNet)
        );
    }

    #[test]
    fn apply_top_down_enforces_nonce_order_and_mints() {
        // Child-side SCA applying messages from its parent.
        let child_id = subnet(&[200]);
        let mut child_sca = ScaState::new(child_id.clone(), ScaConfig::default());
        let mut ledger = MapLedger::new();
        let mut msg0 = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child_id.clone(), Address::new(300)),
            TokenAmount::from_whole(2),
        );
        msg0.nonce = Nonce::new(0);
        let mut msg1 = msg0.clone();
        msg1.nonce = Nonce::new(1);

        // Out-of-order application is rejected.
        assert!(matches!(
            child_sca.apply_top_down(&mut ledger, msg1.clone()),
            Err(ScaError::NonceMismatch { .. })
        ));
        child_sca.apply_top_down(&mut ledger, msg0).unwrap();
        child_sca.apply_top_down(&mut ledger, msg1).unwrap();
        assert_eq!(
            ledger.balance(Address::new(300)),
            TokenAmount::from_whole(4)
        );
    }

    #[test]
    fn transit_top_down_rescrows_and_requeues() {
        // Message /root -> /root/a200/a300 applied in /root/a200 (transit).
        let mid = subnet(&[200]);
        let mut sca = ScaState::new(mid.clone(), ScaConfig::default());
        let mut ledger = funded_ledger(&[(100, 100)]);
        // Register the grandchild under this mid subnet.
        let grandchild = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(300),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            )
            .unwrap();
        let mut msg = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(grandchild.clone(), Address::new(400)),
            TokenAmount::from_whole(5),
        );
        msg.nonce = Nonce::new(0);
        let escrow_before = ledger.balance(Address::SCA);
        sca.apply_top_down(&mut ledger, msg).unwrap();
        assert_eq!(
            ledger.balance(Address::SCA),
            escrow_before + TokenAmount::from_whole(5)
        );
        let queued = sca.top_down_msgs(&grandchild, Nonce::ZERO);
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].nonce, Nonce::new(0));
        assert_eq!(
            sca.subnet(&grandchild).unwrap().circ_supply,
            TokenAmount::from_whole(5)
        );
    }

    #[test]
    fn bottom_up_send_burns_and_windows() {
        // SCA of /root/a200 sending up to /root.
        let child_id = subnet(&[200]);
        let mut sca = ScaState::new(child_id.clone(), ScaConfig::default());
        let mut ledger = funded_ledger(&[(300, 10)]);
        let msg = CrossMsg::transfer(
            HcAddress::new(child_id.clone(), Address::new(300)),
            haddr(&[], 100),
            TokenAmount::from_whole(4),
        );
        sca.send_cross_msg(&mut ledger, Address::new(300), msg)
            .unwrap();
        assert_eq!(
            ledger.balance(Address::BURNT_FUNDS),
            TokenAmount::from_whole(4)
        );
        assert_eq!(
            sca.window_bottom_up_counts().get(&SubnetId::root()),
            Some(&1)
        );
        // Cutting the checkpoint produces a meta committing to the group.
        let (ckpt, groups) = sca.cut_checkpoint(ChainEpoch::new(10), Cid::digest(b"head"));
        assert_eq!(ckpt.cross_msgs.len(), 1);
        let meta = &ckpt.cross_msgs[0];
        assert_eq!(meta.from, child_id);
        assert_eq!(meta.to, SubnetId::root());
        assert_eq!(meta.count, 1);
        // Raw content is handed out for the registry, keyed by the meta's
        // committed CID.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].cid(), meta.msgs_cid);
        assert!(meta.matches(&groups[0]));
        // Next window is empty.
        let (ckpt2, groups2) = sca.cut_checkpoint(ChainEpoch::new(20), Cid::digest(b"head2"));
        assert!(ckpt2.cross_msgs.is_empty());
        assert!(groups2.is_empty());
        assert_eq!(ckpt2.prev, ckpt.cid());
    }

    #[test]
    fn commit_child_checkpoint_routes_metas_and_updates_supply() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        // Fund the child so it has circulating supply to send back.
        let msg = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child.clone(), Address::new(300)),
            TokenAmount::from_whole(6),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), msg)
            .unwrap();
        assert_eq!(
            sca.subnet(&child).unwrap().circ_supply,
            TokenAmount::from_whole(6)
        );

        // Child cuts a checkpoint with a 4-token meta back to root.
        let mut ckpt = Checkpoint::template(child.clone(), ChainEpoch::new(10), Cid::NIL);
        let return_msgs = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(child.clone(), Address::new(300)),
            haddr(&[], 101),
            TokenAmount::from_whole(4),
        )]);
        ckpt.add_cross_meta(CrossMsgMeta::for_group(
            child.clone(),
            SubnetId::root(),
            &return_msgs,
        ));

        let outcome = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap();
        assert_eq!(outcome.applied_here.len(), 1);
        assert!(outcome.turnaround.is_empty());
        assert!(outcome.propagated_up.is_empty());
        assert_eq!(outcome.applied_here[0].nonce, Nonce::new(0));
        assert_eq!(
            sca.subnet(&child).unwrap().circ_supply,
            TokenAmount::from_whole(2)
        );
        assert_eq!(sca.subnet(&child).unwrap().prev_checkpoint, ckpt.cid());

        // Applying the resolved messages pays from escrow.
        sca.apply_bottom_up(&mut ledger, &outcome.applied_here[0], &return_msgs)
            .unwrap();
        assert_eq!(
            ledger.balance(Address::new(101)),
            TokenAmount::from_whole(4)
        );
    }

    #[test]
    fn firewall_rejects_overdraw() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        // Inject 3 tokens of circulating supply.
        let msg = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child.clone(), Address::new(300)),
            TokenAmount::from_whole(3),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), msg)
            .unwrap();

        // Compromised child claims to send back 50.
        let mut ckpt = Checkpoint::template(child.clone(), ChainEpoch::new(10), Cid::NIL);
        let forged = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(child.clone(), Address::new(300)),
            haddr(&[], 666),
            TokenAmount::from_whole(50),
        )]);
        ckpt.add_cross_meta(CrossMsgMeta::for_group(
            child.clone(),
            SubnetId::root(),
            &forged,
        ));
        let err = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap_err();
        assert!(matches!(err, ScaError::FirewallViolation { .. }));
        // Supply unchanged; checkpoint not recorded.
        assert_eq!(
            sca.subnet(&child).unwrap().circ_supply,
            TokenAmount::from_whole(3)
        );
        assert_eq!(sca.subnet(&child).unwrap().prev_checkpoint, Cid::NIL);
    }

    #[test]
    fn checkpoint_prev_chain_is_enforced() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let ckpt1 = Checkpoint::template(child.clone(), ChainEpoch::new(10), Cid::NIL);
        sca.commit_child_checkpoint(&mut ledger, &ckpt1).unwrap();
        // A second checkpoint must chain to the first.
        let stale = Checkpoint::template(child.clone(), ChainEpoch::new(20), Cid::NIL);
        assert!(matches!(
            sca.commit_child_checkpoint(&mut ledger, &stale),
            Err(ScaError::BadCheckpoint(_))
        ));
        let good = Checkpoint::template(child.clone(), ChainEpoch::new(20), ckpt1.cid());
        sca.commit_child_checkpoint(&mut ledger, &good).unwrap();
        assert_eq!(sca.subnet(&child).unwrap().committed_checkpoints, 2);
    }

    #[test]
    fn checkpoint_from_non_child_is_rejected() {
        let (mut sca, mut ledger, _) = root_sca_with_child();
        let ckpt = Checkpoint::template(subnet(&[200, 300]), ChainEpoch::new(10), Cid::NIL);
        assert!(matches!(
            sca.commit_child_checkpoint(&mut ledger, &ckpt),
            Err(ScaError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn metas_to_other_branches_propagate_up() {
        // SCA of /root/a200 receives from child /root/a200/a300 a meta
        // destined to /root/a999 (different branch): must propagate up.
        let mid = subnet(&[200]);
        let mut sca = ScaState::new(mid.clone(), ScaConfig::default());
        let mut ledger = funded_ledger(&[(100, 100)]);
        let grandchild = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(300),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            )
            .unwrap();
        // Give the grandchild supply to spend.
        let fund = CrossMsg::transfer(
            HcAddress::new(mid.clone(), Address::new(100)),
            HcAddress::new(grandchild.clone(), Address::new(1)),
            TokenAmount::from_whole(5),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), fund)
            .unwrap();

        let mut ckpt = Checkpoint::template(grandchild.clone(), ChainEpoch::new(10), Cid::NIL);
        let msgs = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(grandchild.clone(), Address::new(1)),
            haddr(&[999], 2),
            TokenAmount::from_whole(2),
        )]);
        ckpt.add_cross_meta(CrossMsgMeta::for_group(
            grandchild.clone(),
            subnet(&[999]),
            &msgs,
        ));
        let outcome = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap();
        assert_eq!(outcome.propagated_up.len(), 1);
        assert!(outcome.applied_here.is_empty());
        assert_eq!(
            sca.subnet(&grandchild).unwrap().circ_supply,
            TokenAmount::from_whole(3)
        );
        // The meta rides the next cut checkpoint.
        let (own, groups) = sca.cut_checkpoint(ChainEpoch::new(10), Cid::digest(b"h"));
        assert!(own.cross_msgs.iter().any(|m| m.to == subnet(&[999])));
        // A pass-through meta was cut by a descendant: its content is in
        // that subnet's registry, not handed out again here.
        assert!(groups.is_empty());
        // And the child's checkpoint CID is in the children tree.
        assert_eq!(own.children.len(), 1);
        assert_eq!(own.children[0].checks, vec![ckpt.cid()]);
    }

    #[test]
    fn meta_to_descendant_is_turnaround() {
        // SCA of /root receives from child /root/a200 a meta destined to
        // /root/a201/... — root is the LCA, so it turns around.
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let other = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(201),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            )
            .unwrap();
        // Fund child so the firewall allows the flow.
        let fund = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child.clone(), Address::new(1)),
            TokenAmount::from_whole(5),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), fund)
            .unwrap();

        let mut ckpt = Checkpoint::template(child.clone(), ChainEpoch::new(10), Cid::NIL);
        let msgs = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(child.clone(), Address::new(1)),
            HcAddress::new(other.clone(), Address::new(2)),
            TokenAmount::from_whole(2),
        )]);
        ckpt.add_cross_meta(CrossMsgMeta::for_group(child.clone(), other.clone(), &msgs));
        let outcome = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap();
        assert_eq!(outcome.turnaround.len(), 1);
        assert_eq!(outcome.turnaround[0].to, other);
    }

    #[test]
    fn apply_bottom_up_checks_content_and_nonce() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let fund = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child.clone(), Address::new(300)),
            TokenAmount::from_whole(6),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), fund)
            .unwrap();
        let mut ckpt = Checkpoint::template(child.clone(), ChainEpoch::new(10), Cid::NIL);
        let msgs = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(child.clone(), Address::new(300)),
            haddr(&[], 101),
            TokenAmount::from_whole(4),
        )]);
        ckpt.add_cross_meta(CrossMsgMeta::for_group(
            child.clone(),
            SubnetId::root(),
            &msgs,
        ));
        let outcome = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap();
        let meta = &outcome.applied_here[0];

        // Wrong content.
        let wrong = MsgGroup::seal(vec![CrossMsg::transfer(
            HcAddress::new(child.clone(), Address::new(300)),
            haddr(&[], 666),
            TokenAmount::from_whole(4),
        )]);
        assert!(matches!(
            sca.apply_bottom_up(&mut ledger, meta, &wrong),
            Err(ScaError::ContentMismatch(_))
        ));

        // Wrong nonce.
        let mut skipped = meta.clone();
        skipped.nonce = Nonce::new(5);
        assert!(matches!(
            sca.apply_bottom_up(&mut ledger, &skipped, &msgs),
            Err(ScaError::NonceMismatch { .. })
        ));

        sca.apply_bottom_up(&mut ledger, meta, &msgs).unwrap();
        // Replay is rejected (nonce already advanced).
        assert!(matches!(
            sca.apply_bottom_up(&mut ledger, meta, &msgs),
            Err(ScaError::NonceMismatch { .. })
        ));
    }

    #[test]
    fn slash_burns_and_rewards_then_deactivates() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        let slashed = sca
            .slash(
                &mut ledger,
                &child,
                TokenAmount::from_whole(4),
                Address::new(500),
            )
            .unwrap();
        assert_eq!(slashed, TokenAmount::from_whole(4));
        assert_eq!(
            ledger.balance(Address::new(500)),
            TokenAmount::from_whole(2)
        );
        assert_eq!(
            ledger.balance(Address::BURNT_FUNDS),
            TokenAmount::from_whole(2)
        );
        // Collateral now 6 < 10 → inactive.
        assert_eq!(sca.subnet(&child).unwrap().status, SubnetStatus::Inactive);
        // Slashing more than remaining collateral is capped.
        let slashed = sca
            .slash(
                &mut ledger,
                &child,
                TokenAmount::from_whole(100),
                Address::new(500),
            )
            .unwrap();
        assert_eq!(slashed, TokenAmount::from_whole(6));
        assert_eq!(sca.subnet(&child).unwrap().collateral, TokenAmount::ZERO);
    }

    #[test]
    fn save_state_records_snapshots() {
        let (mut sca, _ledger, _) = root_sca_with_child();
        sca.save_state(ChainEpoch::new(5), Cid::digest(b"s1"));
        sca.save_state(ChainEpoch::new(9), Cid::digest(b"s2"));
        assert_eq!(sca.saved_states().len(), 2);
        assert_eq!(sca.saved_states()[1].0, ChainEpoch::new(9));
    }

    #[test]
    fn inactive_subnet_cannot_receive_top_down() {
        let (mut sca, mut ledger, child) = root_sca_with_child();
        sca.release_collateral(
            &mut ledger,
            &child,
            Address::new(100),
            TokenAmount::from_whole(8),
        )
        .unwrap();
        assert_eq!(sca.subnet(&child).unwrap().status, SubnetStatus::Inactive);
        let msg = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child, Address::new(300)),
            TokenAmount::from_whole(1),
        );
        assert!(matches!(
            sca.send_cross_msg(&mut ledger, Address::new(100), msg),
            Err(ScaError::SubnetNotActive(..))
        ));
    }

    #[test]
    fn revert_failed_top_down_goes_back_up() {
        // A message from /root failed in /root/a200: the child SCA emits a
        // bottom-up revert towards the original sender.
        let child_id = subnet(&[200]);
        let mut sca = ScaState::new(child_id.clone(), ScaConfig::default());
        let mut ledger = MapLedger::new();
        let failed = CrossMsg::transfer(
            haddr(&[], 100),
            HcAddress::new(child_id.clone(), Address::new(300)),
            TokenAmount::from_whole(2),
        );
        let revert = sca.revert_failed_msg(&mut ledger, &failed).unwrap();
        assert!(revert.is_bottom_up());
        assert_eq!(revert.to, failed.from);
        assert_eq!(
            sca.window_bottom_up_counts().get(&SubnetId::root()),
            Some(&1)
        );
    }

    #[test]
    fn complete_encoding_round_trips_through_decode() {
        // Populate every encoded field: registered child, bottom-up window,
        // cut checkpoint (prev pointer), saved states, child snapshot,
        // recovered claims.
        let child_id = subnet(&[200]);
        let mut sca = ScaState::new(child_id.clone(), ScaConfig::default());
        let mut ledger = funded_ledger(&[(100, 1000), (300, 10)]);
        let child = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(900),
                TokenAmount::from_whole(10),
                ChainEpoch::GENESIS,
            )
            .unwrap();
        let up = |value| {
            CrossMsg::transfer(
                HcAddress::new(child_id.clone(), Address::new(300)),
                haddr(&[], 100),
                TokenAmount::from_whole(value),
            )
        };
        sca.send_cross_msg(&mut ledger, Address::new(300), up(4))
            .unwrap();
        // The cut populates the prev pointer; a second send leaves the
        // *current* window non-empty in the encoding.
        let _ = sca.cut_checkpoint(ChainEpoch::new(10), Cid::digest(b"head"));
        sca.send_cross_msg(&mut ledger, Address::new(300), up(2))
            .unwrap();
        sca.save_state(ChainEpoch::new(10), Cid::digest(b"state"));
        sca.save_child_snapshot(StateSnapshot {
            subnet: child.clone(),
            epoch: ChainEpoch::new(9),
            balances_root: Cid::digest(b"bal"),
            accounts: 2,
            total: TokenAmount::from_whole(5),
        })
        .unwrap();
        sca.recovered
            .insert((child.clone(), Address::new(7)), TokenAmount::from_whole(1));

        let bytes = sca.canonical_bytes();
        let decoded = ScaState::decode(&bytes).expect("canonical bytes decode");
        assert_eq!(
            decoded.canonical_bytes(),
            bytes,
            "decode is an exact inverse"
        );
        assert_eq!(decoded.subnet_id(), sca.subnet_id());
        assert_eq!(decoded.config(), sca.config());
        assert_eq!(decoded.subnet(&child), sca.subnet(&child));
        // The relay queue is deliberately outside the encoding.
        assert!(decoded.top_down_queue.is_empty());

        // Truncation and trailing bytes are rejected.
        assert!(ScaState::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ScaState::decode(&extended).is_err());
    }
}
