//! Chain messages: what blocks contain and the VM executes.
//!
//! Two families exist, mirroring Filecoin:
//!
//! * [`SignedMessage`] — user transactions, authenticated by the sender's
//!   registered key and ordered by account nonce;
//! * [`ImplicitMsg`] — consensus-injected system messages: cross-net
//!   messages committed into a block by the subnet's consensus after they
//!   were validated in the parent (top-down) or resolved from a checkpoint
//!   meta (bottom-up).

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::sa::{FraudProof, SaConfig};
use hc_actors::snapshot::{BalanceProof, StateSnapshot};
use hc_actors::{CrossMsg, CrossMsgMeta, ExecId, HcAddress, MsgGroup};
use hc_types::crypto::AggregateSignature;
use hc_types::{
    decode_fields, Address, ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError,
    Keypair, Nonce, PublicKey, Signature, SubnetId, TokenAmount,
};

/// The operation a message performs, dispatched on the destination actor.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Plain value transfer to `to` (any account).
    Send,
    /// Store `value` under `key` in the sender's contract storage.
    /// Rejected while the key is locked for an atomic execution.
    PutData {
        /// Storage key.
        key: Box<[u8]>,
        /// Stored bytes.
        data: Box<[u8]>,
    },
    /// Lock a storage key as input to an atomic execution (paper §IV-D
    /// *Initialization*).
    LockState {
        /// Storage key to lock.
        key: Vec<u8>,
    },
    /// Unlock a previously locked key (after commit/abort termination).
    UnlockState {
        /// Storage key to unlock.
        key: Vec<u8>,
    },

    // ---- Subnet Actor deployment & membership (to = SA address) ----
    /// Deploy a new Subnet Actor with `config`; the new actor's address is
    /// returned in the receipt. (`to` is ignored; deployment allocates.)
    DeploySubnetActor {
        /// The subnet's governance configuration.
        config: Box<SaConfig>,
    },
    /// Join the subnet governed by the SA at `to`, staking `value` under
    /// signing key `key`.
    JoinSubnet {
        /// The validator's block/checkpoint signing key.
        key: PublicKey,
    },
    /// Leave the subnet governed by the SA at `to`; the stake is released
    /// through the SCA.
    LeaveSubnet,
    /// Kill the subnet governed by the SA at `to`, releasing collateral.
    KillSubnet,

    // ---- SCA methods (to = Address::SCA) ----
    /// Register the subnet governed by SA `sa` with the hierarchy, locking
    /// `value` as its initial collateral.
    RegisterSubnet {
        /// Address of the governing Subnet Actor.
        sa: Address,
    },
    /// Add `value` collateral to child `subnet`.
    AddCollateral {
        /// The child subnet.
        subnet: SubnetId,
    },
    /// Send a cross-net message; `value` must cover the message value plus
    /// fee.
    SendCrossMsg {
        /// The message to route.
        msg: Box<CrossMsg>,
    },
    /// Report an equivocation fraud proof against child `subnet`,
    /// slashing its collateral (paper §III-B).
    ReportFraud {
        /// The accused child subnet.
        subnet: SubnetId,
        /// Two conflicting validly-signed checkpoints.
        proof: Box<FraudProof>,
    },
    /// Persist a state snapshot CID (the SCA `save` function, §III-C).
    SaveState {
        /// CID of the persisted subnet state.
        state: Cid,
    },
    /// Persist a balance snapshot of a child subnet in this (parent)
    /// chain, gated by the child's Subnet Actor signature policy
    /// (paper §III-C: state that survives the child being killed).
    SaveSnapshot {
        /// The snapshot, signed by the child's validators.
        snapshot: Box<StateSnapshot>,
        /// Validator signatures over the snapshot CID.
        signatures: AggregateSignature,
    },
    /// Recover the sender's funds from a killed child subnet against its
    /// persisted snapshot (paper §III-C fund migration).
    RecoverFunds {
        /// The killed child subnet.
        subnet: SubnetId,
        /// Merkle proof of the sender's balance in the snapshot.
        proof: Box<BalanceProof>,
    },

    // ---- Atomic execution coordinator (to = Address::ATOMIC_EXEC) ----
    /// Initialize an atomic execution over `parties` with locked `inputs`.
    AtomicInit {
        /// Parties, each identified by subnet + address.
        parties: Box<[HcAddress]>,
        /// CIDs of each party's locked input state.
        inputs: Box<[Cid]>,
    },
    /// Submit the sender's computed output for execution `exec`.
    AtomicSubmit {
        /// The execution being committed to.
        exec: Box<ExecId>,
        /// The submitting party (must match the cross-net source for
        /// cross-net submissions).
        party: Box<HcAddress>,
        /// CID of the computed output state.
        output: Box<Cid>,
    },
    /// Abort execution `exec`.
    AtomicAbort {
        /// The execution being aborted.
        exec: Box<ExecId>,
        /// The aborting party.
        party: Box<HcAddress>,
    },
}

impl CanonicalEncode for Method {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        // A compact tag plus the method's fields. Persistence replays
        // blocks from these bytes, so every variant must encode losslessly
        // (the encoding stays injective, which is all CIDs need).
        match self {
            Method::Send => out.push(0),
            Method::PutData { key, data } => {
                out.push(1);
                key.write_bytes(out);
                data.write_bytes(out);
            }
            Method::LockState { key } => {
                out.push(2);
                key.write_bytes(out);
            }
            Method::UnlockState { key } => {
                out.push(3);
                key.write_bytes(out);
            }
            Method::DeploySubnetActor { config } => {
                out.push(4);
                config.write_bytes(out);
            }
            Method::JoinSubnet { key } => {
                out.push(5);
                key.write_bytes(out);
            }
            Method::LeaveSubnet => out.push(6),
            Method::KillSubnet => out.push(7),
            // Tag 8 is retired: a child's checkpoint reaches its parent's
            // chain only as `ImplicitMsg::CommitChildCheckpoint`.
            Method::RegisterSubnet { sa } => {
                out.push(9);
                sa.write_bytes(out);
            }
            Method::AddCollateral { subnet } => {
                out.push(10);
                subnet.write_bytes(out);
            }
            Method::SendCrossMsg { msg } => {
                out.push(11);
                msg.write_bytes(out);
            }
            Method::ReportFraud { subnet, proof } => {
                out.push(12);
                subnet.write_bytes(out);
                proof.write_bytes(out);
            }
            Method::SaveState { state } => {
                out.push(13);
                state.write_bytes(out);
            }
            Method::SaveSnapshot {
                snapshot,
                signatures,
            } => {
                out.push(17);
                snapshot.write_bytes(out);
                signatures.write_bytes(out);
            }
            Method::RecoverFunds { subnet, proof } => {
                out.push(18);
                subnet.write_bytes(out);
                proof.write_bytes(out);
            }
            Method::AtomicInit { parties, inputs } => {
                out.push(14);
                parties.write_bytes(out);
                inputs.write_bytes(out);
            }
            Method::AtomicSubmit {
                exec,
                party,
                output,
            } => {
                out.push(15);
                exec.write_bytes(out);
                party.write_bytes(out);
                output.write_bytes(out);
            }
            Method::AtomicAbort { exec, party } => {
                out.push(16);
                exec.write_bytes(out);
                party.write_bytes(out);
            }
        }
    }
}

impl CanonicalDecode for Method {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(Method::Send),
            1 => Ok(Method::PutData {
                key: Vec::<u8>::read_bytes(r)?.into(),
                data: Vec::<u8>::read_bytes(r)?.into(),
            }),
            2 => Ok(Method::LockState {
                key: Vec::<u8>::read_bytes(r)?,
            }),
            3 => Ok(Method::UnlockState {
                key: Vec::<u8>::read_bytes(r)?,
            }),
            4 => Ok(Method::DeploySubnetActor {
                config: Box::new(SaConfig::read_bytes(r)?),
            }),
            5 => Ok(Method::JoinSubnet {
                key: PublicKey::read_bytes(r)?,
            }),
            6 => Ok(Method::LeaveSubnet),
            7 => Ok(Method::KillSubnet),
            9 => Ok(Method::RegisterSubnet {
                sa: Address::read_bytes(r)?,
            }),
            10 => Ok(Method::AddCollateral {
                subnet: SubnetId::read_bytes(r)?,
            }),
            11 => Ok(Method::SendCrossMsg {
                msg: Box::new(CrossMsg::read_bytes(r)?),
            }),
            12 => Ok(Method::ReportFraud {
                subnet: SubnetId::read_bytes(r)?,
                proof: Box::new(FraudProof::read_bytes(r)?),
            }),
            13 => Ok(Method::SaveState {
                state: Cid::read_bytes(r)?,
            }),
            14 => Ok(Method::AtomicInit {
                parties: Vec::<HcAddress>::read_bytes(r)?.into(),
                inputs: Vec::<Cid>::read_bytes(r)?.into(),
            }),
            15 => Ok(Method::AtomicSubmit {
                exec: Box::new(ExecId::read_bytes(r)?),
                party: Box::new(HcAddress::read_bytes(r)?),
                output: Box::new(Cid::read_bytes(r)?),
            }),
            16 => Ok(Method::AtomicAbort {
                exec: Box::new(ExecId::read_bytes(r)?),
                party: Box::new(HcAddress::read_bytes(r)?),
            }),
            17 => Ok(Method::SaveSnapshot {
                snapshot: Box::new(StateSnapshot::read_bytes(r)?),
                signatures: AggregateSignature::read_bytes(r)?,
            }),
            18 => Ok(Method::RecoverFunds {
                subnet: SubnetId::read_bytes(r)?,
                proof: Box::new(BalanceProof::read_bytes(r)?),
            }),
            tag => Err(DecodeError::BadTag {
                what: "Method",
                tag,
            }),
        }
    }
}

/// An unsigned chain message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending account.
    pub from: Address,
    /// Destination actor.
    pub to: Address,
    /// Value transferred with the call.
    pub value: TokenAmount,
    /// Sender's account nonce (strictly sequential).
    pub nonce: Nonce,
    /// The operation.
    pub method: Method,
}

impl CanonicalEncode for Message {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.from.write_bytes(out);
        self.to.write_bytes(out);
        self.value.write_bytes(out);
        self.nonce.write_bytes(out);
        self.method.write_bytes(out);
    }
}

decode_fields!(Message {
    from,
    to,
    value,
    nonce,
    method
});

impl Message {
    /// Convenience constructor for a plain transfer.
    pub fn transfer(from: Address, to: Address, value: TokenAmount, nonce: Nonce) -> Self {
        Message {
            from,
            to,
            value,
            nonce,
            method: Method::Send,
        }
    }

    /// Signs the message with `key`, producing a [`SignedMessage`]
    /// ([`crate::SealedMessage::sign`] without the carried CIDs).
    pub fn sign(self, key: &Keypair) -> SignedMessage {
        crate::SealedMessage::sign(self, key).into_signed()
    }
}

/// A user message plus the sender's signature over its CID.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedMessage {
    /// The message body.
    pub message: Message,
    /// Signature by the sender's registered account key.
    pub signature: Signature,
}

impl SignedMessage {
    /// Verifies the signature against the message CID. Key *ownership*
    /// (signature.signer == account key) is checked by the VM.
    pub fn verify_signature(&self) -> bool {
        self.signature.verify(self.message.cid().as_bytes()).is_ok()
    }
}

impl CanonicalEncode for SignedMessage {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.message.write_bytes(out);
        self.signature.write_bytes(out);
    }
}

decode_fields!(SignedMessage { message, signature });

// Every committed block keeps its messages for ever, and nearly all of them
// are `Method::Send`, so the layout is pinned (DESIGN.md §10).
// Rule: a `Method` variant whose payload exceeds 32 B is boxed.
const _: () = assert!(size_of::<Method>() <= 40);
const _: () = assert!(size_of::<Message>() <= 80);
const _: () = assert!(size_of::<crate::SealedMessage>() <= 224);

/// One account a block installs: its address, the key it registers, and
/// what it mints on the rootnet (`None` mints nothing).
pub type AccountInstall = (Address, PublicKey, Option<TokenAmount>);

/// Consensus-injected system messages, executed with system authority.
#[derive(Debug, Clone, PartialEq)]
pub enum ImplicitMsg {
    /// Apply a top-down cross-message committed by the parent's SCA
    /// (paper Fig. 3, left).
    ApplyTopDown(CrossMsg),
    /// Apply a resolved bottom-up message group for `meta`
    /// (paper Fig. 3, right).
    ApplyBottomUp {
        /// The nonce-stamped meta committed in the parent checkpoint flow.
        meta: CrossMsgMeta,
        /// The resolved group (its digest must equal `meta.msgs_cid`).
        msgs: MsgGroup,
    },
    /// Cut the subnet's checkpoint at the current epoch (executed at
    /// checkpoint-period boundaries); `proof` is the chain head CID.
    CutCheckpoint {
        /// CID of the chain head being committed.
        proof: Cid,
    },
    /// Commit a validated child checkpoint in this (parent) subnet. The
    /// child's Subnet Actor signature policy is enforced during execution;
    /// consensus carries the checkpoint so every validator commits it
    /// deterministically (paper §III-B).
    CommitChildCheckpoint {
        /// The signed checkpoint from the child.
        signed: SignedCheckpoint,
    },
    /// Abort every pending atomic execution older than `timeout` epochs —
    /// the coordinator chain's liveness sweep guaranteeing the protocol's
    /// *timeliness* property (paper §IV-D).
    SweepAtomicTimeouts {
        /// Age threshold in coordinator epochs.
        timeout: u64,
    },
    /// Re-commit the (resolved) messages of a turnaround meta top-down:
    /// this subnet is the least common ancestor where a path message
    /// switches from bottom-up to top-down propagation (paper §IV-A).
    CommitTurnaround {
        /// The meta routed back down by a committed child checkpoint.
        meta: CrossMsgMeta,
        /// The resolved group (its digest must equal `meta.msgs_cid`).
        msgs: MsgGroup,
    },
    /// Install the accounts clients created or adopted since the last
    /// block: each registers its key and is credited its mint. A producer
    /// puts at most one in a block, first, so a new account can sign in the
    /// block that installs it. Only the rootnet mints; off it, a non-zero
    /// mint refuses the whole list.
    InstallAccounts(Box<[AccountInstall]>),
}

impl ImplicitMsg {
    /// Appends the bytes a block's payload root commits to for this
    /// message: its canonical encoding, except that a carried group is
    /// written as its CID rather than its messages. The group's CID is its
    /// memo, derived where the group was sealed or decoded, so the payload
    /// root hashes each group's messages no second time.
    pub fn write_commitment(&self, out: &mut Vec<u8>) {
        self.write_with(out, |group, out| group.cid().write_bytes(out));
    }

    /// The canonical encoding with each carried group written by `group`.
    fn write_with(&self, out: &mut Vec<u8>, group: fn(&MsgGroup, &mut Vec<u8>)) {
        match self {
            ImplicitMsg::ApplyTopDown(m) => {
                out.push(0);
                m.write_bytes(out);
            }
            ImplicitMsg::ApplyBottomUp { meta, msgs } => {
                out.push(1);
                meta.write_bytes(out);
                group(msgs, out);
            }
            ImplicitMsg::CutCheckpoint { proof } => {
                out.push(2);
                proof.write_bytes(out);
            }
            ImplicitMsg::CommitChildCheckpoint { signed } => {
                out.push(3);
                signed.write_bytes(out);
            }
            ImplicitMsg::CommitTurnaround { meta, msgs } => {
                out.push(4);
                meta.write_bytes(out);
                group(msgs, out);
            }
            ImplicitMsg::SweepAtomicTimeouts { timeout } => {
                out.push(5);
                timeout.write_bytes(out);
            }
            ImplicitMsg::InstallAccounts(accounts) => {
                out.push(6);
                accounts[..].write_bytes(out);
            }
        }
    }
}

impl CanonicalEncode for ImplicitMsg {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.write_with(out, |group, out| group.write_bytes(out));
    }
}

impl CanonicalDecode for ImplicitMsg {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(ImplicitMsg::ApplyTopDown(CrossMsg::read_bytes(r)?)),
            1 => Ok(ImplicitMsg::ApplyBottomUp {
                meta: CrossMsgMeta::read_bytes(r)?,
                msgs: MsgGroup::read_bytes(r)?,
            }),
            2 => Ok(ImplicitMsg::CutCheckpoint {
                proof: Cid::read_bytes(r)?,
            }),
            3 => Ok(ImplicitMsg::CommitChildCheckpoint {
                signed: SignedCheckpoint::read_bytes(r)?,
            }),
            4 => Ok(ImplicitMsg::CommitTurnaround {
                meta: CrossMsgMeta::read_bytes(r)?,
                msgs: MsgGroup::read_bytes(r)?,
            }),
            5 => Ok(ImplicitMsg::SweepAtomicTimeouts {
                timeout: u64::read_bytes(r)?,
            }),
            6 => Ok(ImplicitMsg::InstallAccounts(
                Vec::read_bytes(r)?.into_boxed_slice(),
            )),
            tag => Err(DecodeError::BadTag {
                what: "ImplicitMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed([0x11; 32]);
        let msg = Message::transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(1),
            Nonce::ZERO,
        );
        let signed = msg.sign(&kp);
        assert!(signed.verify_signature());
        assert_eq!(signed.signature.signer(), kp.public());
    }

    #[test]
    fn tampering_breaks_signature() {
        let kp = Keypair::from_seed([0x12; 32]);
        let msg = Message::transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(1),
            Nonce::ZERO,
        );
        let mut signed = msg.sign(&kp);
        signed.message.value = TokenAmount::from_whole(1000);
        assert!(!signed.verify_signature());
    }

    #[test]
    fn method_encodings_are_distinct() {
        let methods = [
            Method::Send,
            Method::LeaveSubnet,
            Method::KillSubnet,
            Method::PutData {
                key: vec![1].into(),
                data: vec![2].into(),
            },
            Method::LockState { key: vec![1] },
            Method::UnlockState { key: vec![1] },
            Method::SaveState { state: Cid::NIL },
        ];
        let encodings: Vec<Vec<u8>> = methods.iter().map(|m| m.canonical_bytes()).collect();
        for i in 0..encodings.len() {
            for j in i + 1..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn methods_round_trip_canonically() {
        use hc_actors::sa::SaConfig;
        let kp = Keypair::from_seed([0x21; 32]);
        let methods = [
            Method::Send,
            Method::PutData {
                key: vec![1, 2].into(),
                data: vec![3].into(),
            },
            Method::LockState { key: vec![9] },
            Method::UnlockState { key: vec![9] },
            Method::DeploySubnetActor {
                config: SaConfig::default().into(),
            },
            Method::JoinSubnet { key: kp.public() },
            Method::LeaveSubnet,
            Method::KillSubnet,
            Method::RegisterSubnet {
                sa: Address::new(7),
            },
            Method::AddCollateral {
                subnet: SubnetId::root(),
            },
            Method::SaveState {
                state: Cid::digest(b"s"),
            },
            Method::AtomicInit {
                parties: Box::new([]),
                inputs: vec![Cid::digest(b"i")].into(),
            },
        ];
        for m in methods {
            let bytes = m.canonical_bytes();
            assert_eq!(Method::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn signed_message_round_trip() {
        let kp = Keypair::from_seed([0x22; 32]);
        let signed = Message::transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(2),
            Nonce::new(3),
        )
        .sign(&kp);
        let back = SignedMessage::decode(&signed.canonical_bytes()).unwrap();
        assert_eq!(back, signed);
        assert!(back.verify_signature());
    }

    #[test]
    fn implicit_msgs_round_trip() {
        let kp = Keypair::from_seed([0x23; 32]);
        let msg = CrossMsg::transfer(
            HcAddress::new(SubnetId::root(), Address::new(1)),
            HcAddress::new(SubnetId::root(), Address::new(2)),
            TokenAmount::from_whole(1),
        );
        let group = MsgGroup::seal(vec![msg.clone()]);
        let meta = CrossMsgMeta::for_group(SubnetId::root(), SubnetId::root(), &group);
        let cases = [
            ImplicitMsg::ApplyTopDown(msg.clone()),
            ImplicitMsg::ApplyBottomUp {
                meta: meta.clone(),
                msgs: group.clone(),
            },
            ImplicitMsg::CutCheckpoint {
                proof: Cid::digest(b"head"),
            },
            ImplicitMsg::CommitTurnaround { meta, msgs: group },
            ImplicitMsg::SweepAtomicTimeouts { timeout: 4 },
            ImplicitMsg::InstallAccounts(Box::new([
                (
                    Address::new(100),
                    kp.public(),
                    Some(TokenAmount::from_whole(3)),
                ),
                (Address::new(101), kp.public(), None),
            ])),
        ];
        for m in cases {
            assert_eq!(ImplicitMsg::decode(&m.canonical_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn message_cid_depends_on_every_field() {
        let base = Message::transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(1),
            Nonce::ZERO,
        );
        let mut diff_nonce = base.clone();
        diff_nonce.nonce = Nonce::new(1);
        let mut diff_to = base.clone();
        diff_to.to = Address::new(102);
        assert_ne!(base.cid(), diff_nonce.cid());
        assert_ne!(base.cid(), diff_to.cid());
    }
}
