//! Carried digests never lie: a cross-msg group or a block payload that
//! was altered *through bytes* — the only way content enters a node from
//! outside — comes back cold, re-derives its digest from what was decoded,
//! and is refused wherever the digest is compared.
//!
//! The memos that make the in-process path O(1) ([`MsgGroup`]'s digest,
//! [`Block`]'s payload root) are private and filled only from the content
//! beside them, so none of these checks was removed — only their repeats
//! on a value that cannot have changed.
//!
//! A payload root is one SHA-256 pass over the signed count, each signed
//! message's CID and signature, the implicit count and the implicit
//! messages' commitment forms (a carried group written as its CID). The
//! last two properties pin it: a sealed block's root is that digest
//! recomputed from scratch and its cold decoded copy's, and it moves with
//! every change to what the block carries.

use proptest::prelude::*;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::ledger::MapLedger;
use hc_actors::{
    CrossMsg, CrossMsgMeta, HcAddress, Ledger, MsgGroup, ScaConfig, ScaError, ScaState,
};
use hc_chain::{produce_block_with, Block, BlockHeader, ChainStore, CrossMsgPool, ExecOptions};
use hc_state::{ImplicitMsg, Message, SealedMessage, StateTree};
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId,
    TokenAmount,
};

fn child() -> SubnetId {
    SubnetId::root().child(Address::new(1_000_000))
}

fn msgs(values: &[u64]) -> Vec<CrossMsg> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let mut m = CrossMsg::transfer(
                HcAddress::new(child(), Address::new(300 + i as u64)),
                HcAddress::new(SubnetId::root(), Address::new(400 + *v % 7)),
                TokenAmount::from_atto(u128::from(*v) + 1),
            );
            m.nonce = Nonce::new(i as u64);
            m
        })
        .collect()
}

/// One way of altering an encoded sequence.
#[derive(Debug, Clone)]
enum Tamper {
    Flip(prop::sample::Index),
    Reorder(prop::sample::Index, prop::sample::Index),
    Drop(prop::sample::Index),
    Append(u64),
}

fn arb_tamper() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        any::<prop::sample::Index>().prop_map(Tamper::Flip),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Tamper::Reorder(a, b)),
        any::<prop::sample::Index>().prop_map(Tamper::Drop),
        any::<u64>().prop_map(Tamper::Append),
    ]
}

/// The canonical bytes of `items` after `tamper` (`extra` is what an
/// append adds).
fn tampered_bytes<T: CanonicalEncode + Clone>(items: &[T], extra: T, tamper: &Tamper) -> Vec<u8> {
    let mut items = items.to_vec();
    match tamper {
        Tamper::Flip(at) => {
            let mut bytes = items.canonical_bytes();
            let i = at.index(bytes.len());
            bytes[i] ^= 1 << (i % 8);
            return bytes;
        }
        Tamper::Reorder(a, b) => {
            let (a, b) = (a.index(items.len()), b.index(items.len()));
            items.swap(a, b);
        }
        Tamper::Drop(at) => {
            items.remove(at.index(items.len()));
        }
        Tamper::Append(_) => items.push(extra),
    }
    items.canonical_bytes()
}

/// One implicit message of an arbitrary payload.
#[derive(Debug, Clone)]
enum Implicit {
    TopDown(u64),
    BottomUp(Vec<u64>),
    Turnaround(Vec<u64>),
    Cut(u64),
    Sweep(u64),
    /// Addresses, each with whether it mints and how much.
    Install(Vec<(u64, (bool, u64))>),
}

fn arb_implicit() -> impl Strategy<Value = Implicit> {
    let values = || prop::collection::vec(0u64..1_000, 1..5);
    prop_oneof![
        (0u64..1_000).prop_map(Implicit::TopDown),
        values().prop_map(Implicit::BottomUp),
        values().prop_map(Implicit::Turnaround),
        any::<u64>().prop_map(Implicit::Cut),
        (1u64..100).prop_map(Implicit::Sweep),
        prop::collection::vec((100u64..200, (any::<bool>(), 0u64..1_000)), 0..4)
            .prop_map(Implicit::Install),
    ]
}

fn implicit_msg(spec: &Implicit) -> ImplicitMsg {
    let carrying = |values: &[u64]| {
        let group = MsgGroup::seal(msgs(values));
        let mut meta = CrossMsgMeta::for_group(child(), SubnetId::root(), &group);
        meta.nonce = Nonce::new(values.len() as u64);
        (meta, group)
    };
    match spec {
        Implicit::TopDown(v) => ImplicitMsg::ApplyTopDown(msgs(&[*v]).remove(0)),
        Implicit::BottomUp(values) => {
            let (meta, msgs) = carrying(values);
            ImplicitMsg::ApplyBottomUp { meta, msgs }
        }
        Implicit::Turnaround(values) => {
            let (meta, msgs) = carrying(values);
            ImplicitMsg::CommitTurnaround { meta, msgs }
        }
        Implicit::Cut(seed) => ImplicitMsg::CutCheckpoint {
            proof: Cid::digest(&seed.to_le_bytes()),
        },
        Implicit::Sweep(timeout) => ImplicitMsg::SweepAtomicTimeouts { timeout: *timeout },
        Implicit::Install(accounts) => {
            let key = Keypair::from_seed([0x75; 32]).public();
            let mint = |(mints, v): (bool, u64)| mints.then(|| TokenAmount::from_atto(v.into()));
            let accounts = accounts
                .iter()
                .map(|&(a, m)| (Address::new(a), key, mint(m)));
            ImplicitMsg::InstallAccounts(accounts.collect())
        }
    }
}

fn signed_msg(from: u64, value: u64) -> SealedMessage {
    signed_by(from, value, 0x73)
}

/// [`signed_msg`]'s message, signed by the key seeded with `key`.
fn signed_by(from: u64, value: u64, key: u8) -> SealedMessage {
    SealedMessage::sign(
        Message::transfer(
            Address::new(100 + from),
            Address::new(200),
            TokenAmount::from_atto(u128::from(value) + 1),
            Nonce::new(from),
        ),
        &Keypair::from_seed([key; 32]),
    )
}

/// Seals a block around `signed` and `implicit`; its header's `msgs_root`
/// is the payload root [`Block::seal`] derived.
fn sealed(signed: Vec<SealedMessage>, implicit: Vec<ImplicitMsg>) -> Block {
    let proposer = Keypair::from_seed([0x74; 32]);
    let header = BlockHeader {
        subnet: SubnetId::root(),
        epoch: ChainEpoch::new(1),
        parent: Cid::NIL,
        state_root: Cid::NIL,
        msgs_root: Cid::NIL,
        proposer: proposer.public(),
        timestamp_ms: 1_000,
    };
    Block::seal(header, signed, implicit, &proposer)
}

/// The payload root worked out from scratch, from the payload's bytes:
/// each message CID hashed anew beside its signature's bytes, and each
/// commitment form taken as the message's canonical bytes with its group's
/// bytes replaced by their digest.
fn payload_root_from_scratch(signed: &[SealedMessage], implicit: &[ImplicitMsg]) -> Cid {
    if signed.is_empty() && implicit.is_empty() {
        return Cid::NIL;
    }
    let mut preimage = (signed.len() as u64).canonical_bytes();
    for m in signed {
        m.message().cid().write_bytes(&mut preimage);
        m.signature().write_bytes(&mut preimage);
    }
    (implicit.len() as u64).write_bytes(&mut preimage);
    for m in implicit {
        let bytes = m.canonical_bytes();
        match m {
            ImplicitMsg::ApplyBottomUp { msgs, .. }
            | ImplicitMsg::CommitTurnaround { msgs, .. } => {
                let group = msgs.canonical_bytes();
                assert!(bytes.ends_with(&group), "a group is encoded last");
                preimage.extend_from_slice(&bytes[..bytes.len() - group.len()]);
                Cid::digest(&group).write_bytes(&mut preimage);
            }
            _ => preimage.extend_from_slice(&bytes),
        }
    }
    Cid::digest(&preimage)
}

/// One change to what a block carries.
#[derive(Debug, Clone)]
enum Alter {
    Drop(prop::sample::Index),
    Reorder(prop::sample::Index, prop::sample::Index),
    Substitute(prop::sample::Index),
    /// Another group under the first carried group's meta.
    SwapGroup,
    /// The same message signed with another key.
    SwapSignature(prop::sample::Index),
}

fn arb_alter() -> impl Strategy<Value = Alter> {
    prop_oneof![
        any::<prop::sample::Index>().prop_map(Alter::Drop),
        (any::<prop::sample::Index>(), any::<prop::sample::Index>())
            .prop_map(|(a, b)| Alter::Reorder(a, b)),
        any::<prop::sample::Index>().prop_map(Alter::Substitute),
        Just(Alter::SwapGroup),
        any::<prop::sample::Index>().prop_map(Alter::SwapSignature),
    ]
}

/// `items` after `alter`, or `None` if it leaves them as they were.
fn altered<T: Clone + PartialEq>(items: &[T], alter: &Alter, substitute: T) -> Option<Vec<T>> {
    let mut out = items.to_vec();
    match alter {
        Alter::Drop(at) if !out.is_empty() => {
            out.remove(at.index(out.len()));
        }
        Alter::Reorder(a, b) if !out.is_empty() => {
            out.swap(a.index(items.len()), b.index(items.len()));
        }
        Alter::Substitute(at) if !out.is_empty() => out[at.index(items.len())] = substitute,
        _ => return None,
    }
    (out != items).then_some(out)
}

proptest! {
    /// A group altered through bytes is refused by the cross-msg pool and
    /// by the SCA, both of which now compare digests in O(1).
    #[test]
    fn a_group_altered_through_bytes_is_refused(
        values in prop::collection::vec(0u64..1_000, 2..8),
        tamper in arb_tamper(),
    ) {
        let original = msgs(&values);
        let group = MsgGroup::seal(original.clone());
        let mut meta = CrossMsgMeta::for_group(child(), SubnetId::root(), &group);

        let extra = msgs(&[match tamper { Tamper::Append(v) => v, _ => 0 }]).remove(0);
        let bytes = tampered_bytes(&original, extra, &tamper);
        // Undecodable bytes never become a group at all.
        let Ok(tampered) = MsgGroup::decode(&bytes) else { return Ok(()); };
        if tampered == group {
            return Ok(()); // e.g. a swap of one index with itself
        }

        // The pool: a meta waits for the original's digest.
        let mut pool = CrossMsgPool::new();
        prop_assert!(pool.ingest_meta(meta.clone()));
        prop_assert!(!pool.resolve(tampered.clone()));
        prop_assert!(pool.take_proposable(10).1.is_empty());
        prop_assert!(pool.resolve(MsgGroup::decode(&group.canonical_bytes()).unwrap()));

        // The SCA: fund the child, commit a checkpoint carrying the meta,
        // then present the tampered group for it.
        let mut sca = ScaState::new(SubnetId::root(), ScaConfig::default());
        let mut ledger = MapLedger::default();
        ledger.mint(Address::new(100), TokenAmount::from_whole(1_000));
        let id = sca
            .register_subnet(
                &mut ledger,
                Address::new(100),
                Address::new(1_000_000),
                TokenAmount::from_whole(10),
                ChainEpoch::new(0),
            )
            .unwrap();
        prop_assert_eq!(&id, &child());
        let fund = CrossMsg::transfer(
            HcAddress::new(SubnetId::root(), Address::new(100)),
            HcAddress::new(child(), Address::new(300)),
            TokenAmount::from_whole(100),
        );
        sca.send_cross_msg(&mut ledger, Address::new(100), fund).unwrap();
        let mut ckpt = Checkpoint::template(child(), ChainEpoch::new(10), Cid::NIL);
        ckpt.add_cross_meta(meta.clone());
        let outcome = sca.commit_child_checkpoint(&mut ledger, &ckpt).unwrap();
        meta = outcome.applied_here[0].clone();
        let before = ledger.clone();
        prop_assert_eq!(
            sca.apply_bottom_up(&mut ledger, &meta, &tampered),
            Err(ScaError::ContentMismatch(meta.msgs_cid))
        );
        prop_assert_eq!(&ledger, &before, "a refused group moves no funds");
        sca.apply_bottom_up(&mut ledger, &meta, &group).unwrap();
    }

    /// A block whose payload was altered through bytes fails structural
    /// validation and is refused by the chain store; the same block
    /// decoded untouched validates — from cold memos — and appends.
    #[test]
    fn a_block_payload_altered_through_bytes_is_refused(
        values in prop::collection::vec(0u64..1_000, 2..6),
        users in 2u64..5,
        tamper in arb_tamper(),
        in_implicit in any::<bool>(),
    ) {
        let proposer = Keypair::from_seed([0x71; 32]);
        let key = Keypair::from_seed([0x72; 32]);
        let mut tree = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            (0..users).map(|u| (Address::new(100 + u), key.public(), TokenAmount::from_whole(10))),
        );
        let transfer = |from: u64, nonce: u64| {
            SealedMessage::sign(
                Message::transfer(
                    Address::new(100 + from),
                    Address::new(200),
                    TokenAmount::from_atto(1),
                    Nonce::new(nonce),
                ),
                &key,
            )
        };
        let signed: Vec<SealedMessage> = (0..users).map(|u| transfer(u, 0)).collect();
        // The implicit payload carries a group (refused at execution — no
        // meta was committed — but part of the payload all the same).
        let group = MsgGroup::seal(msgs(&values));
        let meta = CrossMsgMeta::for_group(child(), SubnetId::root(), &group);
        let implicit = vec![
            ImplicitMsg::ApplyBottomUp { meta, msgs: group },
            ImplicitMsg::CutCheckpoint { proof: Cid::digest(b"head") },
        ];
        let block = produce_block_with(
            &mut tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            implicit,
            signed,
            &proposer,
            1_000,
            ExecOptions::default(),
        )
        .block;
        block.validate_structure().unwrap();

        // Untouched bytes: cold memos, same verdict, same identity.
        let back = Block::decode(&block.canonical_bytes()).unwrap();
        back.validate_structure().unwrap();
        prop_assert_eq!(back.cid(), block.cid());
        ChainStore::new(SubnetId::root()).append(back).unwrap();

        // Same header and signatures around an altered payload.
        let mut bytes = block.header.canonical_bytes();
        if in_implicit {
            block.signed_msgs.write_bytes(&mut bytes);
            let extra = ImplicitMsg::SweepAtomicTimeouts { timeout: 3 };
            bytes.extend(tampered_bytes(&block.implicit_msgs, extra, &tamper));
        } else {
            bytes.extend(tampered_bytes(&block.signed_msgs, transfer(0, 1), &tamper));
            block.implicit_msgs.write_bytes(&mut bytes);
        }
        block.signature.write_bytes(&mut bytes);
        block.justification.write_bytes(&mut bytes);
        let Ok(tampered) = Block::decode(&bytes) else { return Ok(()); };
        if tampered == block {
            return Ok(());
        }
        prop_assert!(tampered.validate_structure().is_err());
        prop_assert!(ChainStore::new(SubnetId::root()).append(tampered).is_err());
    }

    /// The payload root a block is sealed with is the documented digest
    /// recomputed from scratch — `Cid::NIL` for an empty payload — and its
    /// decoded copy, whose messages and groups start cold, validates
    /// against it and seals to the same root.
    #[test]
    fn a_payload_root_is_one_digest_of_what_the_block_carries(
        values in prop::collection::vec(0u64..1_000, 0..4),
        implicit in prop::collection::vec(arb_implicit(), 0..5),
    ) {
        let signed: Vec<SealedMessage> =
            values.iter().enumerate().map(|(i, v)| signed_msg(i as u64, *v)).collect();
        let implicit: Vec<ImplicitMsg> = implicit.iter().map(implicit_msg).collect();
        let block = sealed(signed.clone(), implicit.clone());
        let root = block.header.msgs_root;
        prop_assert_eq!(root, payload_root_from_scratch(&signed, &implicit));
        prop_assert_eq!(root.is_nil(), signed.is_empty() && implicit.is_empty());

        let back = Block::decode(&block.canonical_bytes()).unwrap();
        back.validate_structure().unwrap();
        let resealed = sealed(back.signed_msgs.clone(), back.implicit_msgs.clone());
        prop_assert_eq!(resealed.header.msgs_root, root);
    }

    /// A dropped, reordered or substituted message moves the payload root,
    /// among the signed messages or the implicit ones, and so does another
    /// group carried under the same meta or another signature on the same
    /// message.
    #[test]
    fn a_payload_root_moves_with_its_content(
        values in prop::collection::vec(0u64..1_000, 0..4),
        implicit in prop::collection::vec(arb_implicit(), 0..5),
        group_values in prop::collection::vec(0u64..1_000, 1..5),
        alter in arb_alter(),
        in_implicit in any::<bool>(),
    ) {
        let signed: Vec<SealedMessage> =
            values.iter().enumerate().map(|(i, v)| signed_msg(i as u64, *v)).collect();
        let mut implicit: Vec<ImplicitMsg> = implicit.iter().map(implicit_msg).collect();
        // Every payload carries a group last, so a swap has one to replace.
        implicit.push(implicit_msg(&Implicit::BottomUp(group_values.clone())));
        let root = sealed(signed.clone(), implicit.clone()).header.msgs_root;

        let (signed2, implicit2) = match alter {
            Alter::SwapGroup => {
                let mut implicit2 = implicit.clone();
                let Some(ImplicitMsg::ApplyBottomUp { msgs: group, .. }) = implicit2.last_mut()
                else {
                    unreachable!("a bottom-up message was pushed last");
                };
                let shifted: Vec<u64> = group_values.iter().map(|v| v + 1).collect();
                *group = MsgGroup::seal(msgs(&shifted));
                (signed.clone(), implicit2)
            }
            Alter::SwapSignature(at) => {
                if signed.is_empty() {
                    return Ok(());
                }
                let i = at.index(signed.len());
                let mut signed2 = signed.clone();
                signed2[i] = signed_by(i as u64, values[i], 0x76);
                prop_assert_eq!(signed2[i].msg_cid(), signed[i].msg_cid());
                (signed2, implicit.clone())
            }
            _ if in_implicit => {
                let substitute = ImplicitMsg::SweepAtomicTimeouts { timeout: 1_000 };
                let Some(implicit2) = altered(&implicit, &alter, substitute) else {
                    return Ok(());
                };
                (signed.clone(), implicit2)
            }
            _ => {
                let Some(signed2) = altered(&signed, &alter, signed_msg(0, 1_000)) else {
                    return Ok(());
                };
                (signed2, implicit.clone())
            }
        };
        prop_assert_ne!(sealed(signed2, implicit2).header.msgs_root, root);
    }
}
