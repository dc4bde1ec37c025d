//! Carried digests never lie: a cross-msg group or a block payload that
//! was altered *through bytes* — the only way content enters a node from
//! outside — comes back cold, re-derives its digest from what was decoded,
//! and is refused wherever the digest is compared.
//!
//! The memos that make the in-process path O(1) ([`MsgGroup`]'s Merkle
//! root, [`Block`]'s payload root) are private and filled only from the
//! content beside them, so none of these checks was removed — only their
//! repeats on a value that cannot have changed.

use proptest::prelude::*;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::ledger::MapLedger;
use hc_actors::{
    CrossMsg, CrossMsgMeta, HcAddress, Ledger, MsgGroup, ScaConfig, ScaError, ScaState,
};
use hc_chain::{produce_block_with, Block, ChainStore, CrossMsgPool, ExecOptions};
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
}
