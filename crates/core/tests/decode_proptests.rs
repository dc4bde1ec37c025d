//! Hostile bytes against the canonical decoders of state, blocks and the
//! checkpoint archive: `ScaState` and `SaConfig` (hc-actors), `Method`,
//! `ImplicitMsg`, `AccountState`, `RegistryEntry` and the three `Atomic*Params`
//! of cross-net calls (hc-state) and `ArchiveEntry` (hc-core). Every one of
//! them reads bytes a peer or a disk supplies — a snapshot's chunk blobs, a
//! block batch, a journal record, a cross-message's call data.
//!
//! One property over the whole type list: arbitrary bytes, and a valid
//! encoding with bits flipped or its end cut or extended, never panic the
//! decoder, and whatever does decode re-encodes to exactly the bytes it
//! came from — decoding accepts one encoding per value.

mod common;

use proptest::prelude::*;

use common::whole;
use hc_actors::checkpoint::{Checkpoint, SignedCheckpoint};
use hc_actors::ledger::MapLedger;
use hc_actors::sa::{ConsensusKind, FraudProof, JoinPolicy, SaConfig};
use hc_actors::snapshot::StateSnapshot;
use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, MsgGroup, ScaConfig, ScaState};
use hc_core::archive::ArchiveEntry;
use hc_state::params::{AtomicAbortParams, AtomicInitParams, AtomicSubmitParams};
use hc_state::{AccountState, ImplicitMsg, Method, RegistryEntry};
use hc_types::crypto::{AggregateSignature, SignaturePolicy};
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId,
};

fn subnet(route: &[u64]) -> SubnetId {
    SubnetId::from_route(route.iter().copied().map(Address::new))
}

fn at(route: &[u64], a: u64) -> HcAddress {
    HcAddress::new(subnet(route), Address::new(a))
}

fn keypair(seed: u8) -> Keypair {
    Keypair::from_seed([seed; 32])
}

fn group() -> MsgGroup {
    MsgGroup::seal(vec![
        CrossMsg::transfer(at(&[200], 1), at(&[], 2), whole(3)),
        CrossMsg::call(at(&[200], 1), at(&[201], 4), whole(1), 7, vec![1, 2, 3]),
    ])
}

fn signed_checkpoint(epoch: u64) -> SignedCheckpoint {
    let mut ckpt = Checkpoint::template(subnet(&[200]), ChainEpoch::new(epoch), Cid::NIL);
    ckpt.proof = Cid::digest(b"head");
    ckpt.add_child_check(subnet(&[200, 300]), Cid::digest(b"child"));
    ckpt.add_cross_meta(CrossMsgMeta::for_group(
        subnet(&[200]),
        subnet(&[]),
        &group(),
    ));
    let mut signed = SignedCheckpoint::new(ckpt);
    let bytes = signed.signing_bytes();
    signed.signatures.add(keypair(1).sign(&bytes));
    signed.signatures.add(keypair(2).sign(&bytes));
    signed
}

/// An SCA with every encoded field populated: a registered and later killed
/// child, top-down and recovered value, a cut checkpoint, a window queued
/// to two destinations, a saved state and a child snapshot.
fn sca() -> ScaState {
    let me = subnet(&[200]);
    let payer = Address::new(100);
    let mut sca = ScaState::new(me.clone(), ScaConfig::default());
    let mut ledger = MapLedger::with_balances([(payer, whole(1_000))]);
    let child = sca
        .register_subnet(
            &mut ledger,
            payer,
            Address::new(900),
            whole(10),
            ChainEpoch::GENESIS,
        )
        .unwrap();
    let down = CrossMsg::transfer(
        at(&[200], 100),
        HcAddress::new(child.clone(), Address::new(7)),
        whole(3),
    );
    sca.send_cross_msg(&mut ledger, payer, down).unwrap();
    let up = |to: &[u64], value| CrossMsg::transfer(at(&[200], 100), at(to, 8), whole(value));
    sca.send_cross_msg(&mut ledger, payer, up(&[], 1)).unwrap();
    let _ = sca.cut_checkpoint(ChainEpoch::new(10), Cid::digest(b"head"));
    sca.send_cross_msg(&mut ledger, payer, up(&[], 2)).unwrap();
    sca.send_cross_msg(&mut ledger, payer, up(&[201], 3))
        .unwrap();
    sca.save_state(ChainEpoch::new(10), Cid::digest(b"state"));
    let (snapshot, tree) = StateSnapshot::build(
        child.clone(),
        ChainEpoch::new(9),
        [(Address::new(7), whole(2))],
    );
    sca.save_child_snapshot(snapshot).unwrap();
    sca.kill_subnet(&mut ledger, &child, payer).unwrap();
    let proof = tree.prove(Address::new(7)).unwrap();
    sca.recover_funds(&mut ledger, Address::new(7), &child, &proof)
        .unwrap();
    sca
}

fn sa_configs() -> Vec<SaConfig> {
    vec![
        SaConfig::default(),
        SaConfig {
            consensus: ConsensusKind::Tendermint,
            join_policy: JoinPolicy::Allowlist {
                allowed: vec![Address::new(1), Address::new(2)],
                min_stake: whole(5),
            },
            min_validators: 3,
            checkpoint_period: 7,
        },
    ]
}

fn methods() -> Vec<Method> {
    let (snapshot, tree) = StateSnapshot::build(
        subnet(&[200]),
        ChainEpoch::new(3),
        [(Address::new(7), whole(2))],
    );
    let mut signatures = AggregateSignature::new();
    signatures.add(keypair(3).sign(snapshot.cid().as_bytes()));
    let exec = Cid::digest(b"exec");
    vec![
        Method::Send,
        Method::PutData {
            key: vec![1, 2],
            data: vec![3],
        },
        Method::LockState { key: vec![9] },
        Method::UnlockState { key: vec![9] },
        Method::DeploySubnetActor {
            config: sa_configs().pop().unwrap(),
        },
        Method::JoinSubnet {
            key: keypair(4).public(),
        },
        Method::LeaveSubnet,
        Method::KillSubnet,
        Method::SubmitCheckpoint {
            signed: signed_checkpoint(10),
        },
        Method::RegisterSubnet {
            sa: Address::new(7),
        },
        Method::AddCollateral {
            subnet: subnet(&[200]),
        },
        Method::SendCrossMsg {
            msg: group()[1].clone(),
        },
        Method::ReportFraud {
            subnet: subnet(&[200]),
            proof: Box::new(FraudProof {
                a: signed_checkpoint(10),
                b: signed_checkpoint(20),
            }),
        },
        Method::SaveState {
            state: Cid::digest(b"s"),
        },
        Method::SaveSnapshot {
            snapshot,
            signatures,
        },
        Method::RecoverFunds {
            subnet: subnet(&[200]),
            proof: tree.prove(Address::new(7)).unwrap(),
        },
        Method::AtomicInit {
            parties: vec![at(&[200], 1), at(&[201], 2)],
            inputs: vec![Cid::digest(b"i")],
        },
        Method::AtomicSubmit {
            exec,
            party: at(&[200], 1),
            output: Cid::digest(b"o"),
        },
        Method::AtomicAbort {
            exec,
            party: at(&[201], 2),
        },
    ]
}

fn implicit_msgs() -> Vec<ImplicitMsg> {
    let mut meta = CrossMsgMeta::for_group(subnet(&[200]), subnet(&[]), &group());
    meta.nonce = Nonce::new(4);
    vec![
        ImplicitMsg::ApplyTopDown(group()[0].clone()),
        ImplicitMsg::ApplyBottomUp {
            meta: meta.clone(),
            msgs: group(),
        },
        ImplicitMsg::CutCheckpoint {
            proof: Cid::digest(b"head"),
        },
        ImplicitMsg::CommitChildCheckpoint {
            signed: signed_checkpoint(10),
        },
        ImplicitMsg::SweepAtomicTimeouts { timeout: 4 },
        ImplicitMsg::CommitTurnaround {
            meta,
            msgs: group(),
        },
    ]
}

fn archive_entries() -> Vec<ArchiveEntry> {
    let keys: Vec<_> = (5..9).map(|s| keypair(s).public()).collect();
    [
        SignaturePolicy::Single(keys[0]),
        SignaturePolicy::MultiSig {
            signers: keys.clone(),
            threshold: 2,
        },
        SignaturePolicy::two_thirds(keys),
    ]
    .into_iter()
    .map(|policy| ArchiveEntry {
        signed: signed_checkpoint(10),
        policy,
    })
    .collect()
}

fn account() -> AccountState {
    let mut acc = AccountState {
        balance: whole(12),
        nonce: Nonce::new(3),
        key: Some(keypair(9).public()),
        ..AccountState::default()
    };
    acc.storage.insert(vec![1], vec![2, 3]);
    acc.storage.insert(vec![4, 5], vec![]);
    acc.locked.insert(vec![1]);
    acc
}

/// Decodes `bytes` as `T` and re-encodes what came out.
fn reencode<T: CanonicalDecode + CanonicalEncode>(bytes: &[u8]) -> Option<Vec<u8>> {
    T::decode(bytes).ok().map(|v| v.canonical_bytes())
}

fn encodings<T: CanonicalEncode>(values: impl IntoIterator<Item = T>) -> Vec<Vec<u8>> {
    values.into_iter().map(|v| v.canonical_bytes()).collect()
}

type Reencode = fn(&[u8]) -> Option<Vec<u8>>;

/// Each decoder under test with valid encodings of its type.
fn decoders() -> Vec<(&'static str, Reencode, Vec<Vec<u8>>)> {
    vec![
        (
            "ScaState",
            reencode::<ScaState>,
            encodings([sca(), ScaState::new(subnet(&[]), ScaConfig::default())]),
        ),
        ("SaConfig", reencode::<SaConfig>, encodings(sa_configs())),
        ("Method", reencode::<Method>, encodings(methods())),
        (
            "ImplicitMsg",
            reencode::<ImplicitMsg>,
            encodings(implicit_msgs()),
        ),
        (
            "ArchiveEntry",
            reencode::<ArchiveEntry>,
            encodings(archive_entries()),
        ),
        (
            "AccountState",
            reencode::<AccountState>,
            encodings([account(), AccountState::default()]),
        ),
        (
            "RegistryEntry",
            reencode::<RegistryEntry>,
            encodings([RegistryEntry(group())]),
        ),
        (
            "AtomicInitParams",
            reencode::<AtomicInitParams>,
            encodings([
                AtomicInitParams {
                    parties: vec![at(&[200], 1), at(&[201, 300], 2)],
                    inputs: vec![Cid::digest(b"i"), Cid::digest(b"j")],
                },
                AtomicInitParams {
                    parties: Vec::new(),
                    inputs: Vec::new(),
                },
            ]),
        ),
        (
            "AtomicSubmitParams",
            reencode::<AtomicSubmitParams>,
            encodings([AtomicSubmitParams {
                exec: Cid::digest(b"exec"),
                output: Cid::digest(b"o"),
            }]),
        ),
        (
            "AtomicAbortParams",
            reencode::<AtomicAbortParams>,
            encodings([AtomicAbortParams {
                exec: Cid::digest(b"exec"),
            }]),
        ),
    ]
}

/// Decodes `bytes` with every decoder; whatever decodes must re-encode to
/// `bytes`.
fn decode_everywhere(bytes: &[u8]) -> Result<(), TestCaseError> {
    for (name, reencode, _) in decoders() {
        if let Some(again) = reencode(bytes) {
            prop_assert!(
                again == bytes,
                "{} decoded {:?} but re-encodes to {:?}",
                name,
                bytes,
                again
            );
        }
    }
    Ok(())
}

#[test]
fn every_sample_round_trips() {
    for (name, reencode, samples) in decoders() {
        for (i, bytes) in samples.iter().enumerate() {
            assert_eq!(reencode(bytes).as_ref(), Some(bytes), "{name} sample {i}");
        }
    }
}

/// A decoded SCA carries the digest of the window it decoded, and the
/// sample SCA's window is not empty — so the bit flips below reach the
/// window and the nonce check.
#[test]
fn the_sample_sca_decodes_with_its_window_digest() {
    let sca = sca();
    assert_eq!(sca.window_bottom_up_counts().values().sum::<usize>(), 2);
    let decoded = ScaState::decode(&sca.canonical_bytes()).unwrap();
    assert_eq!(decoded.window_digest(), sca.window_digest());
    assert_eq!(decoded, sca);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Arbitrary bytes: no decoder panics, and anything accepted is
    /// canonical.
    #[test]
    fn arbitrary_bytes_never_panic_and_decode_canonically(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        decode_everywhere(&bytes)?;
    }

    /// A valid encoding of every type with one to three bits flipped, then
    /// optionally cut short and optionally extended by a byte: no decoder
    /// panics, and anything accepted is canonical.
    #[test]
    fn altered_encodings_never_panic_and_decode_canonically(
        sample in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..4),
        cut in prop_oneof![Just(0usize), Just(0usize), 1usize..40],
        extend in any::<bool>(),
    ) {
        for (_, _, samples) in decoders() {
            let mut bytes = samples[sample.index(samples.len())].clone();
            for (at, bit) in &flips {
                let i = at.index(bytes.len());
                bytes[i] ^= 1 << bit;
            }
            bytes.truncate(bytes.len().saturating_sub(cut));
            if extend {
                bytes.push(0);
            }
            decode_everywhere(&bytes)?;
        }
    }
}
