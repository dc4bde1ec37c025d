//! Hostile bytes against the canonical decoders of state and blocks:
//! `ScaState` and `SaConfig` (hc-actors), `Method`, `ImplicitMsg`,
//! `AccountState`, `RegistryEntry` and the three `Atomic*Params` of
//! cross-net calls (hc-state). Every one of them reads bytes a peer or a
//! disk supplies — a snapshot's chunk blobs, a
//! block batch, a journal record, a cross-message's call data.
//!
//! One property over the whole type list: arbitrary bytes, and a valid
//! encoding with bits flipped or its end cut or extended, never panic the
//! decoder, and whatever does decode re-encodes to exactly the bytes it
//! came from — decoding accepts one encoding per value.
//!
//! Beside it, the wire format of every `Method`, `ImplicitMsg` and
//! `AccountState` sample is pinned to recorded digests, so a change to how
//! a value is laid out in memory cannot move a byte or a CID.

mod common;

use proptest::prelude::*;

use common::whole;
use hc_actors::checkpoint::{Checkpoint, SignedCheckpoint};
use hc_actors::ledger::MapLedger;
use hc_actors::sa::{ConsensusKind, FraudProof, JoinPolicy, SaConfig};
use hc_actors::snapshot::StateSnapshot;
use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, MsgGroup, ScaConfig, ScaState};
use hc_state::params::{AtomicAbortParams, AtomicInitParams, AtomicSubmitParams};
use hc_state::{AccountState, ImplicitMsg, Message, Method, RegistryEntry, SealedMessage};
use hc_types::crypto::AggregateSignature;
use hc_types::{
    Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, DecodeError, Keypair, Nonce,
    SubnetId,
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
    // As a block commit would: the outbox is empty between blocks.
    sca.take_outbox();
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
            key: vec![1, 2].into(),
            data: vec![3].into(),
        },
        Method::LockState { key: vec![9] },
        Method::UnlockState { key: vec![9] },
        Method::DeploySubnetActor {
            config: sa_configs().pop().unwrap().into(),
        },
        Method::JoinSubnet {
            key: keypair(4).public(),
        },
        Method::LeaveSubnet,
        Method::KillSubnet,
        Method::RegisterSubnet {
            sa: Address::new(7),
        },
        Method::AddCollateral {
            subnet: subnet(&[200]),
        },
        Method::SendCrossMsg {
            msg: group()[1].clone().into(),
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
            snapshot: snapshot.into(),
            signatures,
        },
        Method::RecoverFunds {
            subnet: subnet(&[200]),
            proof: tree.prove(Address::new(7)).unwrap().into(),
        },
        Method::AtomicInit {
            parties: vec![at(&[200], 1), at(&[201], 2)].into(),
            inputs: vec![Cid::digest(b"i")].into(),
        },
        Method::AtomicSubmit {
            exec: exec.into(),
            party: at(&[200], 1).into(),
            output: Cid::digest(b"o").into(),
        },
        Method::AtomicAbort {
            exec: exec.into(),
            party: at(&[201], 2).into(),
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
        ImplicitMsg::InstallAccounts(Box::new([
            (Address::new(100), keypair(9).public(), Some(whole(7))),
            (Address::new(101), keypair(10).public(), None),
        ])),
    ]
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

/// The account samples: one with storage and locks, one with locks only
/// and no key, and an empty one — a contract section of each shape.
fn accounts() -> Vec<AccountState> {
    let mut locks_only = AccountState {
        balance: whole(1),
        ..AccountState::default()
    };
    locks_only.locked.insert(vec![7, 7]);
    vec![account(), locks_only, AccountState::default()]
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
            "AccountState",
            reencode::<AccountState>,
            encodings(accounts()),
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

/// For each entry of `methods()`: the digest of its canonical bytes, then
/// the `msg_cid()` of a signed `SealedMessage` carrying it and the digest of
/// that signed envelope's bytes (once the message's envelope CID, which no
/// code derives any more: a payload root absorbs the message CID and the
/// signature).
/// Recorded before `Method` boxed its cold variants: a layout change must
/// move no byte and no CID. The samples that carry a cross-message group's
/// digest — entry 11 here (`ReportFraud`'s checkpoints), entries 1, 3 and 5
/// of [`IMPLICIT_WIRE`] — were re-recorded when that digest became the CID
/// of the group's encoding instead of a Merkle root: their bytes kept their
/// length and moved only in the group CIDs and in the checkpoint
/// signatures over them.
const METHOD_WIRE: [[&str; 3]; 18] = [
    [
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "9c53539c2de230d9df2069b1fe472fb1c4d72c7a23f91f38371444543a2465b9",
        "5d56525ff1718bbfcd6d1764ea1710612ae4ef3a0840269886c26b61325144af",
    ],
    [
        "6d29705278c4139acbde7219fc2e78943c9bcdab1e591be69667653c6f64e1f5",
        "799b2f083e7cb6498a9617ab8b66acaa391d88240db3a024d09323439e708cbb",
        "b0bcf9793fdcac81011362731d09cd007da241d46ff298d941c3fa20ac043360",
    ],
    [
        "7c28bea37fdb70e01b5aa47468a1bdc68f508c9f114f1df63d61a25eb726f14a",
        "28b886f7980aa55d40d29f7cb3e4cbab2b1455c60d7695c744d91ab64bb0d658",
        "2f84f8067f48f84d452979eca2ff80a713c8231cf0d2da00a53211b5335916ba",
    ],
    [
        "9af62a59d644f157b5d7bb753e3d9095d2162e1ea899bae4dac1c8ae16a0a479",
        "73531ac1490299ba2602a902566e9c98543d239c2b5351a40decafbffee21c49",
        "d8ea9fad4b66c295543a99d7c031797bddd0c4d0ecb20f01fbafda3c216faf9f",
    ],
    [
        "05242aec3bf0ffdf4bbb3d4df2647b7a8492c4a6f5fd3c282ef39bdb954c6311",
        "3ad8bb786d6154c3f5d141d384b422393bfffe2f0cfb3263d4fb83e5d011f5a4",
        "64dea4ca47043ff409403e796077c14fd4031943e87da3201df8057343f15dea",
    ],
    [
        "482ce00d0270608ac47b665c54551d051491481103dd4d606f9164485a5c081d",
        "55ba0fae0ceaf9631b373762a2cda0d190f8cc4cf238c72e98abf6fed1919f59",
        "d05d076bae552fc78edcde2b256e6760f627f557f1de5ed7190b2978597f83fa",
    ],
    [
        "67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6",
        "6fc1cfdf743da0aed93a7b9296d6f0db610f681d91dd4dd1c88ebf2a9952a22d",
        "1e397a5b8292635f67b720fe533ea9e9c920ab38d304a84023d35732339babef",
    ],
    [
        "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
        "e6f509ed081ae0a909236faae0741d4e2367109055dccc34a16d329c725e1169",
        "24c2d41a615b5f20d6d011fc65b478e95db092abb7120cb8cbadc8170aaa6bd7",
    ],
    [
        "80cd67c0ee6448fded470ccd7ef81872e5618816585224005918ebddd4dc42bb",
        "6d303b40bc7ec19b05bde85eb7d896b39490e2c6a0cbeba48a2d2a61b4e42dc6",
        "02bc0db7f19c695dc57ca47c521ab8125f3732d2ea4aefd9c355699d258193bc",
    ],
    [
        "6171f5b2a20076fbbeb2a2171a0a6e0056df41be76b7d2a53ecdfd0fcf5dca7d",
        "c909c2c35c7ca77f09ffb6f7d8ddfaf1aee19304a2779b858d975ea7eb899f67",
        "fb0c5a49bba77f9f52a66cf92a2f1774e5ef9322ad7e66d9ace1184e6ca31d06",
    ],
    [
        "9aea119f4b94a0dae011d809eb77c25678c73cd84991ed88c6a0734cc99f90c8",
        "e80f69f46ff76d8f19d37a80a726641387c17d3e3da6e75b9844da2a1dc7da96",
        "1112f8ff62853c70c9fc6eb5d82eaa0312792970de00382739720108996400ae",
    ],
    [
        "c5143b5447022a0ae13e4f720a105ccd6dfb8f6b1636a3b0930385200f64462d",
        "006ae4dd19f1370e3d7f7f682716661abcdba072595e9b4510b105a7b899949a",
        "62eff81e8b25d5ccd126e1e05b257daefea4b9deb669cc266a8c1b3c96042d59",
    ],
    [
        "591ba30701cd37ed821114dec92cbad91e5fddbb3d9c023c3af50f3cc6016a29",
        "a634dffd7060747e527faa728dd5fa4f73c42c3b27cd26f15610bd7bb7a0b91e",
        "7d03ca134499280e53678c7d304d390b73bb76890e82caaeee7e64df96d34e19",
    ],
    [
        "7878fdc0697c2b5b9bfa9b337db7336b977f669806efdab88de5d124bf299d48",
        "8994145239b8c3b7f8b1f834f22f78f2d61d4392f8c5367fcac7080ea9687db1",
        "b91676fe79a78a82f3af5f911b781b7b078325bf20ffae488c5666404aa7836e",
    ],
    [
        "3d64a5f865c96d7f5e43e2af4fe36c33afe37b23216e07a955d196835f1e802d",
        "917758186071b0919e4d51583ccbfb2370595faa0fd105d74efb4d0654ee9700",
        "d5de464f25d800f88455c799407e7cb551a8c382ea67da7d73201496ff6e8ad8",
    ],
    [
        "313438a1db2979064a83f055115e97fc196239486716727b16e41be6420cd26e",
        "e62f6cb9150bca75694534a7698a1ea8208e9f9622d3386839781d345bddc714",
        "7b4cb3001d79af840e2489670829fead2cad81f3a7827df4e4cb46b1c7e9c108",
    ],
    [
        "069a75ddd0c55af9cf2b4b292e8552ac3f14cef470f56d2f7e535ad19ca436ba",
        "917c721d3936cac78f70d0e76fb0fe3e055f48e4c56bd64f343ce8e33163086b",
        "82ef2060e9b9a747a6aa22f5e3c4cb251677f896bcd94c40ccb35dc0e6ddd2fd",
    ],
    [
        "7c099f474edeeb0e6b0686f8bf1f4fab5501f4d1f5eda6a5cfe824fd8506e0e2",
        "124859993191c16dc89cf0697c7d77344cc2d4fb4ca1e865d4eb4e9f183b93b5",
        "0e3f913f61379368f982d9498b1b1715843d422f4766ca54038e9472b165cf82",
    ],
];

/// The digest of each entry of `implicit_msgs()`'s canonical bytes. Entry
/// 6, `InstallAccounts`, was recorded when blocks began to install the
/// accounts clients create; the first six did not move.
const IMPLICIT_WIRE: [&str; 7] = [
    "2c2baa5c3e2bdc849de5d5a377eff5aecf209c3847cecc8a70e32b10338cc51a",
    "4e697219c47d22195bba23067592a2c51b139e66e060f31c96bb652a35203b77",
    "05194d69ace22230025ce0137e53af64fc80ba878aeefcb68833865b97e7639b",
    "a499e83fe8d602c7326896c53b801d6c4181322d4f552e09b679986321db18b7",
    "9b674c1d291b589c146730f6a4122273af3805ab1d63a75da74838ace3982186",
    "5e345383db2aad342e2e76cc1d31b1d480a83be1bd96a68d10a1a35691d4b7fd",
    "ce0091bf2458242ceafd47b0914cc0b95d3f96abda9ccdd1095dfa509cd8ad93",
];

/// The digest of each entry of `accounts()`'s canonical bytes, recorded
/// when an account's storage and locks became one optional section.
const ACCOUNT_WIRE: [&str; 3] = [
    "51a91c68875c5ee215d40fa9f98c5917cea6e77a89dd3519c9146df55287f36d",
    "c5581b9fe56f42fc0dff690e13cdf0104512c4cb568a8e9d1e36d921a422fbb1",
    "659d36ca563ba4622daabb36a71dafaf6060cdcbf89bb12e75426198496d272c",
];

fn hex(cid: Cid) -> String {
    cid.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

fn bytes_digest(value: &impl CanonicalEncode) -> String {
    hex(Cid::digest(&value.canonical_bytes()))
}

#[test]
fn the_wire_format_is_pinned() {
    let methods = methods();
    assert_eq!(methods.len(), METHOD_WIRE.len());
    let kp = keypair(5);
    for (i, (method, pin)) in methods.into_iter().zip(METHOD_WIRE).enumerate() {
        // Slot 8 held the method of the retired tag 8 when the digests were
        // recorded; the methods after it keep the nonces they were signed at.
        let slot = if i < 8 { i } else { i + 1 };
        let bytes = bytes_digest(&method);
        let sealed = SealedMessage::sign(
            Message {
                from: Address::new(100),
                to: Address::new(101),
                value: whole(1),
                nonce: Nonce::new(slot as u64),
                method,
            },
            &kp,
        );
        let got = [bytes, hex(sealed.msg_cid()), bytes_digest(sealed.signed())];
        assert_eq!(got, pin, "methods()[{i}]: bytes, msg_cid, envelope bytes");
    }
    let implicit = implicit_msgs();
    assert_eq!(implicit.len(), IMPLICIT_WIRE.len());
    for (i, (m, pin)) in implicit.iter().zip(IMPLICIT_WIRE).enumerate() {
        assert_eq!(bytes_digest(m), pin, "implicit_msgs()[{i}]");
    }
    let accounts = accounts();
    assert_eq!(accounts.len(), ACCOUNT_WIRE.len());
    for (i, (acc, pin)) in accounts.iter().zip(ACCOUNT_WIRE).enumerate() {
        assert_eq!(bytes_digest(acc), pin, "accounts()[{i}]");
    }
}

/// Tag 8 belonged to a retired method: it decodes to nothing, and the
/// tags after it keep their methods.
#[test]
fn the_retired_method_tag_stays_retired() {
    assert!(matches!(
        Method::decode(&[8]),
        Err(DecodeError::BadTag {
            what: "Method",
            tag: 8
        })
    ));
    let register = Method::RegisterSubnet {
        sa: Address::new(7),
    };
    let bytes = register.canonical_bytes();
    assert_eq!(bytes[0], 9);
    assert_eq!(Method::decode(&bytes).unwrap(), register);
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
