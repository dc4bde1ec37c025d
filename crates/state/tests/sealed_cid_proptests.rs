//! Property tests of CID memoization: a [`SealedMessage`]'s memoized CID
//! must equal the from-scratch canonical-encoding hash for *any* message —
//! including messages mutated arbitrarily after signing, since sealing
//! happens at admission on whatever bytes arrived — and its one pass over
//! the body must agree with the from-scratch CID and wire size wherever the
//! body ends in a SHA-256 block.

use proptest::prelude::*;

use hc_actors::{CrossMsg, CrossMsgKind, HcAddress};
use hc_state::{Message, Method, SealedMessage};
use hc_types::{Address, CanonicalDecode, CanonicalEncode, Keypair, Nonce, SubnetId, TokenAmount};

fn keypair(seed8: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&seed8.to_le_bytes());
    seed[8] = 0x5e;
    Keypair::from_seed(seed)
}

fn method_strategy() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Send),
        (
            prop::collection::vec(any::<u8>(), 0..32),
            prop::collection::vec(any::<u8>(), 0..256),
        )
            .prop_map(|(key, data)| Method::PutData {
                key: key.into(),
                data: data.into(),
            }),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(|key| Method::LockState { key }),
    ]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u128>(),
        any::<u64>(),
        method_strategy(),
    )
        .prop_map(|(from, to, value, nonce, method)| Message {
            from: Address::new(from),
            to: Address::new(to),
            value: TokenAmount::from_atto(value),
            nonce: Nonce::new(nonce),
            method,
        })
}

/// Bytes of a `PutData` body with empty key and data: the shortest one.
const PUT_DATA_BASE: usize = 57;

/// A `PutData` body of exactly `len` canonical bytes (at least
/// [`PUT_DATA_BASE`]): the data fills what the fixed fields leave.
fn put_data_of_len(len: usize, from: u64, nonce: u64) -> Message {
    let msg = Message {
        from: Address::new(from),
        to: Address::new(from + 1),
        value: TokenAmount::from_atto(u128::from(nonce)),
        nonce: Nonce::new(nonce),
        method: Method::PutData {
            key: Box::new([]),
            data: vec![0xab; len.max(PUT_DATA_BASE) - PUT_DATA_BASE].into(),
        },
    };
    assert_eq!(msg.canonical_bytes().len(), len.max(PUT_DATA_BASE));
    msg
}

fn subnet_strategy() -> impl Strategy<Value = SubnetId> {
    prop::collection::vec(any::<u64>(), 0..4).prop_map(|route| {
        route
            .into_iter()
            .fold(SubnetId::root(), |id, a| id.child(Address::new(a)))
    })
}

fn cross_msg_strategy() -> impl Strategy<Value = Message> {
    (
        (subnet_strategy(), any::<u64>()),
        (subnet_strategy(), any::<u64>()),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..200),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(from, to, nonce, params, call, fee)| {
            let kind = if call {
                CrossMsgKind::Call {
                    method: fee,
                    params,
                }
            } else {
                CrossMsgKind::Transfer
            };
            let msg = CrossMsg {
                from: HcAddress::new(from.0, Address::new(from.1)),
                to: HcAddress::new(to.0, Address::new(to.1)),
                value: TokenAmount::from_atto(u128::from(nonce)),
                nonce: Nonce::new(nonce),
                kind,
                fee: TokenAmount::from_atto(u128::from(fee)),
            };
            Message {
                from: Address::new(from.1),
                to: Address::SCA,
                value: msg.value,
                nonce: Nonce::new(nonce),
                method: Method::SendCrossMsg { msg: msg.into() },
            }
        })
}

/// Bodies that end anywhere in their 1st to 6th SHA-256 block, the block
/// edges and the padding edge (a remainder past 55 bytes pads into one
/// more block) drawn on purpose, beside `Send` and `SendCrossMsg` bodies.
fn boundary_message_strategy() -> impl Strategy<Value = Message> {
    let remainder = prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(55usize),
        Just(56usize),
        Just(63usize),
        0usize..64,
    ];
    prop_oneof![
        (0usize..=5, remainder, any::<u64>(), any::<u64>())
            .prop_map(|(blocks, rem, from, nonce)| put_data_of_len(64 * blocks + rem, from, nonce)),
        message_strategy(),
        cross_msg_strategy(),
    ]
}

proptest! {
    /// The one pass — the body hashed once for the message CID, the wire
    /// size from the body's length — equals the from-scratch `Message::cid`
    /// and the envelope's encoded length, on the signing path and on the
    /// cold paths (`new` and decode).
    #[test]
    fn one_pass_digests_equal_from_scratch_at_every_block_edge(
        msg in boundary_message_strategy(),
        key_seed in any::<u64>(),
    ) {
        let signed_path = SealedMessage::sign(msg.clone(), &keypair(key_seed));
        let signed = signed_path.signed().clone();
        let wire = signed.canonical_bytes();
        let cold = SealedMessage::new(signed.clone());
        let decoded = SealedMessage::decode(&wire).expect("decodes");
        for sealed in [&signed_path, &cold, &decoded] {
            prop_assert_eq!(sealed.msg_cid(), msg.cid());
            prop_assert_eq!(sealed.wire_len(), wire.len());
        }
    }

    /// Sealing any signed message memoizes exactly the CID a from-scratch
    /// canonical encoding computes, and the memo survives cloning.
    #[test]
    fn memoized_cids_equal_from_scratch(
        msg in message_strategy(),
        key_seed in any::<u64>(),
    ) {
        let signed = msg.clone().sign(&keypair(key_seed));
        let sealed = SealedMessage::new(signed.clone());

        // Reference path: the default `CanonicalEncode::cid` recomputes
        // from the encoded bytes every call.
        prop_assert_eq!(sealed.msg_cid(), msg.cid());
        // Memoized reads are stable.
        prop_assert_eq!(sealed.msg_cid(), sealed.msg_cid());

        // A clone (warm memo carried over) agrees with a cold re-seal.
        let warm = sealed.clone();
        let cold = SealedMessage::new(signed);
        prop_assert_eq!(warm.msg_cid(), cold.msg_cid());
        prop_assert_eq!(warm.wire_len(), cold.wire_len());
        prop_assert_eq!(&warm, &cold);
    }

    /// Post-signing mutations (forgeries, relay corruption) still seal to
    /// the canonical CID of the *mutated* body — sealing never resurrects
    /// the originally signed content — and verification fails unless the
    /// mutation was a no-op.
    #[test]
    fn mutated_messages_seal_to_their_own_cids(
        msg in message_strategy(),
        key_seed in any::<u64>(),
        new_value in any::<u128>(),
        new_nonce in any::<u64>(),
        mutate_value in any::<bool>(),
        mutate_nonce in any::<bool>(),
    ) {
        let mut signed = msg.sign(&keypair(key_seed));
        if mutate_value {
            signed.message.value = TokenAmount::from_atto(new_value);
        }
        if mutate_nonce {
            signed.message.nonce = Nonce::new(new_nonce);
        }
        let mutated = signed.clone();
        let sealed = SealedMessage::new(signed);

        prop_assert_eq!(sealed.msg_cid(), mutated.message.cid());
        prop_assert_eq!(sealed.wire_len(), mutated.canonical_bytes().len());
        // The signature check runs over the memoized CID; it must accept
        // exactly when the plain from-scratch check accepts.
        prop_assert_eq!(sealed.verify_signature(), mutated.verify_signature());
    }
}
