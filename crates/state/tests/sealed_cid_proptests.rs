//! Property tests of CID memoization: a [`SealedMessage`]'s memoized CIDs
//! must equal the from-scratch canonical-encoding hashes for *any* message
//! — including messages mutated arbitrarily after signing, since sealing
//! happens at admission on whatever bytes arrived.

use proptest::prelude::*;

use hc_state::{Message, Method, SealedMessage};
use hc_types::{Address, CanonicalEncode, Keypair, Nonce, TokenAmount};

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

proptest! {
    /// Sealing any signed message memoizes exactly the CIDs a from-scratch
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
        prop_assert_eq!(sealed.cid(), signed.cid());
        // Memoized reads are stable.
        prop_assert_eq!(sealed.msg_cid(), sealed.msg_cid());
        prop_assert_eq!(sealed.cid(), sealed.cid());

        // A clone (warm memo carried over) agrees with a cold re-seal.
        let warm = sealed.clone();
        let cold = SealedMessage::new(signed);
        prop_assert_eq!(warm.msg_cid(), cold.msg_cid());
        prop_assert_eq!(warm.cid(), cold.cid());
        prop_assert_eq!(&warm, &cold);
    }

    /// Post-signing mutations (forgeries, relay corruption) still seal to
    /// the canonical CID of the *mutated* bytes — sealing never resurrects
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
        prop_assert_eq!(sealed.cid(), mutated.cid());
        // The signature check runs over the memoized CID; it must accept
        // exactly when the plain from-scratch check accepts.
        prop_assert_eq!(sealed.verify_signature(), mutated.verify_signature());
    }
}
