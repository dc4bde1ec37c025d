//! Sealed messages: immutably wrapped [`SignedMessage`]s with memoized CIDs
//! and a memoized signature verdict.
//!
//! A message's CID is consumed many times on the hot path — mempool dedup,
//! signature verification, block assembly (messages root), VM auth, receipt
//! indexing — and each consumer used to re-derive it from a fresh canonical
//! encoding plus a SHA-256 pass. [`SealedMessage`] derives the CID once, in
//! one pass over one encoding of the body, and carries it with the message,
//! together with the envelope's wire size.
//!
//! # One pass
//!
//! The body is encoded and absorbed once, and the digest is the message CID
//! (what the sender signs, and what a block's payload root absorbs beside
//! the signature's 64 bytes). The wire size is the body's length plus
//! [`Signature::ENCODED_LEN`]. Nothing encodes the envelope or hashes the
//! body a second time, and no envelope CID exists: the payload root
//! commits to the signature itself. [`SealedMessage::sign`] runs the pass
//! while signing; a cold value ([`SealedMessage::new`], or one decoded from
//! bytes) runs it on its first read. The memo holds the two results.
//!
//! Memoization is only sound if the underlying bytes cannot change after the
//! CID is derived, so the wrapper owns the signed message behind *private*
//! fields: once sealed, a message is immutable (the raw [`SignedMessage`]
//! and [`Message`] keep their public fields and their
//! from-scratch CID derivation — tests tamper with those freely *before*
//! sealing). The memo cells are excluded from serialization, equality, and
//! canonical encoding: a sealed message decoded from untrusted bytes starts
//! cold and re-derives its CIDs from content on first use, so carried CIDs
//! can never lie.
//!
//! # The verdict memo
//!
//! [`SealedMessage::verify_signature`] remembers a *passing* verdict on the
//! value, next to the CIDs: a message admitted to a mempool is verified
//! there once, and block production and validation on the same node read
//! the memo instead of verifying again. The memo is set only by a full
//! verification that passed; a failure is never remembered. It is the one
//! place a verdict lives ([`SigCache`](crate::SigCache) only counts
//! verifications). Clones carry it, as they carry CIDs; decoded values
//! start without it. A verdict belongs to the node that reached it, so a value
//! handed to another node has it cleared first
//! ([`SealedMessage::forget_verdict`]).

use std::sync::OnceLock;

use hc_types::{CanonicalEncode, Cid, Keypair, Signature};

use crate::message::{Message, SignedMessage};

/// An immutable [`SignedMessage`] whose message CID is computed at most
/// once and then reused, and whose signature is verified at most once
/// while it passes.
///
/// Built at trust boundaries — mempool admission, block decoding — and
/// carried through block assembly, validation, and execution, so every
/// downstream consumer shares the same derivation. Cloning clones the memo
/// cells too: a warm CID or a verdict travels with the copy.
#[derive(Debug, Clone)]
pub struct SealedMessage {
    msg: SignedMessage,
    digests: OnceLock<Digests>,
    verified: OnceLock<()>,
}

/// What one pass over the body's encoding yields: the message CID, and the
/// wire size of the signed envelope. The size is a `u32` (saturating) so
/// the memo adds nothing to the sealed message's footprint.
#[derive(Debug, Clone, Copy)]
struct Digests {
    msg_cid: Cid,
    wire_len: u32,
}

impl Digests {
    /// Encodes and hashes `message` once.
    fn of(message: &Message) -> Self {
        let bytes = message.canonical_bytes();
        Digests {
            msg_cid: Cid::digest(&bytes),
            wire_len: u32::try_from(bytes.len() + Signature::ENCODED_LEN).unwrap_or(u32::MAX),
        }
    }
}

impl SealedMessage {
    /// Seals a signed message. No CID is derived yet: it is computed on
    /// first use.
    pub fn new(msg: SignedMessage) -> Self {
        SealedMessage {
            msg,
            digests: OnceLock::new(),
            verified: OnceLock::new(),
        }
    }

    /// Signs `message` with `key` and seals the result: the body is hashed
    /// once and its CID signed, so admission, verification, block assembly
    /// and receipt lookup never derive it again. The signature is not yet
    /// verified: admission does that.
    pub fn sign(message: Message, key: &Keypair) -> Self {
        let digests = Digests::of(&message);
        let signature = key.sign(digests.msg_cid.as_bytes());
        SealedMessage {
            msg: SignedMessage { message, signature },
            digests: OnceLock::from(digests),
            verified: OnceLock::new(),
        }
    }

    /// The message body.
    pub fn message(&self) -> &Message {
        &self.msg.message
    }

    /// The sender's signature over the message CID.
    pub fn signature(&self) -> &Signature {
        &self.msg.signature
    }

    /// The underlying signed message.
    pub fn signed(&self) -> &SignedMessage {
        &self.msg
    }

    /// Unwraps the signed message, discarding the memo.
    pub fn into_signed(self) -> SignedMessage {
        self.msg
    }

    fn digests(&self) -> Digests {
        *self.digests.get_or_init(|| Digests::of(&self.msg.message))
    }

    /// CID of the message body (what the sender signs, what receipts are
    /// keyed by). Memoized.
    pub fn msg_cid(&self) -> Cid {
        self.digests().msg_cid
    }

    /// Length of the signed envelope's canonical encoding (what mempool
    /// occupancy is accounted in). Memoized with the CID.
    pub fn wire_len(&self) -> usize {
        self.digests().wire_len as usize
    }

    /// Verifies the signature against the (memoized) message CID. A passing
    /// verdict is memoized, so later calls on this value or its clones cost
    /// nothing; a failing one is recomputed on every call. Key *ownership*
    /// is checked by the VM, exactly as for
    /// [`SignedMessage::verify_signature`].
    pub fn verify_signature(&self) -> bool {
        if self.is_verified() {
            return true;
        }
        let ok = self.msg.signature.verify(self.msg_cid().as_bytes()).is_ok();
        if ok {
            let _ = self.verified.set(());
        }
        ok
    }

    /// Whether a passing signature verdict is memoized on this value.
    pub fn is_verified(&self) -> bool {
        self.verified.get().is_some()
    }

    /// Clears the verdict memo, so the next check verifies in full — for a
    /// value handed to another node, which must reach its own verdict. The
    /// CID memo stays: it is a function of the content.
    pub fn forget_verdict(&mut self) {
        self.verified = OnceLock::new();
    }
}

impl From<SignedMessage> for SealedMessage {
    fn from(msg: SignedMessage) -> Self {
        SealedMessage::new(msg)
    }
}

impl PartialEq for SealedMessage {
    fn eq(&self, other: &Self) -> bool {
        // Memo cells are derived state; equality is content equality.
        self.msg == other.msg
    }
}

impl CanonicalEncode for SealedMessage {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.msg.write_bytes(out);
    }
}

impl hc_types::CanonicalDecode for SealedMessage {
    fn read_bytes(r: &mut hc_types::ByteReader<'_>) -> Result<Self, hc_types::DecodeError> {
        // Decoded messages start cold: carried CIDs are never trusted.
        Ok(SealedMessage::new(SignedMessage::read_bytes(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Method;
    use hc_types::{Address, Nonce, TokenAmount};

    fn sample() -> SignedMessage {
        let kp = Keypair::from_seed([0x5e; 32]);
        Message {
            from: Address::new(100),
            to: Address::new(101),
            value: TokenAmount::from_whole(3),
            nonce: Nonce::ZERO,
            method: Method::Send,
        }
        .sign(&kp)
    }

    #[test]
    fn memoized_cids_match_from_scratch_derivation() {
        let signed = sample();
        let sealed = SealedMessage::new(signed.clone());
        assert_eq!(sealed.msg_cid(), CanonicalEncode::cid(&signed.message));
        // A second read returns the same value (memo, not re-derivation).
        assert_eq!(sealed.msg_cid(), CanonicalEncode::cid(&signed.message));
    }

    #[test]
    fn sign_and_seal_is_sign_then_seal_with_the_message_cid_warm() {
        let signed = sample();
        let kp = Keypair::from_seed([0x5e; 32]);
        let sealed = SealedMessage::sign(signed.message.clone(), &kp);
        assert_eq!(sealed.signed(), &signed);
        let warm = sealed.digests.get().expect("signing fills the memo");
        assert_eq!(warm.msg_cid, CanonicalEncode::cid(&signed.message));
        assert!(!sealed.is_verified(), "signing is not verification");
        assert!(sealed.verify_signature());
    }

    #[test]
    fn wire_len_is_the_envelope_encoding_length() {
        let signed = sample();
        let kp = Keypair::from_seed([0x5e; 32]);
        let expected = signed.canonical_bytes().len();
        assert_eq!(SealedMessage::new(signed.clone()).wire_len(), expected);
        assert_eq!(
            SealedMessage::sign(signed.message, &kp).wire_len(),
            expected
        );
    }

    #[test]
    fn a_passing_verdict_is_memoized_and_travels_with_clones() {
        let sealed = SealedMessage::new(sample());
        let cold = sealed.clone(); // cloned before verification
        assert!(sealed.verify_signature());
        assert!(sealed.is_verified());
        let warm = sealed.clone();
        assert!(warm.is_verified(), "a clone carries the verdict");
        assert!(!cold.is_verified(), "an earlier clone does not");
        assert_eq!(cold, warm, "equality ignores the verdict");

        let mut handed_over = warm.clone();
        handed_over.forget_verdict();
        assert!(!handed_over.is_verified());
        assert_eq!(handed_over.msg_cid(), warm.msg_cid());
        assert!(handed_over.verify_signature());
    }

    #[test]
    fn a_failed_verdict_is_never_memoized() {
        let mut forged = sample();
        forged.signature = Signature::new_unchecked(forged.signature.signer(), [3u8; 32]);
        let forged = SealedMessage::new(forged);
        assert!(!forged.verify_signature());
        assert!(!forged.is_verified());
        assert!(!forged.clone().verify_signature(), "re-checked every time");
    }

    #[test]
    fn decoded_and_tampered_copies_start_unverified() {
        use hc_types::CanonicalDecode;
        let sealed = SealedMessage::new(sample());
        assert!(sealed.verify_signature());
        let bytes = sealed.canonical_bytes();
        let decoded = SealedMessage::decode(&bytes).unwrap();
        assert_eq!(decoded, sealed);
        assert!(!decoded.is_verified(), "a verdict never crosses the wire");

        let mut tampered = sealed.signed().clone();
        tampered.message.value = TokenAmount::from_whole(9_999);
        let tampered = SealedMessage::new(tampered);
        assert!(!tampered.is_verified());
        assert!(!tampered.verify_signature());
    }

    #[test]
    fn clone_carries_the_memo_and_equality_ignores_it() {
        let sealed = SealedMessage::new(sample());
        let cold = sealed.clone(); // cloned before any derivation: both cold
        let _ = sealed.msg_cid();
        let warm = sealed.clone(); // cloned after: memo travels
        assert!(warm.digests.get().is_some() && cold.digests.get().is_none());
        assert_eq!(cold, sealed);
        assert_eq!(warm, sealed);
        assert_eq!(cold.msg_cid(), warm.msg_cid());
    }

    #[test]
    fn verification_uses_the_message_cid() {
        let sealed = SealedMessage::new(sample());
        assert!(sealed.verify_signature());
        // Tampering must happen before sealing; the tampered value fails.
        let mut tampered = sample();
        tampered.message.value = TokenAmount::from_whole(9_999);
        assert!(!SealedMessage::new(tampered).verify_signature());
    }
}
