//! Simulation-grade digital signatures.
//!
//! # Substitution note (see DESIGN.md)
//!
//! The paper's implementation uses secp256k1/BLS signatures. The protocol
//! logic, however, only consumes two facts: *who* signed a message and
//! *whether* the signature verifies. This module provides a scheme with
//! exactly those observable properties, built purely on SHA-256:
//!
//! * a secret key is 32 random bytes;
//! * the public key is `sha256(sk || "hc-pubkey")`;
//! * a signature over `msg` is `sha256(sk || msg)`;
//! * verification recomputes the tag using a process-global *key oracle*
//!   that maps public keys to their secrets.
//!
//! The oracle makes verification possible without public-key mathematics.
//! Within the simulation it is sound: adversarial behaviour is modelled
//! explicitly (Byzantine nodes produce signatures only for keys they own, or
//! submit tampered [`Signature`] values which then fail verification), never
//! by reading the oracle. The scheme is deterministic, which keeps all
//! experiments reproducible.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use rand::RngCore;

use super::sha2::sha256_concat;
use crate::encode::CanonicalEncode;

const PUBKEY_DOMAIN: &[u8] = b"hc-pubkey";

fn oracle() -> &'static RwLock<HashMap<PublicKey, [u8; 32]>> {
    static ORACLE: OnceLock<RwLock<HashMap<PublicKey, [u8; 32]>>> = OnceLock::new();
    ORACLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// A public verification key.
///
/// # Example
///
/// ```
/// use hc_types::Keypair;
///
/// let kp = Keypair::from_seed([7u8; 32]);
/// let sig = kp.sign(b"checkpoint");
/// assert!(sig.verify(b"checkpoint").is_ok());
/// assert!(sig.verify(b"tampered").is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey([u8; 32]);

impl PublicKey {
    /// Returns the raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Reconstructs a public key from raw bytes (e.g. a decoded canonical
    /// encoding). The key is *not* registered with the oracle; a signature
    /// claiming an unregistered key simply fails verification.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        PublicKey(bytes)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl CanonicalEncode for PublicKey {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

/// A signing keypair. Generating or deriving a keypair registers it with the
/// process-global verification oracle (see module docs).
#[derive(Clone)]
pub struct Keypair {
    public: PublicKey,
    secret: [u8; 32],
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        f.debug_struct("Keypair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Keypair {
    /// Generates a fresh keypair from the given randomness source.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        Self::from_seed(secret)
    }

    /// Derives the keypair deterministically from a 32-byte seed.
    ///
    /// Deterministic derivation keeps simulations reproducible: the same
    /// seed always yields the same validator identity.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let public = PublicKey(sha256_concat(&[&seed, PUBKEY_DOMAIN]));
        let kp = Keypair {
            public,
            secret: seed,
        };
        oracle().write().expect("oracle lock").insert(public, seed);
        kp
    }

    /// Returns the public half of the keypair.
    pub const fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`, producing a signature that verifies against
    /// [`Keypair::public`].
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature {
            signer: self.public,
            tag: sha256_concat(&[&self.secret, msg]),
        }
    }
}

/// Error returned when signature verification fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigError {
    /// The signer's public key is not known to the verification oracle.
    UnknownSigner,
    /// The signature tag does not match the message.
    BadSignature,
}

impl fmt::Display for SigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigError::UnknownSigner => f.write_str("signer public key is not registered"),
            SigError::BadSignature => f.write_str("signature does not verify against message"),
        }
    }
}

impl std::error::Error for SigError {}

/// A signature over a message, attributable to a [`PublicKey`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: PublicKey,
    tag: [u8; 32],
}

impl Signature {
    /// Length of a signature's canonical encoding: the signer's key, then
    /// the tag.
    pub const ENCODED_LEN: usize = 64;

    /// The canonical encoding, without a buffer.
    pub fn to_bytes(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[..32].copy_from_slice(self.signer.as_bytes());
        out[32..].copy_from_slice(&self.tag);
        out
    }

    /// Constructs a signature value without signing.
    ///
    /// This exists so Byzantine behaviour can be modelled: an adversary can
    /// fabricate a `Signature` claiming to be from any signer, and
    /// [`Signature::verify`] will reject it (with overwhelming probability)
    /// unless it was produced by the real key.
    pub fn new_unchecked(signer: PublicKey, tag: [u8; 32]) -> Self {
        Signature { signer, tag }
    }

    /// Returns the public key this signature claims to be from.
    pub const fn signer(&self) -> PublicKey {
        self.signer
    }

    /// Verifies the signature over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`SigError::UnknownSigner`] if the claimed signer was never
    /// registered, or [`SigError::BadSignature`] if the tag does not match.
    pub fn verify(&self, msg: &[u8]) -> Result<(), SigError> {
        let guard = oracle().read().expect("oracle lock");
        let secret = guard.get(&self.signer).ok_or(SigError::UnknownSigner)?;
        let expected = sha256_concat(&[secret, msg]);
        if expected == self.tag {
            Ok(())
        } else {
            Err(SigError::BadSignature)
        }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(by {})", self.signer)
    }
}

impl CanonicalEncode for Signature {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
}

impl crate::decode::CanonicalDecode for PublicKey {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(PublicKey::from_bytes(<[u8; 32]>::read_bytes(r)?))
    }
}

impl crate::decode::CanonicalDecode for Signature {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        let signer = PublicKey::read_bytes(r)?;
        let tag = <[u8; 32]>::read_bytes(r)?;
        Ok(Signature::new_unchecked(signer, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::sha2::sha256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed([1u8; 32]);
        let sig = kp.sign(b"msg");
        assert_eq!(sig.signer(), kp.public());
        assert!(sig.verify(b"msg").is_ok());
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let kp = Keypair::from_seed([2u8; 32]);
        let sig = kp.sign(b"msg");
        assert_eq!(sig.verify(b"other"), Err(SigError::BadSignature));
    }

    #[test]
    fn fabricated_signature_is_rejected() {
        let kp = Keypair::from_seed([3u8; 32]);
        let forged = Signature::new_unchecked(kp.public(), [0u8; 32]);
        assert_eq!(forged.verify(b"msg"), Err(SigError::BadSignature));
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let bogus = Signature::new_unchecked(
            PublicKey(sha256(b"never registered as a keypair")),
            [0u8; 32],
        );
        assert_eq!(bogus.verify(b"msg"), Err(SigError::UnknownSigner));
    }

    #[test]
    fn deterministic_seed_gives_deterministic_identity() {
        let a = Keypair::from_seed([9u8; 32]);
        let b = Keypair::from_seed([9u8; 32]);
        assert_eq!(a.public(), b.public());
        assert_eq!(a.sign(b"x"), b.sign(b"x"));
    }

    #[test]
    fn generated_keys_are_distinct() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Keypair::generate(&mut rng);
        let b = Keypair::generate(&mut rng);
        assert_ne!(a.public(), b.public());
    }
}
