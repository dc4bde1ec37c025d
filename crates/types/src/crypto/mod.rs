//! Cryptographic primitives.
//!
//! * [`sha256`] / [`Sha256`] — a from-scratch SHA-256 (FIPS 180-4),
//!   one-shot or streaming, the hash underlying all content addressing in
//!   the system; it compresses on the x86 SHA extensions where the CPU has
//!   them and with a portable loop elsewhere, to the same digests.
//! * [`Keypair`], [`PublicKey`], [`Signature`] — a simulation-grade
//!   signature scheme (see the type docs for the substitution rationale).
//! * [`SignaturePolicy`], [`AggregateSignature`] — the one quorum rule a
//!   checkpoint (paper §III-B) and a BFT block justification are checked
//!   against: more than two-thirds of a validator set's signatures.

mod multisig;
mod sha2;
mod sig;

pub use multisig::{AggregateSignature, PolicyError, SignaturePolicy};
pub use sha2::{sha256, sha256_block_count, uncounted, Sha256};
pub use sig::{Keypair, PublicKey, SigError, Signature};
