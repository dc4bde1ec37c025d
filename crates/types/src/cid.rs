//! Content identifiers.
//!
//! A [`Cid`] is the SHA-256 digest of a value's canonical encoding (see
//! [`crate::encode`]). CIDs identify checkpoints, cross-message groups,
//! blocks, and state roots throughout the system, mirroring the role of
//! multihash CIDs in Filecoin/IPFS. The paper identifies checkpoints and
//! `CrossMsgMeta` payloads exclusively by CID, and the content-resolution
//! protocol (paper §IV-C) resolves CIDs to raw messages.

use std::fmt;
use std::str::FromStr;

use crate::crypto::sha256;
use crate::encode::CanonicalEncode;

/// A content identifier: the SHA-256 digest of a canonical encoding.
///
/// # Example
///
/// ```
/// use hc_types::{Cid, CanonicalEncode};
///
/// let cid = "hello".cid();
/// assert_eq!(cid, Cid::digest(&"hello".canonical_bytes()));
/// assert_ne!(cid, Cid::default());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cid([u8; 32]);

impl Cid {
    /// The all-zero CID, used as the `prev` pointer of a subnet's first
    /// checkpoint and as a sentinel for "no content".
    pub const NIL: Cid = Cid([0u8; 32]);

    /// Computes the CID of a raw byte string.
    pub fn digest(bytes: &[u8]) -> Self {
        Cid(sha256(bytes))
    }

    /// Creates a CID from a precomputed 32-byte digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Cid(bytes)
    }

    /// Returns the raw 32-byte digest.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` if this is the nil (all-zero) CID.
    pub fn is_nil(&self) -> bool {
        *self == Self::NIL
    }
}

impl fmt::Display for Cid {
    /// Shortened hex form (`cid:` + first 8 bytes), suitable for logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid:")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cid(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl CanonicalEncode for Cid {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl crate::decode::CanonicalDecode for Cid {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(Cid::from_bytes(<[u8; 32]>::read_bytes(r)?))
    }
}

impl AsRef<[u8]> for Cid {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned when parsing a [`Cid`] from its full hex form fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCidError;

impl fmt::Display for ParseCidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid cid syntax: expected 64 hex characters")
    }
}

impl std::error::Error for ParseCidError {}

impl FromStr for Cid {
    type Err = ParseCidError;

    /// Parses a 64-character hex digest (the [`Debug`](fmt::Debug) body).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 64 {
            return Err(ParseCidError);
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).map_err(|_| ParseCidError)?;
            out[i] = u8::from_str_radix(hex, 16).map_err(|_| ParseCidError)?;
        }
        Ok(Cid(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_collision_free_on_distinct_inputs() {
        assert_eq!(Cid::digest(b"abc"), Cid::digest(b"abc"));
        assert_ne!(Cid::digest(b"abc"), Cid::digest(b"abd"));
        assert_ne!(Cid::digest(b""), Cid::NIL);
    }

    #[test]
    fn nil_is_default_and_detectable() {
        assert!(Cid::default().is_nil());
        assert!(!Cid::digest(b"x").is_nil());
    }

    #[test]
    fn hex_round_trip() {
        let cid = Cid::digest(b"round trip");
        let hex = format!("{cid:?}");
        let hex = hex.trim_start_matches("Cid(").trim_end_matches(')');
        assert_eq!(hex.parse::<Cid>().unwrap(), cid);
    }

    #[test]
    fn parse_rejects_bad_lengths_and_chars() {
        assert!("".parse::<Cid>().is_err());
        assert!("zz".repeat(32).parse::<Cid>().is_err());
        assert!("ab".repeat(31).parse::<Cid>().is_err());
    }
}
