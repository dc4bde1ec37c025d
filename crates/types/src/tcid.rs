//! Typed content identifiers.
//!
//! A [`TCid<M>`] is a [`Cid`] tagged at the type level with what the CID
//! points *at* — a HAMT node, an AMT node, a chunk manifest. The runtime
//! representation is exactly a 32-byte CID (encoding and ordering are
//! identical to the raw [`Cid`]), but the phantom marker keeps the many
//! CID-valued fields of the state-commitment stack from being swapped for
//! one another: `TCid<MHamtNode>` and `TCid<MAmtNode>` are different types
//! even though both are "just hashes".
//!
//! This is the typed-CID-wrapper idiom from the hierarchical-SCA
//! builtin-actors (`tcid::{hamt, amt}`), reduced to the part this codebase
//! needs: a zero-cost phantom type with canonical encode/decode.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use crate::decode::{ByteReader, CanonicalDecode, DecodeError};
use crate::encode::CanonicalEncode;
use crate::Cid;

/// A [`Cid`] whose type records what kind of blob it addresses.
///
/// `M` is a zero-sized marker (for example [`MHamtNode`]); it never exists
/// at runtime. All comparison, hashing, encoding, and display behave
/// exactly like the underlying CID.
pub struct TCid<M> {
    cid: Cid,
    _marker: PhantomData<fn() -> M>,
}

/// Marker: the CID addresses a canonical HAMT node blob.
#[derive(Debug)]
pub enum MHamtNode {}

/// Marker: the CID addresses a canonical AMT node blob.
#[derive(Debug)]
pub enum MAmtNode {}

impl<M> TCid<M> {
    /// Wraps a raw CID, asserting (at the type level only) what it points
    /// at.
    pub const fn from_cid(cid: Cid) -> Self {
        TCid {
            cid,
            _marker: PhantomData,
        }
    }

    /// The typed CID of `bytes`' digest.
    pub fn digest(bytes: &[u8]) -> Self {
        Self::from_cid(Cid::digest(bytes))
    }

    /// The underlying untyped CID.
    pub const fn cid(&self) -> Cid {
        self.cid
    }
}

impl<M> From<TCid<M>> for Cid {
    fn from(t: TCid<M>) -> Cid {
        t.cid
    }
}

// Manual impls: `derive` would bound them on `M`, which is never
// instantiated.
impl<M> Clone for TCid<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for TCid<M> {}

impl<M> PartialEq for TCid<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cid == other.cid
    }
}
impl<M> Eq for TCid<M> {}

impl<M> PartialOrd for TCid<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for TCid<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cid.cmp(&other.cid)
    }
}

impl<M> Hash for TCid<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cid.hash(state);
    }
}

impl<M> fmt::Debug for TCid<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TCid({})", self.cid)
    }
}

impl<M> fmt::Display for TCid<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.cid, f)
    }
}

impl<M> CanonicalEncode for TCid<M> {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.cid.write_bytes(out);
    }
}

impl<M> CanonicalDecode for TCid<M> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::from_cid(Cid::read_bytes(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcid_is_transparent_over_cid() {
        let cid = Cid::digest(b"blob");
        let t: TCid<MHamtNode> = TCid::from_cid(cid);
        assert_eq!(t.cid(), cid);
        assert_eq!(t, TCid::digest(b"blob"));
        assert_eq!(t.canonical_bytes(), cid.canonical_bytes());
        assert_eq!(t.to_string(), cid.to_string());
        let back = TCid::<MHamtNode>::decode(&t.canonical_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn tcid_orders_like_cid() {
        let a = Cid::digest(b"a");
        let b = Cid::digest(b"b");
        let (ta, tb) = (TCid::<MAmtNode>::from_cid(a), TCid::<MAmtNode>::from_cid(b));
        assert_eq!(ta.cmp(&tb), a.cmp(&b));
    }
}
