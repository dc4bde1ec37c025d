//! Deterministic canonical binary decoding — the inverse of [`crate::encode`].
//!
//! Decoding exists for the durability layer: write-ahead logs and blob logs
//! persist canonical encodings, and crash recovery must turn those bytes back
//! into values. The rules mirror [`crate::encode`] exactly:
//!
//! * integers are little-endian fixed width;
//! * `bool` is one byte and must be `0` or `1`;
//! * variable-length sequences carry a `u64` length prefix;
//! * `Option<T>` is a presence byte (`0`/`1`) followed by the value;
//! * composite types concatenate their fields in declaration order.
//!
//! Decoding is *strict*: unknown enum tags, non-canonical booleans, truncated
//! input, and (at the [`CanonicalDecode::decode`] entry point) trailing bytes
//! are all errors. Strictness is what makes torn-write detection sound — a
//! frame either decodes to exactly one value or is rejected.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Error returned when canonical decoding fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A whole-value decode left unconsumed bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// An enum tag byte (or variant index) was not recognised.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the remaining input (corrupt or hostile).
    BadLength {
        /// The type being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// The bytes were structurally readable but semantically invalid.
    Invalid {
        /// Human-readable description of the violation.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            DecodeError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            DecodeError::BadLength { what, len } => {
                write!(f, "length prefix {len} for {what} exceeds remaining input")
            }
            DecodeError::Invalid { what } => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over canonical bytes.
///
/// Reads consume from the front; every read either succeeds completely or
/// fails without a defined position (callers abandon the reader on error).
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let remaining = self.remaining();
        if n > remaining {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u64` length prefix and bounds-checks it against the
    /// remaining input (each element of a canonical sequence encodes to at
    /// least one byte, so a valid count can never exceed the bytes left).
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if the prefix itself is truncated, or
    /// [`DecodeError::BadLength`] if the count is implausible.
    pub fn len_prefix(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let len = u64::read_bytes(self)?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(len as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts that the input is fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Deterministic binary decoding: the inverse of
/// [`CanonicalEncode`](crate::CanonicalEncode).
///
/// Implementations must be *exact* inverses: for every value `v`,
/// `T::decode(&v.canonical_bytes()) == Ok(v)`, and every byte string accepted
/// by `decode` is the canonical encoding of the returned value
/// (round-tripping in both directions).
pub trait CanonicalDecode: Sized {
    /// Reads one value from the cursor, consuming exactly its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bytes are not a canonical encoding
    /// of `Self`.
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a whole value from `bytes`, rejecting trailing input.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the bytes are not exactly one
    /// canonical encoding of `Self`.
    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::read_bytes(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_int_decode {
    ($($t:ty),*) => {$(
        impl CanonicalDecode for $t {
            fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                let raw = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_int_decode!(u8, u16, u32, u64, u128, i64);

impl CanonicalDecode for bool {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl CanonicalDecode for [u8; 32] {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(32)?.try_into().expect("sized take"))
    }
}

impl CanonicalDecode for String {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("String")?;
        let raw = r.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::Invalid {
            what: "string is not valid UTF-8",
        })
    }
}

impl<T: CanonicalDecode> CanonicalDecode for Option<T> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read_bytes(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

/// How many `T`s to reserve for a sequence of `len`: no more than the
/// remaining input could hold as `T`s in memory. [`ByteReader::len_prefix`]
/// admits one element per remaining byte, so reserving `len` outright would
/// let a hostile count claim `size_of::<T>()` bytes of memory per byte of
/// input before its first element fails to decode; a genuine sequence of
/// values smaller on the wire than in memory grows past the reservation.
fn reservation<T>(r: &ByteReader<'_>, len: usize) -> usize {
    len.min(r.remaining() / std::mem::size_of::<T>().max(1))
}

impl<T: CanonicalDecode> CanonicalDecode for Vec<T> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("Vec")?;
        let mut out = Vec::with_capacity(reservation::<T>(r, len));
        for _ in 0..len {
            out.push(T::read_bytes(r)?);
        }
        Ok(out)
    }
}

impl<T: CanonicalDecode> CanonicalDecode for VecDeque<T> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("VecDeque")?;
        let mut out = VecDeque::with_capacity(reservation::<T>(r, len));
        for _ in 0..len {
            out.push_back(T::read_bytes(r)?);
        }
        Ok(out)
    }
}

impl<K: CanonicalDecode + Ord, V: CanonicalDecode> CanonicalDecode for BTreeMap<K, V> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("BTreeMap")?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::read_bytes(r)?;
            let v = V::read_bytes(r)?;
            // Canonical encodings emit keys in strictly ascending order;
            // anything else is a non-canonical byte string and must be
            // rejected so decode(bytes) accepts exactly one encoding.
            if let Some((last, _)) = out.last_key_value() {
                if *last >= k {
                    return Err(DecodeError::Invalid {
                        what: "map keys are not strictly ascending",
                    });
                }
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: CanonicalDecode + Ord> CanonicalDecode for BTreeSet<T> {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix("BTreeSet")?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let item = T::read_bytes(r)?;
            if let Some(last) = out.last() {
                if *last >= item {
                    return Err(DecodeError::Invalid {
                        what: "set elements are not strictly ascending",
                    });
                }
            }
            out.insert(item);
        }
        Ok(out)
    }
}

impl<A: CanonicalDecode, B: CanonicalDecode> CanonicalDecode for (A, B) {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::read_bytes(r)?, B::read_bytes(r)?))
    }
}

impl<A: CanonicalDecode, B: CanonicalDecode, C: CanonicalDecode> CanonicalDecode for (A, B, C) {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::read_bytes(r)?, B::read_bytes(r)?, C::read_bytes(r)?))
    }
}

/// Implements [`CanonicalDecode`] for a struct by reading the listed fields
/// in declaration order — the mirror of [`crate::encode_fields`].
///
/// ```
/// use hc_types::{decode_fields, encode_fields, CanonicalDecode, CanonicalEncode};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: u64 }
/// encode_fields!(Point { x, y });
/// decode_fields!(Point { x, y });
///
/// let p = Point { x: 1, y: 2 };
/// assert_eq!(Point::decode(&p.canonical_bytes()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! decode_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::decode::CanonicalDecode for $ty {
            fn read_bytes(
                r: &mut $crate::decode::ByteReader<'_>,
            ) -> Result<Self, $crate::decode::DecodeError> {
                $( let $field = $crate::decode::CanonicalDecode::read_bytes(r)?; )+
                Ok($ty { $($field),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::CanonicalEncode;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u8::decode(&7u8.canonical_bytes()), Ok(7));
        assert_eq!(
            u32::decode(&0x0102_0304u32.canonical_bytes()),
            Ok(0x0102_0304)
        );
        assert_eq!(u128::decode(&u128::MAX.canonical_bytes()), Ok(u128::MAX));
        assert_eq!(i64::decode(&(-5i64).canonical_bytes()), Ok(-5));
        assert_eq!(bool::decode(&true.canonical_bytes()), Ok(true));
        assert_eq!(
            String::decode(&"héllo".to_owned().canonical_bytes()),
            Ok("héllo".into())
        );
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::decode(&v.canonical_bytes()), Ok(v));
        assert_eq!(
            Option::<u8>::decode(&Some(9u8).canonical_bytes()),
            Ok(Some(9))
        );
        assert_eq!(
            Option::<u8>::decode(&None::<u8>.canonical_bytes()),
            Ok(None)
        );
    }

    #[test]
    fn collections_round_trip() {
        let dq: VecDeque<u32> = [5u32, 6, 7].into_iter().collect();
        assert_eq!(VecDeque::<u32>::decode(&dq.canonical_bytes()), Ok(dq));

        let map: BTreeMap<u64, String> = [(1u64, "a".to_owned()), (9, "b".to_owned())]
            .into_iter()
            .collect();
        assert_eq!(
            BTreeMap::<u64, String>::decode(&map.canonical_bytes()),
            Ok(map.clone())
        );

        let set: BTreeSet<u16> = [3u16, 4, 9].into_iter().collect();
        assert_eq!(BTreeSet::<u16>::decode(&set.canonical_bytes()), Ok(set));

        // Hand-rolled length-prefixed pair encodings (the idiom existing
        // actor state uses) are byte-identical to the generic impls.
        let mut hand = Vec::new();
        (map.len() as u64).write_bytes(&mut hand);
        for (k, v) in &map {
            k.write_bytes(&mut hand);
            v.write_bytes(&mut hand);
        }
        assert_eq!(hand, map.canonical_bytes());
    }

    #[test]
    fn non_ascending_map_and_set_bytes_are_rejected() {
        // Two entries with descending keys: not a canonical map encoding.
        let mut bytes = Vec::new();
        2u64.write_bytes(&mut bytes);
        9u64.write_bytes(&mut bytes);
        0u8.write_bytes(&mut bytes);
        1u64.write_bytes(&mut bytes);
        0u8.write_bytes(&mut bytes);
        assert!(matches!(
            BTreeMap::<u64, u8>::decode(&bytes),
            Err(DecodeError::Invalid { .. })
        ));

        // Duplicate set elements are equally non-canonical.
        let mut bytes = Vec::new();
        2u64.write_bytes(&mut bytes);
        4u64.write_bytes(&mut bytes);
        4u64.write_bytes(&mut bytes);
        assert!(matches!(
            BTreeSet::<u64>::decode(&bytes),
            Err(DecodeError::Invalid { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_are_rejected() {
        let bytes = 1u64.canonical_bytes();
        assert!(matches!(
            u64::decode(&bytes[..7]),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            u64::decode(&extra),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn non_canonical_tags_are_rejected() {
        assert!(matches!(
            bool::decode(&[2]),
            Err(DecodeError::BadTag { .. })
        ));
        assert!(matches!(
            Option::<u8>::decode(&[9, 0]),
            Err(DecodeError::BadTag { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        u64::MAX.write_bytes(&mut bytes);
        assert!(matches!(
            Vec::<u8>::decode(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }
}
