//! Chain epochs and message nonces.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::encode::CanonicalEncode;

/// A block height ("epoch") within a single subnet's chain.
///
/// Epochs are subnet-local: `/root` and `/root/a100` advance their epochs
/// independently, possibly at very different block times.
///
/// # Example
///
/// ```
/// use hc_types::ChainEpoch;
///
/// let e = ChainEpoch::new(10);
/// assert_eq!((e + 5).value(), 15);
/// assert!(e.is_multiple_of(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChainEpoch(u64);

impl ChainEpoch {
    /// The genesis epoch.
    pub const GENESIS: ChainEpoch = ChainEpoch(0);

    /// Creates an epoch from a raw height.
    pub const fn new(height: u64) -> Self {
        ChainEpoch(height)
    }

    /// Returns the raw height.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the next epoch.
    #[must_use]
    pub const fn next(self) -> Self {
        ChainEpoch(self.0 + 1)
    }

    /// Returns `true` when this epoch falls on a multiple of `period`
    /// (used to decide checkpoint windows).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub const fn is_multiple_of(self, period: u64) -> bool {
        self.0.is_multiple_of(period)
    }

    /// Returns the number of epochs from `earlier` to `self`, saturating at
    /// zero if `earlier` is later.
    pub const fn since(self, earlier: ChainEpoch) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for ChainEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl Add<u64> for ChainEpoch {
    type Output = ChainEpoch;
    fn add(self, rhs: u64) -> ChainEpoch {
        ChainEpoch(self.0 + rhs)
    }
}

impl AddAssign<u64> for ChainEpoch {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<ChainEpoch> for ChainEpoch {
    type Output = u64;
    fn sub(self, rhs: ChainEpoch) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for ChainEpoch {
    fn from(v: u64) -> Self {
        ChainEpoch(v)
    }
}

impl CanonicalEncode for ChainEpoch {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.0.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for ChainEpoch {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(ChainEpoch::new(u64::read_bytes(r)?))
    }
}

/// A strictly increasing sequence number.
///
/// Nonces enforce total order and exactly-once application: account message
/// nonces within a subnet, and per-`(source, destination)` cross-net message
/// nonces assigned by the SCA (paper §IV-A: "These nonces determine the
/// total order of arrival of cross-msgs to the subnet").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nonce(u64);

impl Nonce {
    /// The zero nonce (first message).
    pub const ZERO: Nonce = Nonce(0);

    /// Creates a nonce from a raw counter value.
    pub const fn new(v: u64) -> Self {
        Nonce(v)
    }

    /// Returns the raw counter value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the next nonce.
    #[must_use]
    pub const fn next(self) -> Self {
        Nonce(self.0 + 1)
    }

    /// Advances `self` and returns the pre-increment value — the classic
    /// "allocate the next sequence number" operation.
    pub fn fetch_increment(&mut self) -> Nonce {
        let cur = *self;
        self.0 += 1;
        cur
    }
}

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for Nonce {
    fn from(v: u64) -> Self {
        Nonce(v)
    }
}

impl CanonicalEncode for Nonce {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.0.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for Nonce {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(Nonce::new(u64::read_bytes(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_arithmetic() {
        let e = ChainEpoch::new(10);
        assert_eq!(e.next(), ChainEpoch::new(11));
        assert_eq!(e + 5, ChainEpoch::new(15));
        assert_eq!(ChainEpoch::new(15) - e, 5);
        assert_eq!(e.since(ChainEpoch::new(4)), 6);
        assert_eq!(e.since(ChainEpoch::new(40)), 0);
    }

    #[test]
    fn epoch_checkpoint_window() {
        assert!(ChainEpoch::new(0).is_multiple_of(10));
        assert!(ChainEpoch::new(20).is_multiple_of(10));
        assert!(!ChainEpoch::new(25).is_multiple_of(10));
    }

    #[test]
    fn nonce_fetch_increment_allocates_sequentially() {
        let mut n = Nonce::ZERO;
        assert_eq!(n.fetch_increment(), Nonce::new(0));
        assert_eq!(n.fetch_increment(), Nonce::new(1));
        assert_eq!(n, Nonce::new(2));
    }
}
