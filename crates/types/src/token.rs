//! Native token amounts.
//!
//! [`TokenAmount`] is a fixed-point quantity of the native token, counted in
//! indivisible *atto* units (10⁻¹⁸ of a whole token, matching Filecoin's
//! attoFIL). All arithmetic is explicit about overflow: the operator impls
//! panic on overflow/underflow (like debug-mode integer math), and checked
//! variants are provided for paths that must handle insufficient balances
//! gracefully — which is every transfer path in the system.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::encode::CanonicalEncode;

/// Number of atto units per whole token.
pub const ATTO_PER_TOKEN: u128 = 1_000_000_000_000_000_000;

/// An amount of native token, in atto units. Never negative.
///
/// # Example
///
/// ```
/// use hc_types::TokenAmount;
///
/// let a = TokenAmount::from_whole(2);
/// let b = TokenAmount::from_atto(500);
/// let c = a + b;
/// assert_eq!(c.atto(), 2_000_000_000_000_000_500);
/// assert_eq!(c.checked_sub(a), Some(b));
/// assert_eq!(b.checked_sub(a), None); // would go negative
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TokenAmount(u128);

impl TokenAmount {
    /// The zero amount.
    pub const ZERO: TokenAmount = TokenAmount(0);

    /// Creates an amount from raw atto units.
    pub const fn from_atto(atto: u128) -> Self {
        TokenAmount(atto)
    }

    /// Creates an amount from whole tokens.
    ///
    /// # Panics
    ///
    /// Panics if `whole * 10^18` overflows `u128` (requires more than
    /// ~3.4 × 10²⁰ whole tokens — far beyond any realistic supply).
    pub const fn from_whole(whole: u64) -> Self {
        TokenAmount(whole as u128 * ATTO_PER_TOKEN)
    }

    /// Returns the raw atto units.
    pub const fn atto(self) -> u128 {
        self.0
    }

    /// Returns `true` if the amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: TokenAmount) -> Option<TokenAmount> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(TokenAmount(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` if the result would be negative.
    pub const fn checked_sub(self, rhs: TokenAmount) -> Option<TokenAmount> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(TokenAmount(v)),
            None => None,
        }
    }

    /// Saturating subtraction, clamping at zero.
    pub const fn saturating_sub(self, rhs: TokenAmount) -> TokenAmount {
        TokenAmount(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an integer scalar.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn scale(self, n: u64) -> TokenAmount {
        TokenAmount(
            self.0
                .checked_mul(n as u128)
                .expect("token amount overflow in scale"),
        )
    }

    /// Returns `min(self, other)`.
    pub fn min(self, other: TokenAmount) -> TokenAmount {
        TokenAmount(self.0.min(other.0))
    }
}

impl fmt::Display for TokenAmount {
    /// Renders as a decimal token count, trimming trailing zeros
    /// (`2.0005 HC`, `0 HC`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / ATTO_PER_TOKEN;
        let frac = self.0 % ATTO_PER_TOKEN;
        if frac == 0 {
            write!(f, "{whole} HC")
        } else {
            let frac_str = format!("{frac:018}");
            write!(f, "{whole}.{} HC", frac_str.trim_end_matches('0'))
        }
    }
}

impl Add for TokenAmount {
    type Output = TokenAmount;
    /// # Panics
    /// Panics on overflow; use [`TokenAmount::checked_add`] otherwise.
    fn add(self, rhs: TokenAmount) -> TokenAmount {
        self.checked_add(rhs).expect("token amount overflow")
    }
}

impl AddAssign for TokenAmount {
    fn add_assign(&mut self, rhs: TokenAmount) {
        *self = *self + rhs;
    }
}

impl Sub for TokenAmount {
    type Output = TokenAmount;
    /// # Panics
    /// Panics if the result would be negative; use
    /// [`TokenAmount::checked_sub`] otherwise.
    fn sub(self, rhs: TokenAmount) -> TokenAmount {
        self.checked_sub(rhs).expect("token amount underflow")
    }
}

impl SubAssign for TokenAmount {
    fn sub_assign(&mut self, rhs: TokenAmount) {
        *self = *self - rhs;
    }
}

impl Sum for TokenAmount {
    fn sum<I: Iterator<Item = TokenAmount>>(iter: I) -> TokenAmount {
        iter.fold(TokenAmount::ZERO, |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a TokenAmount> for TokenAmount {
    fn sum<I: Iterator<Item = &'a TokenAmount>>(iter: I) -> TokenAmount {
        iter.copied().sum()
    }
}

impl CanonicalEncode for TokenAmount {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.0.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for TokenAmount {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(TokenAmount::from_atto(u128::read_bytes(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_and_atto_constructors_agree() {
        assert_eq!(
            TokenAmount::from_whole(3),
            TokenAmount::from_atto(3 * ATTO_PER_TOKEN)
        );
    }

    #[test]
    fn checked_sub_protects_against_negative_balances() {
        let a = TokenAmount::from_atto(5);
        let b = TokenAmount::from_atto(7);
        assert_eq!(b.checked_sub(a), Some(TokenAmount::from_atto(2)));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(a.saturating_sub(b), TokenAmount::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn operator_sub_panics_on_underflow() {
        let _ = TokenAmount::ZERO - TokenAmount::from_atto(1);
    }

    #[test]
    fn display_trims_trailing_zeros() {
        assert_eq!(TokenAmount::from_whole(2).to_string(), "2 HC");
        assert_eq!(
            (TokenAmount::from_whole(1) + TokenAmount::from_atto(ATTO_PER_TOKEN / 2)).to_string(),
            "1.5 HC"
        );
        assert_eq!(TokenAmount::ZERO.to_string(), "0 HC");
        assert_eq!(
            TokenAmount::from_atto(1).to_string(),
            "0.000000000000000001 HC"
        );
    }

    #[test]
    fn sum_over_iterator() {
        let total: TokenAmount = (1..=4u128).map(TokenAmount::from_atto).sum();
        assert_eq!(total, TokenAmount::from_atto(10));
    }

    #[test]
    fn scale_multiplies() {
        assert_eq!(
            TokenAmount::from_atto(3).scale(4),
            TokenAmount::from_atto(12)
        );
    }
}
