//! Actor and account addresses.
//!
//! Addresses identify actors (accounts and system contracts) *within* a
//! subnet. They are modelled after Filecoin ID addresses (`f0…`): a compact
//! integer namespace where low IDs are reserved for singleton system actors.
//!
//! The address space is partitioned as follows:
//!
//! | Range        | Use                                            |
//! |--------------|------------------------------------------------|
//! | `0`          | system actor (block producer context)          |
//! | `1`          | burnt-funds actor (tokens sent here are burned)|
//! | `2`          | reward actor                                   |
//! | `64`         | Subnet Coordinator Actor (SCA)                 |
//! | `65`         | atomic-execution coordinator actor             |
//! | `66..100`    | reserved for future system actors              |
//! | `100..`      | user-deployed actors and accounts (incl. SAs)  |

use std::fmt;
use std::str::FromStr;

use crate::encode::CanonicalEncode;

/// First address available for non-system (user) actors.
pub const FIRST_USER_ADDRESS: u64 = 100;

/// An actor address within a subnet.
///
/// `Address` is an ordered, copyable newtype over the actor ID. Use
/// [`Address::new`] for user accounts and the associated constants
/// ([`Address::SCA`], [`Address::BURNT_FUNDS`], …) for system actors.
///
/// # Example
///
/// ```
/// use hc_types::Address;
///
/// let alice = Address::new(100);
/// assert_eq!(alice.to_string(), "a100");
/// assert_eq!("a100".parse::<Address>().unwrap(), alice);
/// assert!(!alice.is_system());
/// assert!(Address::SCA.is_system());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// The system actor, used as the implicit sender of consensus-internal
    /// messages (e.g. applying cross-net messages committed in a block).
    pub const SYSTEM: Address = Address(0);
    /// The burnt-funds actor. Tokens transferred here leave the circulating
    /// supply of the subnet (used when bottom-up cross-messages exit a
    /// subnet).
    pub const BURNT_FUNDS: Address = Address(1);
    /// The reward actor, funding block rewards and fee redistribution.
    pub const REWARD: Address = Address(2);
    /// The Subnet Coordinator Actor (SCA). Singleton system actor that
    /// implements subnet registration, collateral management, checkpoint
    /// commitment, and cross-net message routing for its subnet.
    pub const SCA: Address = Address(64);
    /// The atomic execution coordinator actor, orchestrating cross-net
    /// atomic executions (two-phase commit) in the least common ancestor.
    pub const ATOMIC_EXEC: Address = Address(65);

    /// Creates an address from a raw actor ID.
    pub const fn new(id: u64) -> Self {
        Address(id)
    }

    /// Returns the raw actor ID.
    pub const fn id(self) -> u64 {
        self.0
    }

    /// Returns `true` if this address belongs to the reserved system range.
    pub const fn is_system(self) -> bool {
        self.0 < FIRST_USER_ADDRESS
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<u64> for Address {
    fn from(id: u64) -> Self {
        Address(id)
    }
}

impl CanonicalEncode for Address {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.0.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for Address {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        Ok(Address::new(u64::read_bytes(r)?))
    }
}

/// Error returned when parsing an [`Address`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddressError {
    input: String,
}

impl fmt::Display for ParseAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseAddressError {}

impl FromStr for Address {
    type Err = ParseAddressError;

    /// Parses the `a<id>` representation produced by [`Display`](fmt::Display).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddressError {
            input: s.to_owned(),
        };
        let digits = s.strip_prefix('a').ok_or_else(err)?;
        if digits.is_empty() || digits.len() > 20 {
            return Err(err());
        }
        let id = digits.parse::<u64>().map_err(|_| err())?;
        Ok(Address(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_parse() {
        for id in [0u64, 1, 2, 64, 99, 100, 12345, u64::MAX] {
            let addr = Address::new(id);
            assert_eq!(addr.to_string().parse::<Address>().unwrap(), addr);
        }
    }

    #[test]
    fn system_range_is_below_first_user_address() {
        assert!(Address::SYSTEM.is_system());
        assert!(Address::BURNT_FUNDS.is_system());
        assert!(Address::REWARD.is_system());
        assert!(Address::SCA.is_system());
        assert!(Address::ATOMIC_EXEC.is_system());
        assert!(Address::new(99).is_system());
        assert!(!Address::new(FIRST_USER_ADDRESS).is_system());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!("".parse::<Address>().is_err());
        assert!("a".parse::<Address>().is_err());
        assert!("100".parse::<Address>().is_err());
        assert!("b100".parse::<Address>().is_err());
        assert!("a-1".parse::<Address>().is_err());
        assert!("a1.5".parse::<Address>().is_err());
        assert!("a99999999999999999999999".parse::<Address>().is_err());
    }

    #[test]
    fn ordering_follows_ids() {
        assert!(Address::new(1) < Address::new(2));
        assert!(Address::SCA < Address::ATOMIC_EXEC);
    }
}
