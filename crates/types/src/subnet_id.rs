//! Hierarchical subnet identifiers.
//!
//! Subnets form a tree rooted at the *rootnet*. Per the paper (§III-A),
//! "subnets are identified with a unique ID that is inferred
//! deterministically from the ID of its ancestor and from the ID of the SA
//! that governs its operation" — i.e. a subnet ID is the path of Subnet
//! Actor addresses from the root: `/root/a100/a101`.
//!
//! This deterministic naming is what lets any participant derive a subnet's
//! pub-sub topic and route cross-net messages without a discovery service.
//! The routing algebra lives here: [`SubnetId::parent`], [`SubnetId::child`]
//! and [`SubnetId::common_ancestor`] give the *bottom-up*, *top-down* and
//! *path* message routing of §IV-A its hops and its turning point.

use std::fmt;
use std::str::FromStr;

use crate::address::Address;
use crate::encode::CanonicalEncode;

/// Maximum supported hierarchy depth. Deep enough for any realistic
/// deployment while keeping path operations trivially bounded.
pub const MAX_DEPTH: usize = 32;

/// A hierarchical subnet identifier: the path of Subnet Actor addresses from
/// the rootnet down to the subnet.
///
/// # Example
///
/// ```
/// use hc_types::{Address, SubnetId};
///
/// let root = SubnetId::root();
/// let a = root.child(Address::new(100));
/// let ab = a.child(Address::new(101));
/// let c = root.child(Address::new(102));
///
/// assert_eq!(ab.parent(), Some(a.clone()));
/// assert_eq!(ab.common_ancestor(&c), root);
/// assert_eq!("/root/a100/a101".parse::<SubnetId>().unwrap(), ab);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubnetId {
    route: Vec<Address>,
}

impl SubnetId {
    /// The rootnet identifier, `/root`.
    pub fn root() -> Self {
        SubnetId { route: Vec::new() }
    }

    /// Creates a subnet ID from an explicit route of SA addresses.
    pub fn from_route<I: IntoIterator<Item = Address>>(route: I) -> Self {
        SubnetId {
            route: route.into_iter().collect(),
        }
    }

    /// Returns the ID of the child subnet governed by Subnet Actor `actor`.
    #[must_use]
    pub fn child(&self, actor: Address) -> Self {
        let mut route = self.route.clone();
        route.push(actor);
        SubnetId { route }
    }

    /// Returns the parent subnet, or `None` for the rootnet.
    pub fn parent(&self) -> Option<SubnetId> {
        if self.route.is_empty() {
            None
        } else {
            Some(SubnetId {
                route: self.route[..self.route.len() - 1].to_vec(),
            })
        }
    }

    /// Returns the address of the Subnet Actor that governs this subnet in
    /// its parent chain, or `None` for the rootnet.
    pub fn actor(&self) -> Option<Address> {
        self.route.last().copied()
    }

    /// Returns `true` for the rootnet.
    pub fn is_root(&self) -> bool {
        self.route.is_empty()
    }

    /// Distance from the root (root has depth 0).
    pub fn depth(&self) -> usize {
        self.route.len()
    }

    /// The route of SA addresses from the root.
    pub fn route(&self) -> &[Address] {
        &self.route
    }

    /// Returns `true` if `self` is a *strict* ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &SubnetId) -> bool {
        other.route.len() > self.route.len() && other.route[..self.route.len()] == self.route[..]
    }

    /// Returns `true` if `self` is an ancestor of `other` or equal to it.
    pub fn is_prefix_of(&self, other: &SubnetId) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// The least common ancestor of `self` and `other` (the rootnet in the
    /// worst case). This is the subnet where a *path* message turns from
    /// bottom-up to top-down propagation, and the default execution subnet
    /// for atomic executions (paper §IV-D).
    pub fn common_ancestor(&self, other: &SubnetId) -> SubnetId {
        let shared = self
            .route
            .iter()
            .zip(other.route.iter())
            .take_while(|(a, b)| a == b)
            .count();
        SubnetId {
            route: self.route[..shared].to_vec(),
        }
    }

    /// The pub-sub topic name for this subnet's chain traffic.
    ///
    /// Deterministic naming "enables the discovery of and interaction with
    /// subnets from any other point in the hierarchy without the need of a
    /// discovery service" (paper §III-A).
    pub fn topic(&self) -> String {
        format!("{self}/msgs")
    }
}

impl fmt::Display for SubnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("/root")?;
        for seg in &self.route {
            write!(f, "/{seg}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for SubnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SubnetId({self})")
    }
}

impl CanonicalEncode for SubnetId {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.route.write_bytes(out);
    }
}

impl crate::decode::CanonicalDecode for SubnetId {
    fn read_bytes(
        r: &mut crate::decode::ByteReader<'_>,
    ) -> Result<Self, crate::decode::DecodeError> {
        let route = Vec::<Address>::read_bytes(r)?;
        if route.len() > MAX_DEPTH {
            return Err(crate::decode::DecodeError::Invalid {
                what: "subnet route deeper than MAX_DEPTH",
            });
        }
        Ok(SubnetId { route })
    }
}

/// Error returned when parsing a [`SubnetId`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSubnetIdError {
    input: String,
}

impl fmt::Display for ParseSubnetIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid subnet id syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseSubnetIdError {}

impl FromStr for SubnetId {
    type Err = ParseSubnetIdError;

    /// Parses the `/root/a100/a101` form produced by
    /// [`Display`](fmt::Display).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSubnetIdError {
            input: s.to_owned(),
        };
        let rest = s.strip_prefix("/root").ok_or_else(err)?;
        if rest.is_empty() {
            return Ok(SubnetId::root());
        }
        let rest = rest.strip_prefix('/').ok_or_else(err)?;
        let mut route = Vec::new();
        for seg in rest.split('/') {
            route.push(seg.parse::<Address>().map_err(|_| err())?);
            if route.len() > MAX_DEPTH {
                return Err(err());
            }
        }
        Ok(SubnetId { route })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(route: &[u64]) -> SubnetId {
        SubnetId::from_route(route.iter().copied().map(Address::new))
    }

    #[test]
    fn display_and_parse_round_trip() {
        for route in [&[][..], &[100], &[100, 101], &[100, 101, 250]] {
            let s = id(route);
            assert_eq!(s.to_string().parse::<SubnetId>().unwrap(), s);
        }
        assert_eq!(SubnetId::root().to_string(), "/root");
        assert_eq!(id(&[100, 101]).to_string(), "/root/a100/a101");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "root",
            "/rootx",
            "/root/",
            "/root//a1",
            "/root/b1",
            "/root/a1/",
        ] {
            assert!(bad.parse::<SubnetId>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parent_child_inverse() {
        let a = id(&[100]);
        assert_eq!(SubnetId::root().child(Address::new(100)), a);
        assert_eq!(a.parent(), Some(SubnetId::root()));
        assert_eq!(SubnetId::root().parent(), None);
        assert_eq!(a.actor(), Some(Address::new(100)));
        assert_eq!(SubnetId::root().actor(), None);
    }

    #[test]
    fn ancestry_is_strict_prefix() {
        let root = SubnetId::root();
        let a = id(&[100]);
        let ab = id(&[100, 101]);
        let c = id(&[102]);
        assert!(root.is_ancestor_of(&ab));
        assert!(a.is_ancestor_of(&ab));
        assert!(!ab.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_ancestor_of(&c));
    }

    #[test]
    fn common_ancestor_is_shared_prefix() {
        let ab = id(&[100, 101]);
        let ac = id(&[100, 102]);
        let d = id(&[103]);
        assert_eq!(ab.common_ancestor(&ac), id(&[100]));
        assert_eq!(ab.common_ancestor(&d), SubnetId::root());
        assert_eq!(ab.common_ancestor(&ab), ab);
        assert_eq!(ab.common_ancestor(&id(&[100])), id(&[100]));
    }

    #[test]
    fn topics_are_unique_per_subnet() {
        assert_ne!(id(&[100]).topic(), id(&[101]).topic());
        assert_eq!(id(&[100]).topic(), "/root/a100/msgs");
    }
}
