//! Cross-net messages and their aggregated metadata.
//!
//! A [`CrossMsg`] is a message whose source and destination live in
//! different subnets. Depending on the relative position of the two subnets
//! it propagates *top-down* (committed directly by the parent's SCA and
//! applied by the child's consensus), *bottom-up* (aggregated into
//! checkpoints as [`CrossMsgMeta`]), or as a *path* message combining both
//! legs via the least common ancestor (paper §IV-A).

use std::sync::{Arc, OnceLock};

use hc_types::{
    decode_fields, encode_fields, Address, ByteReader, CanonicalDecode, CanonicalEncode, Cid,
    DecodeError, Nonce, SubnetId, TokenAmount,
};

/// A hierarchical address: an actor address qualified by the subnet it
/// lives in. This is how cross-net message endpoints are named.
///
/// # Example
///
/// ```
/// use hc_actors::HcAddress;
/// use hc_types::{Address, SubnetId};
///
/// let alice = HcAddress::new(SubnetId::root(), Address::new(100));
/// assert_eq!(alice.to_string(), "/root:a100");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HcAddress {
    /// The subnet the actor lives in.
    pub subnet: SubnetId,
    /// The actor address within that subnet.
    pub raw: Address,
}

impl HcAddress {
    /// Creates a hierarchical address.
    pub fn new(subnet: SubnetId, raw: Address) -> Self {
        HcAddress { subnet, raw }
    }
}

impl std::fmt::Display for HcAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.subnet, self.raw)
    }
}

encode_fields!(HcAddress { subnet, raw });
decode_fields!(HcAddress { subnet, raw });

/// What a cross-net message does on arrival.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrossMsgKind {
    /// Plain token transfer to `to.raw` in the destination subnet.
    Transfer,
    /// Invocation of an actor method in the destination subnet, carrying
    /// opaque call data interpreted by the destination VM.
    Call {
        /// Method selector understood by the destination actor.
        method: u64,
        /// Opaque, canonical parameter bytes.
        params: Vec<u8>,
    },
    /// A revert of a failed cross-message: value is returned to the
    /// original sender. Generated automatically when application fails at
    /// the destination (paper §IV-B: "a cross-msg that cannot be applied in
    /// a subnet triggers a new cross-msg … used to revert every
    /// intermediate state change").
    Revert {
        /// CID of the cross-message being reverted.
        original: Cid,
    },
}

impl CanonicalEncode for CrossMsgKind {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            CrossMsgKind::Transfer => out.push(0),
            CrossMsgKind::Call { method, params } => {
                out.push(1);
                method.write_bytes(out);
                params.write_bytes(out);
            }
            CrossMsgKind::Revert { original } => {
                out.push(2);
                original.write_bytes(out);
            }
        }
    }
}

impl CanonicalDecode for CrossMsgKind {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(CrossMsgKind::Transfer),
            1 => Ok(CrossMsgKind::Call {
                method: u64::read_bytes(r)?,
                params: Vec::<u8>::read_bytes(r)?,
            }),
            2 => Ok(CrossMsgKind::Revert {
                original: Cid::read_bytes(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "CrossMsgKind",
                tag,
            }),
        }
    }
}

/// A cross-net message.
///
/// The `nonce` is assigned by the SCA that first commits the message in a
/// given direction and enforces total order of arrival at the destination
/// (paper §IV-A). A freshly created message carries `Nonce::ZERO` until the
/// SCA stamps it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrossMsg {
    /// Source endpoint.
    pub from: HcAddress,
    /// Destination endpoint.
    pub to: HcAddress,
    /// Token value carried by the message.
    pub value: TokenAmount,
    /// Per-(direction, destination) sequence number assigned by the SCA.
    pub nonce: Nonce,
    /// Payload semantics.
    pub kind: CrossMsgKind,
    /// Fee paid to the miners of the subnets the message traverses.
    pub fee: TokenAmount,
}

encode_fields!(CrossMsg {
    from,
    to,
    value,
    nonce,
    kind,
    fee
});
decode_fields!(CrossMsg {
    from,
    to,
    value,
    nonce,
    kind,
    fee
});

impl CrossMsg {
    /// Creates an unstamped transfer message.
    pub fn transfer(from: HcAddress, to: HcAddress, value: TokenAmount) -> Self {
        CrossMsg {
            from,
            to,
            value,
            nonce: Nonce::ZERO,
            kind: CrossMsgKind::Transfer,
            fee: TokenAmount::ZERO,
        }
    }

    /// Creates an unstamped actor call message.
    pub fn call(
        from: HcAddress,
        to: HcAddress,
        value: TokenAmount,
        method: u64,
        params: Vec<u8>,
    ) -> Self {
        CrossMsg {
            from,
            to,
            value,
            nonce: Nonce::ZERO,
            kind: CrossMsgKind::Call { method, params },
            fee: TokenAmount::ZERO,
        }
    }

    /// Builds the revert message for this message: same value, flowing back
    /// from the failing subnet to the original source.
    #[must_use]
    pub fn revert_msg(&self, failed_at: &SubnetId) -> CrossMsg {
        CrossMsg {
            from: HcAddress::new(failed_at.clone(), Address::SCA),
            to: self.from.clone(),
            value: self.value,
            nonce: Nonce::ZERO,
            kind: CrossMsgKind::Revert {
                original: self.cid(),
            },
            fee: TokenAmount::ZERO,
        }
    }

    /// Returns `true` if this message only descends the hierarchy
    /// (destination is in a strict descendant of the source subnet).
    pub fn is_top_down(&self) -> bool {
        self.from.subnet.is_ancestor_of(&self.to.subnet)
    }

    /// Returns `true` if this message only ascends the hierarchy.
    pub fn is_bottom_up(&self) -> bool {
        self.to.subnet.is_ancestor_of(&self.from.subnet)
    }

    /// Returns `true` if source and destination are in different branches,
    /// so the message combines a bottom-up and a top-down leg.
    pub fn is_path(&self) -> bool {
        !self.is_top_down() && !self.is_bottom_up() && self.from.subnet != self.to.subnet
    }
}

/// A cross-message group together with the digest that commits to it: the
/// CID of the group's canonical encoding, i.e. the `msgsCid` a
/// [`CrossMsgMeta`] carries (paper §III-B). A group is resolved whole
/// (paper §IV-C) and checked by recomputing that digest, so it is an
/// ordinary content-addressed object like every other [`Cid`].
///
/// The group is what moves between a node's parts — the SCA that cuts it,
/// the content registry, the resolver cache, the cross-msg pool, the
/// implicit messages of a block and the payload root that commits to them
/// — and each of them used to hash it again to learn or check the digest.
/// A `MsgGroup` derives it at most once and carries it: the messages sit
/// behind a shared, immutable slice and the memo is private, so it can
/// only ever hold the digest of the messages beside it. [`MsgGroup::seal`]
/// derives eagerly (content created here); a group decoded from bytes
/// starts cold and derives from what was decoded on first use, so a
/// carried digest can never lie. Cloning shares the messages and copies
/// the memo.
///
/// The canonical encoding is that of the message sequence alone — exactly
/// `Vec<CrossMsg>`'s — and equality is content equality.
#[derive(Debug, Clone)]
pub struct MsgGroup {
    msgs: Arc<[CrossMsg]>,
    cid: OnceLock<Cid>,
}

impl MsgGroup {
    /// Seals `msgs` into a group, deriving its digest.
    pub fn seal(msgs: Vec<CrossMsg>) -> Self {
        let group = MsgGroup {
            msgs: msgs.into(),
            cid: OnceLock::new(),
        };
        group.cid();
        group
    }

    /// The CID of the group's canonical encoding. Memoized; the only place
    /// a cross-message group is hashed.
    pub fn cid(&self) -> Cid {
        *self.cid.get_or_init(|| self.msgs.cid())
    }
}

/// The messages, in group order.
impl std::ops::Deref for MsgGroup {
    type Target = [CrossMsg];

    fn deref(&self) -> &[CrossMsg] {
        &self.msgs
    }
}

impl PartialEq for MsgGroup {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state; equality is content equality.
        self.msgs == other.msgs
    }
}

impl Eq for MsgGroup {}

impl CanonicalEncode for MsgGroup {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.msgs.write_bytes(out);
    }

    /// The memo: the trait's digest of a group is [`MsgGroup::cid`].
    fn cid(&self) -> Cid {
        MsgGroup::cid(self)
    }
}

impl CanonicalDecode for MsgGroup {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Decoded groups start cold: the digest is derived from the decoded
        // messages on first use, never read from the wire.
        Ok(MsgGroup {
            msgs: Vec::<CrossMsg>::read_bytes(r)?.into(),
            cid: OnceLock::new(),
        })
    }
}

/// Aggregated metadata for a group of bottom-up cross-messages, as carried
/// in checkpoints: `crossMeta = (from, to, nonce, msgsCid)` (paper §III-B).
///
/// The raw messages are *not* embedded; the destination resolves `msgs_cid`
/// through the content-resolution protocol (paper §IV-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrossMsgMeta {
    /// Source subnet of the group.
    pub from: SubnetId,
    /// Destination subnet of the group.
    pub to: SubnetId,
    /// Sequence number assigned by the destination's SCA on arrival;
    /// `Nonce::ZERO` while in flight.
    pub nonce: Nonce,
    /// CID of the message group: the digest of its canonical encoding,
    /// carried by [`MsgGroup::cid`].
    pub msgs_cid: Cid,
    /// Number of messages behind `msgs_cid`.
    pub count: u64,
    /// Total token value carried by the group — message values only; fees
    /// are paid to miners of the source subnet and never traverse. Used
    /// for supply accounting as the meta moves through intermediate
    /// subnets.
    pub total_value: TokenAmount,
}

encode_fields!(CrossMsgMeta {
    from,
    to,
    nonce,
    msgs_cid,
    count,
    total_value
});
decode_fields!(CrossMsgMeta {
    from,
    to,
    nonce,
    msgs_cid,
    count,
    total_value
});

impl CrossMsgMeta {
    /// Builds the metadata for a group of messages travelling `from → to`,
    /// committing to them with the group's digest.
    pub fn for_group(from: SubnetId, to: SubnetId, group: &MsgGroup) -> Self {
        CrossMsgMeta {
            from,
            to,
            nonce: Nonce::ZERO,
            msgs_cid: group.cid(),
            count: group.len() as u64,
            total_value: group.iter().map(|m| m.value).sum(),
        }
    }

    /// Verifies that `group` is exactly the group committed to by this
    /// meta: a comparison of digests, O(1) once the group's is derived.
    pub fn matches(&self, group: &MsgGroup) -> bool {
        group.len() as u64 == self.count && group.cid() == self.msgs_cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subnet(route: &[u64]) -> SubnetId {
        SubnetId::from_route(route.iter().copied().map(Address::new))
    }

    fn addr(route: &[u64], id: u64) -> HcAddress {
        HcAddress::new(subnet(route), Address::new(id))
    }

    #[test]
    fn direction_classification() {
        let td = CrossMsg::transfer(addr(&[], 100), addr(&[100, 101], 200), TokenAmount::ZERO);
        assert!(td.is_top_down());
        assert!(!td.is_bottom_up());
        assert!(!td.is_path());

        let bu = CrossMsg::transfer(addr(&[100, 101], 200), addr(&[], 100), TokenAmount::ZERO);
        assert!(bu.is_bottom_up());
        assert!(!bu.is_top_down());

        let path = CrossMsg::transfer(addr(&[100], 200), addr(&[102], 300), TokenAmount::ZERO);
        assert!(path.is_path());

        let local = CrossMsg::transfer(addr(&[100], 200), addr(&[100], 300), TokenAmount::ZERO);
        assert!(!local.is_top_down() && !local.is_bottom_up() && !local.is_path());
    }

    #[test]
    fn meta_commits_to_exact_group() {
        let msgs = vec![
            CrossMsg::transfer(addr(&[100], 1), addr(&[], 2), TokenAmount::from_atto(5)),
            CrossMsg::transfer(addr(&[100], 3), addr(&[], 4), TokenAmount::from_atto(7)),
        ];
        let group = MsgGroup::seal(msgs.clone());
        let meta = CrossMsgMeta::for_group(subnet(&[100]), subnet(&[]), &group);
        assert_eq!(meta.count, 2);
        assert_eq!(meta.total_value, TokenAmount::from_atto(12));
        assert!(meta.matches(&group));

        let mut reordered = msgs.clone();
        reordered.swap(0, 1);
        assert!(!meta.matches(&MsgGroup::seal(reordered)));
        assert!(!meta.matches(&MsgGroup::seal(msgs[..1].to_vec())));
    }

    proptest::proptest! {
        /// Sealed ≡ from scratch: the carried digest is the CID of the
        /// message sequence's encoding, which is the group's own, and a
        /// group that came back through bytes starts cold and re-derives
        /// the same digest from what was decoded.
        #[test]
        fn sealed_group_equals_from_scratch(
            values in proptest::prelude::prop::collection::vec(0u64..1_000, 0..12),
        ) {
            let msgs: Vec<CrossMsg> = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut m = CrossMsg::transfer(
                        addr(&[100], i as u64),
                        addr(&[], *v),
                        TokenAmount::from_atto(u128::from(*v)),
                    );
                    m.nonce = Nonce::new(i as u64);
                    m
                })
                .collect();
            let group = MsgGroup::seal(msgs.clone());
            proptest::prop_assert_eq!(group.cid.get().copied(), Some(msgs.cid()));
            let bytes = group.canonical_bytes();
            proptest::prop_assert_eq!(&bytes, &msgs.canonical_bytes());
            let back = MsgGroup::decode(&bytes).unwrap();
            proptest::prop_assert!(back.cid.get().is_none(), "a decoded group starts cold");
            proptest::prop_assert_eq!(&back, &group);
            proptest::prop_assert_eq!(back.cid(), group.cid());
            proptest::prop_assert_eq!(back.canonical_bytes(), bytes);
        }
    }

    #[test]
    fn revert_flows_back_to_source_with_same_value() {
        let orig = CrossMsg::transfer(addr(&[100], 1), addr(&[102], 2), TokenAmount::from_atto(9));
        let failed_at = subnet(&[102]);
        let rev = orig.revert_msg(&failed_at);
        assert_eq!(rev.to, orig.from);
        assert_eq!(rev.from.subnet, failed_at);
        assert_eq!(rev.value, orig.value);
        assert_eq!(
            rev.kind,
            CrossMsgKind::Revert {
                original: orig.cid()
            }
        );
    }

    #[test]
    fn cids_differ_for_different_messages() {
        let a = CrossMsg::transfer(addr(&[100], 1), addr(&[], 2), TokenAmount::from_atto(5));
        let mut b = a.clone();
        b.nonce = Nonce::new(1);
        assert_ne!(a.cid(), b.cid());
    }
}
