//! Property-based tests for the foundation types.

use proptest::prelude::*;

use hc_types::crypto::sha256;
use hc_types::merkle::MerkleTree;
use hc_types::{Address, CanonicalEncode, Cid, Sha256, SubnetId, TokenAmount};

fn arb_subnet_id() -> impl Strategy<Value = SubnetId> {
    prop::collection::vec(100u64..200, 0..6)
        .prop_map(|route| SubnetId::from_route(route.into_iter().map(Address::new)))
}

proptest! {
    #[test]
    fn subnet_id_display_parse_round_trip(s in arb_subnet_id()) {
        let parsed: SubnetId = s.to_string().parse().unwrap();
        prop_assert_eq!(parsed, s);
    }

    #[test]
    fn lca_is_prefix_of_both(a in arb_subnet_id(), b in arb_subnet_id()) {
        let lca = a.common_ancestor(&b);
        prop_assert!(lca.is_prefix_of(&a));
        prop_assert!(lca.is_prefix_of(&b));
        // And it is the *deepest* such subnet: going one level further down
        // towards `a` must stop being a prefix of `b` (unless lca == a or b).
        if lca != a && lca != b {
            let deeper = lca.child(a.route()[lca.depth()]);
            prop_assert!(!deeper.is_prefix_of(&b));
        }
    }

    #[test]
    fn lca_is_commutative(a in arb_subnet_id(), b in arb_subnet_id()) {
        prop_assert_eq!(a.common_ancestor(&b), b.common_ancestor(&a));
    }

    #[test]
    fn token_add_sub_inverse(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        let x = TokenAmount::from_atto(a);
        let y = TokenAmount::from_atto(b);
        prop_assert_eq!((x + y).checked_sub(y), Some(x));
        prop_assert_eq!((x + y).checked_sub(x), Some(y));
    }

    #[test]
    fn token_checked_sub_none_iff_would_underflow(a in any::<u128>(), b in any::<u128>()) {
        let x = TokenAmount::from_atto(a);
        let y = TokenAmount::from_atto(b);
        prop_assert_eq!(x.checked_sub(y).is_none(), a < b);
    }

    #[test]
    fn canonical_encoding_is_injective_for_address_lists(
        a in prop::collection::vec(any::<u64>(), 0..8),
        b in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let ea: Vec<Address> = a.iter().copied().map(Address::new).collect();
        let eb: Vec<Address> = b.iter().copied().map(Address::new).collect();
        prop_assert_eq!(ea.canonical_bytes() == eb.canonical_bytes(), a == b);
    }

    #[test]
    fn cid_distinct_for_distinct_bytes(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
        prop_assert_eq!(Cid::digest(&a) == Cid::digest(&b), a == b);
    }

    #[test]
    fn merkle_all_members_prove(items in prop::collection::vec(any::<u64>(), 1..40)) {
        let tree = MerkleTree::from_items(&items);
        let root = tree.root();
        for (i, item) in items.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(item, root));
        }
    }

    #[test]
    fn merkle_non_member_does_not_prove(
        items in prop::collection::vec(0u64..1000, 1..20),
        outsider in 1000u64..,
        idx in any::<prop::sample::Index>(),
    ) {
        let tree = MerkleTree::from_items(&items);
        let i = idx.index(items.len());
        let proof = tree.prove(i).unwrap();
        prop_assert!(!proof.verify(&outsider, tree.root()));
    }

    #[test]
    fn merkle_root_is_order_sensitive(mut items in prop::collection::vec(any::<u64>(), 2..20)) {
        let original = MerkleTree::from_items(&items).root();
        items.swap(0, 1);
        if items[0] != items[1] {
            prop_assert_ne!(MerkleTree::from_items(&items).root(), original);
        }
    }

    /// A streaming hasher fed any split of the input agrees with the one-shot
    /// digest. The pieces cross the padding boundaries — 55 bytes fit the
    /// length field in the last block, 56 do not, 64 fill a block exactly —
    /// at every offset a previous piece leaves buffered.
    #[test]
    fn streaming_sha256_equals_one_shot_over_any_split(
        head in prop_oneof![Just(0usize), Just(1usize), 0usize..130],
        pieces in prop::collection::vec(
            prop_oneof![Just(55usize), Just(56usize), Just(63usize), Just(64usize), Just(65usize), 0usize..200],
            0..8,
        ),
        fill in any::<u8>(),
    ) {
        let lens: Vec<usize> = std::iter::once(head).chain(pieces).collect();
        let data: Vec<u8> = (0..lens.iter().sum::<usize>())
            .map(|i| (i as u8).wrapping_mul(31) ^ fill)
            .collect();
        let mut hasher = Sha256::new();
        let mut at = 0;
        for len in &lens {
            hasher.update(&data[at..at + len]);
            at += len;
            // Finalizing a clone reads the digest so far without closing
            // the running hasher.
            prop_assert_eq!(hasher.clone().finalize(), sha256(&data[..at]));
        }
        prop_assert_eq!(hasher.finalize(), sha256(&data));
    }
}
