//! Property-based tests of the persistent HAMT and AMT: canonical form
//! under operation order, persist/load identity, and membership-proof
//! soundness — the invariants the state commitment stack leans on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hc_state::hamt::HashWork;
use hc_state::{Amt, CidStore, Hamt, HamtProof};

/// Entries a subtree holds before it stops being a single leaf — the
/// HAMT's private `LEAF_CAP`, restated because these tests pin the shape
/// on either side of it.
const LEAF_CAP: usize = 64;

/// Keys the random operations draw from: with sets three times as likely
/// as deletes about three quarters of them are live, so a long sequence
/// keeps crossing [`LEAF_CAP`] in both directions (root leaf splits,
/// interior root merges back) while short ones stay a single leaf.
const UNIVERSE: u8 = 96;

/// One abstract map mutation.
#[derive(Debug, Clone)]
enum Op {
    Set(u8, u64),
    Delete(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let set = || (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % UNIVERSE, v));
    prop::collection::vec(
        prop_oneof![
            set(),
            set(),
            set(),
            any::<u8>().prop_map(|k| Op::Delete(k % UNIVERSE)),
        ],
        0..400,
    )
}

fn apply(hamt: &mut Hamt<u64, u64>, model: &mut BTreeMap<u64, u64>, op: &Op) {
    match op {
        Op::Set(k, v) => {
            hamt.set(u64::from(*k), *v);
            model.insert(u64::from(*k), *v);
        }
        Op::Delete(k) => {
            hamt.delete(&u64::from(*k));
            model.remove(&u64::from(*k));
        }
    }
}

fn run(ops: &[Op]) -> (Hamt<u64, u64>, BTreeMap<u64, u64>) {
    let mut hamt = Hamt::new();
    let mut model = BTreeMap::new();
    for op in ops {
        apply(&mut hamt, &mut model, op);
    }
    (hamt, model)
}

fn flush_root(hamt: &mut Hamt<u64, u64>) -> hc_types::TCid<hc_types::MHamtNode> {
    let mut work = HashWork::default();
    hamt.flush(&mut work)
}

/// How many node blobs `hamt` persists as into an empty store.
fn blob_count(hamt: &mut Hamt<u64, u64>) -> usize {
    let store = CidStore::new();
    hamt.persist(&store);
    store.len()
}

proptest! {
    /// The committed root is a pure function of the final content: any
    /// operation order reaching the same map agrees with a fresh HAMT
    /// built from that map in one pass, lookups agree with the model, and
    /// growing the map and shrinking it back returns to the same root.
    #[test]
    fn hamt_root_is_canonical_under_op_order(ops in arb_ops()) {
        let (mut hamt, model) = run(&ops);
        prop_assert_eq!(hamt.len(), model.len() as u64);
        for (k, v) in &model {
            prop_assert_eq!(hamt.get(k), Some(v));
        }

        let mut fresh = Hamt::new();
        for (k, v) in &model {
            fresh.set(*k, *v);
        }
        prop_assert_eq!(flush_root(&mut hamt), flush_root(&mut fresh));

        // And in reverse insertion order, for good measure.
        let mut reversed = Hamt::new();
        for (k, v) in model.iter().rev() {
            reversed.set(*k, *v);
        }
        prop_assert_eq!(flush_root(&mut hamt), flush_root(&mut reversed));

        // 150 more keys force splits whatever the size was; deleting them
        // in another order must merge every one of those splits back.
        let mut grown = hamt.clone();
        for k in 1_000..1_150u64 {
            grown.set(k, k);
        }
        prop_assert!(blob_count(&mut grown) > 1);
        for k in (1_000..1_150u64).rev() {
            prop_assert_eq!(grown.delete(&k), Some(k));
        }
        prop_assert_eq!(flush_root(&mut grown), flush_root(&mut hamt));
    }

    /// The shape on either side of the cap: up to `LEAF_CAP` entries are
    /// exactly one node blob, one more is an interior root over leaves, and
    /// deleting back down to the cap is one blob again — the same blob a
    /// fresh build of the survivors makes.
    #[test]
    fn hamt_splits_past_the_cap_and_collapses_back(
        seed in any::<u64>(),
        count in LEAF_CAP as u64 + 1..200,
    ) {
        // Distinct by construction: multiplying by an odd constant permutes u64.
        let keys: Vec<u64> = (0..count)
            .map(|i| seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let mut hamt = Hamt::new();
        for (i, k) in keys.iter().enumerate() {
            hamt.set(*k, !*k);
            let blobs = blob_count(&mut hamt);
            if i < LEAF_CAP {
                prop_assert_eq!(blobs, 1, "{} entries must be one leaf", i + 1);
            } else {
                prop_assert!(blobs > 1, "{} entries must have split", i + 1);
            }
        }
        for (i, k) in keys.iter().enumerate().skip(LEAF_CAP) {
            prop_assert!(blob_count(&mut hamt) > 1, "{} entries left", keys.len() - (i - LEAF_CAP));
            prop_assert_eq!(hamt.delete(k), Some(!*k));
        }
        prop_assert_eq!(blob_count(&mut hamt), 1);
        let mut survivors = Hamt::new();
        for k in &keys[..LEAF_CAP] {
            survivors.set(*k, !*k);
        }
        prop_assert_eq!(flush_root(&mut hamt), flush_root(&mut survivors));
    }

    /// `load ∘ persist` is the identity: the reloaded tree has the same
    /// root, length, and content, and persisting it again writes nothing
    /// new into the store.
    #[test]
    fn hamt_persist_load_round_trips(ops in arb_ops()) {
        let (mut hamt, model) = run(&ops);
        let store = CidStore::new();
        let root = hamt.persist(&store);

        let mut loaded: Hamt<u64, u64> = Hamt::load(&root, &store).expect("persisted tree loads");
        prop_assert_eq!(loaded.len(), model.len() as u64);
        for (k, v) in &model {
            prop_assert_eq!(loaded.get(k), Some(v));
        }
        let blobs_before = store.len();
        prop_assert_eq!(loaded.persist(&store), root);
        prop_assert_eq!(store.len(), blobs_before, "re-persist must share everything");
    }

    /// Membership proofs — the interior path, then the leaf — verify for
    /// every committed entry and reject wrong values, wrong keys, wrong
    /// roots, any tampered blob, and a path of the wrong kinds (no leaf at
    /// its end, or a leaf before it).
    #[test]
    fn hamt_proofs_verify_and_reject(ops in arb_ops(), flip in any::<u16>()) {
        let (mut hamt, model) = run(&ops);
        let root = flush_root(&mut hamt);
        let bogus_root = hc_types::TCid::digest(b"not the root");
        let absent = 1_000u64;
        for (k, v) in &model {
            let proof = hamt.prove(k).expect("committed entry has a proof");
            prop_assert_eq!(proof.nodes.len(), if model.len() > LEAF_CAP { 2 } else { 1 });
            prop_assert!(proof.verify(&root, k, v));
            prop_assert!(!proof.verify(&root, k, &v.wrapping_add(1)));
            prop_assert!(!proof.verify(&bogus_root, k, v));
            prop_assert!(!proof.verify(&root, &absent, v));

            for node in 0..proof.nodes.len() {
                let mut tampered = proof.clone();
                let at = flip as usize % tampered.nodes[node].len();
                tampered.nodes[node][at] ^= 1 << (flip % 8);
                prop_assert!(!tampered.verify(&root, k, v));
            }
            let (leaf, path) = proof.nodes.split_last().expect("a proof ends in its leaf");
            let no_leaf = HamtProof { nodes: path.to_vec() };
            prop_assert!(!no_leaf.verify(&root, k, v));
            let mut leaf_first = proof.clone();
            leaf_first.nodes.insert(0, leaf.clone());
            prop_assert!(!leaf_first.verify(&root, k, v));
            let mut past_leaf = proof.clone();
            past_leaf.nodes.push(leaf.clone());
            prop_assert!(!past_leaf.verify(&root, k, v));
        }
        // Absent keys have no proof.
        prop_assert!(hamt.prove(&absent).is_none());
    }

    /// AMT: dense pushes and sparse sets agree with a model, survive a
    /// persist/load round trip, and prove their entries.
    #[test]
    fn amt_model_round_trip_and_proofs(
        values in prop::collection::vec(any::<u64>(), 0..100),
        sparse in prop::collection::vec((0u64..5_000, any::<u64>()), 0..20),
    ) {
        let mut amt = Amt::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(amt.push(*v), i as u64);
            model.insert(i as u64, *v);
        }
        for (i, v) in &sparse {
            amt.set(*i, *v);
            model.insert(*i, *v);
        }
        prop_assert_eq!(amt.len(), model.len() as u64);
        for (i, v) in &model {
            prop_assert_eq!(amt.get(*i), Some(v));
        }

        let store = CidStore::new();
        let root = amt.persist(&store);
        let mut loaded: Amt<u64> = Amt::load(&root, &store).expect("persisted AMT loads");
        for (i, v) in &model {
            prop_assert_eq!(loaded.get(*i), Some(v));
        }
        prop_assert_eq!(loaded.persist(&store), root);

        let bogus_root = hc_state::AmtRoot {
            node: hc_types::TCid::digest(b"not the root"),
            ..root
        };
        for (i, v) in &model {
            let proof = amt.prove(*i).expect("set index has a proof");
            prop_assert!(proof.verify(&root, *i, v));
            prop_assert!(!proof.verify(&root, *i, &v.wrapping_add(1)));
            prop_assert!(!proof.verify(&bogus_root, *i, v));
        }
        // Unset indices (inside and outside capacity) have no proof.
        if let Some(gap) = (0..5_000).find(|i| !model.contains_key(i)) {
            prop_assert!(amt.prove(gap).is_none());
        }
        prop_assert!(amt.prove(1 << 40).is_none());
    }
}
