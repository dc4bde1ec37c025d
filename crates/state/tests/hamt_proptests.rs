//! Property-based tests of the persistent HAMT and AMT: canonical form
//! under operation order, persist/load identity, and membership-proof
//! soundness — the invariants the state commitment stack leans on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hc_state::hamt::HashWork;
use hc_state::{Amt, CidStore, Hamt};

/// One abstract map mutation over a small key universe (small so that
/// random sequences actually hit overwrites and deletes of live keys,
/// exercising bucket splits, collapses, and copy-on-write paths).
#[derive(Debug, Clone)]
enum Op {
    Set(u8, u64),
    Delete(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u64>()).prop_map(|(k, v)| Op::Set(k % 64, v)),
            any::<u8>().prop_map(|k| Op::Delete(k % 64)),
        ],
        0..120,
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

fn flush_root(hamt: &mut Hamt<u64, u64>) -> hc_types::TCid<hc_types::MHamtNode> {
    let mut work = HashWork::default();
    hamt.flush(&mut work)
}

proptest! {
    /// The committed root is a pure function of the final content: any
    /// operation order reaching the same map agrees with a fresh HAMT
    /// built from that map in one pass, and lookups agree with the model.
    #[test]
    fn hamt_root_is_canonical_under_op_order(ops in arb_ops()) {
        let mut hamt = Hamt::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut hamt, &mut model, op);
        }
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
    }

    /// `load ∘ persist` is the identity: the reloaded tree has the same
    /// root, length, and content, and persisting it again writes nothing
    /// new into the store.
    #[test]
    fn hamt_persist_load_round_trips(ops in arb_ops()) {
        let mut hamt = Hamt::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut hamt, &mut model, op);
        }
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

    /// Membership proofs verify for every committed entry and reject
    /// wrong values, wrong keys, and wrong roots.
    #[test]
    fn hamt_proofs_verify_and_reject(ops in arb_ops()) {
        let mut hamt = Hamt::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut hamt, &mut model, op);
        }
        let root = flush_root(&mut hamt);
        let bogus_root = hc_types::TCid::digest(b"not the root");
        for (k, v) in &model {
            let proof = hamt.prove(k).expect("committed entry has a proof");
            prop_assert!(proof.verify(&root, k, v));
            prop_assert!(!proof.verify(&root, k, &v.wrapping_add(1)));
            prop_assert!(!proof.verify(&bogus_root, k, v));
            let absent = 1_000u64;
            prop_assert!(!proof.verify(&root, &absent, v));
        }
        // Absent keys have no proof.
        prop_assert!(hamt.prove(&1_000u64).is_none());
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
