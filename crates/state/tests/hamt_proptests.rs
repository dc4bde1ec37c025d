//! Property-based tests of the persistent HAMT and AMT: canonical form
//! under operation order, persist/load identity and resumed hashing — the
//! invariants the state commitment stack leans on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hc_state::hamt::{hash_key, HashWork};
use hc_state::{Amt, CidStore, Hamt};

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

/// Live keys a resumed-flush case starts from: about [`LEAF_CAP`] under
/// each of the root's 32 slots, so the root is interior and its subtrees
/// sit on either side of the cap — two interior levels, with subtrees
/// splitting and merging under the root as keys come and go.
const WIDE_BASE: u64 = 2_048;

/// Keys the resumed-flush operations draw from.
const WIDE: u64 = 2_400;

/// One operation on one of several HAMTs that share nodes: `tree` picks
/// among the trees so far (modulo their count).
#[derive(Debug, Clone)]
enum TreeOp {
    Set { tree: usize, key: u64, value: u64 },
    Delete { tree: usize, key: u64 },
    Flush { tree: usize },
    Clone { tree: usize },
}

fn arb_tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    let tree = || any::<u8>().prop_map(usize::from);
    let set = move || {
        (tree(), 0..WIDE, any::<u64>()).prop_map(|(tree, key, value)| TreeOp::Set {
            tree,
            key,
            value,
        })
    };
    let delete = move || (tree(), 0..WIDE).prop_map(|(tree, key)| TreeOp::Delete { tree, key });
    prop::collection::vec(
        prop_oneof![
            set(),
            set(),
            set(),
            delete(),
            delete(),
            tree().prop_map(|tree| TreeOp::Flush { tree }),
            tree().prop_map(|tree| TreeOp::Clone { tree }),
        ],
        0..160,
    )
}

/// The root a HAMT built in one pass from `model` commits to.
fn fresh_root(model: &BTreeMap<u64, u64>) -> hc_types::TCid<hc_types::MHamtNode> {
    let mut routed: Vec<_> = model.iter().map(|(k, v)| (hash_key(k), (*k, *v))).collect();
    let mut fresh = Hamt::build(&mut routed, |entry| *entry);
    assert_eq!(fresh.len(), model.len() as u64);
    flush_root(&mut fresh)
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

        prop_assert_eq!(flush_root(&mut hamt), fresh_root(&model));

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

    /// AMT: dense pushes and sparse sets agree with a model and survive a
    /// persist/load round trip.
    #[test]
    fn amt_model_round_trips(
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A flush resumes each interior node's hash after the blocks before
    /// its first changed link, from the chaining values its last flush
    /// recorded. Whatever mix of value writes, inserts, deletes (with the
    /// splits, merges and bitmap changes they cause) and clones came
    /// before, every flush commits to the same root as a fresh build of
    /// the model — also for a clone mutated independently of its origin,
    /// and for the origin after its clone moved on.
    #[test]
    fn a_resumed_flush_matches_a_fresh_build(ops in arb_tree_ops()) {
        let mut base = Hamt::new();
        let mut model = BTreeMap::new();
        for k in 0..WIDE_BASE {
            base.set(k, k);
            model.insert(k, k);
        }
        prop_assert_eq!(flush_root(&mut base), fresh_root(&model));
        // More blobs than a root over 32 leaves: some of its children are
        // interior nodes too.
        prop_assert!(blob_count(&mut base) > 1 + 32);
        let mut trees = vec![(base, model)];
        for op in &ops {
            match *op {
                TreeOp::Set { tree, key, value } => {
                    let at = tree % trees.len();
                    let (hamt, model) = &mut trees[at];
                    hamt.set(key, value);
                    model.insert(key, value);
                }
                TreeOp::Delete { tree, key } => {
                    let at = tree % trees.len();
                    let (hamt, model) = &mut trees[at];
                    prop_assert_eq!(hamt.delete(&key), model.remove(&key));
                }
                TreeOp::Flush { tree } => {
                    let at = tree % trees.len();
                    let (hamt, model) = &mut trees[at];
                    prop_assert_eq!(flush_root(hamt), fresh_root(model), "after {:?}", op);
                }
                TreeOp::Clone { tree } => {
                    let copy = trees[tree % trees.len()].clone();
                    trees.push(copy);
                }
            }
        }
        for (hamt, model) in &mut trees {
            prop_assert_eq!(hamt.len(), model.len() as u64);
            prop_assert_eq!(flush_root(hamt), fresh_root(model));
        }
    }
}
