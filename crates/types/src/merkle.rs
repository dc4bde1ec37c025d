//! Binary Merkle trees with membership proofs.
//!
//! Used where a set is committed to by a single CID *and* proved against:
//! the chunked state commitment (an account proof's last step, DESIGN.md
//! §9) and the balance snapshots the SCA `save` function persists. Their
//! membership proofs let a light client check that one leaf is covered by
//! a committed root without downloading the whole set. A set that is only
//! ever resolved and checked whole — a cross-message group, a block's
//! payload — is hashed in one pass instead.

use crate::cid::Cid;
use crate::crypto::sha256;
use crate::encode::CanonicalEncode;

// Domain separation prevents a leaf digest from being reinterpreted as an
// interior node (second-preimage attacks on unbalanced trees).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

fn leaf_hash(data: &[u8]) -> Cid {
    let mut buf = Vec::with_capacity(1 + data.len());
    buf.push(LEAF_TAG);
    buf.extend_from_slice(data);
    Cid::digest(&buf)
}

fn node_hash(left: &Cid, right: &Cid) -> Cid {
    let mut buf = Vec::with_capacity(65);
    buf.push(NODE_TAG);
    buf.extend_from_slice(left.as_bytes());
    buf.extend_from_slice(right.as_bytes());
    Cid::digest(&buf)
}

/// Bytes hashed per interior-node combine (tag + two 32-byte digests).
pub const NODE_HASH_BYTES: u64 = 65;

/// The domain-separated digest of one leaf's byte string.
///
/// Exposing this lets callers that already track per-item digests (e.g. a
/// chunked state commitment) build a [`MerkleTree`] without re-encoding the
/// underlying items.
pub fn leaf_digest(data: &[u8]) -> Cid {
    leaf_hash(data)
}

/// A binary Merkle tree over the canonical encodings of its leaves.
///
/// Odd nodes are promoted unchanged to the next level (Bitcoin-style
/// duplication is avoided; promotion cannot create mutation ambiguity
/// because of the leaf/node domain tags).
///
/// # Example
///
/// ```
/// use hc_types::merkle::MerkleTree;
///
/// let tree = MerkleTree::from_items(&["a", "b", "c"]);
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&"b", tree.root()));
/// assert!(!proof.verify(&"x", tree.root()));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root]. Empty tree has no
    /// levels and root `Cid::NIL`.
    levels: Vec<Vec<Cid>>,
}

impl MerkleTree {
    /// Builds a tree over the canonical encodings of `items`.
    pub fn from_items<T: CanonicalEncode>(items: &[T]) -> Self {
        Self::from_leaf_bytes(items.iter().map(|i| i.canonical_bytes()))
    }

    /// Builds a tree from precomputed leaf byte strings.
    pub fn from_leaf_bytes<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        Self::from_leaf_hashes(leaves.into_iter().map(|b| leaf_hash(b.as_ref())).collect())
    }

    /// Builds a tree from already-computed (domain-tagged) leaf digests,
    /// skipping the leaf-hashing pass entirely. Digests must come from
    /// [`leaf_digest`] for the root to match [`Self::from_leaf_bytes`].
    pub fn from_leaf_hashes(leaf_hashes: Vec<Cid>) -> Self {
        if leaf_hashes.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [l, r] => next.push(node_hash(l, r)),
                    [single] => next.push(*single),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Bytes hashed by the interior-node combines of a full build of this
    /// tree (excludes leaf hashing). Used for cost accounting.
    pub fn interior_hash_bytes(&self) -> u64 {
        self.levels[..self.levels.len().saturating_sub(1)]
            .iter()
            .map(|l| (l.len() / 2) as u64 * NODE_HASH_BYTES)
            .sum()
    }

    /// The root commitment. [`Cid::NIL`] for an empty tree.
    pub fn root(&self) -> Cid {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Cid::NIL)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Returns `true` if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces a membership proof for the leaf at `index`, or `None` if
    /// out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                path.push(ProofStep {
                    sibling: level[sibling],
                    sibling_on_left: sibling < idx,
                });
            }
            // If no sibling (odd promotion), the node passes through.
            idx /= 2;
        }
        Some(MerkleProof { path })
    }
}

/// One step of a Merkle membership proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProofStep {
    sibling: Cid,
    sibling_on_left: bool,
}

/// A Merkle membership proof: the sibling path from a leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    path: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verifies that `item` is a leaf of the tree committed to by `root`.
    pub fn verify<T: CanonicalEncode>(&self, item: &T, root: Cid) -> bool {
        self.verify_leaf_bytes(&item.canonical_bytes(), root)
    }

    /// Verifies a proof against raw leaf bytes.
    pub fn verify_leaf_bytes(&self, leaf: &[u8], root: Cid) -> bool {
        let mut acc = leaf_hash(leaf);
        for step in &self.path {
            acc = if step.sibling_on_left {
                node_hash(&step.sibling, &acc)
            } else {
                node_hash(&acc, &step.sibling)
            };
        }
        acc == root
    }

    /// Proof length in tree levels (≈ log₂ of the leaf count).
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Returns `true` for a single-leaf tree's (empty) proof.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }
}

crate::encode_fields!(ProofStep {
    sibling,
    sibling_on_left
});
crate::decode_fields!(ProofStep {
    sibling,
    sibling_on_left
});

crate::encode_fields!(MerkleProof { path });
crate::decode_fields!(MerkleProof { path });

// SHA-256 is exposed through Cid::digest; keep the direct import used.
const _: fn(&[u8]) -> [u8; 32] = sha256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_has_nil_root() {
        let t = MerkleTree::from_items::<u64>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.root(), Cid::NIL);
        assert_eq!(t.prove(0), None);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash_and_proof_is_empty() {
        let t = MerkleTree::from_items(&[42u64]);
        assert_eq!(t.len(), 1);
        let proof = t.prove(0).unwrap();
        assert!(proof.is_empty());
        assert!(proof.verify(&42u64, t.root()));
        assert!(!proof.verify(&43u64, t.root()));
    }

    #[test]
    fn all_leaves_prove_for_various_sizes() {
        for n in 1..=17u64 {
            let items: Vec<u64> = (0..n).collect();
            let t = MerkleTree::from_items(&items);
            for (i, item) in items.iter().enumerate() {
                let proof = t.prove(i).unwrap();
                assert!(proof.verify(item, t.root()), "n={n} i={i}");
                // Wrong item fails.
                assert!(!proof.verify(&(item + 1000), t.root()), "n={n} i={i}");
            }
            assert!(t.prove(n as usize).is_none());
        }
    }

    #[test]
    fn root_changes_with_any_leaf_change_or_reorder() {
        let root = |items: &[u64]| MerkleTree::from_items(items).root();
        let base = root(&[1, 2, 3, 4]);
        assert_ne!(base, root(&[1, 2, 3, 5]));
        assert_ne!(base, root(&[1, 2, 4, 3]));
        assert_ne!(base, root(&[1, 2, 3]));
        assert_ne!(base, root(&[1, 2, 3, 4, 4]));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A 2-leaf tree's root must differ from the leaf hash of the
        // concatenated child digests (tag separation).
        let t = MerkleTree::from_items(&[1u64, 2u64]);
        let l0 = leaf_hash(&1u64.canonical_bytes());
        let l1 = leaf_hash(&2u64.canonical_bytes());
        let mut concat = Vec::new();
        concat.extend_from_slice(l0.as_bytes());
        concat.extend_from_slice(l1.as_bytes());
        assert_ne!(t.root(), leaf_hash(&concat));
    }

    #[test]
    fn proof_for_one_index_does_not_verify_another_leaf() {
        let items: Vec<u64> = (0..8).collect();
        let t = MerkleTree::from_items(&items);
        let proof_for_2 = t.prove(2).unwrap();
        assert!(!proof_for_2.verify(&items[3], t.root()));
    }

    #[test]
    fn from_leaf_hashes_matches_from_leaf_bytes() {
        for n in 0..=17u64 {
            let leaves: Vec<Vec<u8>> = (0..n).map(|i| i.canonical_bytes()).collect();
            let direct = MerkleTree::from_leaf_bytes(leaves.iter());
            let hashes: Vec<Cid> = leaves.iter().map(|b| leaf_digest(b)).collect();
            let prehashed = MerkleTree::from_leaf_hashes(hashes);
            assert_eq!(direct, prehashed, "n={n}");
        }
    }
}
