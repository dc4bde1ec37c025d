//! State snapshots and fund recovery (paper §III-C).
//!
//! "A subnet may be killed while it is still holding user funds or useful
//! state. […] the SCA includes a *save* function that allows any
//! participant in the subnet to persist the state. Through this persisted
//! state and the checkpoints committed by the subnet, users are able to
//! provide proof of pending funds held in the subnet […] to be migrated
//! back to the parent."
//!
//! A [`StateSnapshot`] commits to a subnet's balance table with a Merkle
//! root. It is persisted in the *parent's* SCA (so it survives the child),
//! gated by the child's Subnet Actor signature policy. After the child is
//! killed, a user presents a [`BalanceProof`] against the latest snapshot
//! to recover their balance from the parent's escrow — still subject to
//! the firewall bound (total recoveries never exceed the child's
//! circulating supply).

use hc_types::merkle::{MerkleProof, MerkleTree};
use hc_types::{decode_fields, encode_fields, Address, ChainEpoch, Cid, SubnetId, TokenAmount};

/// One balance entry committed by a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceLeaf {
    /// The account.
    pub addr: Address,
    /// Its balance at the snapshot epoch.
    pub amount: TokenAmount,
}

encode_fields!(BalanceLeaf { addr, amount });
decode_fields!(BalanceLeaf { addr, amount });

/// A committed snapshot of a subnet's balance table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// The snapshotted subnet.
    pub subnet: SubnetId,
    /// Epoch (of the subnet chain) the snapshot was taken at.
    pub epoch: ChainEpoch,
    /// Merkle root over the sorted [`BalanceLeaf`] entries.
    pub balances_root: Cid,
    /// Number of accounts committed.
    pub accounts: u64,
    /// Sum of all committed balances.
    pub total: TokenAmount,
}

encode_fields!(StateSnapshot {
    subnet,
    epoch,
    balances_root,
    accounts,
    total
});
decode_fields!(StateSnapshot {
    subnet,
    epoch,
    balances_root,
    accounts,
    total
});

impl StateSnapshot {
    /// Builds a snapshot (and its proof-capable tree) from a balance
    /// table. Leaves are sorted by address so the commitment is canonical.
    pub fn build<I>(subnet: SubnetId, epoch: ChainEpoch, balances: I) -> (Self, SnapshotTree)
    where
        I: IntoIterator<Item = (Address, TokenAmount)>,
    {
        let mut leaves: Vec<BalanceLeaf> = balances
            .into_iter()
            .map(|(addr, amount)| BalanceLeaf { addr, amount })
            .collect();
        leaves.sort_by_key(|l| l.addr);
        let tree = MerkleTree::from_items(&leaves);
        let snapshot = StateSnapshot {
            subnet,
            epoch,
            balances_root: tree.root(),
            accounts: leaves.len() as u64,
            total: leaves.iter().map(|l| l.amount).sum(),
        };
        (snapshot, SnapshotTree { leaves, tree })
    }
}

/// The prover side of a snapshot: the full leaf set plus the Merkle tree,
/// kept by subnet participants to mint [`BalanceProof`]s later.
#[derive(Debug, Clone)]
pub struct SnapshotTree {
    leaves: Vec<BalanceLeaf>,
    tree: MerkleTree,
}

impl SnapshotTree {
    /// Produces the recovery proof for `addr`, or `None` if the address
    /// holds no committed balance.
    pub fn prove(&self, addr: Address) -> Option<BalanceProof> {
        let idx = self.leaves.iter().position(|l| l.addr == addr)?;
        Some(BalanceProof {
            leaf: self.leaves[idx].clone(),
            proof: self.tree.prove(idx).expect("index in range"),
        })
    }

    /// The committed leaves, sorted by address.
    pub fn leaves(&self) -> &[BalanceLeaf] {
        &self.leaves
    }
}

/// A Merkle proof that an address held a balance in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceProof {
    /// The claimed leaf.
    pub leaf: BalanceLeaf,
    /// Membership proof against [`StateSnapshot::balances_root`].
    pub proof: MerkleProof,
}

encode_fields!(BalanceProof { leaf, proof });
decode_fields!(BalanceProof { leaf, proof });

impl BalanceProof {
    /// Verifies the proof against a snapshot.
    pub fn verify(&self, snapshot: &StateSnapshot) -> bool {
        self.proof.verify(&self.leaf, snapshot.balances_root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> (StateSnapshot, SnapshotTree) {
        StateSnapshot::build(
            SubnetId::root().child(Address::new(200)),
            ChainEpoch::new(42),
            [
                (Address::new(300), TokenAmount::from_whole(5)),
                (Address::new(100), TokenAmount::from_whole(7)),
                (Address::new(200), TokenAmount::from_whole(1)),
            ],
        )
    }

    #[test]
    fn build_is_canonical_regardless_of_input_order() {
        let (a, _) = snapshot();
        let (b, _) = StateSnapshot::build(
            SubnetId::root().child(Address::new(200)),
            ChainEpoch::new(42),
            [
                (Address::new(100), TokenAmount::from_whole(7)),
                (Address::new(200), TokenAmount::from_whole(1)),
                (Address::new(300), TokenAmount::from_whole(5)),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.total, TokenAmount::from_whole(13));
        assert_eq!(a.accounts, 3);
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let (snap, tree) = snapshot();
        let proof = tree.prove(Address::new(100)).unwrap();
        assert!(proof.verify(&snap));

        // Inflating the claimed amount breaks the proof.
        let mut inflated = proof.clone();
        inflated.leaf.amount = TokenAmount::from_whole(700);
        assert!(!inflated.verify(&snap));

        // A proof does not transfer to another address.
        let mut stolen = proof;
        stolen.leaf.addr = Address::new(999);
        assert!(!stolen.verify(&snap));

        // Unknown addresses have no proof.
        assert!(tree.prove(Address::new(555)).is_none());
    }

    #[test]
    fn proof_against_wrong_snapshot_fails() {
        let (_, tree) = snapshot();
        let (other, _) = StateSnapshot::build(
            SubnetId::root().child(Address::new(200)),
            ChainEpoch::new(43),
            [(Address::new(100), TokenAmount::from_whole(999))],
        );
        let proof = tree.prove(Address::new(100)).unwrap();
        assert!(!proof.verify(&other));
    }
}
