//! Property-based tests of the VM: random message sequences preserve the
//! account invariants and replay deterministically.

use proptest::prelude::*;

use hc_actors::ScaConfig;
use hc_state::{apply_sealed, Message, Method, SealedMessage, StateTree};
use hc_types::{Address, ChainEpoch, Keypair, Nonce, SubnetId, TokenAmount};

const USERS: u64 = 4;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x9e;
    Keypair::from_seed(seed)
}

fn genesis() -> StateTree {
    StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..USERS).map(|i| {
            (
                Address::new(100 + i),
                keypair(i).public(),
                TokenAmount::from_whole(1_000),
            )
        }),
    )
}

/// One abstract operation of the random schedule.
#[derive(Debug, Clone)]
enum Op {
    Transfer { from: u64, to: u64, atto: u64 },
    Put { who: u64, key: u8, val: u8 },
    Lock { who: u64, key: u8 },
    Unlock { who: u64, key: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..USERS, 0..USERS, 1u64..10_000_000).prop_map(|(from, to, atto)| Op::Transfer {
            from,
            to,
            atto
        }),
        (0..USERS, any::<u8>(), any::<u8>()).prop_map(|(who, key, val)| Op::Put {
            who,
            key: key % 4,
            val
        }),
        (0..USERS, any::<u8>()).prop_map(|(who, key)| Op::Lock { who, key: key % 4 }),
        (0..USERS, any::<u8>()).prop_map(|(who, key)| Op::Unlock { who, key: key % 4 }),
    ]
}

fn run_schedule(ops: &[Op]) -> (StateTree, Vec<bool>) {
    let mut tree = genesis();
    let mut nonces = vec![Nonce::ZERO; USERS as usize];
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        let (who, to, value, method) = match op {
            Op::Transfer { from, to, atto } => (
                *from,
                Address::new(100 + to),
                TokenAmount::from_atto(u128::from(*atto)),
                Method::Send,
            ),
            Op::Put { who, key, val } => (
                *who,
                Address::new(100 + who),
                TokenAmount::ZERO,
                Method::PutData {
                    key: vec![*key].into(),
                    data: vec![*val].into(),
                },
            ),
            Op::Lock { who, key } => (
                *who,
                Address::new(100 + who),
                TokenAmount::ZERO,
                Method::LockState { key: vec![*key] },
            ),
            Op::Unlock { who, key } => (
                *who,
                Address::new(100 + who),
                TokenAmount::ZERO,
                Method::UnlockState { key: vec![*key] },
            ),
        };
        let msg = Message {
            from: Address::new(100 + who),
            to,
            value,
            nonce: nonces[who as usize].fetch_increment(),
            method,
        };
        let sealed = SealedMessage::sign(msg, &keypair(who));
        let sig_ok = sealed.verify_signature();
        let receipt = apply_sealed(&mut tree, ChainEpoch::new(1), &sealed, sig_ok);
        assert!(
            !matches!(receipt.exit, hc_state::ExitCode::Rejected(_)),
            "well-formed messages are never rejected: {:?}",
            receipt.exit
        );
        results.push(receipt.exit.is_ok());
    }
    (tree, results)
}

proptest! {
    /// Random schedules conserve total supply (transfers only move value)
    /// and keep nonces dense.
    #[test]
    fn schedules_conserve_supply_and_nonces(ops in prop::collection::vec(arb_op(), 1..60)) {
        let (tree, _) = run_schedule(&ops);
        prop_assert_eq!(
            tree.total_supply(),
            TokenAmount::from_whole(1_000 * USERS)
        );
        // Account nonces equal the number of messages each user sent.
        for i in 0..USERS {
            let sent = ops.iter().filter(|op| matches!(op,
                Op::Transfer { from, .. } if *from == i)
                || matches!(op, Op::Put { who, .. } | Op::Lock { who, .. } | Op::Unlock { who, .. } if *who == i))
                .count() as u64;
            let acc = tree.accounts().get(Address::new(100 + i)).unwrap();
            prop_assert_eq!(acc.nonce, Nonce::new(sent));
        }
    }

    /// The same schedule always produces the same state root, and outcomes
    /// are per-message deterministic.
    #[test]
    fn schedules_replay_deterministically(ops in prop::collection::vec(arb_op(), 1..60)) {
        let (mut tree_a, results_a) = run_schedule(&ops);
        let (mut tree_b, results_b) = run_schedule(&ops);
        prop_assert_eq!(tree_a.flush(), tree_b.flush());
        prop_assert_eq!(results_a, results_b);
        // Cache-independent audit: the from-scratch roots agree too.
        prop_assert_eq!(tree_a.recompute_root(), tree_b.recompute_root());
    }

    /// Locks are exclusive: a Put succeeds iff its key is not currently
    /// locked by a preceding successful Lock without a later Unlock.
    #[test]
    fn lock_semantics_hold(ops in prop::collection::vec(arb_op(), 1..60)) {
        let (_, results) = run_schedule(&ops);
        // Model the lock state per (user, key) and check Put outcomes.
        let mut locked = std::collections::HashSet::new();
        let mut exists = std::collections::HashSet::new();
        for (op, ok) in ops.iter().zip(results) {
            match op {
                Op::Put { who, key, .. } => {
                    let expect = !locked.contains(&(*who, *key));
                    prop_assert_eq!(ok, expect, "Put {:?}", op);
                    if expect {
                        exists.insert((*who, *key));
                    }
                }
                Op::Lock { who, key } => {
                    let expect = exists.contains(&(*who, *key))
                        && !locked.contains(&(*who, *key));
                    prop_assert_eq!(ok, expect, "Lock {:?}", op);
                    if expect {
                        locked.insert((*who, *key));
                    }
                }
                Op::Unlock { who, key } => {
                    let expect = locked.remove(&(*who, *key));
                    prop_assert_eq!(ok, expect, "Unlock {:?}", op);
                }
                Op::Transfer { .. } => {}
            }
        }
    }
}
