//! Property-based tests of the chunked state commitment: the incremental,
//! dirty-tracked root must be bit-identical to a from-scratch recompute and
//! to the root of a freshly rebuilt tree, at any flush cadence, and the
//! copy-on-write overlay must agree with direct execution.

use proptest::prelude::*;

use hc_actors::{CrossMsg, HcAddress, ScaConfig};
use hc_state::{
    apply_implicit, apply_sealed, ImplicitMsg, Message, Method, SealedMessage, StateAccess,
    StateOverlay, StateTree,
};
use hc_types::{Address, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount};

const USERS: u64 = 4;

/// The state under test belongs to a child subnet, so its users can send
/// bottom-up messages and its checkpoint cuts carry groups.
fn subnet() -> SubnetId {
    SubnetId::root().child(Address::new(9))
}

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x7c;
    Keypair::from_seed(seed)
}

fn genesis() -> StateTree {
    StateTree::genesis(
        subnet(),
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

/// One abstract operation. `TransferFresh` sends value to a previously
/// unseen address, creating a new account chunk (a structural change to
/// the commitment, not just a leaf update). `CrossUp` queues a bottom-up
/// message in the SCA's checkpoint window (towards the parent or a sibling
/// branch — two possible groups) and `Cut` cuts the checkpoint, appending
/// the window's groups, if any, to the content registry.
#[derive(Debug, Clone)]
enum Op {
    CrossUp { who: u64, sibling: bool, atto: u64 },
    Cut { epoch: u8 },
    Transfer { from: u64, to: u64, atto: u64 },
    TransferFresh { from: u64, fresh: u8, atto: u64 },
    Put { who: u64, key: u8, val: u8 },
    Lock { who: u64, key: u8 },
    Unlock { who: u64, key: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..USERS, any::<bool>(), 1u64..10_000_000).prop_map(|(who, sibling, atto)| Op::CrossUp {
            who,
            sibling,
            atto
        }),
        any::<u8>().prop_map(|epoch| Op::Cut { epoch }),
        (0..USERS, 0..USERS, 1u64..10_000_000).prop_map(|(from, to, atto)| Op::Transfer {
            from,
            to,
            atto
        }),
        (0..USERS, any::<u8>(), 1u64..10_000_000).prop_map(|(from, fresh, atto)| {
            Op::TransferFresh {
                from,
                fresh: fresh % 8,
                atto,
            }
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

/// Applies one op to any state implementation.
fn apply_op<S: StateAccess>(tree: &mut S, op: &Op, nonces: &mut [Nonce]) {
    let (who, to, value, method) = match op {
        Op::Cut { epoch } => {
            let proof = Cid::digest(&[*epoch]);
            let cut = ImplicitMsg::CutCheckpoint { proof };
            apply_implicit(tree, ChainEpoch::new(u64::from(*epoch)), &cut);
            return;
        }
        Op::CrossUp { who, sibling, atto } => {
            let value = TokenAmount::from_atto(u128::from(*atto));
            let dest = if *sibling {
                SubnetId::root().child(Address::new(10))
            } else {
                SubnetId::root()
            };
            let msg = CrossMsg::transfer(
                HcAddress::new(subnet(), Address::new(100 + who)),
                HcAddress::new(dest, Address::new(7)),
                value,
            );
            (
                *who,
                Address::SCA,
                value,
                Method::SendCrossMsg { msg: msg.into() },
            )
        }
        Op::Transfer { from, to, atto } => (
            *from,
            Address::new(100 + to),
            TokenAmount::from_atto(u128::from(*atto)),
            Method::Send,
        ),
        Op::TransferFresh { from, fresh, atto } => (
            *from,
            Address::new(500 + u64::from(*fresh)),
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
    apply_sealed(tree, ChainEpoch::new(1), &sealed, sealed.verify_signature());
}

/// The headline acceptance number: at 10 000 accounts with 10 touched
/// between flushes, the incremental path hashes at least 10× fewer bytes
/// than a full commitment rebuild.
#[test]
fn incremental_flush_hashes_10x_fewer_bytes_at_10k_accounts() {
    let key = keypair(0).public();
    let mut tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..10_000u64).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
    );
    tree.flush();
    let full_bytes = {
        let mut fresh = tree.rebuilt();
        fresh.flush();
        fresh.commit_stats().bytes_hashed
    };

    let before = tree.commit_stats().bytes_hashed;
    for t in 0..10u64 {
        tree.accounts_mut()
            .get_or_create(Address::new(100 + t))
            .balance = TokenAmount::from_atto(42);
    }
    tree.flush();
    let incremental_bytes = tree.commit_stats().bytes_hashed - before;

    eprintln!(
        "full build: {full_bytes} bytes hashed; incremental (10 touched): {incremental_bytes}"
    );
    assert!(incremental_bytes > 0, "touched chunks must be rehashed");
    assert!(
        full_bytes >= 10 * incremental_bytes,
        "expected >=10x reduction: full {full_bytes} vs incremental {incremental_bytes}"
    );
}

/// The `CrossUp`/`Cut` ops do what the properties below rely on: a cut
/// after bottom-up sends appends its groups to the registry, where
/// `resolve_content` serves them.
#[test]
fn cut_ops_append_groups_to_the_registry() {
    let mut tree = genesis();
    let mut nonces = vec![Nonce::ZERO; USERS as usize];
    let up = |sibling| Op::CrossUp {
        who: 1,
        sibling,
        atto: 5,
    };
    apply_op(&mut tree, &up(false), &mut nonces);
    apply_op(&mut tree, &up(true), &mut nonces);
    let cut = ImplicitMsg::CutCheckpoint {
        proof: Cid::digest(b"head"),
    };
    let receipt = apply_implicit(&mut tree, ChainEpoch::new(10), &cut);
    let Some(hc_state::VmEvent::CheckpointCut { checkpoint }) = receipt.events.first() else {
        panic!("cut emits its checkpoint: {receipt:?}");
    };
    assert_eq!(checkpoint.cross_msgs.len(), 2, "one group per destination");
    for meta in &checkpoint.cross_msgs {
        let msgs = tree.resolve_content(&meta.msgs_cid).expect("registered");
        assert!(meta.matches(msgs));
    }
    let with_groups = tree.flush();
    assert_eq!(with_groups, tree.recompute_root());
    // An empty cut still moves the root (the SCA's prev pointer) and the
    // earlier groups stay served.
    apply_op(&mut tree, &Op::Cut { epoch: 20 }, &mut nonces);
    assert_ne!(tree.flush(), with_groups);
    assert_eq!(tree.flush(), tree.rebuilt().flush());
    for meta in &checkpoint.cross_msgs {
        assert!(tree.resolve_content(&meta.msgs_cid).is_some());
    }
}

proptest! {
    /// The incremental root equals a from-scratch recompute over the
    /// canonical chunk blobs, and equals the root a freshly rebuilt tree
    /// (commitment cache discarded, as after decoding from storage)
    /// derives from the same content — regardless of flush cadence.
    #[test]
    fn incremental_root_is_bit_identical_to_recompute(
        ops in prop::collection::vec(arb_op(), 1..60),
        cadence in 1usize..8,
    ) {
        let mut eager = genesis();   // flushes every `cadence` ops
        let mut lazy = genesis();    // flushes once at the end
        let mut nonces_a = vec![Nonce::ZERO; USERS as usize];
        let mut nonces_b = vec![Nonce::ZERO; USERS as usize];
        for (i, op) in ops.iter().enumerate() {
            apply_op(&mut eager, op, &mut nonces_a);
            apply_op(&mut lazy, op, &mut nonces_b);
            if i % cadence == 0 {
                let flushed = eager.flush();
                prop_assert_eq!(flushed, eager.recompute_root());
            }
        }
        let incremental = eager.flush();
        prop_assert_eq!(incremental, lazy.flush(), "flush cadence changed the root");
        prop_assert_eq!(incremental, eager.recompute_root(), "incremental != from-scratch");
        prop_assert_eq!(incremental, eager.rebuilt().flush(), "rebuilt tree disagrees");
    }

    /// Executing a schedule on a copy-on-write overlay yields the same
    /// root as executing it directly on the tree, and applying the
    /// overlay's changes brings the base tree to that root.
    #[test]
    fn overlay_root_matches_direct_execution(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let mut direct = genesis();
        let mut nonces = vec![Nonce::ZERO; USERS as usize];
        for op in &ops {
            apply_op(&mut direct, op, &mut nonces);
        }
        let direct_root = direct.flush();

        let mut base = genesis();
        base.flush();
        let mut overlay = StateOverlay::new(&base);
        let mut nonces = vec![Nonce::ZERO; USERS as usize];
        for op in &ops {
            apply_op(&mut overlay, op, &mut nonces);
        }
        prop_assert_eq!(overlay.root(), direct_root, "overlay root diverged");

        let changes = overlay.into_changes();
        prop_assert_eq!(changes.root(), direct_root, "candidate root diverged");
        base.apply_changes(changes);
        // The overlay's candidate commitment was installed with the
        // content: the flush that follows (as after `execute_block_with`)
        // hashes nothing.
        prop_assert!(base.is_committed());
        let hashed = base.commit_stats().bytes_hashed;
        prop_assert_eq!(base.flush(), direct_root, "applied changes diverged");
        prop_assert_eq!(base.commit_stats().bytes_hashed, hashed, "flush re-hashed");
        prop_assert_eq!(base.recompute_root(), direct_root);
        prop_assert_eq!(base.rebuilt().flush(), direct_root);

        // A second block on the applied base keeps agreeing: the installed
        // HAMT/AMT clones are what the next candidate builds on.
        let mut again = StateOverlay::new(&base);
        let mut nonces_direct = nonces.clone();
        for op in &ops {
            apply_op(&mut again, op, &mut nonces);
            apply_op(&mut direct, op, &mut nonces_direct);
        }
        prop_assert_eq!(again.root(), direct.flush(), "second overlay diverged");
    }
}
