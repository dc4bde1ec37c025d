//! Property tests of mempool admission control: selection is a pure
//! function of the admitted set (push order never matters), the
//! over-capacity flood converges to one surviving set with the byte bound
//! holding at every step, the pool's ledger closes after every operation
//! of any sequence, and the admission → selection → execution pipeline is
//! bit-identical at every `parallelism` setting.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use hc_actors::ScaConfig;
use hc_chain::{
    execute_block_with, produce_block_with, ExecOptions, Mempool, MempoolConfig, PushOutcome,
};
use hc_state::{Message, SealedMessage, StateTree};
use hc_types::{
    Address, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, Signature, SubnetId, TokenAmount,
};

const USERS: u64 = 12;

fn keypair(i: u64) -> Keypair {
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x9b;
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

/// A signed transfer with dense per-sender nonces, shaped identically
/// across the whole payload so every message costs the same wire bytes.
fn payload(ops: &[(u64, u64)]) -> Vec<SealedMessage> {
    let mut nonces = [0u64; USERS as usize];
    ops.iter()
        .map(|&(from_sel, to_sel)| {
            let from = from_sel % USERS;
            let nonce = nonces[from as usize];
            nonces[from as usize] += 1;
            SealedMessage::new(
                Message::transfer(
                    Address::new(100 + from),
                    Address::new(100 + to_sel % USERS),
                    TokenAmount::from_atto(7),
                    Nonce::new(nonce),
                )
                .sign(&keypair(from)),
            )
        })
        .collect()
}

/// Fisher–Yates driven by a tiny LCG: a deterministic permutation of
/// `msgs` from the generated seed.
fn shuffled(msgs: &[SealedMessage], mut seed: u64) -> Vec<SealedMessage> {
    let mut out: Vec<SealedMessage> = msgs.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.swap(i, (seed >> 33) as usize % (i + 1));
    }
    out
}

fn selection(pool: &Mempool) -> Vec<Cid> {
    pool.select(usize::MAX)
        .iter()
        .map(|m| m.msg_cid())
        .collect()
}

/// A transfer from `from` at `nonce`, told apart from others at the same
/// slot by `to`.
fn transfer(from: u64, nonce: u64, to: u64) -> SealedMessage {
    SealedMessage::new(
        Message::transfer(
            Address::new(100 + from),
            Address::new(100 + to),
            TokenAmount::from_atto(7),
            Nonce::new(nonce),
        )
        .sign(&keypair(from)),
    )
}

/// What the pool must hold after each operation, kept by the test from
/// push outcomes, drained evictions, and the state its inclusions
/// executed against.
struct Ledger {
    /// Held messages by `(sender, nonce)`.
    held: BTreeMap<(Address, Nonce), SealedMessage>,
    /// The committed state every included message executed against, in
    /// inclusion order; a sender's floor is its account nonce here.
    tree: StateTree,
    /// Senders of included messages, executed or rejected.
    committed: BTreeSet<Address>,
    /// Messages removed by inclusion, in inclusion order.
    included: Vec<SealedMessage>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            held: BTreeMap::new(),
            tree: genesis(),
            committed: BTreeSet::new(),
            included: Vec::new(),
        }
    }

    /// The nonce `sender`'s account expects next.
    fn account_nonce(&self, sender: Address) -> Nonce {
        self.tree
            .accounts()
            .get(sender)
            .expect("a genesis user")
            .nonce
    }

    /// Checks `pool` against the ledger: message count, bytes held, the
    /// number of senders with a floor, and each sender's next nonce — one
    /// past its highest held nonce, or else its account nonce.
    fn check(&self, pool: &Mempool) {
        assert_eq!(pool.len(), pool.iter().count(), "the kept count drifted");
        assert_eq!(pool.len(), self.held.len());
        assert_eq!(pool.is_empty(), self.held.is_empty());
        let bytes: usize = pool
            .iter()
            .map(|m| m.signed().canonical_bytes().len())
            .sum();
        assert_eq!(pool.occupancy_bytes(), bytes, "occupancy leaked");
        assert!(pool
            .iter()
            .all(|m| self.held.get(&(m.message().from, m.message().nonce)) == Some(m)));
        assert_eq!(
            pool.committed_senders(),
            self.committed.len(),
            "the pool tracks exactly the senders it saw included"
        );
        let stats = pool.stats();
        assert_eq!(
            stats.admitted - stats.evicted - self.included.len() as u64,
            pool.len() as u64,
            "admissions minus evictions minus inclusions must be what is held"
        );
        for sender in (0..USERS).map(|i| Address::new(100 + i)) {
            let account = self.account_nonce(sender);
            let tail = self
                .held
                .range((sender, Nonce::ZERO)..=(sender, Nonce::new(u64::MAX)))
                .next_back();
            let expected = tail.map_or(account, |((_, nonce), _)| nonce.next());
            assert_eq!(pool.next_nonce(sender, account), expected, "{sender}");
        }
    }
}

proptest! {
    /// With no byte bound, the pool's state — and therefore the selected
    /// block order — is a pure function of the admitted *set*: pushing
    /// any permutation of the same messages, with the same per-message
    /// fees, selects the identical sequence (fees descending, equal fees
    /// in ascending message-CID order, lanes in nonce order).
    #[test]
    fn selection_is_push_order_invariant(
        ops in prop::collection::vec((0u64..USERS, 0u64..USERS), 1..64),
        fees in prop::collection::vec(0u64..5, 64),
        seed in any::<u64>(),
    ) {
        let msgs = payload(&ops);
        let mut a = Mempool::new();
        for (i, m) in msgs.iter().enumerate() {
            prop_assert!(a.push_sealed_with_fee(m.clone(), fees[i % fees.len()]).is_admitted());
        }
        let mut b = Mempool::new();
        // The permutation must carry each message's fee with it.
        let indexed: Vec<(SealedMessage, u64)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), fees[i % fees.len()]))
            .collect();
        let mut perm = indexed;
        let mut s = seed;
        for i in (1..perm.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        for (m, fee) in &perm {
            prop_assert!(b.push_sealed_with_fee(m.clone(), *fee).is_admitted());
        }
        prop_assert_eq!(selection(&a), selection(&b));
        prop_assert_eq!(a.occupancy_bytes(), b.occupancy_bytes());
    }

    /// Flooding a bounded pool with equal-fee, equal-size messages: the
    /// byte budget holds after *every* push (and at the high-water mark),
    /// the books balance, and replaying the identical flood is
    /// bit-identical — eviction never consults anything but the pool.
    #[test]
    fn flood_never_exceeds_byte_bound(
        ops in prop::collection::vec((0u64..USERS, 0u64..USERS), 8..96),
        capacity_msgs in 2usize..24,
    ) {
        let msgs = payload(&ops);
        let bytes_each = msgs[0].signed().canonical_bytes().len();
        let cap = capacity_msgs * bytes_each;
        let config = MempoolConfig { capacity_bytes: cap };

        let mut a = Mempool::with_config(config);
        for m in &msgs {
            let outcome = a.push_sealed_with_fee(m.clone(), 3);
            prop_assert!(matches!(outcome, PushOutcome::Admitted | PushOutcome::Full));
            prop_assert!(a.occupancy_bytes() <= cap, "bound violated mid-flood");
        }
        let stats = a.stats();
        prop_assert!(stats.high_water_bytes <= cap as u64);
        prop_assert_eq!(stats.admitted - stats.evicted, a.len() as u64);
        prop_assert_eq!(
            stats.admitted + stats.rejected_full,
            msgs.len() as u64,
            "every push was either admitted or refused"
        );

        let mut b = Mempool::with_config(config);
        for m in &msgs {
            b.push_sealed_with_fee(m.clone(), 3);
        }
        prop_assert_eq!(selection(&a), selection(&b), "replaying the flood must be bit-identical");
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// With one message per sender (every lane a singleton, so every
    /// message is always an eviction candidate), an equal-fee flood
    /// converges to exactly the `capacity` highest message CIDs no matter
    /// what order it arrived in: eviction discards the lowest `(fee,
    /// CID)` first, and selection emits the survivors in ascending CID
    /// order.
    ///
    /// (Multi-message lanes are deliberately excluded — only lane *tails*
    /// are eviction candidates there, so a message refused while its
    /// lane-mate shielded it never returns, and the surviving set
    /// legitimately depends on arrival order.)
    #[test]
    fn singleton_lane_flood_converges_independent_of_order(
        senders in 8u64..80,
        capacity_msgs in 2usize..24,
        seed in any::<u64>(),
    ) {
        let msgs: Vec<SealedMessage> = (0..senders)
            .map(|i| {
                SealedMessage::new(
                    Message::transfer(
                        Address::new(1_000 + i),
                        Address::new(5_000 + i),
                        TokenAmount::from_atto(7),
                        Nonce::new(0),
                    )
                    .sign(&keypair(1_000 + i)),
                )
            })
            .collect();
        let bytes_each = msgs[0].signed().canonical_bytes().len();
        let config = MempoolConfig {
            capacity_bytes: capacity_msgs * bytes_each,
        };

        // Oracle: survivors are the top `capacity_msgs` CIDs, selected in
        // ascending CID order (fees are all equal).
        let mut expected: Vec<Cid> = msgs.iter().map(|m| m.msg_cid()).collect();
        expected.sort();
        if expected.len() > capacity_msgs {
            expected.drain(..expected.len() - capacity_msgs);
        }

        for order in [msgs.clone(), shuffled(&msgs, seed), shuffled(&msgs, seed ^ 0xdead_beef)] {
            let mut pool = Mempool::with_config(config);
            for m in order {
                pool.push_sealed_with_fee(m, 3);
                prop_assert!(pool.occupancy_bytes() <= config.capacity_bytes);
            }
            prop_assert_eq!(selection(&pool), expected.clone());
        }
    }

    /// The pool's ledger closes after every operation of a random sequence
    /// of pushes (fresh, duplicate, forged, same-nonce conflicts, and
    /// replays of included messages), evictions under a byte cap, and
    /// blocks executed against a real state tree: the kept count is the
    /// held count, occupancy is the held messages' canonical bytes, and
    /// the pool keeps a floor for exactly the senders it saw included.
    /// Every push's outcome is the one the ledger predicts: a message at a
    /// nonce its account spent is a duplicate, while one a block included
    /// and execution rejected (a lane left with a gap by eviction) may be
    /// admitted again.
    #[test]
    fn the_pool_ledger_closes_after_every_operation(
        ops in prop::collection::vec((0u64..8, 0u64..USERS, 0u64..64, 0u64..5), 1..96),
        capacity_msgs in 0usize..10,
    ) {
        let bytes_each = transfer(0, 0, 0).wire_len();
        let mut pool = Mempool::with_config(MempoolConfig {
            capacity_bytes: capacity_msgs * bytes_each,
        });
        let mut ledger = Ledger::new();
        let mut epoch = ChainEpoch::new(0);
        let mut cursors = [0u64; USERS as usize];
        let mut history: Vec<SealedMessage> = Vec::new();
        for (kind, sender, pick, fee) in ops {
            let push = match kind {
                // A fresh message at the sender's next nonce.
                0..=2 => {
                    let m = transfer(sender, cursors[sender as usize], pick % USERS);
                    cursors[sender as usize] += 1;
                    history.push(m.clone());
                    Some((m, true))
                }
                // A copy of an earlier message, as a peer re-gossips it.
                3 if !history.is_empty() => {
                    let m = &history[pick as usize % history.len()];
                    Some((SealedMessage::new(m.signed().clone()), true))
                }
                // A forgery: a fresh message with a tag its key never made.
                4 => {
                    let mut forged = transfer(sender, cursors[sender as usize], pick)
                        .into_signed();
                    forged.signature = Signature::new_unchecked(keypair(sender).public(), [7; 32]);
                    Some((SealedMessage::new(forged), false))
                }
                // Another message at a pending (sender, nonce).
                5 if !ledger.held.is_empty() => {
                    let slot = pick as usize % ledger.held.len();
                    let (from, nonce) = *ledger.held.keys().nth(slot).unwrap();
                    let to = USERS + pick % USERS;
                    Some((transfer(from.id() - 100, nonce.value(), to), true))
                }
                // A copy of an included message, replayed.
                7 if !ledger.included.is_empty() => {
                    let m = &ledger.included[pick as usize % ledger.included.len()];
                    Some((SealedMessage::new(m.signed().clone()), true))
                }
                _ => None,
            };
            if kind == 6 {
                // A block: the selection executes against the committed
                // state, then the pool settles it as a node does.
                let picked = pool.select(pick as usize % 8);
                epoch = epoch.next();
                produce_block_with(
                    &mut ledger.tree,
                    SubnetId::root(),
                    epoch,
                    Cid::NIL,
                    vec![],
                    picked.clone(),
                    &keypair(0),
                    1_000,
                    ExecOptions::default(),
                );
                pool.remove_included(picked.iter());
                for m in &picked {
                    let from = m.message().from;
                    ledger.held.remove(&(from, m.message().nonce));
                    ledger.committed.insert(from);
                    pool.set_floor(from, ledger.account_nonce(from));
                }
                ledger.included.extend(picked);
            } else {
                let Some((m, valid)) = push else { continue };
                let slot = (m.message().from, m.message().nonce);
                let spent = slot.1 < ledger.account_nonce(slot.0);
                let duplicate = spent || ledger.held.contains_key(&slot);
                let evicted = pool.stats().evicted;
                let outcome = pool.push_sealed_with_fee(m.clone(), fee);
                if duplicate {
                    prop_assert_eq!(outcome, PushOutcome::Duplicate);
                } else if !valid {
                    prop_assert_eq!(outcome, PushOutcome::Invalid);
                } else {
                    prop_assert!(matches!(outcome, PushOutcome::Admitted | PushOutcome::Full));
                }
                prop_assert!(!spent || outcome == PushOutcome::Duplicate);
                if outcome.is_admitted() {
                    ledger.held.insert(slot, m);
                }
                // Admission control drops lane tails, and counts each
                // one it drops, the refused arrival aside.
                let kept: BTreeSet<(Address, Nonce)> = pool
                    .iter()
                    .map(|m| (m.message().from, m.message().nonce))
                    .collect();
                let dropped: Vec<(Address, Nonce)> =
                    ledger.held.keys().filter(|s| !kept.contains(s)).copied().collect();
                for slot in dropped.iter().rev() {
                    let tail = ledger
                        .held
                        .range((slot.0, Nonce::ZERO)..=(slot.0, Nonce::new(u64::MAX)))
                        .next_back()
                        .map(|(s, _)| *s);
                    prop_assert_eq!(tail, Some(*slot), "only a lane's tail is evicted");
                    ledger.held.remove(slot);
                }
                prop_assert_eq!(dropped.len() as u64, pool.stats().evicted - evicted);
            }
            ledger.check(&pool);
        }
    }

    /// The whole admission → selection → block production → validation
    /// pipeline yields bit-identical receipts, blocks, and state roots at
    /// parallelism 1, 2, 4, and 8.
    #[test]
    fn selected_blocks_execute_identically_across_parallelism(
        ops in prop::collection::vec((0u64..USERS, 0u64..USERS), 1..64),
        fees in prop::collection::vec(0u64..9, 64),
    ) {
        let msgs = payload(&ops);
        let mut pool = Mempool::new();
        for (i, m) in msgs.iter().enumerate() {
            prop_assert!(pool.push_sealed_with_fee(m.clone(), fees[i % fees.len()]).is_admitted());
        }
        let selected = pool.select(usize::MAX);
        let proposer = keypair(0);

        let mut ref_tree = genesis();
        let reference = produce_block_with(
            &mut ref_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            selected.clone(),
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        let ref_root = ref_tree.flush();

        for parallelism in [1usize, 2, 4, 8] {
            let opts = ExecOptions { sig_cache: None, parallelism };
            let mut tree = genesis();
            let produced = produce_block_with(
                &mut tree,
                SubnetId::root(),
                ChainEpoch::new(1),
                Cid::NIL,
                vec![],
                selected.clone(),
                &proposer,
                1_000,
                opts,
            );
            prop_assert_eq!(&produced.receipts, &reference.receipts);
            prop_assert_eq!(&produced.block, &reference.block);
            prop_assert_eq!(tree.flush(), ref_root);

            let mut validator = genesis();
            let receipts = execute_block_with(&mut validator, &reference.block, opts).unwrap();
            prop_assert_eq!(&receipts, &reference.receipts);
            prop_assert_eq!(validator.flush(), ref_root);
        }
    }
}
