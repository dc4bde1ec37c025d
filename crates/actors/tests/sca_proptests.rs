//! Property-based tests for the SCA: supply conservation and the firewall
//! bound under randomized cross-net traffic, and the checkpoint window's
//! carried digest against a from-scratch hash.

use proptest::prelude::*;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::ledger::MapLedger;
use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, Ledger, MsgGroup, ScaConfig, ScaState};
use hc_types::crypto::sha256;
use hc_types::{Address, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid, SubnetId, TokenAmount};

/// One step applied to a child SCA's checkpoint window.
#[derive(Debug, Clone)]
enum WindowOp {
    /// A bottom-up message to the parent, worth `value` atto.
    SendUp { value: u64 },
    /// A path message to a sibling branch: its bottom-up leg queues here.
    SendAcross { value: u64 },
    /// A top-down message that failed here: its revert queues bottom-up.
    Revert { value: u64 },
    /// The window is cut into a checkpoint.
    Cut,
    /// The state goes through its canonical encoding and back.
    Reencode,
}

fn arb_window_op() -> impl Strategy<Value = WindowOp> {
    prop_oneof![
        (1u64..1_000).prop_map(|value| WindowOp::SendUp { value }),
        (1u64..1_000).prop_map(|value| WindowOp::SendAcross { value }),
        (1u64..1_000).prop_map(|value| WindowOp::Revert { value }),
        Just(WindowOp::Cut),
        Just(WindowOp::Reencode),
    ]
}

/// A randomized parent-side scenario: fund the child with a sequence of
/// top-down transfers, then let the child return random amounts bottom-up.
#[derive(Debug, Clone)]
struct Scenario {
    deposits: Vec<u64>,    // whole tokens funded into the child
    withdrawals: Vec<u64>, // whole tokens the child tries to send back
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(1u64..50, 1..10),
        prop::collection::vec(1u64..80, 1..10),
    )
        .prop_map(|(deposits, withdrawals)| Scenario {
            deposits,
            withdrawals,
        })
}

proptest! {
    /// The firewall property: no matter what the child claims bottom-up,
    /// the total value it extracts never exceeds what was injected, and the
    /// parent ledger total is conserved throughout.
    #[test]
    fn firewall_bounds_extraction(scenario in arb_scenario()) {
        let mut sca = ScaState::new(SubnetId::root(), ScaConfig {
            min_collateral: TokenAmount::from_whole(1),
            ..ScaConfig::default()
        });
        let user = Address::new(100);
        let mut ledger = MapLedger::with_balances([(user, TokenAmount::from_whole(10_000))]);
        let initial_total = ledger.total();

        let child = sca
            .register_subnet(&mut ledger, user, Address::new(200),
                TokenAmount::from_whole(1), ChainEpoch::GENESIS)
            .unwrap();

        let mut injected = TokenAmount::ZERO;
        for d in &scenario.deposits {
            let msg = CrossMsg::transfer(
                HcAddress::new(SubnetId::root(), user),
                HcAddress::new(child.clone(), Address::new(300)),
                TokenAmount::from_whole(*d),
            );
            sca.send_cross_msg(&mut ledger, user, msg).unwrap();
            injected += TokenAmount::from_whole(*d);
        }
        prop_assert_eq!(sca.subnet(&child).unwrap().circ_supply, injected);

        // The child now sends back random withdrawals across several
        // checkpoints; each either fully succeeds or is rejected.
        let mut extracted = TokenAmount::ZERO;
        let mut prev = Cid::NIL;
        for (i, w) in scenario.withdrawals.iter().enumerate() {
            let amount = TokenAmount::from_whole(*w);
            let mut ckpt = Checkpoint::template(
                child.clone(), ChainEpoch::new((i as u64 + 1) * 10), prev);
            ckpt.proof = Cid::digest(format!("head{i}").as_bytes());
            let msgs = MsgGroup::seal(vec![CrossMsg::transfer(
                HcAddress::new(child.clone(), Address::new(300)),
                HcAddress::new(SubnetId::root(), Address::new(101)),
                amount,
            )]);
            ckpt.add_cross_meta(CrossMsgMeta::for_group(
                child.clone(), SubnetId::root(), &msgs));

            match sca.commit_child_checkpoint(&mut ledger, &ckpt) {
                Ok(outcome) => {
                    prev = ckpt.cid();
                    let meta = &outcome.applied_here[0];
                    sca.apply_bottom_up(&mut ledger, meta, &msgs).unwrap();
                    extracted += amount;
                }
                Err(e) => {
                    // Only a firewall violation may reject, and only when
                    // the withdrawal exceeds the remaining supply.
                    let is_firewall =
                        matches!(e, hc_actors::ScaError::FirewallViolation { .. });
                    prop_assert!(is_firewall, "unexpected error: {e}");
                    prop_assert!(amount > sca.subnet(&child).unwrap().circ_supply);
                }
            }
        }

        // Firewall bound: extracted <= injected, and bookkeeping agrees.
        prop_assert!(extracted <= injected);
        prop_assert_eq!(
            sca.subnet(&child).unwrap().circ_supply,
            injected - extracted
        );
        // The parent ledger never creates or destroys value.
        prop_assert_eq!(ledger.total(), initial_total);
        // Escrow still covers the remaining circulating supply.
        prop_assert!(ledger.balance(Address::SCA) >= sca.subnet(&child).unwrap().circ_supply);
    }

    /// Top-down nonces are dense and strictly increasing per child,
    /// regardless of interleaving across children.
    #[test]
    fn topdown_nonces_are_dense_per_child(sends in prop::collection::vec(0usize..3, 1..40)) {
        let mut sca = ScaState::new(SubnetId::root(), ScaConfig {
            min_collateral: TokenAmount::from_whole(1),
            ..ScaConfig::default()
        });
        let user = Address::new(100);
        let mut ledger = MapLedger::with_balances([(user, TokenAmount::from_whole(100_000))]);
        let children: Vec<SubnetId> = (0..3)
            .map(|i| {
                sca.register_subnet(&mut ledger, user, Address::new(200 + i),
                    TokenAmount::from_whole(1), ChainEpoch::GENESIS).unwrap()
            })
            .collect();

        for &c in &sends {
            let msg = CrossMsg::transfer(
                HcAddress::new(SubnetId::root(), user),
                HcAddress::new(children[c].clone(), Address::new(300)),
                TokenAmount::from_whole(1),
            );
            sca.send_cross_msg(&mut ledger, user, msg).unwrap();
        }

        let committed = sca.take_outbox();
        prop_assert_eq!(committed.len(), sends.len());
        for child in &children {
            let nonces: Vec<u64> = committed
                .iter()
                .filter(|(c, _)| c == child)
                .map(|(_, m)| m.nonce.value())
                .collect();
            let dense: Vec<u64> = (0..nonces.len() as u64).collect();
            prop_assert_eq!(nonces, dense);
        }
    }

    /// Checkpoint epochs fall exactly on non-zero multiples of the period.
    #[test]
    fn checkpoint_epochs_match_period(period in 1u64..50, epoch in 0u64..1000) {
        let sca = ScaState::new(SubnetId::root(), ScaConfig {
            checkpoint_period: period,
            ..ScaConfig::default()
        });
        let expected = epoch != 0 && epoch % period == 0;
        prop_assert_eq!(sca.is_checkpoint_epoch(ChainEpoch::new(epoch)), expected);
    }

    /// Cut checkpoints always chain: prev pointers form a hash chain.
    #[test]
    fn cut_checkpoints_chain(windows in 1usize..10) {
        let mut sca = ScaState::new(
            SubnetId::root().child(Address::new(200)),
            ScaConfig::default(),
        );
        let mut prev = Cid::NIL;
        for w in 0..windows {
            let (ckpt, _) = sca.cut_checkpoint(
                ChainEpoch::new((w as u64 + 1) * 10),
                Cid::digest(format!("h{w}").as_bytes()),
            );
            prop_assert_eq!(ckpt.prev, prev);
            prev = ckpt.cid();
            prop_assert_eq!(sca.prev_checkpoint(), prev);
        }
    }

    /// The window digest the SCA carries is always the one-shot SHA-256 of
    /// the window's encoding, whatever sequence of sends, reverts, cuts and
    /// encode → decode round trips produced the window; and the bytes it
    /// reports absorbed grow by exactly the queued messages' encodings.
    #[test]
    fn the_carried_window_digest_equals_a_from_scratch_hash(
        ops in prop::collection::vec(arb_window_op(), 1..40),
    ) {
        let child = SubnetId::root().child(Address::new(200));
        let user = Address::new(300);
        let mut sca = ScaState::new(child.clone(), ScaConfig::default());
        let mut ledger = MapLedger::with_balances([(user, TokenAmount::from_whole(1_000))]);
        let at = |subnet: &SubnetId, a| HcAddress::new(subnet.clone(), Address::new(a));
        let sibling = SubnetId::root().child(Address::new(999));
        let mut epoch = 0;
        let mut absorbed = 0;
        for op in &ops {
            let queued = match op {
                WindowOp::SendUp { value } | WindowOp::SendAcross { value } => {
                    let to = match op {
                        WindowOp::SendUp { .. } => at(&SubnetId::root(), 100),
                        _ => at(&sibling, 100),
                    };
                    let msg = CrossMsg::transfer(at(&child, 300), to, TokenAmount::from_atto(u128::from(*value)));
                    Some(sca.send_cross_msg(&mut ledger, user, msg).unwrap())
                }
                WindowOp::Revert { value } => {
                    let failed = CrossMsg::transfer(
                        at(&SubnetId::root(), 100),
                        at(&child, 300),
                        TokenAmount::from_atto(u128::from(*value)),
                    );
                    Some(sca.revert_failed_msg(&mut ledger, &failed).unwrap())
                }
                WindowOp::Cut => {
                    epoch += 10;
                    let (ckpt, groups) = sca.cut_checkpoint(ChainEpoch::new(epoch), Cid::NIL);
                    prop_assert_eq!(ckpt.cross_msgs.len(), groups.len());
                    prop_assert!(sca.window_encoding().is_empty());
                    None
                }
                WindowOp::Reencode => {
                    let bytes = sca.canonical_bytes();
                    sca = ScaState::decode(&bytes).unwrap();
                    prop_assert_eq!(sca.canonical_bytes(), bytes);
                    absorbed = sca.window_encoding().len() as u64;
                    None
                }
            };
            if let Some(msg) = queued {
                absorbed += msg.canonical_bytes().len() as u64;
            }
            prop_assert_eq!(sca.window_digest(), sha256(&sca.window_encoding()), "after {:?}", op);
            prop_assert_eq!(sca.window_bytes_absorbed(), absorbed, "after {:?}", op);
        }
    }
}
