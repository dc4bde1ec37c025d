//! Property-based tests for the SCA: supply conservation and the firewall
//! bound under randomized cross-net traffic.

use proptest::prelude::*;

use hc_actors::checkpoint::Checkpoint;
use hc_actors::ledger::MapLedger;
use hc_actors::{CrossMsg, CrossMsgMeta, HcAddress, Ledger, MsgGroup, ScaConfig, ScaState};
use hc_types::{Address, CanonicalEncode, ChainEpoch, Cid, SubnetId, TokenAmount};

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

        for child in &children {
            let queued = sca.top_down_msgs(child, hc_types::Nonce::ZERO);
            for (i, m) in queued.iter().enumerate() {
                prop_assert_eq!(m.nonce, hc_types::Nonce::new(i as u64));
            }
        }
        let total_queued: usize = children
            .iter()
            .map(|c| sca.top_down_msgs(c, hc_types::Nonce::ZERO).len())
            .sum();
        prop_assert_eq!(total_queued, sends.len());
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
}
