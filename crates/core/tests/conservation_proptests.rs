//! Property-based whole-hierarchy tests: under *randomized* topologies and
//! cross-net traffic, the supply invariants always hold and the hierarchy
//! always converges.

mod common;

use proptest::prelude::*;

use common::{whole, Harness};
use hc_actors::sa::SaConfig;
use hc_core::{RuntimeConfig, UserHandle};
use hc_types::SubnetId;

/// A randomized scenario: a hierarchy shape and a transfer schedule over
/// abstract endpoint indices.
#[derive(Debug, Clone)]
struct Scenario {
    /// Number of sibling subnets under the root (1..=3), each optionally
    /// with one nested child.
    siblings: usize,
    nested: bool,
    /// Transfers: (from_endpoint, to_endpoint, whole tokens). Endpoints
    /// index into [root_user, subnet users…].
    transfers: Vec<(usize, usize, u64)>,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..=3,
        any::<bool>(),
        prop::collection::vec((0usize..8, 0usize..8, 1u64..20), 1..25),
        0u64..1_000,
    )
        .prop_map(|(siblings, nested, transfers, seed)| Scenario {
            siblings,
            nested,
            transfers,
            seed,
        })
}

/// The scenario's hierarchy with its transfer endpoints funded: the root
/// user holds 10 000 HC, each sibling's user 500 and each nested user 200.
fn funded_endpoints(scenario: &Scenario) -> (Harness, Vec<UserHandle>) {
    let config = RuntimeConfig {
        seed: scenario.seed,
        ..RuntimeConfig::default()
    };
    let mut h = Harness::with(config, 1_000_000);
    let root = SubnetId::root();
    let mut endpoints = vec![h.rt.create_user(&root, whole(10_000)).unwrap()];

    for _ in 0..scenario.siblings {
        let subnet = h.spawn(&h.alice.clone(), SaConfig::default());
        let u = h.user(&subnet);
        h.rt.cross_transfer(&h.alice, &u, whole(500)).unwrap();
        endpoints.push(u);

        if scenario.nested {
            let creator = h.user(&subnet);
            h.fund(&creator, 100);
            let stake = [(creator.clone(), whole(5))];
            let sa = SaConfig::default();
            let deep = h.rt.spawn_subnet(&creator, sa, whole(10), &stake).unwrap();
            let du = h.user(&deep);
            h.rt.cross_transfer(&h.alice, &du, whole(200)).unwrap();
            endpoints.push(du);
        }
    }
    h.settle();
    (h, endpoints)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // whole-hierarchy runs are heavy; a dozen random shapes
        ..ProptestConfig::default()
    })]

    /// Random transfer schedules over random topologies: every run drains,
    /// conserves supply globally, and balances per-edge.
    #[test]
    fn random_traffic_conserves_supply(scenario in arb_scenario()) {
        let (mut h, endpoints) = funded_endpoints(&scenario);
        let minted = h.rt.root_minted();

        for &(from_i, to_i, amount) in &scenario.transfers {
            let from = &endpoints[from_i % endpoints.len()];
            let to = &endpoints[to_i % endpoints.len()];
            if from.addr == to.addr {
                continue;
            }
            let amount = whole(amount);
            if from.subnet == to.subnet {
                // Intra-subnet transfer.
                let _ = h.rt.submit(from, to.addr, amount, hc_state::Method::Send);
            } else if h.rt.balance(from) >= amount {
                h.rt.cross_transfer_lazy(from, to, amount).unwrap();
            }
        }

        // Draining checks escrow, global conservation and per-edge backing.
        let blocks = h.settle();
        prop_assert!(blocks < 200_000, "hierarchy failed to drain");
        prop_assert!(h.rt.all_quiescent());

        // Global conservation: minted at root never changes.
        prop_assert_eq!(h.rt.root_minted(), minted);

        // Deterministic replay: the same scenario reproduces the same
        // chain heads.
        let (mut h2, endpoints2) = funded_endpoints(&scenario);
        for &(from_i, to_i, amount) in &scenario.transfers {
            let from = &endpoints2[from_i % endpoints2.len()];
            let to = &endpoints2[to_i % endpoints2.len()];
            if from.addr == to.addr {
                continue;
            }
            let amount = whole(amount);
            if from.subnet == to.subnet {
                let _ = h2.rt.submit(from, to.addr, amount, hc_state::Method::Send);
            } else if h2.rt.balance(from) >= amount {
                h2.rt.cross_transfer_lazy(from, to, amount).unwrap();
            }
        }
        h2.settle();
        for e in &endpoints {
            let e2 = endpoints2.iter().find(|x| x.addr == e.addr).unwrap();
            prop_assert_eq!(h.rt.balance(e), h2.rt.balance(e2), "replay diverged at {}", e);
        }
    }

    /// Every committed checkpoint chain stays light-client verifiable
    /// under random traffic.
    #[test]
    fn checkpoint_chains_always_verify(scenario in arb_scenario()) {
        let (mut h, endpoints) = funded_endpoints(&scenario);
        for &(from_i, to_i, amount) in &scenario.transfers {
            let from = &endpoints[from_i % endpoints.len()];
            let to = &endpoints[to_i % endpoints.len()];
            if from.addr == to.addr || from.subnet == to.subnet {
                continue;
            }
            if h.rt.balance(from) >= whole(amount) {
                h.rt.cross_transfer_lazy(from, to, whole(amount)).unwrap();
            }
        }
        // Settling verifies every live child's checkpoint chain.
        h.settle();
    }
}
