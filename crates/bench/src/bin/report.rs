//! The experiment report generator: regenerates every figure scenario of
//! `hc_bench::figures` (F1–F12) and every quantitative experiment table
//! (E1–E10, E13, and E14 — printed as "E14/F14", the geo figure is that
//! table) from DESIGN.md.
//!
//! ```text
//! cargo run -p hc-bench --bin report                  # everything
//! cargo run -p hc-bench --bin report -- --scenario e1 # one experiment
//! cargo run -p hc-bench --bin report -- --quick       # smaller sweeps
//! ```

use hc_sim::experiments::{
    e10_cross_ratio, e13_elasticity, e14_geo, e1_scaling, e2_latency, e3_checkpoints, e4_firewall,
    e5_atomic, e6_consensus, e7_resolution, e8_collateral, e9_certificates, E10Params, E13Params,
    E14Params, E1Params, E2Params, E3Params, E4Params, E5Params, E6Params, E7Params, E8Params,
    E9Params,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);

    let want = |name: &str| scenario.is_none() || scenario == Some(name);

    macro_rules! run {
        ($name:expr, $body:expr) => {
            if want($name) {
                match $body {
                    Ok(table) => println!("{table}"),
                    Err(e) => eprintln!("{} failed: {e}", $name),
                }
            }
        };
    }

    println!("hierarchical-consensus experiment report (virtual-time simulation)\n");

    run!("f1", hc_bench::f1_overview());
    run!("f2", hc_bench::f2_windows());
    run!("f3", hc_bench::f3_commitment());
    run!("f4", hc_bench::f4_resolution());
    run!("f5", hc_bench::f5_atomic());
    run!("f6", hc_bench::f6_snapshot_sharing());
    run!("f7", hc_bench::f7_sig_cache());
    run!("f8", hc_bench::f8_crash_recovery());
    run!("f9", hc_bench::f9_chaos());
    run!("f10", hc_bench::f10_state_sync());
    run!("f11", hc_bench::f11_state_tree_scaling());
    run!("f12", hc_bench::f12_parallel_execution());

    run!("e1", {
        let params = if quick {
            E1Params {
                subnet_counts: vec![1, 2, 4, 8],
                msgs_per_subnet: 200,
                ..E1Params::default()
            }
        } else {
            E1Params::default()
        };
        e1_scaling::e1_run(&params).map(|rows| e1_scaling::table(&rows))
    });

    run!("e2", {
        let params = if quick {
            E2Params {
                depths: vec![1, 2, 3],
                periods: vec![5, 10],
                samples: 2,
            }
        } else {
            E2Params::default()
        };
        e2_latency::e2_run(&params).map(|rows| e2_latency::table(&rows))
    });

    run!("e3", {
        let params = if quick {
            E3Params {
                child_counts: vec![1, 4, 16],
                periods: vec![5, 10],
                ..E3Params::default()
            }
        } else {
            E3Params::default()
        };
        e3_checkpoints::e3_run(&params).map(|rows| e3_checkpoints::table(&rows))
    });

    run!(
        "e4",
        e4_firewall::e4_run(&E4Params::default()).map(|r| e4_firewall::table(&r))
    );

    run!("e5", {
        let params = if quick {
            E5Params {
                party_counts: vec![2, 4],
                fault_scenarios: true,
            }
        } else {
            E5Params::default()
        };
        e5_atomic::e5_run(&params).map(|rows| e5_atomic::table(&rows))
    });

    run!("e6", {
        let params = if quick {
            E6Params {
                msgs: 400,
                block_capacity: 50,
                ..E6Params::default()
            }
        } else {
            E6Params::default()
        };
        e6_consensus::e6_run(&params).map(|rows| e6_consensus::table(&rows))
    });

    run!(
        "e7",
        e7_resolution::e7_run(&E7Params::default()).map(|r| e7_resolution::table(&r))
    );

    run!(
        "e8",
        e8_collateral::e8_run(&E8Params::default()).map(|r| e8_collateral::table(&r))
    );

    run!("e9", {
        let params = if quick {
            E9Params {
                depths: vec![1, 2],
                samples: 2,
            }
        } else {
            E9Params::default()
        };
        e9_certificates::e9_run(&params).map(|rows| e9_certificates::table(&rows))
    });

    run!("e10", {
        let params = if quick {
            E10Params {
                cross_ratios: vec![0.0, 0.25, 0.5],
                msgs_per_subnet: 120,
                ..E10Params::default()
            }
        } else {
            E10Params::default()
        };
        e10_cross_ratio::e10_run(&params).map(|rows| e10_cross_ratio::table(&rows))
    });

    run!("e13", {
        let params = if quick {
            E13Params {
                population: 100_000,
                rounds: 60,
                start_rate: 5,
                peak_rate: 150,
                block_capacity: 25,
                tail_window: 12,
                ..E13Params::default()
            }
        } else {
            E13Params::default()
        };
        e13_elasticity::e13_run(&params).map(|o| e13_elasticity::table(&o))
    });

    run!("e14", {
        let params = if quick {
            E14Params {
                scenarios: vec!["none", "outage"],
                seeds: vec![11],
                ..E14Params::default()
            }
        } else {
            E14Params::default()
        };
        e14_geo::e14_run(&params).map(|rows| e14_geo::table(&rows))
    });
}
