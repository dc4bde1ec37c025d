//! The experiment report generator: regenerates every figure scenario of
//! `hc_bench::figures` (F1–F12) and every quantitative experiment table
//! (E1–E10, E13, and E14 — printed as "E14/F14", the geo figure is that
//! table) from DESIGN.md.
//!
//! ```text
//! cargo run -p hc-bench --bin report                  # everything
//! cargo run -p hc-bench --bin report -- --scenario e1 # one experiment
//! ```

use hc_sim::experiments::{
    e10_cross_ratio, e13_elasticity, e14_geo, e1_scaling, e2_latency, e3_checkpoints, e4_firewall,
    e5_atomic, e6_consensus, e7_resolution, e8_collateral, e9_certificates, E10Params, E13Params,
    E14Params, E1Params, E2Params, E3Params, E4Params, E5Params, E6Params, E7Params, E8Params,
    E9Params,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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

    run!(
        "e1",
        e1_scaling::e1_run(&E1Params::default()).map(|rows| e1_scaling::table(&rows))
    );
    run!(
        "e2",
        e2_latency::e2_run(&E2Params::default()).map(|rows| e2_latency::table(&rows))
    );
    run!(
        "e3",
        e3_checkpoints::e3_run(&E3Params::default()).map(|rows| e3_checkpoints::table(&rows))
    );
    run!(
        "e4",
        e4_firewall::e4_run(&E4Params::default()).map(|r| e4_firewall::table(&r))
    );
    run!(
        "e5",
        e5_atomic::e5_run(&E5Params::default()).map(|rows| e5_atomic::table(&rows))
    );
    run!(
        "e6",
        e6_consensus::e6_run(&E6Params::default()).map(|rows| e6_consensus::table(&rows))
    );
    run!(
        "e7",
        e7_resolution::e7_run(&E7Params::default()).map(|r| e7_resolution::table(&r))
    );
    run!(
        "e8",
        e8_collateral::e8_run(&E8Params::default()).map(|r| e8_collateral::table(&r))
    );
    run!(
        "e9",
        e9_certificates::e9_run(&E9Params::default()).map(|rows| e9_certificates::table(&rows))
    );
    run!(
        "e10",
        e10_cross_ratio::e10_run(&E10Params::default()).map(|rows| e10_cross_ratio::table(&rows))
    );
    run!(
        "e13",
        e13_elasticity::e13_run(&E13Params::default()).map(|o| e13_elasticity::table(&o))
    );
    run!(
        "e14",
        e14_geo::e14_run(&E14Params::default()).map(|rows| e14_geo::table(&rows))
    );
}
