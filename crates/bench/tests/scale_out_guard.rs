//! Tier-1 acceptance guard for elastic scale-out (the E13/F13 claims).
//!
//! * The elastic hierarchy must sustain ≥2× the static hierarchy's
//!   committed msgs/round at the ramp's peak, on the same seed, while
//!   every logical account's summed balance across its homes matches the
//!   static run — migration moves funds, it never mints or burns them.
//! * The whole comparison must be bit-identical when repeated: the
//!   controller's policy is a pure function of committed state.
//! * Under a 10× overload burst, the mempool's byte occupancy must never
//!   exceed its configured budget — the admission controller is a real
//!   memory bound, not advisory.

use std::time::Instant;

use hc_bench::scale_out::{overload_burst, scale_out};
use hc_sim::experiments::E13Params;

#[test]
fn elastic_ramp_doubles_sustained_throughput_with_balance_parity() {
    let wall = Instant::now();
    let outcome = scale_out(&E13Params::quick());
    let (stat, elas) = (&outcome.rows[0], &outcome.rows[1]);
    eprintln!(
        "scale_out: static {:.2} msg/round, elastic {:.2} msg/round, speedup {:.2}x, \
         {} splits, {} migrations, balances match: {} ({} ms)",
        stat.sustained_peak,
        elas.sustained_peak,
        outcome.speedup,
        elas.splits,
        elas.migrations,
        outcome.balances_match,
        wall.elapsed().as_millis(),
    );
    assert!(
        outcome.speedup >= 2.0,
        "elastic sustained throughput must be >= 2x static, got {:.2}x",
        outcome.speedup
    );
    assert!(
        outcome.balances_match,
        "elastic run must preserve every logical account's summed balance"
    );
    assert!(elas.splits >= 1, "the ramp must trigger at least one split");
    assert!(elas.migrations >= 1, "splits must migrate hot accounts");
}

#[test]
fn scale_out_comparison_is_bit_identical_across_repeats() {
    let a = scale_out(&E13Params::quick());
    let b = scale_out(&E13Params::quick());
    assert_eq!(a, b, "same seed, same params: byte-identical outcome");
}

#[test]
fn mempool_byte_bound_holds_under_10x_overload_burst() {
    let report = overload_burst(10);
    eprintln!("overload burst: {report:?}");
    assert!(
        report.high_water_bytes <= report.capacity_bytes,
        "occupancy {} exceeded the configured bound {}",
        report.high_water_bytes,
        report.capacity_bytes
    );
    assert!(
        report.final_bytes <= report.capacity_bytes,
        "final occupancy above the bound"
    );
    // The burst really overloaded the pool: far more was submitted than
    // fits, and the excess was evicted or refused, not silently held.
    assert!(report.submitted > 5 * report.final_pending);
    assert!(report.evicted + report.rejected_full > 0);
    assert_eq!(
        report.admitted - report.evicted,
        report.final_pending,
        "admissions minus evictions must equal what is still pending"
    );
}
