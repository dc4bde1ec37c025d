//! # hc-bench — experiment harness
//!
//! Scenario drivers for the paper's figures (F1–F5), the snapshot
//! sharing demonstration (F6), the signature-cache pipeline (F7), the
//! crash-recovery demonstration (F8), the deterministic chaos
//! demonstration (F9), the snapshot state-sync bootstrap (F10), the
//! HAMT scaling table (F11) and the parallel-execution conflict sweep
//! (F12) — F1–F12 are the functions of [`figures`] — plus the harness of
//! the elastic scale-out ramp with its overload burst (F13,
//! [`scale_out`]), shared by the `report` binary, the guards under
//! `tests/` and the Criterion benches that size a layer without the
//! stack. The quantitative experiments E1–E10 and E13–E14 live in
//! [`hc_sim::experiments`]; F13's numbers are E13's table and F14 is
//! E14's (`report` prints it as "E14/F14"), so `report` prints F1–F12,
//! E1–E10, E13 and E14/F14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec_block;
pub mod figures;
pub mod msg_pipeline;
pub mod scale_out;
pub mod state_sync;

pub use figures::{
    f10_state_sync, f11_state_tree_scaling, f12_parallel_execution, f1_overview, f2_windows,
    f3_commitment, f4_resolution, f5_atomic, f6_snapshot_sharing, f7_sig_cache, f8_crash_recovery,
    f9_chaos,
};
