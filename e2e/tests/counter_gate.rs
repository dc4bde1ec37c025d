//! The machine-independent regression gate: at smoke size, the per-message
//! work counters in `hc_e2e::spec::GATED` may not be worse than the
//! committed `golden/smoke.json` by more than their bound. Being better
//! passes and says the golden file is stale, so an optimisation never has
//! to touch this directory. `HC_E2E_BLESS=1` rewrites the golden file.
//!
//! One `#[test]` on purpose: `sha256_per_msg` differences a process-wide
//! counter, so runs must not overlap in this process.

use std::collections::BTreeMap;

use hc_e2e::json::Json;
use hc_e2e::run::run;
use hc_e2e::spec::{GATED, GATE_BOUND, WORKLOADS};
use hc_e2e::workloads::{Size, WorkloadCfg};

const SEED: u64 = 1;

#[test]
fn per_message_counters_are_no_worse_than_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/smoke.json");
    let mut now: BTreeMap<String, Json> = BTreeMap::new();
    for w in WORKLOADS {
        let cfg = WorkloadCfg::named(w.name, Size::Smoke).expect("declared workload");
        let outcome = run(&cfg, SEED, true).expect("run completes");
        assert!(outcome.correct(), "{}: {:?}", w.name, outcome.errors);
        let counters = GATED
            .iter()
            .map(|name| ((*name).to_owned(), Json::Num(outcome.metrics[name])))
            .collect();
        now.insert(w.name.to_owned(), Json::Obj(counters));
    }
    let now = Json::Obj(now);
    if std::env::var_os("HC_E2E_BLESS").is_some() {
        std::fs::write(path, now.render() + "\n").expect("golden file is writable");
        return;
    }

    let golden = Json::parse(&std::fs::read_to_string(path).expect("golden/smoke.json"))
        .expect("golden file parses");
    let mut worse = Vec::new();
    for w in WORKLOADS {
        for name in GATED {
            let value = |side: &Json| {
                side.get(w.name)
                    .and_then(|m| m.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{}: {name} missing", w.name))
            };
            let (was, is) = (value(&golden), value(&now));
            // All gated counters are lower-is-better.
            if is > was * (1.0 + GATE_BOUND) {
                worse.push(format!("{} {name}: {was} -> {is}", w.name));
            } else if is < was * (1.0 - GATE_BOUND) {
                println!("{} {name}: {was} -> {is}: better, golden is stale", w.name);
            }
        }
    }
    assert!(
        worse.is_empty(),
        "counters worse than golden:\n{}",
        worse.join("\n")
    );
}
