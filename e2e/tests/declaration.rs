//! `BENCHMARK.json` at the repository root and `hc_e2e::spec` declare the
//! same benchmark.

use hc_e2e::json::Json;
use hc_e2e::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn declared(specs: &[MetricSpec]) -> Vec<Json> {
    specs
        .iter()
        .map(|m| {
            let mut pairs = vec![
                ("name", Json::Str(m.name.to_owned())),
                ("unit", Json::Str(m.unit.to_owned())),
                ("better", Json::Str(m.better.word().to_owned())),
            ];
            if let Some(b) = m.bound {
                pairs.push(("bound", Json::Num(b)));
            }
            Json::obj(pairs)
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = Json::parse(&text).expect("BENCHMARK.json parses");

    let keys: Vec<&str> = file
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        file.get("paths"),
        Some(&Json::Arr(vec![Json::Str("e2e".into())]))
    );
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(hc_e2e::cli::DEFAULT_SECONDS)
    );
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::Str(w.name.to_owned())),
                ("why", Json::Str(w.why.to_owned())),
            ])
        })
        .collect();
    assert_eq!(file.get("workloads"), Some(&Json::Arr(workloads)));
    assert_eq!(
        file.get("end_to_end"),
        Some(&Json::Arr(declared(END_TO_END)))
    );
    assert_eq!(file.get("per_layer"), Some(&Json::Arr(declared(PER_LAYER))));
}
