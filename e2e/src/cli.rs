//! Command line: one run (the driver's contract), the whole suite in
//! child processes, `--list`, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::json::Json;
use crate::run::{run, RunOutcome};
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::workloads::{Size, WorkloadCfg};

/// Seconds a run measures for when `--seconds` is not given; the same
/// value as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "\
hc-e2e: full-stack benchmark of the hierarchical consensus runtime

  hc-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last line of stdout is one JSON object: with --trace 0
      every end-to-end metric, with --trace 1 every per-layer metric.
  hc-e2e [--seed <n>] [--seconds <s> | --size smoke] [--reps <n>] [--out <file>]
      The suite: every workload, <reps> untraced runs (default 5, smoke 1)
      and one traced run, each in its own child process. Prints every metric
      by name with its unit; writes one JSON line per run to <file>.
  hc-e2e --list
      Every workload and every metric with unit, direction and bound.
  hc-e2e --compare <a.json> <b.json>
      One row per (end-to-end metric, workload) of two --out files.

Exit code 0 only when every output check passed.";

/// Parsed arguments.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    trace: bool,
    reps: Option<usize>,
    out: Option<String>,
    list: bool,
    compare: Option<(String, String)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--size" => match value("a size")?.as_str() {
                "smoke" => args.smoke = true,
                other => return Err(format!("unknown size {other} (the only one is smoke)")),
            },
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--reps" => {
                args.reps = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|r| (1..=100).contains(r))
                        .ok_or("--reps must be in 1..=100")?,
                );
            }
            "--out" => args.out = Some(value("a file")?),
            "--list" => args.list = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the command line; returns the process exit code.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}\n");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let result = if args.list {
        print!("{}", list());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare_files(a, b).map(|(table, ok)| {
            print!("{table}");
            ok
        })
    } else if args.workload.is_some() {
        single(&args)
    } else {
        suite(&args)
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("error: {why}");
            1
        }
    }
}

fn size_of(args: &Args) -> Size {
    if args.smoke {
        Size::Smoke
    } else {
        Size::Seconds(args.seconds.unwrap_or(DEFAULT_SECONDS))
    }
}

/// The contract's result object for one run.
pub fn result_json(outcome: &RunOutcome, specs: &[MetricSpec]) -> Json {
    let metrics = specs
        .iter()
        .map(|spec| {
            let value = outcome.metrics.get(spec.name).copied().unwrap_or(0.0);
            (
                spec.name.to_owned(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(spec.unit.to_owned())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn single(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by the caller");
    let cfg = WorkloadCfg::named(name, size_of(args)).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let outcome = run(&cfg, args.seed, args.trace)?;
    eprintln!(
        "{name}: {} rounds, {} ops, measured phase {:.3} s wall",
        cfg.rounds, outcome.attempted, outcome.measured_s
    );
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    for (subnet, head, root) in &outcome.fingerprint {
        eprintln!("fingerprint {subnet} head={head} state={root}");
    }
    if outcome.tail_pct != 99.0 {
        eprintln!(
            "note: sample too small for a p99; *_p99_* hold the p{}",
            outcome.tail_pct
        );
    }
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_json(&outcome, specs).render());
    Ok(outcome.correct())
}

/// `--list`: the declaration, human-readable.
pub fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads:");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<20} {}", w.name, w.why);
    }
    for (title, specs) in [
        ("end-to-end metrics (--trace 0):", END_TO_END),
        ("per-layer metrics (--trace 1):", PER_LAYER),
    ] {
        let _ = writeln!(out, "{title}");
        for m in specs {
            let bound = m.bound.map_or(String::new(), |b| {
                format!("  may worsen by {:.0} %", b * 100.0)
            });
            let _ = writeln!(
                out,
                "  {:<34} {:<6} {} is better{bound}",
                m.name,
                m.unit,
                m.better.word()
            );
        }
    }
    out
}

/// One child process: this binary, one workload, one run.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.args(["--size", "smoke"]);
    } else {
        cmd.args([
            "--seconds",
            &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
        ]);
    }
    // `output` waits for the child, so none outlives the suite.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: child printed no result ({e}); stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: run failed its output checks:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn suite(args: &Args) -> Result<bool, String> {
    // Five repetitions give a median and quartiles; a smoke run is a
    // quick look and does one.
    let reps = args.reps.unwrap_or(if args.smoke { 1 } else { 5 });
    let mut lines: Vec<String> = Vec::new();
    for w in WORKLOADS {
        println!("== {} — {}", w.name, w.why);
        let mut runs: Vec<Json> = Vec::new();
        for rep in 0..reps {
            eprintln!("{}: run {}/{reps}", w.name, rep + 1);
            runs.push(child(args, w.name, false)?);
        }
        eprintln!("{}: traced run", w.name);
        let traced = child(args, w.name, true)?;

        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let med = stats::median(&values).unwrap_or(0.0);
            let quart = stats::quartiles(&values).map_or(String::new(), |(q1, _, q3)| {
                format!("  [{q1:.6} .. {q3:.6}]")
            });
            let unit = m.unit;
            println!(
                "{:<34} {med:>16.6} {unit:<6} n={}{quart}",
                m.name,
                values.len()
            );
            // Metrics that are a function of the seed must not move
            // between repetitions of one seed.
            if m.is_deterministic() && values.iter().any(|v| *v != values[0]) {
                return Err(format!(
                    "{}: {} differs between repetitions of seed {}: {values:?}",
                    w.name, m.name, args.seed
                ));
            }
        }
        for m in PER_LAYER {
            let v = metric_value(&traced, m.name).unwrap_or(0.0);
            println!("{:<34} {v:>16.6} {}", m.name, m.unit);
        }
        for (trace, result) in runs.iter().map(|r| (0.0, r)).chain([(1.0, &traced)]) {
            lines.push(
                Json::obj([
                    ("workload", Json::Str(w.name.to_owned())),
                    ("seed", Json::Num(args.seed as f64)),
                    ("trace", Json::Num(trace)),
                    ("result", result.clone()),
                ])
                .render(),
            );
        }
    }
    if let Some(path) = &args.out {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(true)
}

/// Untraced end-to-end values of an `--out` file, by workload and metric.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k}", n + 1))
        };
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let metrics = field("result")?
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// Verdict of one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` by more than the bound.
    Better,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Within,
    /// A side's own run-to-run spread exceeds the bound.
    Unresolved,
}

/// Judges side `b` against side `a` for one metric.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let bound = spec.bound?;
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    if spread > bound {
        return Some(Verdict::Unresolved);
    }
    // Positive when `b` is worse, as a share of `a`.
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    Some(if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    })
}

/// `--compare`: the table, and whether no pair came out worse.
fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let (va, vb) = (load(a)?, load(b)?);
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<20} {:<20} {:<13} {:>14} {:>26} {:>14} {:>26}",
        "workload", "metric", "verdict", "a median", "a quartiles", "b median", "b quartiles"
    );
    let quart = |v: &[f64]| {
        stats::quartiles(v).map_or("-".to_owned(), |(q1, _, q3)| format!("{q1:.5}..{q3:.5}"))
    };
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_owned(), m.name.to_owned());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                let _ = writeln!(out, "{:<20} {:<20} missing on one side", w.name, m.name);
                ok = false;
                continue;
            };
            let verdict = judge(m, xa, xb);
            ok &= verdict != Some(Verdict::Worse);
            let word = match verdict {
                Some(Verdict::Better) => "better",
                Some(Verdict::Worse) => "WORSE",
                Some(Verdict::Within) => "within bound",
                Some(Verdict::Unresolved) => "unresolved",
                None => "-",
            };
            let _ = writeln!(
                out,
                "{:<20} {:<20} {:<13} {:>14.5} {:>26} {:>14.5} {:>26}",
                w.name,
                m.name,
                word,
                stats::median(xa).unwrap_or(0.0),
                quart(xa),
                stats::median(xb).unwrap_or(0.0),
                quart(xb)
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse(&argv("--workload tree-xnet --seed 9 --seconds 4 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("tree-xnet"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(4.0), true));
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--size smoke")).unwrap().smoke);
        assert!(parse(&argv("--size full")).is_err());
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(text.contains(m.name), "{} missing from --list", m.name);
        }
        assert!(text.contains("may worsen by 25 %"));
    }

    #[test]
    fn judge_separates_the_four_verdicts() {
        let lower = crate::spec::metric("commit_lat_p50_vms").unwrap(); // 5 %
        let higher = crate::spec::metric("commit_tput_wall").unwrap(); // 25 %
        let flat = [100.0, 100.5, 99.5, 100.2, 99.8];
        let scale = |k: f64| flat.map(|v| v * k);
        assert_eq!(judge(lower, &flat, &scale(1.02)), Some(Verdict::Within));
        assert_eq!(judge(lower, &flat, &scale(1.10)), Some(Verdict::Worse));
        assert_eq!(judge(lower, &flat, &scale(0.90)), Some(Verdict::Better));
        assert_eq!(judge(higher, &flat, &scale(0.85)), Some(Verdict::Within));
        assert_eq!(judge(higher, &flat, &scale(0.70)), Some(Verdict::Worse));
        assert_eq!(judge(higher, &flat, &scale(1.30)), Some(Verdict::Better));
        let noisy = [100.0, 140.0, 60.0, 120.0, 80.0];
        assert_eq!(judge(lower, &flat, &noisy), Some(Verdict::Unresolved));
        let unbounded = crate::spec::metric("core.waves").unwrap();
        assert_eq!(judge(unbounded, &flat, &flat), None);
    }
}
