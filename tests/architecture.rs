//! Architecture rules, checked against the source text.
//!
//! Each test pins one structural decision DESIGN.md records — one
//! execution engine, a wave that shares out its workers, a decomposed
//! runtime, one fault plan, one journal, no
//! option without a scenario, one front door per node, one way a node
//! comes up, one way a top-down message goes down, one way a checkpoint
//! goes up, a node that owns its cross-net queues, a node that drives its
//! own catch-up, one test world, one invariant check, content hashed once, one
//! `unsafe` block, hot values kept small, a pool that remembers senders
//! rather than messages, a signature verdict kept on the value, a nonce
//! read from the pool, a key held by its client, history held in wire
//! form, a tier-1 that runs the workspace, one measuring harness, one way
//! to hash a HAMT node, one way to execute a block — so a
//! change that reintroduces what a decision removed
//! fails `cargo test` with the section it breaks. The checks are plain
//! string matching over the repository's files (this file excluded, so its
//! own needles never match).

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (relative to the root), recursively, sorted;
/// build output and this file are skipped.
fn files_under(dir: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                walk(&path, out);
            } else if path != root().join("tests/architecture.rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), &mut out);
    out.sort();
    out
}

/// The `src` directories of the workspace crates, each as `crates/<name>/src`.
fn crate_dirs(sub: &str) -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .flatten()
        .filter(|e| e.path().join(sub).is_dir())
        .map(|e| format!("crates/{}/{sub}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs
}

/// The Rust sources under every `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    crate_dirs("src")
        .iter()
        .flat_map(|d| files_under(d))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn read_rel(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `path` relative to the root, with forward slashes.
fn rel(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The part of a source file before its first `#[cfg(test)]`.
fn non_test(src: &str) -> &str {
    src.find("#[cfg(test)]").map_or(src, |at| &src[..at])
}

/// `(file:line, text)` for every line of `files` that `matches`.
fn hits<'a>(
    files: impl IntoIterator<Item = &'a PathBuf>,
    body: impl Fn(&str) -> &str,
    matches: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for path in files {
        let text = read(path);
        for (i, line) in body(&text).lines().enumerate() {
            if matches(line) {
                out.push(format!("{}:{}: {}", rel(path), i + 1, line.trim()));
            }
        }
    }
    out
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `line` delimited by non-word characters.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_word) && !after.is_some_and(is_word)
    })
}

/// The lines of the block that opens with the line equal to `opener` and
/// closes with the first line equal to `closer` after it.
fn block<'a>(src: &'a str, opener: &str, closer: &str) -> Vec<&'a str> {
    let mut lines = src.lines().skip_while(|l| *l != opener);
    let mut out: Vec<&str> = lines.next().into_iter().collect();
    for line in lines {
        out.push(line);
        if line == closer {
            break;
        }
    }
    out
}

/// The lines of function `name` in `src`, from its signature (generic or
/// not) to the line
/// closing it at the signature's indentation (empty if `src` declares no
/// such function).
fn body_of<'a>(src: &'a str, name: &str) -> Vec<&'a str> {
    let (call, generic) = (format!("fn {name}("), format!("fn {name}<"));
    let mut lines = src
        .lines()
        .skip_while(|l| !l.contains(&call) && !l.contains(&generic));
    let Some(signature) = lines.next() else {
        return Vec::new();
    };
    let indent = &signature[..signature.len() - signature.trim_start().len()];
    let closer = format!("{indent}}}");
    let mut out = vec![signature];
    for line in lines {
        out.push(line);
        if line == closer {
            break;
        }
    }
    out
}

/// Whether `line` declares a struct field: four spaces, an optional `pub `
/// or `pub(crate) `, a lower-case identifier and a colon.
fn is_field(line: &str, pub_only: bool) -> bool {
    let Some(rest) = line.strip_prefix("    ") else {
        return false;
    };
    let rest = match (rest.strip_prefix("pub(crate) "), rest.strip_prefix("pub ")) {
        (Some(r), _) if !pub_only => r,
        (_, Some(r)) => r,
        _ if pub_only => return false,
        _ => rest,
    };
    let name_len = rest
        .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
        .unwrap_or(rest.len());
    name_len > 0 && rest[name_len..].starts_with(':')
}

/// The name of the function that holds byte `at` of `src`: the last `fn`
/// declared before it.
fn enclosing_fn(src: &str, at: usize) -> &str {
    src[..at]
        .lines()
        .rev()
        .find_map(|l| {
            let l = l.trim_start();
            let l = ["pub(crate) ", "pub "]
                .iter()
                .find_map(|p| l.strip_prefix(p))
                .unwrap_or(l);
            let name = l.strip_prefix("fn ")?;
            Some(&name[..name.find(|c: char| !is_word(c)).unwrap_or(name.len())])
        })
        .unwrap_or_default()
}

/// `fn: needle` for each of `needles` on each non-comment line of `src`
/// that holds it, in order; a line declaring a function is not a call.
fn calls_in(src: &str, needles: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0;
    for line in src.lines() {
        let code = line.trim_start();
        let declares = ["fn ", "pub fn ", "pub(crate) fn "]
            .iter()
            .any(|p| code.starts_with(p));
        if !code.starts_with("//") && !declares {
            for needle in needles {
                if line.contains(needle) {
                    out.push(format!("{}: {needle}", enclosing_fn(src, at)));
                }
            }
        }
        at += line.len() + 1;
    }
    out
}

/// `file: function` for every call of `name` (ending in its `(`) outside
/// `#[cfg(test)]` under `crates/core/src`; a definition or a comment is
/// not a call.
fn core_calls(name: &str) -> Vec<String> {
    let mut sites = Vec::new();
    for path in &files_under("crates/core/src") {
        let text = read(path);
        let src = non_test(&text);
        let in_comment = |at: usize| {
            let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
            src[line_start..at].trim_start().starts_with("//")
        };
        sites.extend(
            src.match_indices(name)
                .filter(|(at, _)| !src[..*at].ends_with("fn ") && !in_comment(*at))
                .map(|(at, _)| format!("{}: {}", rel(path), enclosing_fn(src, at))),
        );
    }
    sites
}

/// The last argument of the call whose `(` is byte `open` of `src`.
fn last_arg(src: &str, open: usize) -> &str {
    let (mut depth, mut start, mut last) = (0, open + 1, "");
    for (i, c) in src[open..].char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 || (c == ',' && depth == 1) {
            let arg = src[start..open + i].trim();
            if !arg.is_empty() {
                last = arg;
            }
            start = open + i + 1;
        }
        if depth == 0 {
            break;
        }
    }
    last
}

/// A comparison of a worker count with 0 or 1: `parallelism > 1`,
/// `workers == 0`, ….
fn compares_worker_count(line: &str) -> bool {
    ["parallelism", "workers"].iter().any(|name| {
        line.match_indices(name).any(|(at, _)| {
            let rest = line[at + name.len()..].trim_start_matches(' ');
            let Some(rest) = [">=", "<=", "==", ">", "<"]
                .iter()
                .find_map(|op| rest.strip_prefix(op))
            else {
                return false;
            };
            let rest = rest.trim_start_matches(' ');
            let mut chars = rest.chars();
            matches!(chars.next(), Some('0' | '1')) && !chars.next().is_some_and(is_word)
        })
    })
}

/// DESIGN.md §15 ("The engine") and §8: `parallelism` sizes fan-outs and
/// selects no code path — the one comparison left is
/// `run_until_quiescent`'s choice of stepper — and `fan_out` holds the
/// workspace's only `thread::scope`.
#[test]
fn one_engine_one_fan_out() {
    let sources = crate_sources();
    let branches = hits(&sources, |s| s, compares_worker_count);
    assert!(
        branches.len() == 1 && branches[0].starts_with("crates/core/src/runtime.rs:"),
        "DESIGN.md §15: a worker count selects no code path outside \
         `run_until_quiescent`; found {branches:#?}"
    );
    let scoped: Vec<String> = sources
        .iter()
        .filter(|p| read(p).contains("thread::scope"))
        .map(|p| rel(p))
        .collect();
    assert_eq!(
        scoped,
        ["crates/chain/src/schedule.rs"],
        "DESIGN.md §15: `hc_chain::fan_out` is the workspace's only thread scope"
    );
}

/// DESIGN.md §8 and §15: a wave shares out its workers. `run_wave` is
/// hc-core's one fan-out and hands each block its share, so a node never
/// reads `config.parallelism` itself, and the only thread scope is the one
/// inside `fan_out`.
#[test]
fn a_wave_shares_its_workers() {
    let node = files_under("crates/core/src")
        .into_iter()
        .filter(|p| {
            let p = rel(p);
            p == "crates/core/src/node.rs" || p.starts_with("crates/core/src/node/")
        })
        .collect::<Vec<_>>();
    let reads = hits(&node, |s| s, |l| l.contains("config.parallelism"));
    assert!(
        reads.is_empty(),
        "DESIGN.md §8: a block gets its worker share from `run_wave`, \
         not from the config; found {reads:#?}"
    );
    assert_eq!(
        core_calls("fan_out("),
        ["crates/core/src/runtime.rs: run_wave"],
        "DESIGN.md §8: hc-core fans out only in `run_wave`"
    );
    let mut scopes = Vec::new();
    for path in &crate_sources() {
        let text = read(path);
        scopes.extend(
            text.match_indices("thread::scope")
                .map(|(at, _)| format!("{}: {}", rel(path), enclosing_fn(&text, at))),
        );
    }
    assert_eq!(
        scopes,
        ["crates/chain/src/schedule.rs: fan_out"],
        "DESIGN.md §15: the only thread scope is the one inside `fan_out`"
    );
}

/// DESIGN.md §8: hc-core's `HierarchyRuntime` keeps the tick and nothing
/// else — the journal and per-subnet records have one owner each, a
/// replay has no mode of its own (a past block re-enters its node through
/// `SubnetNode::reexecute`, and the live `post_tick` runs only in
/// `run_wave`), the SCA fee is looked up in one place, and every stepper
/// reaches `SubnetNode::produce` through the one `run_wave`.
#[test]
fn the_runtime_stays_decomposed() {
    let core = files_under("crates/core/src");
    for path in &core {
        let lines = read(path).lines().count();
        let cap = if path.ends_with("runtime.rs") {
            1000
        } else {
            1050
        };
        assert!(
            lines <= cap,
            "DESIGN.md §8: {} has {lines} lines, over {cap}",
            rel(path)
        );
    }
    let replay_mode = [
        "outward",
        "begin_replay",
        "recovering",
        "replay_journaled_block",
    ];
    let replay_mode = hits(&core, |s| s, |l| replay_mode.iter().any(|w| has_word(l, w)));
    assert!(
        replay_mode.is_empty(),
        "DESIGN.md §8: a replay has no mode of its own; found {replay_mode:#?}"
    );
    for (call, callers) in [
        ("post_tick(", &["crates/core/src/runtime.rs: run_wave"][..]),
        (
            ".reexecute(",
            &[
                "crates/core/src/node/catch_up.rs: catch_up_round",
                "crates/core/src/recover.rs: apply_control_record",
            ],
        ),
    ] {
        assert_eq!(
            core_calls(call),
            callers,
            "DESIGN.md §8: a live block is handed off in `run_wave` alone, a past \
             block re-enters through `reexecute`"
        );
    }
    for (needle, what) in [
        ("cross_msg_fee", "the SCA fee is looked up in one place"),
        (".produce(", "one `run_wave` reaches `SubnetNode::produce`"),
    ] {
        let found = hits(&core, |s| s, |l| l.contains(needle));
        assert_eq!(found.len(), 1, "DESIGN.md §8: {what}; found {found:#?}");
    }
    assert_eq!(
        core_calls(".produce("),
        ["crates/core/src/runtime.rs: run_wave"],
        "DESIGN.md §8: a block is produced only in `run_wave`"
    );
    let runtime = read_rel("crates/core/src/runtime.rs");
    let fields = block(&runtime, "pub struct HierarchyRuntime {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .count();
    assert!(
        fields <= 12,
        "DESIGN.md §8: `HierarchyRuntime` has {fields} fields, over 12"
    );
}

/// DESIGN.md §12: a `FaultPlan` is one list of windowed rules, the network
/// has one publish (topic, payload, now_ms, origin) with one delivery
/// pipeline behind it, and the runtime keeps one schedule of node faults.
#[test]
fn one_fault_plan() {
    let fault = read_rel("crates/net/src/fault.rs");
    let plan_fields = block(&fault, "pub struct FaultPlan {", "}")
        .into_iter()
        .filter(|l| is_field(l, true))
        .count();
    assert_eq!(
        plan_fields, 1,
        "DESIGN.md §12: `FaultPlan` is one rule list"
    );

    let everywhere: Vec<PathBuf> = ["crates", "e2e/src", "tests", "examples"]
        .iter()
        .flat_map(|d| files_under(d))
        .collect();
    let second = hits(&everywhere, |s| s, |l| l.contains("publish_from"));
    assert!(
        second.is_empty(),
        "DESIGN.md §12: one publish; found {second:#?}"
    );

    let net = files_under("crates/net/src");
    let publishes = hits(
        &net,
        |s| s,
        |l| {
            l.match_indices("fn publish").any(|(at, m)| {
                let rest = &l[at + m.len()..];
                let rest = rest
                    .strip_prefix('_')
                    .map(|r| r.trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_'))
                    .unwrap_or(rest);
                rest.starts_with('(')
            })
        },
    );
    assert_eq!(
        publishes.len(),
        1,
        "DESIGN.md §12: one publish; found {publishes:#?}"
    );

    let pubsub = read_rel("crates/net/src/pubsub.rs");
    let params = block(&pubsub, "    pub fn publish(", "    ) -> usize {")
        .into_iter()
        .filter(|l| {
            l.strip_prefix("        ").is_some_and(|r| {
                let n = r
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
                    .unwrap_or(r.len());
                n > 0 && r[n..].starts_with(": ")
            })
        })
        .count();
    assert_eq!(
        params, 4,
        "DESIGN.md §12: `publish(topic, payload, now_ms, origin)`"
    );

    let plans = hits(
        &files_under("crates/core/src"),
        |s| s,
        |l| l.contains("crash_plan") || l.contains("region_outage_plan"),
    );
    assert!(
        plans.is_empty(),
        "DESIGN.md §12: the runtime keeps one node-fault schedule; found {plans:#?}"
    );

    // No function of the delivery pipeline outgrows one screen.
    let mut start = None;
    for (i, line) in pubsub.lines().enumerate() {
        if line.starts_with("    fn ") || line.starts_with("    pub fn ") {
            start = Some(i);
        } else if line == "    }" {
            if let Some(s) = start.take() {
                let len = i - s + 1;
                assert!(
                    len <= 90,
                    "DESIGN.md §12: the function at crates/net/src/pubsub.rs:{} is {len} lines",
                    s + 1
                );
            }
        }
    }
}

/// DESIGN.md §11: a committed block is one record in the one control log —
/// hc-chain knows nothing of durability, no per-subnet stream name exists,
/// hc-core opens exactly one WAL, a block has one way into a chain store,
/// and `recover` attaches the control log only after its scan, with no
/// replay mode set in between, so nothing a replay hands on is journaled
/// again.
#[test]
fn one_journal() {
    let chain = files_under("crates/chain/src");
    let durable = hits(&chain, |s| s, |l| l.contains("hc_store"));
    assert!(
        durable.is_empty(),
        "DESIGN.md §11: hc-chain is not durable; found {durable:#?}"
    );
    let streams = hits(&crate_sources(), |s| s, |l| l.contains("chains/"));
    assert!(
        streams.is_empty(),
        "DESIGN.md §11: no per-subnet stream; found {streams:#?}"
    );
    let opens = hits(
        &files_under("crates/core/src"),
        |s| s,
        |l| l.contains("Wal::open("),
    );
    assert_eq!(opens.len(), 1, "DESIGN.md §11: one WAL; found {opens:#?}");
    let mut dirs = crate_dirs("src");
    dirs.extend(crate_dirs("tests"));
    dirs.extend(["e2e/src", "tests", "examples"].map(String::from));
    let files: Vec<PathBuf> = dirs.iter().flat_map(|d| files_under(d)).collect();
    let side_doors = hits(&files, |s| s, |l| l.contains("append_recovered"));
    assert!(
        side_doors.is_empty(),
        "DESIGN.md §11: a block has one way into a chain store; found {side_doors:#?}"
    );
    let recover = read_rel("crates/core/src/recover.rs");
    let mut steps = Vec::new();
    for line in body_of(&recover, "recover") {
        if line.trim_start().starts_with("//") {
            continue;
        }
        for (at, needle) in line.match_indices("journal.") {
            let method = &line[at + needle.len()..];
            steps.push(&method[..method.find('(').unwrap_or(method.len())]);
        }
        if line.contains(".replay(") {
            steps.push("replay");
        }
    }
    assert_eq!(
        steps,
        ["open", "replay", "attach"],
        "DESIGN.md §11: `recover` opens the journal, scans it, and only then attaches \
         its log, with no replay mode in between"
    );
}

/// DESIGN.md §12 and §16: a settable value no experiment, figure, example
/// or benchmark varies is a constant or derived — no retry jitter, no
/// elastic config struct, no certificates switch, no mempool dedup-horizon
/// knob, no per-rejoin sync mode beside `RuntimeConfig::sync_mode`, no
/// fsync cadence beside the wave's journal barrier — and a claimant
/// journals as an adoption.
#[test]
fn every_option_is_set_by_a_scenario() {
    let files: Vec<PathBuf> = ["crates", "examples", "tests"]
        .iter()
        .flat_map(|d| files_under(d))
        .collect();
    let retired = [
        "jitter_pct",
        "ElasticConfig",
        "certificates_enabled",
        "seen_horizon_epochs",
        "with_seen_horizon",
        "ClaimantCreated",
        "rejoin_node_with",
        "EveryN",
    ];
    let found = hits(&files, |s| s, |l| retired.iter().any(|r| l.contains(r)));
    assert!(
        found.is_empty(),
        "DESIGN.md §12, §16: retired options are back: {found:#?}"
    );
    let config = read_rel("crates/core/src/config.rs");
    let fields = block(&config, "pub struct RuntimeConfig {", "}")
        .into_iter()
        .filter(|l| is_field(l, true))
        .count();
    assert_eq!(
        fields, 11,
        "DESIGN.md §12, §16: `RuntimeConfig` has 11 fields"
    );
}

/// DESIGN.md §12 and §17: a node has one front door. hc-core reads an inbox
/// in one place, the node's own `SubnetNode::poll`, for live and
/// catching-up nodes alike; every publish the runtime makes on a node's
/// behalf names that node as origin — only `inject_gossip`, the hook for an
/// outside sender, publishes with a `None` origin; and a past block is
/// re-committed by the node, so the runtime's `skip_past_block` is gone
/// from every crate.
#[test]
fn one_front_door() {
    let mut polls = Vec::new();
    let mut anonymous = Vec::new();
    for path in &files_under("crates/core/src") {
        let text = read(path);
        let src = non_test(&text);
        let site = |at| format!("{}: {}", rel(path), enclosing_fn(src, at));
        polls.extend(src.match_indices("network.poll(").map(|(at, _)| site(at)));
        for (at, call) in src.match_indices(".publish(") {
            if last_arg(src, at + call.len() - 1) == "None" {
                anonymous.push(site(at));
            }
        }
    }
    assert_eq!(
        polls,
        ["crates/core/src/node/network.rs: poll"],
        "DESIGN.md §12: `SubnetNode::poll` is the one inbox loop"
    );
    assert_eq!(
        anonymous,
        ["crates/core/src/runtime.rs: inject_gossip"],
        "DESIGN.md §17: every publish but `inject_gossip` states its origin"
    );
    let retired = hits(&crate_sources(), |s| s, |l| l.contains("skip_past_block"));
    assert!(
        retired.is_empty(),
        "DESIGN.md §12: a node re-commits its past blocks itself; found {retired:#?}"
    );
}

/// DESIGN.md §11 and §13: one way a node comes up. Every node is built at
/// genesis by one helper, so `SubnetNode::genesis` has one caller; recovery
/// boots the runtime once and scans the journal once, and a fast-forward
/// that falls short of its anchor restarts that node through the rejoin
/// path instead of recovering the whole world again.
#[test]
fn one_way_up() {
    let genesis = hits(&crate_sources(), non_test, |l| {
        l.contains("SubnetNode::genesis(")
    });
    assert_eq!(
        genesis.len(),
        1,
        "DESIGN.md §8: one way a node is built at genesis; found {genesis:#?}"
    );
    let recover = read_rel("crates/core/src/recover.rs");
    let recover = non_test(&recover);
    assert_eq!(
        recover.matches("Self::boot(").count(),
        1,
        "DESIGN.md §11: `recover` boots the runtime once"
    );
    for retired in ["Self::new(", "recover_attempt", "fast_forward: bool"] {
        assert!(
            !recover.contains(retired),
            "DESIGN.md §13: a short fast-forward falls back per node, not by a second recovery: `{retired}`"
        );
    }
    assert!(
        recover.contains("self.restart_node("),
        "DESIGN.md §13: a short fast-forward restarts through the rejoin path"
    );
}

/// DESIGN.md §8, "One way down": a parent hands each top-down message to
/// its child as the block that commits it commits. No relay queue waits on
/// the parent, and no child reads or prunes one: the relay's names and the
/// retired hand-off are gone from every crate, a child's pool is fed only
/// through the node's one door, `receive`, and a Subnet Actor is read from
/// its parent chain's copy through `sa_of` alone.
#[test]
fn one_way_down() {
    let retired = [
        "top_down_queue",
        "top_down_msgs",
        "prune_top_down",
        "sync_parent",
        "prune_parent_registry",
        "parent_queue_drained",
        "deliver_top_down",
    ];
    let relay = hits(
        &crate_sources(),
        |s| s,
        |l| retired.iter().any(|r| l.contains(r)),
    );
    assert!(
        relay.is_empty(),
        "DESIGN.md §8: the top-down relay is back: {relay:#?}"
    );
    assert_eq!(
        core_calls("ingest_top_down("),
        ["crates/core/src/node.rs: receive"],
        "DESIGN.md §8: a child's pool is fed only through the node's one door"
    );
    assert_eq!(
        core_calls(".sa("),
        ["crates/core/src/lifecycle.rs: sa_of"],
        "DESIGN.md §8: a Subnet Actor is read through `sa_of`"
    );
}

/// DESIGN.md §8, "One way up (checkpoints)": a child's signed checkpoint
/// goes to its parent in one hand-off, `deliver` — into the parent node's
/// door, or into the parent's record while no node of it runs — for a live
/// cut, a recovered one and the adversary alike. No ledger keeps a second
/// copy to resubmit, the method no one sent and the retired hand-off are
/// gone from every crate, and outside `node.rs` a checkpoint input is made
/// only by the adversary and the one hand-up, `hand_up`, which a live cut
/// and recovery — a re-executed cut and a skipped cut's anchor — share.
#[test]
fn a_checkpoint_goes_up_once() {
    let retired = [
        "cut_checkpoints",
        "resubmit_lost_checkpoints",
        "resubmit_cut_suffix",
        "checkpoints_resubmitted",
        "SubmitCheckpoint",
        "deliver_checkpoint",
    ];
    let ledger = hits(
        &crate_sources(),
        |s| s,
        |l| retired.iter().any(|r| l.contains(r)),
    );
    assert!(
        ledger.is_empty(),
        "DESIGN.md §8: the checkpoint ledger or its resubmission is back: {ledger:#?}"
    );
    let senders: Vec<String> = core_calls("Input::Checkpoint(")
        .into_iter()
        .filter(|site| !site.starts_with("crates/core/src/node.rs:"))
        .collect();
    assert_eq!(
        senders,
        [
            "crates/core/src/attack.rs: inject_signed_checkpoint",
            "crates/core/src/runtime.rs: hand_up",
        ],
        "DESIGN.md §8: a cut goes up through one hand-up, the adversary beside it"
    );
    assert_eq!(
        core_calls(".hand_up("),
        [
            "crates/core/src/recover.rs: apply_control_record",
            "crates/core/src/recover.rs: apply_control_record",
            "crates/core/src/runtime.rs: route_event",
        ],
        "DESIGN.md §8: a live cut, a re-executed cut and a skipped cut's anchor share the hand-up"
    );
}

/// DESIGN.md §8, "One door": a node's fields are its own. It takes what it
/// is handed through `SubnetNode::receive`, answers the network through
/// `SubnetNode::poll`, admits, attests and persists through its methods,
/// and is read through its accessors, so the compiler, not a list of names,
/// keeps every other module out of it: no field of `SubnetNode` carries a
/// `pub`, nor the pool and keys a crashed node leaves in its `Survivor`. A
/// subnet whose node is down keeps one inbox of the same inputs in its
/// record, and the retired per-kind queues and counters are gone from
/// every crate.
#[test]
fn a_node_owns_its_fields() {
    let node = read_rel("crates/core/src/node.rs");
    let fields: Vec<&str> = block(&node, "pub struct SubnetNode {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .collect();
    assert!(
        fields.iter().any(|l| l.starts_with("    cross_pool:")),
        "DESIGN.md §8: `SubnetNode` is where this rule looks; its fields are {fields:#?}"
    );
    let public: Vec<&&str> = fields
        .iter()
        .filter(|l| {
            ["pub ", "pub("]
                .iter()
                .any(|p| l.trim_start().starts_with(p))
        })
        .collect();
    assert!(
        public.is_empty(),
        "DESIGN.md §8: a node's fields are private to the node; found {public:#?}"
    );
    let catch_up = read_rel("crates/core/src/node/catch_up.rs");
    let survivor: Vec<&str> = block(&catch_up, "pub(crate) struct Survivor {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .collect();
    for held in ["mempool", "validator_keys"] {
        assert!(
            survivor
                .iter()
                .any(|l| l.starts_with(&format!("    {held}:"))),
            "DESIGN.md §8: only the restart takes `Survivor::{held}`; its fields are {survivor:#?}"
        );
    }
    let subnets = read_rel("crates/core/src/subnets.rs");
    let record: Vec<&str> = block(&subnets, "pub(crate) struct SubnetRecord {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .map(|l| l.trim_start().trim_start_matches("pub(crate) "))
        .map(|l| &l[..l.find(':').unwrap_or(l.len())])
        .collect();
    assert!(
        record.contains(&"inbox")
            && !record.contains(&"top_down")
            && !record.contains(&"checkpoints"),
        "DESIGN.md §8: a down node's record keeps one inbox; its fields are {record:?}"
    );
    let retired = [
        "pending_turnarounds",
        "unresolved_turnarounds",
        "pending_checkpoint_count",
    ];
    let found = hits(
        &crate_sources(),
        |s| s,
        |l| retired.iter().any(|r| l.contains(r)),
    );
    assert!(
        found.is_empty(),
        "DESIGN.md §8: the per-kind queues are back: {found:#?}"
    );
}

/// The functions declared in `src` whose signature — from `fn` to the
/// opening brace — holds `needle`, by name.
fn fns_whose_signature_holds<'a>(src: &'a str, needle: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (at, _) in src.match_indices("fn ") {
        if at > 0 && src[..at].chars().next_back().is_some_and(is_word) {
            continue;
        }
        let rest = &src[at + 3..];
        let name = &rest[..rest.find(|c: char| !is_word(c)).unwrap_or(rest.len())];
        let signature = &rest[..rest.find('{').unwrap_or(rest.len())];
        if !name.is_empty() && signature.contains(needle) {
            out.push(name);
        }
    }
    out
}

/// DESIGN.md §12, "Live crash–rejoin and catch-up", and §13, "Verification
/// and install": a node drives its own catch-up, and bootstraps from a
/// snapshot one way. A subnet's record keeps no catch-up; `CatchUp` and
/// `SnapshotSync` are declared under `node/`; no chain is re-based on a
/// snapshot anchor (`reset_to_snapshot_base` is gone from the workspace),
/// so a node's chain starts at epoch 1; one `SubnetNode` method takes a
/// manifest to install — the one function that builds a tree from one —
/// and only a catch-up (`node/catch_up.rs`) and a recovery (`recover.rs`)
/// call it; a catching-up node knows when it next has work — one
/// `SubnetNode` method under `node/`, `next_wake_ms`, the only reader of
/// its subscription's next delivery and its pull's deadline — and
/// `chaos.rs` only asks for it; and the runtime's half, `chaos.rs`, stays
/// within 500 lines. (No other file can write the node's pool or chain: its
/// fields are private, see `a_node_owns_its_fields`.)
#[test]
fn a_node_drives_its_own_catch_up() {
    let subnets = read_rel("crates/core/src/subnets.rs");
    let record: Vec<&str> = block(&subnets, "pub(crate) struct SubnetRecord {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .map(|l| l.trim_start().trim_start_matches("pub(crate) "))
        .collect();
    assert!(
        record.iter().any(|l| l.starts_with("inbox:")),
        "DESIGN.md §12: `SubnetRecord` is where this rule looks; its fields are {record:?}"
    );
    for retired in ["catch_up", "snapshot_base"] {
        assert!(
            !record.iter().any(|l| l.starts_with(&format!("{retired}:"))),
            "DESIGN.md §12: `SubnetRecord::{retired}` is back; the catch-up is the node's"
        );
    }
    let node = "crates/core/src/node/";
    let decls = hits(
        &crate_sources(),
        |s| s,
        |l| {
            ["struct CatchUp ", "struct SnapshotSync "]
                .iter()
                .any(|d| l.contains(d))
        },
    );
    assert!(
        decls.len() == 2 && decls.iter().all(|d| d.starts_with(node)),
        "DESIGN.md §12: `CatchUp` and `SnapshotSync` are declared once, under node/; found {decls:#?}"
    );
    let rust = files_under("");
    let rust = rust
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"));
    let rebases = hits(rust, |s| s, |l| l.contains("reset_to_snapshot_base"));
    assert!(
        rebases.is_empty(),
        "DESIGN.md §13: a node's chain starts at epoch 1, never re-based on an anchor; found {rebases:#?}"
    );
    let mut installs = Vec::new();
    let node_files = [root().join("crates/core/src/node.rs")];
    for path in node_files.iter().chain(&files_under(node)) {
        let text = read(path);
        for name in fns_whose_signature_holds(non_test(&text), "manifest: &Cid") {
            installs.push(format!("{}: {name}", rel(path)));
        }
    }
    assert_eq!(
        installs,
        ["crates/core/src/node.rs: install_snapshot"],
        "DESIGN.md §13: one `SubnetNode` method installs a snapshot"
    );
    assert_eq!(
        core_calls("from_manifest("),
        ["crates/core/src/node.rs: install_snapshot"],
        "DESIGN.md §13: only the one install builds a tree from a manifest"
    );
    let callers = core_calls("install_snapshot(");
    let allowed = [
        "crates/core/src/node/catch_up.rs:",
        "crates/core/src/recover.rs:",
    ];
    assert!(
        allowed
            .iter()
            .all(|file| callers.iter().any(|c| c.starts_with(file)))
            && callers
                .iter()
                .all(|c| allowed.iter().any(|file| c.starts_with(file))),
        "DESIGN.md §13: a rejoin's catch-up and a recovery install a snapshot, nothing else; found {callers:#?}"
    );
    let wakes = hits(&crate_sources(), non_test, |l| {
        l.contains("fn next_wake_ms(")
    });
    assert!(
        wakes.len() == 1 && wakes[0].starts_with(node),
        "DESIGN.md §12: a node's next wake is one `SubnetNode` method, under node/; found {wakes:#?}"
    );
    assert_eq!(
        core_calls("next_wake_ms("),
        ["crates/core/src/chaos.rs: next_catch_up_wake"],
        "DESIGN.md §12: the runtime only asks a node for its next wake"
    );
    for read in ["next_delivery_for(", "next_at_ms()"] {
        assert_eq!(
            core_calls(read),
            ["crates/core/src/node/catch_up.rs: next_wake_ms"],
            "DESIGN.md §12: only the node's wake reads `{read}`"
        );
    }
    let chaos = read_rel("crates/core/src/chaos.rs").lines().count();
    assert!(
        chaos <= 500,
        "DESIGN.md §12: chaos.rs keeps the runtime's half in {chaos} lines, over 500"
    );
}

/// DESIGN.md §16, "Mempool admission control": the pool remembers senders,
/// not messages. Its dedup state is a floor per sender — no CID-keyed map
/// or set in `mempool.rs` — with no expiry horizon left anywhere; a
/// committed block reaches a node's pool in one place, `skip_block`, and
/// a floor is only ever copied from the state tree, by `settle_floors`.
#[test]
fn the_pool_remembers_senders_not_messages() {
    let mempool = read_rel("crates/chain/src/mempool.rs");
    let by_cid: Vec<&str> = non_test(&mempool)
        .lines()
        .filter(|l| l.contains("HashMap<Cid") || l.contains("HashSet<Cid"))
        .collect();
    assert!(
        by_cid.is_empty(),
        "DESIGN.md §16: the pool keeps no per-message dedup set; found {by_cid:#?}"
    );
    let horizon = hits(
        &files_under("crates"),
        |s| s,
        |l| l.contains("SEEN_HORIZON_EPOCHS") || l.contains("advance_epoch"),
    );
    assert!(
        horizon.is_empty(),
        "DESIGN.md §16: the dedup horizon is gone; found {horizon:#?}"
    );
    assert_eq!(
        core_calls("remove_included("),
        ["crates/core/src/node.rs: skip_block"],
        "DESIGN.md §16: a committed block settles its pool only in `skip_block`"
    );
    assert_eq!(
        core_calls("set_floor("),
        ["crates/core/src/node.rs: settle_floors"],
        "DESIGN.md §16: a floor is copied from the tree's account nonce, only in `settle_floors`"
    );
}

/// DESIGN.md §8 and §16, "The floor rule": a sender's next nonce is what
/// its node would accept — its pool lane's tail, else its floor over the
/// committed account nonce. A user's handle names no `Nonce`, nothing
/// keeps a signing cursor in step with the pool (no eviction log, no
/// rewind, no settling after a replay or an install), and hc-core reads a
/// nonce only where it signs, in `submit_with_fee`, through the node's
/// accessor.
#[test]
fn a_nonce_lives_in_the_pool() {
    let config = read_rel("crates/core/src/config.rs");
    let handle = [
        block(&config, "pub struct UserHandle {", "}"),
        block(&config, "impl UserHandle {", "}"),
    ];
    assert!(
        !handle[0].is_empty(),
        "DESIGN.md §8: `UserHandle` is defined in config.rs"
    );
    let named: Vec<&str> = handle
        .concat()
        .into_iter()
        .filter(|l| has_word(l, "Nonce"))
        .collect();
    assert!(
        named.is_empty(),
        "DESIGN.md §8: a user's handle keeps no nonce; found {named:#?}"
    );
    let pool_and_core: Vec<PathBuf> = ["crates/core/src", "crates/chain/src"]
        .iter()
        .flat_map(|d| files_under(d))
        .collect();
    let retired = [
        "drain_evictions",
        "evicted_log",
        "rewind(",
        "Wallets::settle",
        ".settle(&",
    ];
    let found = hits(
        &pool_and_core,
        |s| s,
        |l| retired.iter().any(|r| l.contains(r)),
    );
    assert!(
        found.is_empty(),
        "DESIGN.md §16: a signing cursor's repairs are back: {found:#?}"
    );
    assert_eq!(
        core_calls("next_nonce("),
        [
            "crates/core/src/node.rs: next_nonce",
            "crates/core/src/users.rs: submit_with_fee",
        ],
        "DESIGN.md §16: a nonce is read from the node, only where a message is signed"
    );
}

/// DESIGN.md §8, "The client holds its key": a user's signing key lives on
/// its `UserHandle`, a validator's on the `SubnetNode` that runs it and on
/// the `Survivor` a crash leaves behind. The runtime's key ring is gone,
/// no field of `HierarchyRuntime`, `Subnets` or `SubnetRecord` holds a key
/// (or a handle, which carries one), `submit_with_fee` signs with
/// `user.key`, and an address's key is derived only where an account is
/// installed (and an installed one's handle dealt again), re-installed by
/// catch-up, or run as a validator.
#[test]
fn the_client_holds_its_key() {
    assert!(
        !root().join("crates/core/src/wallet.rs").exists(),
        "DESIGN.md §8: the key ring's module is gone"
    );
    let files: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|d| files_under(d))
        .collect();
    let ring = hits(
        &files,
        |s| s,
        |l| has_word(l, "Wallets") || has_word(l, "wallets") || l.contains("wallet.rs"),
    );
    assert!(
        ring.is_empty(),
        "DESIGN.md §8: the runtime's key ring is back: {ring:#?}"
    );
    let runtime = read_rel("crates/core/src/runtime.rs");
    let subnets = read_rel("crates/core/src/subnets.rs");
    let owners = [
        block(&runtime, "pub struct HierarchyRuntime {", "}"),
        block(&subnets, "pub(crate) struct Subnets {", "}"),
        block(&subnets, "pub(crate) struct SubnetRecord {", "}"),
    ];
    assert!(
        owners.iter().all(|o| !o.is_empty()),
        "DESIGN.md §8: the runtime, `Subnets` and `SubnetRecord` are where this rule looks"
    );
    let keyed: Vec<&str> = owners
        .concat()
        .into_iter()
        .filter(|l| is_field(l, false) && (l.contains("Keypair") || l.contains("UserHandle")))
        .collect();
    assert!(
        keyed.is_empty(),
        "DESIGN.md §8: the runtime holds no key; found {keyed:#?}"
    );
    let mut holders = Vec::new();
    for path in &files_under("crates/core/src") {
        let text = read(path);
        let mut owner = "";
        for line in non_test(&text).lines() {
            let decl = ["pub(crate) ", "pub "]
                .iter()
                .find_map(|p| line.strip_prefix(p))
                .unwrap_or(line);
            if let Some(name) = decl.strip_prefix("struct ") {
                owner = &name[..name.find(|c: char| !is_word(c)).unwrap_or(name.len())];
            }
            if is_field(line, false) && line.contains("Keypair") {
                holders.push(format!("{}: {owner}", rel(path)));
            }
        }
    }
    assert_eq!(
        holders,
        [
            "crates/core/src/config.rs: UserHandle",
            "crates/core/src/node/catch_up.rs: Survivor",
            "crates/core/src/node.rs: SubnetNode",
        ],
        "DESIGN.md §8: keys live on handles, nodes and crashed nodes only"
    );
    let users = read_rel("crates/core/src/users.rs");
    let submit = block(&users, "    pub fn submit_with_fee(", "    }");
    assert!(
        submit
            .iter()
            .any(|l| l.contains("SealedMessage::sign(msg, &user.key)")),
        "DESIGN.md §8: `submit_with_fee` signs with the handle's key; found {submit:#?}"
    );
    assert_eq!(
        core_calls("user_key("),
        [
            "crates/core/src/lifecycle.rs: refresh_validators",
            "crates/core/src/users.rs: install_account",
        ],
        "DESIGN.md §8: a key is derived at install and for a validator's run"
    );
}

/// DESIGN.md §6: the tier-1 command, `cargo build --release && cargo test
/// -q`, builds and tests every crate of the workspace, not only the root
/// package — the shims aside.
#[test]
fn tier_one_runs_the_workspace() {
    let manifest = read_rel("Cargo.toml");
    let workspace = block(&manifest, "[workspace]", "");
    assert!(
        workspace.contains(&r#"default-members = [".", "crates/*"]"#),
        "DESIGN.md §6: `[workspace]` keeps its `default-members` line; found {workspace:#?}"
    );
}

/// DESIGN.md §6: wall-clock is measured in one place, the `hc-e2e`
/// package under `e2e/`. The root workspace declares no `[[bench]]`
/// target, names no `criterion`, and has no `benches/` directory or
/// `criterion` shim.
#[test]
fn one_measuring_harness() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        manifests.extend(
            files_under(dir)
                .into_iter()
                .filter(|p| p.file_name().is_some_and(|n| n == "Cargo.toml")),
        );
    }
    let found = hits(
        &manifests,
        |s| s,
        |l| l.trim() == "[[bench]]" || has_word(l, "criterion"),
    );
    assert!(
        found.is_empty(),
        "DESIGN.md §6: a bench target or `criterion` in a workspace manifest: {found:#?}"
    );
    let benches = crate_dirs("benches");
    assert!(
        benches.is_empty(),
        "DESIGN.md §6: time a layer as an hc-e2e metric, not in {benches:?}"
    );
    assert!(
        !root().join("shims/criterion").exists(),
        "DESIGN.md §6: shims/criterion is gone with the benches"
    );
}

/// DESIGN.md §10, "Signature verdicts": a verdict lives on the
/// `SealedMessage` and nowhere else. `SigCache` is a node's two
/// verification counters — no set, queue or lock in `sigcache.rs` — and
/// the set's API, its capacity constant and the capacity a node once read
/// from `RuntimeConfig::sig_cache_capacity` (an inert field `e2e/` still
/// names) are gone.
#[test]
fn a_verdict_lives_on_the_value() {
    let sigcache = read_rel("crates/state/src/sigcache.rs");
    let kept: Vec<&str> = non_test(&sigcache)
        .lines()
        .filter(|l| {
            ["HashSet", "VecDeque", "Mutex"]
                .iter()
                .any(|w| l.contains(w))
        })
        .collect();
    assert!(
        kept.is_empty(),
        "DESIGN.md §10: `SigCache` keeps no verdicts; found {kept:#?}"
    );
    let files: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|d| files_under(d))
        .collect();
    let retired = [
        "lookup_or_verify",
        "mark_verified",
        "DEFAULT_SIG_CACHE_CAPACITY",
        "SigCache::new(",
    ];
    let found = hits(&files, |s| s, |l| retired.iter().any(|r| l.contains(r)));
    assert!(
        found.is_empty(),
        "DESIGN.md §10: the verdict set's API is back: {found:#?}"
    );
    let capacity: Vec<String> = hits(
        &files_under("crates"),
        |s| s,
        |l| l.contains("sig_cache_capacity"),
    )
    .into_iter()
    .filter(|h| !h.starts_with("crates/core/src/config.rs:"))
    .collect();
    assert!(
        capacity.is_empty(),
        "DESIGN.md §10: `sig_cache_capacity` is inert, declared only in config.rs; found {capacity:#?}"
    );
}

/// DESIGN.md §18, "Chain store": a chain keeps only its head decoded and
/// its history in wire form. No `Vec<Block>` holds history in hc-core's
/// non-test code — the peer copy a crash leaves is a `History` — and no
/// non-test crate code reads a chain through `get`/`get_by_epoch` (which
/// decode a history block into a memo) or walks it to its last block: the
/// head is `head_block()`, a history header `header_at`, and everything
/// else streams. `get_index` and `into_blocks` are gone.
#[test]
fn history_is_held_in_wire_form() {
    let held = hits(&files_under("crates/core/src"), non_test, |l| {
        l.contains("Vec<Block>")
    });
    assert!(
        held.is_empty(),
        "DESIGN.md §18: history is held in wire form, as a `History`; found {held:#?}"
    );
    let decoding_reads = [
        "chain.get(",
        "chain().get(",
        "chain.get_by_epoch(",
        "chain().get_by_epoch(",
        "chain.iter().last(",
        "chain().iter().last(",
        "get_index(",
        "into_blocks(",
    ];
    let mut found = Vec::new();
    for path in &crate_sources() {
        if rel(path) == "crates/chain/src/store.rs" {
            continue;
        }
        // Whitespace goes, so a method chain split over lines still reads
        // as one call.
        let text = read(path);
        let flat: String = non_test(&text).split_whitespace().collect();
        found.extend(
            decoding_reads
                .iter()
                .filter(|r| flat.contains(*r))
                .map(|r| format!("{}: {r}", rel(path))),
        );
    }
    assert!(
        found.is_empty(),
        "DESIGN.md §18: non-test code reads the head through `head_block()` and history \
         through `header_at` or a streaming read; found {found:#?}"
    );
}

/// DESIGN.md §4, "Test harness": the hc-core suites build their worlds on
/// one `Harness`, so only its module constructs a runtime or defines
/// `whole`.
#[test]
fn one_test_world() {
    let suites = files_under("crates/core/tests");
    let found = hits(
        &suites,
        |s| s,
        |l| l.contains("HierarchyRuntime::new(") || l.contains("fn whole("),
    );
    let (harness, elsewhere): (Vec<String>, Vec<String>) = found
        .into_iter()
        .partition(|h| h.starts_with("crates/core/tests/common/mod.rs:"));
    assert!(
        harness.len() == 2 && elsewhere.is_empty(),
        "DESIGN.md §4 (Test harness): only `common::Harness` builds a world; \
         found {elsewhere:#?} beside {harness:#?}"
    );
}

/// DESIGN.md §4, "Test harness": the safety story is checked by one
/// function, `HierarchyRuntime::check_invariants`. The partial audits it
/// replaced occur in no Rust file, `run_wave` and `recover` both end in it,
/// and the hc-core harness's `check_state` re-implements none of it.
#[test]
fn one_invariant_check() {
    let files: Vec<PathBuf> = ["crates", "src", "tests", "examples", "e2e", "shims"]
        .iter()
        .flat_map(|d| files_under(d))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    let retired = [
        "audit_escrow",
        "audit_window_digests",
        "SupplyReport",
        "supply_report",
    ];
    let found = hits(&files, |s| s, |l| retired.iter().any(|r| l.contains(r)));
    assert!(
        found.is_empty(),
        "DESIGN.md §4: one invariant check; the partial audits are back: {found:#?}"
    );
    let runtime = read_rel("crates/core/src/runtime.rs");
    let recover = read_rel("crates/core/src/recover.rs");
    for (src, opener, name) in [
        (
            &runtime,
            "    fn run_wave(&mut self, members: &[SubnetId]) -> Result<Vec<StepReport>, RuntimeError> {",
            "run_wave",
        ),
        (
            &recover,
            "    pub fn recover(config: RuntimeConfig) -> Self {",
            "recover",
        ),
    ] {
        let body = block(src, opener, "    }");
        assert!(
            body.iter().any(|l| l.contains(".check_invariants")),
            "DESIGN.md §4: `{name}` ends in `check_invariants`"
        );
    }
    let harness = read_rel("crates/core/tests/common/mod.rs");
    let check_state = block(&harness, "    pub fn check_state(&self) {", "    }");
    assert!(
        !check_state.is_empty()
            && check_state
                .iter()
                .all(|l| !l.contains("recompute_root") && !l.contains("verify_checkpoint_chain")),
        "DESIGN.md §4: `Harness::check_state` is one call to `check_invariants`: {check_state:#?}"
    );
}

/// DESIGN.md §10, "the hash-once rule": outside `#[cfg(test)]`, a cross-msg
/// group's digest — the CID of its encoding — is derived in one place, the
/// private memo of `MsgGroup`, which the trait's `cid` on a group also
/// reads, and no Merkle root of a group is left; a block's payload root is
/// derived in `Block::seal` and the cold path of its memo, in one SHA-256
/// pass over the carried messages' CIDs and commitment forms, with no
/// `MerkleTree`; hc-types compresses SHA-256 blocks in one place, the
/// streaming `Sha256` that `sha256` is a call of; an SCA's checkpoint
/// window digest is filled in one place, as a message is queued or decoded;
/// a sealed message's body is encoded and hashed once, and a payload root
/// absorbs its CID and signature (no envelope CID exists); and a fund
/// certificate is held under its
/// message by value and found by the settling message, borrowed, with no
/// digest.
#[test]
fn content_is_hashed_once() {
    let sources = crate_sources();
    let roots = hits(&sources, non_test, |l| l.contains("merkle_root("));
    assert!(
        roots.is_empty(),
        "DESIGN.md §10: a group's digest is no Merkle root; found {roots:#?}"
    );
    let msg = read_rel("crates/actors/src/msg.rs");
    let msg = non_test(&msg);
    let memo = block(msg, "    pub fn cid(&self) -> Cid {", "    }");
    let derivations: Vec<&str> = msg
        .lines()
        .filter(|l| l.contains("self.msgs.c") || l.contains("get_or_init("))
        .collect();
    assert!(
        derivations.len() == 1
            && memo.contains(&derivations[0])
            && derivations[0].contains("self.cid.get_or_init(|| self.msgs.cid())"),
        "DESIGN.md §10: a group's digest is derived only in `MsgGroup`'s memo, \
         from its encoding; found {derivations:#?}"
    );
    let trait_cid = block(msg, "impl CanonicalEncode for MsgGroup {", "}");
    assert!(
        trait_cid.iter().any(|l| l.trim() == "MsgGroup::cid(self)"),
        "DESIGN.md §10: a group's `CanonicalEncode::cid` is its memo: {trait_cid:#?}"
    );
    let payload_roots = hits(&sources, non_test, |l| l.contains("compute_msgs_root("));
    assert!(
        payload_roots.len() == 3
            && payload_roots
                .iter()
                .all(|h| h.starts_with("crates/chain/src/block.rs:")),
        "DESIGN.md §10: a payload root is derived only in `Block`; found {payload_roots:#?}"
    );
    let block_rs = read_rel("crates/chain/src/block.rs");
    let block_rs = non_test(&block_rs);
    let payload_root = block(
        block_rs,
        "    fn compute_msgs_root(signed: &[SealedMessage], implicit: &[ImplicitMsg]) -> Cid {",
        "    }",
    );
    assert!(
        !block_rs.contains("MerkleTree")
            && payload_root
                .iter()
                .filter(|l| l.contains("Sha256::new()"))
                .count()
                == 1
            && payload_root
                .iter()
                .any(|l| l.contains(".write_commitment(")),
        "DESIGN.md §10: a payload root is one pass over the payload, no `MerkleTree`: \
         {payload_root:#?}"
    );

    // One compression path: `compress` is called only by `Sha256`, and the
    // one-shot `sha256` is a `Sha256`.
    let types = files_under("crates/types/src");
    let compressing: Vec<String> = types
        .iter()
        .filter(|p| non_test(&read(p)).contains("compress("))
        .map(|p| rel(p))
        .collect();
    assert_eq!(
        compressing,
        ["crates/types/src/crypto/sha2.rs"],
        "DESIGN.md §10: hc-types compresses in one file"
    );
    let sha2 = read_rel("crates/types/src/crypto/sha2.rs");
    let sha2 = non_test(&sha2);
    let streaming = block(sha2, "impl Sha256 {", "}");
    let outside: Vec<&str> = sha2
        .lines()
        .filter(|l| l.contains("compress(") && !l.starts_with("fn compress("))
        .filter(|l| !streaming.contains(l))
        .collect();
    assert!(
        outside.is_empty(),
        "DESIGN.md §10: only `Sha256` compresses; also {outside:#?}"
    );
    let one_shot = block(sha2, "pub fn sha256(data: &[u8]) -> [u8; 32] {", "}");
    assert!(
        one_shot.iter().any(|l| l.contains("Sha256::new()")),
        "DESIGN.md §10: `sha256` goes through `Sha256`: {one_shot:#?}"
    );

    // One fill site for the SCA's window digest.
    let sca = read_rel("crates/actors/src/sca.rs");
    let fills: Vec<&str> = non_test(&sca)
        .lines()
        .filter(|l| l.contains(".update("))
        .collect();
    let absorb = block(
        non_test(&sca),
        "    fn absorb(&mut self, msg: &CrossMsg) {",
        "    }",
    );
    assert!(
        fills.len() == 1 && absorb.contains(&fills[0]),
        "DESIGN.md §10: the window digest is filled only in `WindowDigest::absorb`; \
         found {fills:#?}"
    );
    let absorbs = non_test(&sca).matches(".absorb(").count();
    assert_eq!(
        absorbs, 2,
        "DESIGN.md §10: a window message is absorbed where it is queued and where it is decoded"
    );

    // One pass per sealed message: one encoding of the body, one digest of
    // it, and no envelope CID — the payload root absorbs each message's CID
    // and signature.
    let sealed = read_rel("crates/state/src/sealed.rs");
    let sealed = non_test(&sealed);
    let digests: Vec<&str> = sealed
        .lines()
        .filter(|l| l.contains(".cid()") || l.contains("Cid::digest(") || l.contains("sha256("))
        .collect();
    let of = block(sealed, "    fn of(message: &Message) -> Self {", "    }");
    assert!(
        digests.len() == 1
            && of.contains(&digests[0])
            && sealed.matches("canonical_bytes()").count() == 1
            && !sealed.contains("Sha256")
            && !sealed.contains("pub fn cid("),
        "DESIGN.md §10: a sealed message hashes its body once, in `Digests::of`, and has no \
         envelope CID; found {digests:#?}"
    );
    assert!(
        payload_root.iter().any(|l| l.contains("msg.msg_cid()"))
            && payload_root.iter().any(|l| l.contains("msg.signature()")),
        "DESIGN.md §10: a payload root absorbs each message's CID and signature: \
         {payload_root:#?}"
    );

    // A held certificate is found by its message, borrowed and compared
    // without the nonce: no digest, and no copy of the settling message.
    let tentative = read_rel("crates/core/src/node/tentative.rs");
    let tentative = non_test(&tentative);
    let digests: Vec<&str> = tentative
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .filter(|l| {
            let l = l.to_lowercase();
            l.contains("cid(") || l.contains("digest") || l.contains("sha256")
        })
        .collect();
    assert!(
        digests.is_empty(),
        "DESIGN.md §10: a settlement key computes no digest; found {digests:#?}"
    );
    let settled = block(
        tentative,
        "    pub(super) fn payment_settled(&mut self, msg: &CrossMsg, source_head: Option<ChainEpoch>) {",
        "    }",
    );
    let lookup = settled
        .iter()
        .position(|l| l.contains("msg as &dyn Unstamped"));
    let copy = settled.iter().position(|l| l.contains("clone()"));
    assert!(
        lookup.is_some() && copy.is_none_or(|c| Some(c) > lookup),
        "DESIGN.md §10: a settling message is looked up borrowed: {settled:#?}"
    );
}

/// DESIGN.md §12, "Cross-net content: on its route, until used": hc-core
/// never reads a group the resolver keeps and leaves it there. The
/// cross-msg pool and a turnaround take it through `lookup_or_pull`, a
/// forwarding cut through `Resolver::take` in `apply_event`; outside tests
/// no `cache().get(` remains in hc-core. Nothing puts a group into a cache
/// but the network: a node serves the groups it cut from its registry, and
/// the seeding calls are gone from every crate.
#[test]
fn cross_net_content_is_held_until_used() {
    let mut reads = Vec::new();
    for path in &files_under("crates/core/src") {
        // Whitespace goes, so a method chain split over lines still reads
        // as one call.
        let text = read(path);
        let flat: String = non_test(&text).split_whitespace().collect();
        if flat.contains("cache().get(") {
            reads.push(rel(path));
        }
    }
    assert!(
        reads.is_empty(),
        "DESIGN.md §12: a group leaves the resolver when it is used; `cache().get(` in {reads:#?}"
    );
    assert_eq!(
        core_calls("resolver.take("),
        ["crates/core/src/node.rs: apply_event"],
        "DESIGN.md §12: a forwarded group leaves the cache with the cut that carries it on"
    );
    let retired = [
        "resolver.seed(",
        "Resolver::seed",
        "insert_sealed",
        "seed_content",
    ];
    let seeds = hits(
        &crate_sources(),
        |s| s,
        |l| retired.iter().any(|r| l.contains(r)),
    );
    assert!(
        seeds.is_empty(),
        "DESIGN.md §12: only the network fills a resolver's cache; found {seeds:#?}"
    );
    let resolver = read_rel("crates/net/src/resolver.rs");
    assert!(
        !resolver.contains("pub fn seed("),
        "DESIGN.md §12: `Resolver::seed` is back"
    );
}

/// DESIGN.md §10, "the hash-once rule": the workspace's one `unsafe` block
/// is `compress`'s call into the SHA-extensions kernel, under a `SAFETY:`
/// comment, and every crate but hc-types forbids unsafe code outright.
/// Beside it, hc-types' `CountingAlloc` implements `GlobalAlloc`, an unsafe
/// trait (DESIGN.md §18): the impl, under a `SAFETY:` comment, and its two
/// methods are the only other lines that say `unsafe`.
#[test]
fn one_unsafe_block() {
    let mut dirs = crate_dirs("src");
    dirs.extend(["src", "e2e/src"].map(String::from));
    for dir in &dirs {
        let lib = format!("{dir}/lib.rs");
        let want = if lib == "crates/types/src/lib.rs" {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            read_rel(&lib).lines().any(|l| l == want),
            "DESIGN.md §10: {lib} must say `{want}`"
        );
    }

    let sources: Vec<PathBuf> = dirs
        .iter()
        .flat_map(|d| files_under(d))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    let code = |l: &str| l.split("//").next().unwrap_or_default().to_owned();
    let blocks = hits(&sources, non_test, |l| has_word(&code(l), "unsafe"));
    let sha2 = read_rel("crates/types/src/crypto/sha2.rs");
    let compress = block(
        non_test(&sha2),
        "fn compress(state: &mut [u32; 8], block: &[u8; 64]) {",
        "}",
    );
    // Whether the comment lines right above line `at` of `lines` hold a
    // `// SAFETY:` one.
    let justified = |lines: &[&str], at: Option<usize>| {
        at.is_some_and(|at| {
            lines[..at]
                .iter()
                .rev()
                .map(|l| l.trim_start())
                .take_while(|l| l.starts_with("//"))
                .any(|l| l.starts_with("// SAFETY:"))
        })
    };
    let at = compress.iter().position(|l| has_word(&code(l), "unsafe"));
    let (sha2_blocks, alloc_lines): (Vec<&String>, Vec<&String>) = blocks
        .iter()
        .partition(|b| b.starts_with("crates/types/src/crypto/sha2.rs:"));
    assert!(
        sha2_blocks.len() == 1 && justified(&compress, at),
        "DESIGN.md §10: the one `unsafe` block is in `fn compress`, directly under a \
         `// SAFETY:` comment; found {blocks:#?}"
    );

    let counter_src = read_rel("crates/types/src/alloc_counter.rs");
    let counter_src = non_test(&counter_src);
    let counter: Vec<&str> = counter_src.lines().collect();
    let opener = "unsafe impl GlobalAlloc for CountingAlloc {";
    let at = counter.iter().position(|l| *l == opener);
    let in_impl: Vec<&str> = block(counter_src, opener, "}")
        .into_iter()
        .filter(|l| has_word(&code(l), "unsafe"))
        .map(|l| l.trim().split('(').next().unwrap_or_default())
        .collect();
    assert!(
        justified(&counter, at)
            && alloc_lines.len() == 3
            && alloc_lines
                .iter()
                .all(|l| l.starts_with("crates/types/src/alloc_counter.rs:"))
            && in_impl == [opener, "unsafe fn alloc", "unsafe fn dealloc"],
        "DESIGN.md §18: besides `fn compress`, only `CountingAlloc`'s `GlobalAlloc` impl, \
         directly under a `// SAFETY:` comment, and its `alloc`/`dealloc` say `unsafe`; \
         found {blocks:#?}"
    );
}

/// DESIGN.md §10, "Message layout": every committed block keeps its user
/// messages for ever, so a message's size is pinned where it is declared —
/// compile-time asserts on `Method`, `Message` and `SealedMessage`, under the
/// rule that boxes a `Method` variant whose payload exceeds 32 B.
#[test]
fn hot_values_stay_small() {
    let message = read_rel("crates/state/src/message.rs");
    let code = non_test(&message);
    for pin in [
        "const _: () = assert!(size_of::<Method>() <= 40);",
        "const _: () = assert!(size_of::<Message>() <= 80);",
        "const _: () = assert!(size_of::<crate::SealedMessage>() <= 224);",
    ] {
        assert!(
            code.lines().any(|l| l == pin),
            "DESIGN.md §10: crates/state/src/message.rs must keep `{pin}`"
        );
    }
    assert!(
        code.lines()
            .any(|l| l == "// Rule: a `Method` variant whose payload exceeds 32 B is boxed."),
        "DESIGN.md §10: the size pins state the boxing rule"
    );
}

/// DESIGN.md §14, "Routes kept beside accounts": a key is routed once.
/// `hash_key` is `hamt.rs`'s one key hash, run by the plain `get`, `set`
/// and `delete` and by a leaf split; the route-taking forms descend along
/// a route the caller holds, and the one-pass `Hamt::build` takes routes
/// from its caller. The state tree hashes an address in `route`, the first
/// time it is routed, and in `recompute_root`. The accounts HAMT has one
/// build, `build_accounts_hamt` (`Hamt::build`): the first flush's
/// `rebuild` feeds it every account through `route`, which keeps the
/// routes, and the from-scratch reference feeds it fresh hashes and reads
/// no kept route. A read descends through `get_at` and a write through
/// `get_mut_at`, both along the kept route, and the incremental flush
/// moves created accounts in through `set_at`; the put-back reads nothing.
#[test]
fn a_key_is_routed_once() {
    let hamt = read_rel("crates/state/src/hamt.rs");
    assert_eq!(
        calls_in(non_test(&hamt), &["hash_key("]),
        [
            "get: hash_key(",
            "set: hash_key(",
            "set_rec: hash_key(",
            "delete: hash_key("
        ],
        "DESIGN.md §14: hamt.rs routes a key by `hash_key` in the plain forms and a leaf split"
    );
    assert_eq!(
        calls_in(non_test(&hamt), &["Self::subtree("]),
        [
            "set_rec: Self::subtree(",
            "build: Self::subtree(",
            "subtree: Self::subtree("
        ],
        "DESIGN.md §14: a leaf split and a whole-tree build share the one-pass builder"
    );
    let routing = [
        "hash_key(",
        ".routed(",
        ".routed_all(",
        ".routes(",
        "build_accounts_hamt(",
        ".set(",
        ".set_at(",
        ".get_at(",
        ".get_mut_at(",
        ".delete(",
        "committed.get(",
    ];
    let tree = read_rel("crates/state/src/tree.rs");
    assert_eq!(
        calls_in(non_test(&tree), &routing),
        [
            "get: .get_at(",
            "get_or_create: .get_mut_at(",
            "commit_created: .set_at(",
            "rebuild: build_accounts_hamt(",
            "route: hash_key(",
            "recompute_root: hash_key(",
            "recompute_root: build_accounts_hamt("
        ],
        "DESIGN.md §14: the state tree hashes an address only when it is first routed and in \
         the from-scratch reference, builds the accounts HAMT one way, and reads, writes and \
         the flush go through the route-taking forms"
    );
    let chunk = read_rel("crates/state/src/chunk.rs");
    let builder: Vec<String> = calls_in(
        non_test(&chunk),
        &[&routing[..], &["Hamt::build("]].concat(),
    )
    .into_iter()
    .filter(|site| site.starts_with("build_accounts_hamt:"))
    .collect();
    assert_eq!(
        builder,
        ["build_accounts_hamt: Hamt::build("],
        "DESIGN.md §14: the accounts HAMT is built in one pass from the routes it is given"
    );
}

/// DESIGN.md §14, "One home per account": the committed account HAMT is
/// the account table. `Accounts` holds the HAMT, an address → route index
/// and the overlay of accounts created since the last flush — no other
/// `AccountState` collection exists in non-test `tree.rs`, and the chunk
/// commitment keeps no HAMT of its own. Nothing copies an account to keep
/// it: a write lands in place, the flush and the first build move accounts
/// into their leaves, and a refused block's put-back restores the HAMT
/// `commit_if` set aside, looping over no account.
#[test]
fn an_account_has_one_home() {
    let text = read_rel("crates/state/src/tree.rs");
    let tree = non_test(&text);
    let fields: Vec<&str> = block(tree, "pub struct Accounts {", "}")
        .into_iter()
        .filter(|l| is_field(l, false))
        .map(str::trim)
        .collect();
    assert_eq!(
        fields,
        [
            "committed: Hamt<Address, AccountState>,",
            "routes: HashMap<Address, Route>,",
            "created: BTreeMap<Address, AccountState>,"
        ],
        "DESIGN.md §14: `Accounts` holds the HAMT, the route index and the overlay of created \
         accounts, nothing else"
    );
    let maps = hits(
        [root().join("crates/state/src/tree.rs")].iter(),
        non_test,
        |l| {
            [
                "Map<Address, AccountState>",
                "Vec<(Address, AccountState)>",
                "struct Entry",
            ]
            .iter()
            .any(|t| l.contains(t))
        },
    );
    assert_eq!(
        maps.len(),
        1,
        "DESIGN.md §14: the overlay is the one map of accounts beside the HAMT; found {maps:#?}"
    );
    let chunk = read_rel("crates/state/src/chunk.rs");
    let commitment = block(non_test(&chunk), "pub(crate) struct Commitment {", "}");
    assert!(
        !commitment.is_empty() && !commitment.iter().any(|l| l.contains("Hamt<")),
        "DESIGN.md §14: the commitment keeps no account HAMT beside the table"
    );
    for name in [
        "get_or_create",
        "commit_created",
        "rebuild",
        "put_back",
        "flush",
        "rebuild_commitment",
    ] {
        let body = body_of(tree, name);
        let copies: Vec<&&str> = body
            .iter()
            .filter(|l| l.contains(".clone()") || l.contains(".cloned()"))
            .collect();
        assert!(
            body.len() > 2 && copies.is_empty(),
            "DESIGN.md §14: `{name}` copies no account; found {copies:#?}"
        );
    }
    let commit_if = body_of(tree, "commit_if");
    let set_aside: Vec<&str> = commit_if
        .iter()
        .filter(|l| l.contains(".clone()") && l.contains("accounts"))
        .map(|l| l.trim())
        .collect();
    assert!(
        set_aside == ["let committed = self.accounts.committed.clone();"]
            && commit_if.iter().any(|l| l.contains("put_back(committed"))
            && !commit_if.iter().any(|l| l.trim_start().starts_with("for ")),
        "DESIGN.md §14: `commit_if` sets the HAMT aside whole and a refused block's put-back \
         restores it, with no per-account loop; found {set_aside:#?}"
    );
}

/// DESIGN.md §13, "Verification and install": a snapshot install reads no
/// block. The skip walk that chains the covered blocks collects their
/// senders (`skip_past`) and hands them to `install_snapshot`, which reads
/// the chain only for the anchor's header — the trust root — and settles
/// the floors of the senders it is given.
#[test]
fn a_snapshot_install_reads_no_block() {
    let text = read_rel("crates/core/src/node.rs");
    let install = body_of(non_test(&text), "install_snapshot");
    let reads: Vec<&&str> = install
        .iter()
        .filter(|l| {
            [
                "chain.iter(",
                "chain.get(",
                "get_by_epoch(",
                "head_block(",
                "signed_msgs",
                "Block::decode(",
                ".decode()",
            ]
            .iter()
            .any(|r| l.contains(r))
        })
        .collect();
    assert!(
        install.len() > 2
            && reads.is_empty()
            && install.iter().any(|l| l.contains("header_at(epoch)"))
            && install
                .iter()
                .any(|l| l.contains("senders: &BTreeSet<Address>")),
        "DESIGN.md §13: `install_snapshot` reads the anchor's header and no block, and settles \
         the senders its skip walk hands it; found {reads:#?}"
    );
    let skip = body_of(non_test(&text), "skip_past");
    assert!(
        skip.iter().any(|l| l.contains("senders.extend(")),
        "DESIGN.md §13: the skip walk collects the senders of the blocks it skips"
    );
}

/// DESIGN.md §14, "Path invalidation and flush accounting": a HAMT node is
/// hashed one way. `node_cid` hashes through the resumable `Sha256`; a
/// flush produces every node CID through it, and the key's routing digest
/// (`hash_key`) is the file's one other hash — no second path hashes a
/// node from scratch.
#[test]
fn a_hamt_node_is_hashed_one_way() {
    let text = read_rel("crates/state/src/hamt.rs");
    let src = non_test(&text);
    assert_eq!(
        calls_in(src, &["sha256(", "Sha256::", "digest("]),
        [
            "hash_key: sha256(",
            "node_cid: Sha256::",
            "node_cid: Sha256::"
        ],
        "DESIGN.md §14: hamt.rs hashes a key in `hash_key` and a node in `node_cid`, nowhere else"
    );
    let mut callers = calls_in(src, &["node_cid("]);
    callers.dedup();
    assert_eq!(
        callers,
        ["flush_node: node_cid("],
        "DESIGN.md §14: a node CID comes from `node_cid` in `flush_node`"
    );
    let node_cid = src
        .split_once("fn node_cid(")
        .map(|(_, rest)| rest.split_once("\n}\n").map_or(rest, |(body, _)| body))
        .unwrap_or_default();
    assert!(
        node_cid.contains("Sha256::resume(") && node_cid.contains("update_recording("),
        "DESIGN.md §14: `node_cid` resumes from and records chaining values"
    );
}

/// DESIGN.md §8, "State changes only through blocks": a node's tree moves
/// only when a block executes on it. An account a client creates or adopts
/// is queued on its node and installed by the next block
/// (`ImplicitMsg::InstallAccounts`), so every block re-executes from its
/// parent's state and its own messages alone. No write between blocks and
/// no second log of such writes is left in hc-core: no
/// `write_account`, no record of installs on the subnet's record, the
/// catch-up or the journal, and no `accounts_mut(` outside tests.
#[test]
fn state_changes_only_through_blocks() {
    let retired = [
        "write_account",
        "user_installs",
        "pending_users",
        "UserCreated",
        "UserAdopted",
    ];
    let found = hits(&files_under("crates/core/src"), non_test, |l| {
        retired.iter().any(|w| has_word(l, w)) || l.contains("accounts_mut(")
    });
    assert!(
        found.is_empty(),
        "DESIGN.md §8: state changes only through blocks; found a write or a log of \
         writes outside one: {found:#?}"
    );
}

/// DESIGN.md §9, "One way to execute a block": production and validation
/// run the same payload in place on the same `StateTree`; validation wraps
/// it in `StateTree::commit_if`, which puts a refused block back. The VM's
/// state surface has two backends — the tree and a parallel lane's
/// `LaneOverlay` over the tree — and no second execution backend, with its
/// own ledger and commitment, exists beside them.
#[test]
fn a_block_executes_one_way() {
    let sources = crate_sources();
    let mut backends: Vec<String> = hits(&sources, non_test, |l| {
        l.trim_start().starts_with("impl") && l.contains(" StateAccess for ")
    })
    .iter()
    .map(|h| {
        let target = h.split(" StateAccess for ").nth(1).unwrap_or_default();
        target[..target.find(|c: char| !is_word(c)).unwrap_or(target.len())].to_string()
    })
    .collect();
    backends.sort();
    assert_eq!(
        backends,
        ["LaneOverlay", "StateTree"],
        "DESIGN.md §9: the VM runs over the tree and a lane's overlay of it, nothing else"
    );

    let parallel = read_rel("crates/state/src/parallel.rs");
    let declaration = non_test(&parallel)
        .split_once("pub struct LaneOverlay")
        .and_then(|(_, rest)| rest.split_once('{'))
        .map(|(head, _)| head.trim())
        .unwrap_or_default();
    let params = declaration
        .strip_prefix('<')
        .and_then(|p| p.strip_suffix('>'))
        .unwrap_or_default();
    assert!(
        !params.is_empty() && params.split(',').all(|p| p.trim().starts_with('\'')),
        "DESIGN.md §9: `LaneOverlay` borrows the tree and takes no type parameter: \
         `LaneOverlay{declaration}`"
    );

    let executor = read_rel("crates/chain/src/executor.rs");
    let body = non_test(&executor)
        .split_once("pub fn execute_block_with(")
        .map(|(_, rest)| rest.split_once("\n}\n").map_or(rest, |(body, _)| body))
        .unwrap_or_default();
    let calls = body.matches("execute_payload(").count();
    let guarded = body.find("commit_if(").map_or(0, |at| {
        last_arg(body, at + "commit_if".len())
            .matches("execute_payload(")
            .count()
    });
    assert!(
        calls > 0 && guarded == calls,
        "DESIGN.md §9: `execute_block_with` runs `execute_payload` only inside `commit_if`"
    );

    let overlay = hits(&sources, non_test, |l| {
        ["StateOverlay", "OverlayChanges", "apply_changes"]
            .iter()
            .any(|w| has_word(l, w))
    });
    assert!(
        overlay.is_empty(),
        "DESIGN.md §9: no second validation backend; found {overlay:#?}"
    );
}

/// DESIGN.md §4 and §7, "A checkpoint is checked one way": every Subnet
/// Actor and every BFT engine applies one quorum rule — `SignaturePolicy`
/// is a struct over a signer set, not a choice of schemes, and its count
/// (more than two-thirds) is written once — and the history a light client
/// audits is read from the parent's committed blocks — its chain, which
/// holds them from epoch 1 — where each checkpoint is held once: no copy
/// on the subnet's record or in the runtime, and no
/// AMT, proof or GC pin whose root nothing commits to.
#[test]
fn a_checkpoint_is_checked_one_way() {
    let multisig = read_rel("crates/types/src/crypto/multisig.rs");
    let policy = block(non_test(&multisig), "pub struct SignaturePolicy {", "}");
    assert!(
        !policy.is_empty() && !multisig.contains("pub enum SignaturePolicy"),
        "DESIGN.md §4: `SignaturePolicy` is one struct, not a choice of schemes"
    );
    let fraction = policy
        .iter()
        .filter(|l| has_word(l, "num") || has_word(l, "den"));
    assert_eq!(
        fraction.count(),
        0,
        "DESIGN.md §4: the quorum fraction is fixed, not a field"
    );
    let mut files = crate_sources();
    files.extend(crate_dirs("tests").iter().flat_map(|d| files_under(d)));
    let schemes = hits(
        &files,
        |s| s,
        |l| {
            ["Single", "MultiSig", "Threshold"]
                .iter()
                .any(|v| l.contains(&format!("SignaturePolicy::{v}")))
        },
    );
    assert!(
        schemes.is_empty(),
        "DESIGN.md §4: no signature scheme beside the quorum; found {schemes:#?}"
    );
    let counts = hits(&crate_sources(), non_test, |l| {
        let code: String = l.chars().filter(|c| !c.is_whitespace()).collect();
        !code.starts_with("//") && (code.contains("*2/3") || code.contains("/3+1"))
    });
    assert_eq!(
        counts.len(),
        1,
        "DESIGN.md §4: the quorum count is computed once; found {counts:#?}"
    );

    let copies = hits(&files_under("crates/core/src"), non_test, |l| {
        ["checkpoint_history", "ArchiveEntry", "archived"]
            .iter()
            .any(|w| has_word(l, w))
    });
    assert!(
        copies.is_empty(),
        "DESIGN.md §7: a committed checkpoint is held once, in the parent block that \
         committed it; found a second copy: {copies:#?}"
    );
    let verify = read_rel("crates/core/src/archive.rs");
    let body = |name: &str| {
        non_test(&verify)
            .split_once(name)
            .map(|(_, rest)| rest.split_once("\n    }\n").map_or(rest, |(body, _)| body))
            .unwrap_or_default()
            .to_owned()
    };
    let (verify_fn, read_fn) = (
        body("pub fn verify_checkpoint_chain("),
        body("pub(crate) fn committed_checkpoints("),
    );
    assert!(
        verify_fn.contains("self.committed_checkpoints(")
            && ["CommitChildCheckpoint", ".chain().iter()"]
                .iter()
                .all(|read| read_fn.contains(read))
            && !read_fn.contains(".peers"),
        "DESIGN.md §7: `verify_checkpoint_chain` reads the checkpoints the parent's committed \
         blocks carry (`committed_checkpoints`) from its chain alone, not its record's `peers`"
    );
    let archive = ["crates/core/src/archive.rs", "crates/core/src/subnets.rs"];
    let archive: Vec<PathBuf> = archive.iter().map(|p| root().join(p)).collect();
    let pinned = hits(&archive, non_test, |l| {
        [
            "Amt",
            "AmtProof",
            "AmtRoot",
            "prove",
            "persist",
            "registry_root",
        ]
        .iter()
        .any(|w| has_word(l, w))
    });
    assert!(
        pinned.is_empty(),
        "DESIGN.md §7: the history carries no AMT, proof or GC pin that nothing commits \
         to; found {pinned:#?}"
    );
    let runtime = read_rel("crates/core/src/runtime.rs");
    let archive_field = block(&runtime, "pub struct HierarchyRuntime {", "}")
        .into_iter()
        .filter(|l| is_field(l, false) && l.trim_start_matches(' ').contains("archive:"))
        .count();
    assert_eq!(
        archive_field, 0,
        "DESIGN.md §7: the history lives in the parent's chain, not in a runtime archive"
    );
}
