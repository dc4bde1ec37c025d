//! The mutation corpus (`tests/mutants/`, see its README): every record
//! names a file, a test command, and an original snippet that occurs
//! exactly once in that file, with a mutant that differs from it. A
//! refactor that moves mutated code must re-target its records, as a guard
//! ceiling is re-pinned; applying the mutants is left to a run by hand.

use std::fs;
use std::path::{Path, PathBuf};

/// One parsed `.mutant` record.
#[derive(Debug)]
struct Record {
    path: PathBuf,
    file: String,
    test: String,
    original: String,
    mutant: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Parses `text`: `key: value` header lines (and `#` comments) up to
/// `--- original`, the original snippet up to `--- mutant`, the mutant to
/// the end.
fn parse(path: PathBuf, text: &str) -> Record {
    let (head, snippets) = text
        .split_once("--- original\n")
        .unwrap_or_else(|| panic!("{}: no `--- original` line", path.display()));
    let (original, mutant) = snippets
        .split_once("--- mutant\n")
        .unwrap_or_else(|| panic!("{}: no `--- mutant` line", path.display()));
    let field = |key: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(": "))
            .unwrap_or_else(|| panic!("{}: no `{key}:` line", path.display()))
            .to_string()
    };
    Record {
        file: field("file"),
        test: field("test"),
        original: original.trim_end_matches('\n').to_string(),
        mutant: mutant.trim_end_matches('\n').to_string(),
        path,
    }
}

fn records() -> Vec<Record> {
    let dir = root().join("tests/mutants");
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "mutant"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("a readable record");
            parse(path, &text)
        })
        .collect()
}

#[test]
fn every_mutant_targets_one_live_snippet() {
    let records = records();
    assert!(!records.is_empty(), "the corpus holds records");
    let mut stale = Vec::new();
    for r in &records {
        let source = fs::read_to_string(root().join(&r.file))
            .unwrap_or_else(|e| panic!("{}: {}: {e}", r.path.display(), r.file));
        let found = source.matches(r.original.as_str()).count();
        if found != 1 {
            stale.push(format!(
                "{}: found {found} times in {}",
                r.path.display(),
                r.file
            ));
        }
        assert!(
            !r.original.trim().is_empty() && r.original != r.mutant,
            "{}: the mutant must change a non-empty snippet",
            r.path.display()
        );
        assert!(
            r.test.starts_with("cargo test "),
            "{}: the test is a `cargo test` command",
            r.path.display()
        );
    }
    assert!(
        stale.is_empty(),
        "each original snippet must occur exactly once in its file; re-target: {stale:#?}"
    );
}
