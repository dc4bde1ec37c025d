#!/usr/bin/env bash
# Runs the mutation corpus: every record in this directory (or only the
# records named on the command line) must be caught by its test command.
#
#   tests/mutants/run.sh [RECORD.mutant ...]
#
# The workspace is copied once to a temporary directory (without `target/`
# and `.git/`), where the builds happen. Each distinct test command first
# runs on the clean copy and must pass there; then each mutant is applied
# to the copy, its record's test command runs, and the file is put back.
# A mutant whose command passes has survived. The script exits non-zero if
# any clean run failed or any mutant survived. Set CARGO_TARGET_DIR to
# reuse a build directory between runs; never point it at a build
# directory other commands use, since it is left holding the last mutant's
# build.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)

tmp=$(mktemp -d "${TMPDIR:-/tmp}/hc-mutants.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
work="$tmp/workspace" log="$tmp/log" saved="$tmp/original"
mkdir "$work"
# Extracted with fresh timestamps (`-m`): a build directory reused from an
# earlier run may hold a crate built from a mutant, and cargo only rebuilds
# what is newer than its last build.
tar -C "$root" --exclude=./target --exclude=./e2e/target --exclude=./.git -cf - . |
    tar -C "$work" -xmf -

# The records are read from the copy, so the run sees one snapshot.
records=()
for record in "$@"; do
    records+=("$work/$(realpath --relative-to="$root" "$record")")
done
[ ${#records[@]} -gt 0 ] || records=("$work"/tests/mutants/*.mutant)

# `field RECORD KEY`: the value of the record's `KEY: value` header line.
field() {
    awk -v key="$2" '
        $0 == "--- original" { exit }
        index($0, key ": ") == 1 { print substr($0, length(key) + 3); exit }
    ' "$1"
}

# `mutate RECORD SOURCE`: prints SOURCE with the record's original snippet
# replaced by its mutant; fails unless the snippet occurs exactly once.
mutate() {
    awk '
        FILENAME == ARGV[1] {
            if ($0 == "--- original") { part = 1; next }
            if ($0 == "--- mutant") { part = 2; next }
            if (part == 1) original = original $0 "\n"
            if (part == 2) mutant = mutant $0 "\n"
            next
        }
        { source = source $0 "\n" }
        END {
            sub(/\n+$/, "", original)
            sub(/\n+$/, "", mutant)
            at = index(source, original)
            rest = substr(source, at + length(original))
            if (original == "" || at == 0 || index(rest, original) > 0) {
                print "the original snippet does not occur exactly once" > "/dev/stderr"
                exit 1
            }
            printf "%s%s%s", substr(source, 1, at - 1), mutant, rest
        }
    ' "$1" "$2"
}

# `run COMMAND`: runs a record's test command in the copy, quietly.
run() {
    (cd "$work" && bash -c "$1") >"$log" 2>&1
}

failed=0
declare -A checked
for record in "${records[@]}"; do
    test_cmd=$(field "$record" test)
    if [ -z "${checked[$test_cmd]:-}" ]; then
        checked[$test_cmd]=1
        if ! run "$test_cmd"; then
            echo "CLEAN RUN FAILED  $test_cmd"
            tail -n 20 "$log"
            failed=1
        fi
    fi
done
[ "$failed" -eq 0 ] || exit 1

for record in "${records[@]}"; do
    name=$(basename "$record" .mutant)
    file=$(field "$record" file)
    test_cmd=$(field "$record" test)
    cp "$work/$file" "$saved"
    if ! mutate "$record" "$saved" >"$work/$file"; then
        echo "STALE     $name ($file)"
        failed=1
    elif run "$test_cmd"; then
        echo "SURVIVED  $name: \`$test_cmd\` passed"
        failed=1
    else
        echo "caught    $name"
    fi
    cp "$saved" "$work/$file"
done
exit "$failed"
