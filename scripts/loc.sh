#!/usr/bin/env bash
# Non-test Rust lines per crate: every crates/*/src/**/*.rs up to its first
# column-0 `#[cfg(test)]`. The total leaves out crates/perf (the benchmark
# harness), crates/shims (stand-ins for published crates) and
# crates/bench/benches (the paper-figure mains), each printed on its own
# line so deletions there still show in the ledger.
# With FILE arguments: the same count for each file named, and nothing else.
set -euo pipefail
if [ $# -gt 0 ]; then
    exec awk 'FNR == 1 && f { print n, f; n = 0 } { f = FILENAME }
        /^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n, f }' "$@"
fi
cd "$(dirname "$0")/.."
# Non-test lines of the .rs files under $1 whose path matches $2.
count() {
    find "$1" -path "$2" -name '*.rs' -print0 |
        xargs -0 -r awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(count "$crate" '*/src/*')
    case "$name" in
        perf | shims) printf '%-14s %6d  (not in total)\n' "$name" "$lines" ;;
        *) printf '%-14s %6d\n' "$name" "$lines"; total=$((total + lines)) ;;
    esac
done
printf '%-14s %6d  (not in total)\n' bench/benches "$(count crates/bench/benches '*')"
printf '%-14s %6d\n' total "$total"
