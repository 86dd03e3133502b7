#!/usr/bin/env bash
# Non-test Rust lines per crate: every crates/*/src/**/*.rs up to its first
# column-0 `#[cfg(test)]`. The total leaves out crates/perf (the benchmark
# harness) and crates/shims (stand-ins for published crates).
# With FILE arguments: the same count for each file named, and nothing else.
set -euo pipefail
if [ $# -gt 0 ]; then
    exec awk 'FNR == 1 && f { print n, f; n = 0 } { f = FILENAME }
        /^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n, f }' "$@"
fi
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=$(find "$crate" -path '*/src/*' -name '*.rs' -print0 |
        xargs -0 -r awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')
    case "$name" in
        perf | shims) printf '%-10s %6d  (not in total)\n' "$name" "$lines" ;;
        *) printf '%-10s %6d\n' "$name" "$lines"; total=$((total + lines)) ;;
    esac
done
printf '%-10s %6d\n' total "$total"
