#!/usr/bin/env bash
# The repo's benchmark: one command, seven workloads.
#
#   crates/perf/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                      [--traced] [--quick] [--out DIR] [--record]
#   crates/perf/run.sh --compare DIR_A DIR_B
#
# Builds dejavu-perf in release mode, pins it to one of the CPUs this shell
# may use (taskset, when available) and runs it; see README.md beside this
# file. With --workload the last line of standard output is the benchmark
# driver's one-line JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."

# Build output goes to stderr: standard output belongs to the result.
cargo build --release --offline --quiet -p dejavu-perf 1>&2
bin="${CARGO_TARGET_DIR:-target}/release/dejavu-perf"

# Pin to the last CPU we are allowed on: unpinned, every frame hand-off in
# the cluster workloads is a cross-CPU wake and the numbers are the
# hypervisor's, not the program's (README, "why pinned").
if command -v taskset >/dev/null 2>&1; then
    allowed="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null || true)"
    cpu="${allowed##*[,-]}"
    if [[ "$cpu" =~ ^[0-9]+$ ]]; then
        exec taskset -c "$cpu" "$bin" "$@"
    fi
fi
exec "$bin" "$@"
