#!/usr/bin/env bash
# Repo-wide gate: formatting, lints (clippy *and* dejavu-lint), tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace

# Verifier gate: the NF library, the composed Fig. 2 pipelets, the
# recirculation budget and the learn contracts must be finding-free at
# warning level or above, over every pass of dejavu-lint. The binary exits
# non-zero otherwise and always writes the findings artifact, which must be
# valid JSON (an array of finding objects).
cargo run -p dejavu-examples --bin lint_nfs
findings=target/experiments/LINT_findings.json
test -s "$findings" || { echo "missing $findings" >&2; exit 1; }
python3 - "$findings" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert isinstance(report, list), "findings artifact must be a JSON array"
for f in report:
    assert {"code", "severity", "entity", "message"} <= set(f), f
print(f"lint findings artifact OK ({len(report)} finding(s))")
EOF

# One-framework gate: the verifier has one registry, one finding type, one
# config, one report and one allocator refusal; a pass emits into them.
if grep -rnE 'AnalysisCode|AnalysisConfig|AnalysisReport|AnalysisRejected|with_analysis_config|struct Finding' \
    crates/ tests/ examples/ --include=*.rs; then
    echo "a second diagnostics framework is back (see DESIGN.md, Diagnostic registry)" >&2
    exit 1
fi

# Dependency audit: advisories and license policy via cargo-deny when it
# is installed (CI installs it; offline dev containers may not have it).
if command -v cargo-deny >/dev/null 2>&1; then
    cargo deny check advisories licenses
else
    echo "cargo-deny not installed; skipping advisories/licenses audit"
fi

# Telemetry gate: the recirculation study runs its measured-vs-model
# comparison (asserting depth counters internally) and exports a metrics
# snapshot, which must be valid JSON carrying the key series.
cargo run -p dejavu-examples --bin recirculation_study
snapshot=target/experiments/TELEMETRY_snapshot.json
test -s "$snapshot" || { echo "missing $snapshot" >&2; exit 1; }
python3 - "$snapshot" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
required = [
    "packets_injected",
    "packets_emitted",
    "packet_latency_ns",
    'packet_recirc_depth{k="1"}',
    'packet_recirc_depth{k="4"}',
    'recirculations{pipeline="1"}',
]
missing = [k for k in required if k not in snap]
assert not missing, f"snapshot missing keys: {missing}"
assert snap["packets_injected"] > 0
assert snap["packet_latency_ns"]["count"] == snap["packets_injected"]
print(f"telemetry snapshot OK ({len(snap)} series)")
EOF

# Flow-state gate: the demo drives a dynamic-NAT learn cycle, asserts the
# state snapshot survives export → import deep-equal in Rust, and writes
# the JSON, which must carry the learned return-path entry.
cargo run -p dejavu-examples --bin flow_state_demo
state=target/experiments/STATE_snapshot.json
test -s "$state" || { echo "missing $state" >&2; exit 1; }
python3 - "$state" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["version"] >= 1, "versioned snapshot"
tables = {t["name"]: t for t in snap["tables"]}
assert "nat__nat_in" in tables, f"NAT return table missing: {sorted(tables)}"
assert tables["nat__nat_in"]["entries"], "learned flow entry missing"
entries = sum(len(t["entries"]) for t in snap["tables"])
print(f"state snapshot OK ({len(tables)} tables, {entries} entries)")
EOF

# Cluster-runtime gate: three switch workers behind framed TCP on
# localhost must boot, carry full- and mid-chain flights end to end, merge
# telemetry, and shut down cleanly — bounded, because a hang here means
# the event-driven control plane deadlocked.
timeout 120 cargo run -p dejavu-examples --bin cluster_demo

# One-cluster-runtime gate: the single-threaded reference is the same
# controller and workers, stepped by the handle — not a second runtime.
# Exactly one place forwards a packet between members (the worker), and
# `multiswitch` runs nothing: no packet, learn, aging or snapshot logic, so
# one place folds evictions and digests into a `ClusterReport` (the
# controller).
if [ "$(grep -rn 'inter_switch_hops += 1' crates/core/src | wc -l)" -ne 1 ] ||
    grep -nE 'fn (inject|advance_time|process_digests|snapshot_state)\b' crates/core/src/multiswitch.rs ||
    grep -rn 'process_digests_counted\|ClusterTraversal' crates/ tests/ examples/ --include=*.rs; then
    echo "a second cluster forwarding/learn/aging path is back (see DESIGN.md, Cluster runtime)" >&2
    exit 1
fi

# Re-placement gate: the closed-loop orchestrator must notice the traffic
# shift, migrate the learned NAT across switches live, and lose zero
# flows — bounded, because a hang here means the pause/quiesce barrier
# or the migration driver deadlocked.
timeout 120 cargo run -p dejavu-examples --bin replacement_demo

# State-on-the-wire gate: dynamic state crosses a cluster link as a typed
# StateSnapshot in the frame format; text must not creep back onto the
# control path, which sits inside the migration window (ingress is parked
# while state moves). `to_json_string` / `parse_json` for
# `TelemetryMsg::Metrics` is deliberate and not matched: a scrape is off the
# packet path, its payload is the telemetry export format, and the parser
# that reads it is linear.
if grep -nE 'StateSnapshot::from_json|\.to_json\(\)' crates/core/src/transport/*.rs; then
    echo "state snapshots must cross links in the wire format, not as JSON" >&2
    exit 1
fi

# Learn-loop gate: idempotence and removal are answered by the table's
# index (`ClassifierIndex::position` / `remove_many`), not by scanning the
# entry vector per install or per expired entry, and `core` has one
# check-and-install (`Deployment::install_if_absent`).
if grep -nE 'entries\(table\)\.contains|expired\.contains|fn retain_entries' crates/asic/src/tables.rs ||
    grep -rn 'entry_installed' crates/ tests/ examples/ --include=*.rs; then
    echo "a per-entry table scan is back on the learn/aging path (see DESIGN.md, Classification index)" >&2
    exit 1
fi

# One-prefix-index gate: a longest-prefix table is a tuple space with one
# tuple per prefix length — no second LPM classifier, and no table shape or
# mixed-priority migration that exists only to select it or leave it.
if grep -rnE '\b(LpmIndex|IndexKind::Lpm|SingleLpm|TableShape|mixed_priorities)\b' \
    crates/ tests/ examples/ --include=*.rs; then
    echo "a second LPM index is back (see DESIGN.md, Classification index)" >&2
    exit 1
fi

# ACL-install gate: a decision-tree install costs the leaf it lands in and
# a delete is absorbed, pinned in counts, not time (index rebuilds for
# 1 000 / 4 000 / 16 000 one-at-a-time installs, through `restore_state`
# and under 1 000 deletes; probes per lookup against a fresh build).
# Release, because that is the build the benchmark measures; built outside
# the bound, so the bound is on the installs. And the tree's `remove` must
# not go back to ignoring its victim — an unconditional "rebuild me".
cargo test --release --offline -q -p dejavu-integration --test index_scale --no-run
timeout 120 cargo test --release --offline -q -p dejavu-integration --test index_scale
if grep -n '_removed: &TableEntry, _rank: Rank, _idx: usize' crates/asic/src/index.rs; then
    echo "an index answers every delete with a rebuild again (see DESIGN.md, Classification index)" >&2
    exit 1
fi

# Paper-bench gate: every `crates/bench` target is a `harness = false` main
# that asserts its own shape checks (Fig. 5-9, Table 1, the ablations, the
# workload replay), so running them is the gate; `--no-run` only built them.
# The Fig. 6 record must also say 3 recirculations naive and 1 optimized,
# model and switch alike. Bounded: a hang here is a runaway enumeration;
# built outside the bound, so the bound is on the runs.
cargo bench -q -p dejavu-bench --no-run
timeout 300 cargo bench -q -p dejavu-bench
python3 - target/experiments/fig6_placement.json <<'EOF'
import json, sys
naive, optimized = json.load(open(sys.argv[1]))
for row, want in ((naive, 3), (optimized, 1)):
    got = (row["model_recirculations"], row["switch_recirculations"])
    assert got == (want, want), row
print("placement gate OK (Fig. 6: 3 -> 1 recirculations, model = switch)")
EOF

# One-timing-harness gate: `crates/perf` is the benchmark. No Criterion
# micro-bench, counting-allocator feature, quick-mode switch, committed
# sweep record or pinned-yardstick flag outside it; what those asserted
# is tier-1 counts (`zero_alloc`, `index_scale`). The bracketed letters
# keep this pattern from matching its own line.
if grep -rnE 'criterio[n]|count-alloc[s]|DEJAVU_BENCH_QUIC[K]|BENCH_dataplan[e]|meets[_]' \
    crates/ tests/ examples/ scripts/ Cargo.toml --exclude-dir=perf; then
    echo "a second timing harness is back (see DESIGN.md, Benchmarks)" >&2
    exit 1
fi

# Perf-harness smoke: all seven workloads of the repo's benchmark in quick
# mode (< 20 s of measurement). A *correctness* gate — the harness checks
# every operation against its oracle (reference interpreter, lockstep
# cluster, never-migrated cluster) and exits non-zero when any fails. No
# timing threshold: timing is the benchmark driver's job. Bounded, because
# a hang here means a cluster workload deadlocked.
timeout 300 crates/perf/run.sh --quick

# Docs gate: rustdoc must stay warning-free (broken intra-doc links are
# the usual regression).
doclog=$(cargo doc --workspace --no-deps -q 2>&1)
if [ -n "$doclog" ]; then
    printf '%s\n' "$doclog"
    echo "rustdoc not clean" >&2
    exit 1
fi
echo "rustdoc OK (no warnings)"

# Size ledger (printed, not gated): non-test Rust lines per crate.
bash scripts/loc.sh
