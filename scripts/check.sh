#!/usr/bin/env bash
# Repo-wide gate: formatting, lints (clippy *and* dejavu-lint), tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace

# Verifier gate: the NF library, the composed Fig. 2 pipelets, the
# recirculation budget and the NFs' learn policies must be finding-free at
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

# One-source gate: a learn policy is the plain value both the learn loop
# runs and DJV302 checks (no closure policy with a contract copied beside
# it), and a switch is configured by its setters (no second builder or
# whole-config struct to keep in step with them).
if grep -rnE 'LearnContract|LearnResponse|impl LearnPolicy for|register_learn_contract|SwitchOptions|with_options|SwitchConfig|apply_config' \
    crates/ tests/ examples/ --include=*.rs; then
    echo "a setting has a second source again (see DESIGN.md, Configuration surface)" >&2
    exit 1
fi

# Plain-counter gate: a metric is a plain field of whoever counts it, named
# only when scraped (`SwitchMetrics::snapshot`, `Orchestrator::metrics`). No
# registry of names and handles, no capture of one, and no objective weight
# wrapped in a type that only ever holds its default.
if grep -rnE 'MetricsRegistry|CounterId|GaugeId|HistogramId|fn capture\(|CostModel' \
    crates/ tests/ examples/ --include=*.rs --exclude-dir=shims; then
    echo "a metrics registry or a single-valued knob is back (see DESIGN.md, Telemetry)" >&2
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

# One-control-plane gate: learn and punt decisions are made in one place,
# `DecisionCore`, which the single-switch `ControlPlane` and the cluster
# controller both hold. Exactly one non-test line under crates/core/src
# owns a learn policy in a tuple type (`, LearnPolicy)>`: the policy map's
# value; the borrowed `&LearnPolicy` a lookup returns does not count), and
# the controller keeps no `policies:` map of its own.
policy_maps=$(find crates/core/src -name '*.rs' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /, LearnPolicy\)>/ { print FILENAME ": " $0 }')
if [ "$(printf '%s\n' "$policy_maps" | grep -c .)" -ne 1 ] ||
    grep -n 'policies:' crates/core/src/transport/cluster.rs; then
    printf '%s\n' "$policy_maps"
    echo "a second learn-policy map is back (see DESIGN.md, One control plane)" >&2
    exit 1
fi

# One-trace-record gate: a trace is ids, not strings. `TraceEvent` and the
# record both engines store per table applied (`TableEvent`) name no
# `String`; a table's and an action's names are looked up only when a trace
# is rendered (`Traversal::render`, `ExecScratch::events`). Both definitions
# must be found, so a rename cannot pass the gate by matching nothing.
trace_records=$(awk '/^pub enum TraceEvent \{/, /^\}/' crates/asic/src/switch.rs
    awk '/^pub struct TableEvent \{/, /^\}/' crates/asic/src/interp.rs)
if [ "$(printf '%s\n' "$trace_records" | grep -c '^pub ')" -ne 2 ] ||
    printf '%s\n' "$trace_records" | grep -n 'String'; then
    echo "a trace event carries names again (see DESIGN.md, Tracing, batching and replay)" >&2
    exit 1
fi

# Fixed-size-hop gate: a packet's in-band flight record is one fixed-size
# hop per member (switch, latency, recirculations, resubmissions), and a
# worker forwards on the zero-allocation `inject_buf` walk. Table names
# must not ride the wire again, and the traced `inject` must not come back
# to the worker's data path; per-table activity is member telemetry.
if grep -nE 'tables_applied|tables_hit|\.inject\(' crates/core/src/transport/{worker,wire}.rs; then
    echo "a cluster hop carries a table trace again (see DESIGN.md, Wire format)" >&2
    exit 1
fi

# Borrowed-IR gate: the checks a pipelet goes through before it reaches a
# switch (`Program::validate`, the structural lint pass, the value analysis,
# the dependency graph) and `Switch::load_program` read the program they are
# handed in place. Cloning a table, action or control body out of the
# catalog, or copying the header catalog into a `HashMap`, is the per-check
# copying that made a deploy's verifier most of its time.
if grep -nE '(tables|actions|controls)\.get\([^)]*\)\.cloned\(\)|values\(\)\.cloned\(\)|\.body\.clone\(\)|header_map\(\)' \
    crates/p4ir/src/{lint,analyze,deps,program}.rs crates/asic/src/switch.rs; then
    echo "a check copies the IR it reads again (see DESIGN.md, Static verifier)" >&2
    exit 1
fi

# One-walker gate: the verifier's two dataflow passes (header validity and
# read before write in `lint.rs`, values in `analyze.rs`) are two domains
# of one walk (`walk.rs`): one statement walk under crates/p4ir/src, and
# neither pass keeps a parser or control walk of its own.
if [ "$(grep -rn 'fn walk_stmts' crates/p4ir/src | wc -l)" -gt 1 ] ||
    grep -nE 'fn (parser_sets|guaranteed_from|visit_parser|walk_control)\b' \
        crates/p4ir/src/{lint,analyze}.rs; then
    grep -rn 'fn walk_stmts' crates/p4ir/src
    echo "a verifier pass walks the program on its own again (see DESIGN.md, One walk, two domains)" >&2
    exit 1
fi

# One-move-rule gate: the traversal model's walk decides every move a
# packet takes (`placement::next_move`, defined once, in
# `placement/mod.rs`), and routing renders each branching entry from that
# rule's move: outside its tests, `routing.rs` matches on no `Gress::` and
# keeps no decision of its own (`branching_action`, `index_after_egress_pass`).
# The rule must be found by name, so a rename cannot pass the gate by
# matching nothing.
routing_src=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/routing.rs)
if [ "$(grep -c '^pub(crate) fn next_move(' crates/core/src/placement/mod.rs)" -ne 1 ] ||
    grep -rn 'fn next_move\b' crates/core/src --include=*.rs | grep -v '^crates/core/src/placement/mod.rs:' ||
    printf '%s\n' "$routing_src" | grep -nE 'Gress::|fn (index_after_egress_pass|branching_action)\b'; then
    echo "routing decides a move of its own again (see DESIGN.md, One move rule)" >&2
    exit 1
fi

# Kill-catalogue gate: every mutant under tests/mutants/ whose killer is
# the p4ir, core or asic unit tests, the wire-format suite (its properties,
# and the frame pin for a layout both directions change at once:
# `wire_swaps_two_fields`) or the cluster transport or execution suite must
# still be killed by them (each builds in a reused scratch copy and runs
# under its own time bound); run `scripts/mutants.sh` alone for the whole
# catalogue.
mapfile -t gated_mutants < <(grep -lE \
    '^Test: -p dejavu-((p4ir|core|asic) --lib|integration --test (wire_format|cluster_transport|cluster_execution))$' \
    tests/mutants/*.patch)
scripts/mutants.sh "${gated_mutants[@]}"

# One-annealer gate: one Metropolis loop (`placement::search::anneal`) on
# assignment vectors, to which `AnnealingSearch` and
# `PlacementProblem::anneal` each pass a neighbourhood. The M = 1 annealer
# proposes on the vector, so it builds, canonicalizes and prices no
# `Placement` per proposal; and the particle swarm, which annealing beat on
# every instance measured, stays deleted. The function must be found, so a
# rename cannot pass the gate by matching nothing.
single_anneal=$(awk '/^    pub fn anneal\(/, /^    }$/' crates/core/src/placement/mod.rs)
if [ -z "$single_anneal" ] ||
    printf '%s\n' "$single_anneal" | grep -nE 'self\.(feasible|cost)\(|canonicalize\(' ||
    grep -rn 'SwarmSearch' crates/ examples/ tests/; then
    echo "a second annealing loop or the swarm search is back (see DESIGN.md, Fleet objective)" >&2
    exit 1
fi

# One-reply gate: a command's reply is handled by the code that sent it
# (its `Then`), and a broadcast's replies by the closure of the handle
# method that offers the verb. No enum of reply kinds, no accumulator enum
# and no gather map come back to the controller, where a reply nobody
# expired used to wait forever.
if grep -nE 'enum Pending|enum GatherAcc|fn fail_gather|fn gather_done|next_gather' \
    crates/core/src/transport/cluster.rs; then
    echo "the controller routes replies by kind again (see DESIGN.md, Topology and drivers)" >&2
    exit 1
fi

# One-learner gate: a member learns its own digests with the learn loop the
# single-switch control plane runs (`DecisionCore::learn`). A digest names
# the NF that emitted it, whose table is on the member that emitted it, so
# no digest goes up a link and no learned install comes back down: no
# digest message, no count of learned installs awaited, no barrier parked
# on them.
if grep -rnE 'TelemetryMsg::Digests|learn_outstanding|maybe_finish_flush' \
    crates/core/src/transport/; then
    echo "the controller learns for its members again (see DESIGN.md, Topology and drivers)" >&2
    exit 1
fi

# One-live-step gate: a member flipped in goes live at its predecessor's
# clock, holding its state (the worker's `Flip` arm hands over the NFs that
# stay on it and restores the slices the flip carries before it adopts the
# newcomer) and routed to (`flip` points the NF -> member maps at it when
# it acks), and a member learns each packet's digests before forwarding
# it. So `migrate` flushes no digests, resyncs no clock, restores no state
# and remaps no NF, and no remap verb exists to call; and its SNAPSHOT asks
# for the moved slices only, never the whole-cluster `snapshot_state(`.
# `.flip(` must be found in migrate.rs, so a rename cannot pass the gate by
# matching nothing.
migrate_src=crates/core/src/orchestrator/migrate.rs
if ! grep -q '\.flip(' "$migrate_src" ||
    grep -nE 'process_digests|advance_time|restore_state\(|snapshot_state\(|remap_nfs' "$migrate_src" ||
    grep -rn 'remap_nfs' crates/core/src; then
    echo "migration orders a clock, a flush, a restore, a whole-cluster snapshot or the NF routing by hand again (see DESIGN.md, Hitless migration)" >&2
    exit 1
fi

# One-decode gate: a moved slice is sealed where it is cut (the worker's
# answer to SNAPSHOT) and opened once, where it is restored (the worker's
# `Flip` arm). The controller and the migration driver relay the seal
# untouched: neither opens a sealed slice, `migrate.rs` names no
# `StateSnapshot`, and the migration verbs of `transport/cluster.rs`
# (`snapshot_slices` through `flip`) name none either. `SealedSlice::seal(`
# must be found in worker.rs, and the verbs in cluster.rs, so a rename
# cannot pass the gate by matching nothing.
cluster_src=crates/core/src/transport/cluster.rs
migration_verbs=$(awk '/pub fn snapshot_slices\(/, /pub fn retire\(/' "$cluster_src")
if ! grep -q 'SealedSlice::seal(' crates/core/src/transport/worker.rs ||
    [ -z "$migration_verbs" ] ||
    grep -nE '\.open\(' "$cluster_src" "$migrate_src" ||
    grep -n 'StateSnapshot' "$migrate_src" ||
    printf '%s\n' "$migration_verbs" | grep -n 'StateSnapshot'; then
    echo "the controller or the migration driver opens a moved slice again (see DESIGN.md, Hitless migration)" >&2
    exit 1
fi

# Re-placement gate: the closed-loop orchestrator must notice the traffic
# shift, migrate the learned NAT across switches live, and lose zero
# flows — bounded, because a hang here means the pause/quiesce barrier
# or the migration driver deadlocked.
timeout 120 cargo run -p dejavu-examples --bin replacement_demo

# Placement-search gate: every strategy on a 100-chain, 8-switch fleet, in
# the debug build, which keeps the explorer's feasibility `debug_assert` on
# each answer; no other gate runs `AnnealingSearch` at 5 000 steps on a
# fleet that size. Built outside the bound, so the bound is on the
# searches: a hang here is a runaway search.
cargo build -q -p dejavu-examples --bin placement_explorer
timeout 60 cargo run -p dejavu-examples --bin placement_explorer -- 100 8 1

# Typed-wire gate: everything that crosses a cluster link — dynamic state,
# metrics, every other message — is a typed value in the frame format. No
# JSON is printed or parsed on the cluster path: a snapshot or a scrape
# that does not decode must fail its verb (never read as an empty or idle
# member), and the migration window, with ingress parked while state
# moves, has no room for text.
if grep -nE 'parse_json|to_json|from_json' crates/core/src/transport/*.rs; then
    echo "a message crosses a cluster link as JSON again (see DESIGN.md, Wire format)" >&2
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
# not go back to ignoring its victim — an unconditional "rebuild me". A
# tree lookup stops at its first match (probes per lookup flat from 1 000
# to 16 000 rules, pinned in the same run), and `order_key` is the one
# place two hits are compared: no hand-written rank-then-index comparison.
cargo test --release --offline -q -p dejavu-integration --test index_scale --no-run
timeout 120 cargo test --release --offline -q -p dejavu-integration --test index_scale
if grep -n '_removed: &TableEntry, _rank: Rank, _idx: usize' crates/asic/src/index.rs; then
    echo "an index answers every delete with a rebuild again (see DESIGN.md, Classification index)" >&2
    exit 1
fi
if grep -nE '== *b[ri]? *&& *i *< *b|\.0 *> *ranks\[' crates/asic/src/index.rs; then
    echo "a hit is compared outside order_key again (see DESIGN.md, Classification index)" >&2
    exit 1
fi

# One-packet-buffer gate: a compiled pass edits the packet it is given (a
# read decodes from those bytes, a write deposits into them, a header add
# or remove opens or closes a gap) and settles its faults at compile time.
# No written-field overlay shadowing the bytes, no per-header
# re-serialisation or deparse step after the ops, no expression that can
# fail at run time.
if grep -nE 'Option<Value>|serialize_inst|deparse_into|CExpr::Fail' crates/asic/src/compiled.rs; then
    echo "a compiled pass shadows or re-serialises the packet again (see DESIGN.md, Buffer pass)" >&2
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
