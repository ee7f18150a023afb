#!/usr/bin/env bash
# Assert that BENCH_infer.json parses, carries every key the EXPERIMENTS.md
# schema documents, and holds the two hard guarantees of the compiled plan:
# the f64 plan is bit-identical to the graph forward and at least 3x faster
# on single-sample inference. Run after the `infer` bench bin:
#
#   cargo run --release -p pnc-bench --bin infer -- --quick
#   scripts/check_bench_infer.sh [REPORT]
#
# With no argument, checks BENCH_infer.json at the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
report=${1:-BENCH_infer.json}

if [ ! -f "$report" ]; then
    echo "MISSING REPORT: $report (run the infer bench first)" >&2
    exit 1
fi

python3 - "$report" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

failures = []


def need(obj, key, where, kind):
    if key not in obj:
        failures.append(f"{where}: missing key '{key}'")
    elif not isinstance(obj[key], kind):
        failures.append(f"{where}.{key}: expected {kind}, got {type(obj[key]).__name__}")


number = (int, float)
need(report, "machine_threads", "report", int)
need(report, "bit_identical_f64", "report", bool)

need(report, "network", "report", dict)
network = report.get("network", {})
need(network, "dataset", "network", str)
for key in ("in_dim", "out_dim", "layers", "train_epochs"):
    need(network, key, "network", int)

need(report, "single_sample", "report", dict)
single = report.get("single_sample", {})
need(single, "reps", "single_sample", int)
for key in (
    "graph_p50_us",
    "graph_p99_us",
    "plan_f64_p50_us",
    "plan_f64_p99_us",
    "plan_q16_p50_us",
    "plan_q16_p99_us",
    "speedup_f64_vs_graph",
):
    need(single, key, "single_sample", number)

need(report, "batched", "report", dict)
batched = report.get("batched", {})
need(batched, "batch", "batched", int)
for key in (
    "graph_inferences_per_s",
    "plan_f64_inferences_per_s",
    "plan_q16_inferences_per_s",
):
    need(batched, key, "batched", number)

# The two hard acceptance bars, beyond pure schema shape.
if report.get("bit_identical_f64") is not True:
    failures.append("bit_identical_f64: f64 plan must reproduce the graph bits")
speedup = single.get("speedup_f64_vs_graph")
if isinstance(speedup, number) and speedup < 3.0:
    failures.append(
        f"single_sample.speedup_f64_vs_graph: {speedup:.2f} < 3.0 minimum"
    )

if failures:
    for line in failures:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    sys.exit(1)

print(
    f"{path}: schema ok "
    f"(f64 plan {single['speedup_f64_vs_graph']:.2f}x vs graph, bit-identical)"
)
PY
