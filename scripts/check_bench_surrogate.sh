#!/usr/bin/env bash
# Assert that BENCH_surrogate.json parses, carries every key the
# EXPERIMENTS.md schema documents, and holds the three hard guarantees of
# the streaming dataset builder (DESIGN.md §17):
#
#   1. flat memory — peak RSS of the 10x-points build is at most 1.2x the
#      small build's (chunked streaming, O(chunk_points) memory);
#   2. kill/resume fidelity — a build truncated mid-chunk and resumed
#      finishes byte-identical to the uninterrupted build;
#   3. sample efficiency — at an equal SPICE budget, the committee-driven
#      (active) build trains a surrogate at least as accurate on a held-out
#      slab as the uniform Sobol' build.
#
# It also holds one deterministic counter bar on the companion metrics:
# ptanh fits run their fallback LM starts only when start 0 does not
# converge, so fit.lm.runs may be at most 1.5x fit.ptanh.fits (running all
# five starts on every fit gives 5x).
#
# The companion metrics summary (BENCH_surrogate_metrics.json) must carry
# the process.peak_rss_bytes gauge. Run after the `surrogate_stream` bench:
#
#   cargo run --release -p pnc-bench --bin surrogate_stream -- --quick
#   scripts/check_bench_surrogate.sh [REPORT] [METRICS]
#
# With no arguments, checks BENCH_surrogate.json and
# BENCH_surrogate_metrics.json at the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
report=${1:-BENCH_surrogate.json}
metrics=${2:-BENCH_surrogate_metrics.json}

if [ ! -f "$report" ]; then
    echo "MISSING REPORT: $report (run the surrogate_stream bench first)" >&2
    exit 1
fi
if [ ! -f "$metrics" ]; then
    echo "MISSING METRICS: $metrics (run the surrogate_stream bench first)" >&2
    exit 1
fi

python3 - "$report" "$metrics" <<'PY'
import json
import sys

report_path, metrics_path = sys.argv[1], sys.argv[2]
with open(report_path) as f:
    report = json.load(f)
with open(metrics_path) as f:
    metrics = json.load(f)

failures = []
number = (int, float)


def need(obj, key, where, kind):
    if key not in obj:
        failures.append(f"{where}: missing key '{key}'")
    elif not isinstance(obj[key], kind):
        failures.append(f"{where}.{key}: expected {kind}, got {type(obj[key]).__name__}")


need(report, "machine_threads", "report", int)
need(report, "quick", "report", bool)
need(report, "chunk_points", "report", int)
need(report, "sweep_points", "report", int)

need(report, "memory", "report", dict)
memory = report.get("memory", {})
for phase in ("small", "large"):
    need(memory, phase, "memory", dict)
    build = memory.get(phase, {})
    where = f"memory.{phase}"
    for key in ("points", "entries", "failures", "chunks", "peak_rss_bytes"):
        need(build, key, where, int)
    need(build, "points_per_s", where, number)
    if isinstance(build.get("points_per_s"), number) and build["points_per_s"] <= 0:
        failures.append(f"{where}.points_per_s: must be positive")
for key in ("rss_ratio", "rss_ratio_bar"):
    need(memory, key, "memory", number)

need(report, "resume", "report", dict)
resume = report.get("resume", {})
for key in ("truncated_bytes", "resumed_records", "discarded_bytes"):
    need(resume, key, "resume", int)
need(resume, "bit_identical", "resume", bool)

need(report, "sampling", "report", dict)
sampling = report.get("sampling", {})
for key in ("budget_points", "holdout_points"):
    need(sampling, key, "sampling", int)
for key in ("uniform_rmse", "active_rmse", "active_vs_uniform"):
    need(sampling, key, "sampling", number)

# --- Hard bar 1: flat memory across a 10x size increase. ---
small = memory.get("small", {})
large = memory.get("large", {})
if isinstance(small.get("points"), int) and isinstance(large.get("points"), int):
    if large["points"] < 10 * small["points"]:
        failures.append(
            f"memory: large build ({large['points']} points) is not 10x the "
            f"small build ({small['points']} points)"
        )
ratio = memory.get("rss_ratio")
bar = memory.get("rss_ratio_bar")
if isinstance(ratio, number) and isinstance(bar, number):
    if not (0 < ratio <= bar):
        failures.append(
            f"memory.rss_ratio: {ratio:.3f} exceeds the {bar} bar — streaming "
            "memory is not flat in the total point count"
        )

# --- Hard bar 2: kill/resume byte fidelity. ---
if resume.get("bit_identical") is not True:
    failures.append(
        "resume.bit_identical: a truncated-and-resumed build must finish "
        "byte-identical to the uninterrupted build"
    )
if isinstance(resume.get("truncated_bytes"), int) and resume["truncated_bytes"] <= 0:
    failures.append("resume.truncated_bytes: the simulated kill removed nothing")

# --- Hard bar 3: active sampling wins at an equal budget. ---
uniform_rmse = sampling.get("uniform_rmse")
active_rmse = sampling.get("active_rmse")
if isinstance(uniform_rmse, number) and isinstance(active_rmse, number):
    if not (active_rmse <= uniform_rmse):
        failures.append(
            f"sampling: active RMSE {active_rmse:.4f} > uniform RMSE "
            f"{uniform_rmse:.4f} at an equal budget — uncertainty-driven "
            "sampling must not lose to uniform"
        )
if isinstance(sampling.get("holdout_points"), int) and sampling["holdout_points"] < 100:
    failures.append(
        f"sampling.holdout_points: {sampling['holdout_points']} < 100 — the "
        "holdout is too small to rank the competitors"
    )

# --- The metrics summary must carry the gauge and the stream counters. ---
gauges = metrics.get("gauges")
if not isinstance(gauges, dict):
    failures.append("metrics: missing 'gauges' object")
else:
    rss = gauges.get("process.peak_rss_bytes")
    if not isinstance(rss, int) or rss <= 0:
        failures.append(
            "metrics.gauges['process.peak_rss_bytes']: expected a positive "
            f"recorded value, got {rss!r}"
        )
counters = metrics.get("counters", {})
for name in ("surrogate.stream.chunks", "surrogate.stream.points"):
    if not isinstance(counters.get(name), int) or counters.get(name, 0) <= 0:
        failures.append(f"metrics.counters['{name}']: expected a positive count")

# --- Counter bar: fallback LM starts only where start 0 failed. ---
fits = counters.get("fit.ptanh.fits")
runs = counters.get("fit.lm.runs")
runs_per_fit = None
if not isinstance(fits, int) or fits <= 0 or not isinstance(runs, int):
    failures.append(
        "metrics.counters: expected a positive 'fit.ptanh.fits' and a "
        "'fit.lm.runs' count"
    )
else:
    runs_per_fit = runs / fits
    if runs > 1.5 * fits:
        failures.append(
            f"metrics.counters: fit.lm.runs {runs} > 1.5 x fit.ptanh.fits "
            f"{fits} ({runs_per_fit:.2f} runs per fit) — fallback starts "
            "must run only when start 0 does not converge"
        )

if failures:
    for line in failures:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    sys.exit(1)

print(
    f"{report_path}: schema ok "
    f"(RSS ratio {ratio:.3f} <= {bar} across {small.get('points')} -> "
    f"{large.get('points')} points; resume bit-identical; active/uniform "
    f"RMSE {sampling.get('active_vs_uniform'):.3f}; "
    f"{runs_per_fit:.3f} LM runs per fit)"
)
PY
