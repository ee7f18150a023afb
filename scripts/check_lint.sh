#!/usr/bin/env bash
# CI gate for the workspace's own static analyzer (see docs/LINTS.md):
#
#   1. `pnc-lint check` runs clean on the tree (ratchet baseline applied)
#      and regenerates artifacts/lint_report.json — which must match the
#      committed copy, so the report can never go stale.
#   2. The oracle registry in lint_baseline.json pins every required
#      frozen reference implementation (oracle-freeze's floor): the three
#      cross-backend agreement oracles plus the streaming-equivalence
#      anchors of DESIGN.md §17.
#   3. The check itself stays fast: under 10 s of wall time, so the lint
#      job never becomes the long pole.
#
#   cargo build -p pnc-lint   # (any profile; CI uses the debug build)
#   scripts/check_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# --- 1. self-check + report staleness -----------------------------------
# Build first (untimed) so the wall-time budget below measures the
# analyze+report pass, not the compiler.
cargo build -q -p pnc-lint
start=$(date +%s%N)
cargo run -q -p pnc-lint -- check --baseline lint_baseline.json
end=$(date +%s%N)
elapsed_ms=$(( (end - start) / 1000000 ))

if ! git diff --exit-code -- artifacts/lint_report.json; then
    echo "STALE REPORT: artifacts/lint_report.json does not match the tree;" >&2
    echo "run 'cargo run -p pnc-lint -- check' and commit the result" >&2
    exit 1
fi

# --- 2. oracle registry completeness ------------------------------------
for oracle in "Matrix::matmul_reference" \
              "Graph::backward_reference" \
              "DcSolver::newton_loop" \
              "build_dataset_opts" \
              "characterize_point" \
              "StoreMeta::encode" \
              "StoreRecord::encode"; do
    if ! grep -q "$oracle" lint_baseline.json; then
        echo "ORACLE REGISTRY: required oracle '$oracle' is not pinned in" >&2
        echo "lint_baseline.json; run update-oracles --justify '<why>'" >&2
        exit 1
    fi
done

# --- 3. wall-time budget ------------------------------------------------
# The analyze+report pass (binary pre-built above) must stay under 10 s —
# the structural rules are supposed to be cheap token passes, not a type
# checker.
if [ "$elapsed_ms" -gt 10000 ]; then
    echo "LINT TOO SLOW: check took ${elapsed_ms} ms (budget 10000 ms)" >&2
    exit 1
fi

echo "check_lint: clean tree, fresh report, registry complete (${elapsed_ms} ms)"
