#!/usr/bin/env bash
# The full local CI gate, in the order that fails fastest:
#
#   1. static analysis  — python -m repro lint src (exit 1 on any
#      non-baselined finding; see DESIGN.md "Static analysis")
#   2. tier-1 tests     — the default pytest selection (which itself
#      re-runs the lint gate via tests/analysis/test_lint_clean.py)
#   3. fuzz smoke       — metamorphic invariant sweep over every
#      registered measure with a bigger seeded budget than the tier-1
#      fuzz tests use
#   4. perf smoke       — the kernel bench-regression guard against the
#      committed baseline
#   5. ANN gate         — IVF recall@10/scan-fraction/qps acceptance
#      floors at 100k/1M synthetic embeddings (BENCH_ann.json)
#   6. sharding gate    — scatter-gather tier: 4-shard-vs-1-shard
#      throughput floor at 1M rows and id-identity against the exact
#      single store (BENCH_sharding.json)
#   7. durability gate  — WAL append acks are fsynced, group commit
#      batches, snapshot recovery is id-identical, replica failover
#      loses zero acked writes (BENCH_durability.json)
#   8. whole-program analysis — python -m repro analyze src
#      (interprocedural lockset races, tape shape/dtype abstract
#      interpretation, resource-leak tracking) with an incremental
#      content-hash cache and a 30 s wall-clock budget
#   9. streaming gate   — acked-loss, incremental identity, freshness
#  10. benchmark self-checks — the perfbench suite's own tests (outside
#      tier-1's testpaths) plus a 2 s traced run of every workload, so
#      its correctness checks and span wrappers run against this tree
#      (~45 s on two cores)
#
# Usage: scripts/ci.sh [pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "==> lint (python -m repro lint src)"
python -m repro lint src

echo "==> tier-1 tests (pytest)"
python -m pytest -x -q "$@"

echo "==> fuzz smoke (metamorphic invariants, all measures)"
python - <<'PY'
from repro.measures import available_measures, get_measure
from repro.testing import check_measure_invariants

failures = []
for name in available_measures():
    failures += check_measure_invariants(get_measure(name),
                                         seed=2026, count=8)
if failures:
    raise SystemExit("fuzz smoke FAILED:\n" + "\n".join(failures))
print(f"fuzz smoke: {len(available_measures())} measures clean")
PY

echo "==> bench regression smoke (kernels only)"
python scripts/check_bench_regression.py --only kernels

echo "==> ANN recall/qps gate (IVF vs exact at 100k/1M)"
python scripts/check_bench_regression.py --only ann

echo "==> sharded serving gate (4-shard speedup + id-identity at 1M)"
python scripts/check_bench_regression.py --only sharding

echo "==> durability gate (WAL acks, recovery identity, failover loss)"
python scripts/check_bench_regression.py --only durability

echo "==> whole-program analysis (lockset, tape-shape, resource-leak)"
python -m repro analyze src --cache .cache/analyze.json --max-seconds 30

echo "==> streaming gate (acked-loss, incremental identity, freshness)"
python scripts/check_bench_regression.py --only streaming

echo "==> benchmark self-checks (perfbench tests + traced smoke runs)"
python -m pytest perfbench/tests -q
for workload in serial_topk sharded_mixed ingest_stream; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
        --trace 1 | tail -n 1 | cut -c1-120
done

echo "ci.sh: all gates passed"
