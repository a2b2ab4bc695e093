#!/usr/bin/env bash
# CI gate: byte-compile the library, run the test suite, then smoke-run
# the benchmark harnesses.  This is the single entrypoint both local
# developers and GitHub Actions execute (.github/workflows/ci.yml), so
# "works on CI" and "works locally" are the same command.
#
#   scripts/ci.sh                 # full tier-1 run (the canonical gate)
#   scripts/ci.sh --quick         # PR-speed run: skips `slow` and
#                                 # `pipeline` marked suites
#   scripts/ci.sh -m pipeline     # extra pytest args are forwarded
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then
  QUICK=1
  shift
fi

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src

# The benchmark smoke suites run once, in their own final step below.
SMOKE_TESTS=(
  tests/test_bench_training_smoke.py
  tests/test_bench_parallel_smoke.py
  tests/test_bench_index_smoke.py
  tests/test_bench_serving_smoke.py
  tests/test_bench_reliability_smoke.py
  tests/test_bench_memory_smoke.py
  tests/test_bench_ingest_smoke.py
  tests/test_bench_obs_smoke.py
)
IGNORE_SMOKE=("${SMOKE_TESTS[@]/#/--ignore=}")

if [ "$QUICK" -eq 1 ]; then
  echo "== tier-1 tests (quick: not slow, not pipeline) =="
  python -m pytest -x -q -m "not slow and not pipeline" "${IGNORE_SMOKE[@]}" "$@"
else
  echo "== tier-1 tests =="
  python -m pytest -x -q "${IGNORE_SMOKE[@]}" "$@"
fi

# The asyncio daemon suites again in Python's development mode, which
# turns on asyncio's debug checks (e.g. a loop touched from the wrong
# thread); a ResourceWarning (an unclosed socket, transport or loop) is
# an error.  The files are named because the serving_daemon marker also
# selects the serving benchmark smoke suite, which runs once, below.
DAEMON_SUITES=(
  tests/serving/test_server.py
  tests/serving/test_admission.py
  tests/serving/test_server_metrics.py
  tests/reliability/test_server_degraded.py
  tests/ingest/test_server_ingest.py
  tests/serving/test_wire_fuzz.py
)
echo "== asyncio daemon suites under -X dev =="
python -X dev -W error::ResourceWarning -m pytest -q "${DAEMON_SUITES[@]}"

echo "== benchmark smoke tests =="
python -m pytest -q "${SMOKE_TESTS[@]}"

# The repository benchmark, each workload for two seconds with the
# per-layer trace on: the traced mode imports and patches every library
# name perfbench wraps, so a deletion that breaks the benchmark fails
# here.  Each run must exit 0, and its last line must report a correct
# run with no failed operations.
echo "== perfbench smoke =="
for workload in serve-exact serve-ivfpq-ingest train-eval; do
  echo "-- $workload"
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
  python3 -c '
import json, sys
result = json.loads(sys.argv[1])
assert result["correct"] is True and result["failed"] == 0, sys.argv[1][:400]
' "$result"
done

# Callers tier-1 never executes: the pytest-benchmark suites at toy
# scale (timing off, host-dependent `slow` timing assertions deselected;
# nothing is written under benchmarks/results/) and every example end to
# end, so a call to a deleted name cannot break unseen.
BENCH_SUITES=(
  benchmarks/bench_table2_derived_weights.py
  benchmarks/bench_table3_learned_weights.py
  benchmarks/bench_table4_quaternion.py
  benchmarks/bench_ablation_negatives.py
  benchmarks/bench_ablation_embedding_size.py
  benchmarks/bench_baselines.py
  benchmarks/bench_per_relation.py
  benchmarks/bench_scoring_throughput.py
  benchmarks/bench_serving_latency.py
)
REPRO_BENCH_FAST=1 python -m pytest -q -m "not slow" --benchmark-disable "${BENCH_SUITES[@]}"
for example in examples/*.py; do
  echo "-- $example"
  python "$example" > /dev/null
done

# End-to-end daemon smoke: train a tiny run, start `repro serve` as a
# real subprocess, drive concurrent wire requests, shut down cleanly.
echo "== serving daemon smoke =="
python scripts/serving_smoke.py

# Chaos smoke: tear a sweep child's checkpoint and resume (heal by
# re-run), then byte-flip, and separately delete, one file of a
# persisted index and require the daemon to serve degraded-but-exact
# answers over the wire; last, Ctrl-C a running serial and a running
# pooled sweep and require each to stop without recording a failure.
echo "== chaos smoke =="
python scripts/chaos_smoke.py
