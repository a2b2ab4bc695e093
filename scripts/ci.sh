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

echo "== benchmark smoke tests =="
python -m pytest -q "${SMOKE_TESTS[@]}"

# End-to-end daemon smoke: train a tiny run, start `repro serve` as a
# real subprocess, drive concurrent wire requests, shut down cleanly.
echo "== serving daemon smoke =="
python scripts/serving_smoke.py

# Chaos smoke: tear a sweep child's checkpoint and resume (heal by
# re-run), then byte-flip, and separately delete, one file of a
# persisted index and require the daemon to serve degraded-but-exact
# answers over the wire.
echo "== chaos smoke =="
python scripts/chaos_smoke.py
