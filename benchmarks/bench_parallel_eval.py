"""Parallel-evaluation benchmark: pooled ranking sweeps vs the serial path.

Times filtered link-prediction evaluation of a paper-scale synthetic
graph through :class:`LinkPredictionEvaluator` at its default
``workers=0`` (the serial path) and at several worker counts (each
splits both sides into that many blocks), verifying on every row that
the pooled metrics are **bit-identical** to the serial ones (the
engine's core contract — parallelism must never change results).

Results go to ``BENCH_parallel.json`` at the repository root (see
``benchmarks/README.md`` for the schema).  The JSON records
``os.cpu_count()`` because worker speedups are meaningless without it:
on a single-core machine the multi-process rows measure pure dispatch
overhead; the ≥2x-at-4-workers target applies to machines with ≥4
cores and is asserted by the (guarded) slow test below.

Run modes:

* ``pytest benchmarks/bench_parallel_eval.py`` — full scale; asserts
  metric identity everywhere and the ≥2x speedup target when the host
  has ≥4 cores.
* ``REPRO_BENCH_FAST=1`` or ``run_benchmark(fast=True)`` — toy scale for
  smoke runs (wired into the tier-1 suite); identity still checked,
  timing recorded but never asserted.
* ``python benchmarks/bench_parallel_eval.py`` — full scale, prints the
  table.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_model
from repro.core.weights import PRESETS
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run standalone
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_json_path  # noqa: E402

DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_parallel.json"

#: The acceptance target on hosts with >= 4 cores: 4 workers deliver at
#: least this speedup over the serial evaluator.
SPEEDUP_TARGET = 2.0

#: Worker counts benchmarked at full scale.
FULL_SETTINGS = (2, 4)

#: Reduced settings for smoke runs.
FAST_SETTINGS = (1, 2)


def _build_setup(fast: bool):
    """Dataset + model pair at benchmark or smoke scale."""
    if fast:
        dataset_config = SyntheticKGConfig(
            num_entities=150, num_clusters=10, num_domains=4, seed=7
        )
        total_dim = 16
    else:
        dataset_config = SyntheticKGConfig(
            num_entities=8000, num_clusters=200, num_domains=16, seed=7,
            test_fraction=0.1,
        )
        total_dim = 192
    dataset = generate_synthetic_kg(dataset_config)
    model = make_model(
        PRESETS.get("complex"),
        dataset.num_entities,
        dataset.num_relations,
        total_dim=total_dim,
        rng=np.random.default_rng(13),
    )
    return dataset, model, total_dim


def _metrics_fingerprint(result) -> dict:
    return {
        "mrr": result.overall.mrr,
        "mr": result.overall.mr,
        "hits": {str(k): v for k, v in result.overall.hits.items()},
        "num_ranks": result.overall.num_ranks,
    }


def _timed_evaluate(evaluator, model, repeats: int):
    """Median wall-clock of ``evaluator.evaluate``; returns (seconds, result)."""
    timings = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = evaluator.evaluate(model, "test")
        timings.append(time.perf_counter() - start)
    return sorted(timings)[len(timings) // 2], result


def run_benchmark(
    fast: bool = False, json_path: Path | str | None = None
) -> dict:
    """Run the benchmark; returns (and optionally writes) the results dict."""
    dataset, model, total_dim = _build_setup(fast)
    batch_size = 128 if fast else 512
    repeats = 1 if fast else 3
    num_eval = 2 * len(dataset.test)  # both sides are ranked per triple

    serial_evaluator = LinkPredictionEvaluator(dataset, batch_size=batch_size)
    # Warm up BLAS threads, the filter index, and the page cache before
    # any timed run — first-touch costs otherwise masquerade as speedup.
    serial_evaluator.evaluate(model, "test")
    serial_seconds, serial_result = _timed_evaluate(serial_evaluator, model, repeats)

    rows = []
    for workers in FAST_SETTINGS if fast else FULL_SETTINGS:
        evaluator = LinkPredictionEvaluator(dataset, batch_size=batch_size, workers=workers)
        seconds, result = _timed_evaluate(evaluator, model, repeats)
        rows.append(
            {
                "workers": workers,
                "seconds": seconds,
                "triples_per_sec": num_eval / seconds,
                "speedup_vs_serial": serial_seconds / seconds,
                "metrics_match_serial": (
                    result.overall.mrr == serial_result.overall.mrr
                    and result.overall.mr == serial_result.overall.mr
                    and result.overall.hits == serial_result.overall.hits
                    and result.overall.num_ranks == serial_result.overall.num_ranks
                ),
            }
        )

    results = {
        "config": {
            "fast": fast,
            "cpu_count": os.cpu_count(),
            "num_entities": dataset.num_entities,
            "num_relations": dataset.num_relations,
            "num_test_triples": len(dataset.test),
            "ranked_queries": num_eval,
            "total_dim": total_dim,
            "batch_size": batch_size,
            "speedup_target_at_4_workers": SPEEDUP_TARGET,
        },
        "serial": {
            "seconds": serial_seconds,
            "triples_per_sec": num_eval / serial_seconds,
            "metrics": _metrics_fingerprint(serial_result),
        },
        "sharded": rows,
    }
    json_path = bench_json_path(json_path, DEFAULT_JSON_PATH, fast)
    if json_path is not None:
        json_path.write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results


def format_results(results: dict) -> str:
    """Human-readable table of one :func:`run_benchmark` result."""
    config = results["config"]
    lines = [
        f"Parallel evaluation benchmark "
        f"({config['num_entities']} entities, {config['ranked_queries']} ranked queries, "
        f"{config['cpu_count']} cores)",
        f"{'setting':<28} {'seconds':>9} {'queries/s':>10} {'speedup':>8} {'identical':>10}",
    ]
    lines.append("-" * len(lines[-1]))
    serial = results["serial"]
    lines.append(
        f"{'serial evaluator':<28} {serial['seconds']:>9.3f} "
        f"{serial['triples_per_sec']:>10.1f} {'1.00x':>8} {'(ref)':>10}"
    )
    for row in results["sharded"]:
        label = f"workers={row['workers']}"
        lines.append(
            f"{label:<28} {row['seconds']:>9.3f} {row['triples_per_sec']:>10.1f} "
            f"{row['speedup_vs_serial']:>7.2f}x {str(row['metrics_match_serial']):>10}"
        )
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.parallel
def test_parallel_eval_benchmark():
    """Full-scale run: identity always; the 2x target only with >= 4 cores."""
    results = run_benchmark(fast=bool(os.environ.get("REPRO_BENCH_FAST")))
    print("\n" + format_results(results) + "\n")
    for row in results["sharded"]:
        assert row["metrics_match_serial"], row
    if results["config"]["fast"] or (os.cpu_count() or 1) < 4:
        pytest.skip("speedup target needs the full-scale run on >= 4 cores")
    best = max(
        row["speedup_vs_serial"]
        for row in results["sharded"]
        if row["workers"] == 4
    )
    assert best >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x at 4 workers, measured {best:.2f}x"
    )


if __name__ == "__main__":
    table = format_results(run_benchmark(fast="--fast" in sys.argv))
    print(table)
