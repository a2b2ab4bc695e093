"""Reliability benchmark: atomic-write overhead and recovery behavior.

Two questions, answered with numbers in ``BENCH_reliability.json``:

1. **What does crash-safety cost?**  Every artifact the pipeline
   persists (checkpoint, metrics, history, manifest, index arrays) goes
   through ``atomic_write`` — tempfile + fsync + ``os.replace`` —
   instead of a plain ``write_bytes``.  The benchmark times both write
   styles over the run's real artifact payloads and expresses the
   difference as a percentage of the end-to-end pipeline wall-clock:
   the acceptance target is **< 5% overhead on the hot path** (the
   fsyncs are real, but training/serving dominate).

2. **Does recovery actually recover?**  The three chaos scenarios from
   the test suite are re-run with timings: a worker crash healed by a
   pool retry, a torn sweep-child checkpoint healed by resume, and a
   byte-flipped persisted index served through the degraded exact
   path.  Each row records wall-clock *and* whether the recovered
   results are bit-identical to the fault-free run — recovery that
   changes results is a bug, not a feature.

Results go to ``BENCH_reliability.json`` at the repository root (see
``benchmarks/README.md`` for the schema).

Run modes:

* ``pytest benchmarks/bench_reliability.py`` — full scale; asserts the
  < 5% overhead target and bit-identical recovery everywhere.
* ``REPRO_BENCH_FAST=1`` or ``run_benchmark(fast=True)`` — toy scale for
  smoke runs (wired into the tier-1 suite); recovery identity is still
  asserted, the overhead target is recorded but not asserted (at toy
  scale the pipeline is too short to amortise anything).
* ``python benchmarks/bench_reliability.py`` — full scale, prints the
  table.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.pipeline.config import (
    DatasetSection,
    IndexSection,
    ModelSection,
    RunConfig,
    TrainingSection,
)
from repro.pipeline.runner import run_pipeline
from repro.pipeline.sweep import sweep
from repro.reliability.atomic import atomic_write_bytes
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.serving import PredictionServer

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_reliability.json"

#: Acceptance target: atomic writes may cost at most this fraction of
#: the end-to-end pipeline wall-clock (full-scale run only).
OVERHEAD_TARGET_PCT = 5.0


def _run_config(fast: bool) -> RunConfig:
    if fast:
        dataset = {"num_entities": 120, "num_clusters": 6, "seed": 3}
        total_dim, epochs = 8, 2
    else:
        dataset = {"num_entities": 500, "num_clusters": 20, "seed": 3}
        total_dim, epochs = 48, 30
    return RunConfig(
        dataset=DatasetSection(generator="synthetic_wn18", params=dataset),
        model=ModelSection(name="complex", total_dim=total_dim),
        training=TrainingSection(epochs=epochs, batch_size=256),
        index=IndexSection(kind="ivf", nlist=8, nprobe=2),
    )


def _artifact_payloads(run_dir: Path) -> dict[str, bytes]:
    """Every persisted file of a run, name -> bytes (the real IO load)."""
    return {
        str(path.relative_to(run_dir)): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _timed_writes(payloads: dict[str, bytes], repeats: int, atomic: bool) -> float:
    """Median wall-clock of writing all payloads once, plain or atomic."""
    timings = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(dir=REPO_ROOT / "benchmarks") as scratch:
            root = Path(scratch)
            start = time.perf_counter()
            for name, payload in payloads.items():
                target = root / name
                target.parent.mkdir(parents=True, exist_ok=True)
                if atomic:
                    atomic_write_bytes(target, payload)
                else:
                    target.write_bytes(payload)
            timings.append(time.perf_counter() - start)
    return sorted(timings)[len(timings) // 2]


def _bench_atomic_overhead(fast: bool, run_root: Path) -> dict:
    config = _run_config(fast)
    run_dir = run_root / "overhead_run"
    start = time.perf_counter()
    run_pipeline(config, run_dir=run_dir)
    pipeline_seconds = time.perf_counter() - start

    payloads = _artifact_payloads(run_dir)
    repeats = 5 if fast else 20
    plain_seconds = _timed_writes(payloads, repeats, atomic=False)
    atomic_seconds = _timed_writes(payloads, repeats, atomic=True)
    extra = max(0.0, atomic_seconds - plain_seconds)
    return {
        "num_artifacts": len(payloads),
        "artifact_bytes": sum(len(p) for p in payloads.values()),
        "write_repeats": repeats,
        "plain_seconds": plain_seconds,
        "atomic_seconds": atomic_seconds,
        "per_write_overhead_pct": 100.0 * extra / max(plain_seconds, 1e-12),
        "pipeline_seconds": pipeline_seconds,
        "hot_path_overhead_pct": 100.0 * extra / pipeline_seconds,
        "target_pct": OVERHEAD_TARGET_PCT,
    }


def _bench_crash_retry(fast: bool) -> dict:
    dataset = generate_synthetic_kg(
        SyntheticKGConfig(
            num_entities=120 if fast else 400,
            num_clusters=8,
            seed=7,
        )
    )
    model = make_complex(
        dataset.num_entities,
        dataset.num_relations,
        8 if fast else 32,
        np.random.default_rng(5),
    )
    start = time.perf_counter()
    clean = LinkPredictionEvaluator(dataset, shards=4, workers=0).evaluate(model, "test")
    clean_seconds = time.perf_counter() - start

    plan = FaultPlan.of(
        FaultSpec(site="pool.task", kind="crash", match="task:1;attempt:0")
    )
    start = time.perf_counter()
    healed = LinkPredictionEvaluator(
        dataset, shards=4, workers=2, retries=1, fault_plan=plan
    ).evaluate(model, "test")
    healed_seconds = time.perf_counter() - start
    return {
        "scenario": "worker crash mid-eval, healed by pool retry",
        "clean_seconds": clean_seconds,
        "chaotic_seconds": healed_seconds,
        "bit_identical": (
            healed.overall.mrr == clean.overall.mrr
            and healed.overall.mr == clean.overall.mr
            and healed.overall.hits == clean.overall.hits
        ),
    }


def _bench_resume_heal(fast: bool, run_root: Path) -> dict:
    config = _run_config(fast)
    grid = {"training.learning_rate": [0.05, 0.1]}
    clean = sweep(config, grid, run_root=run_root / "clean")
    first = sweep(config, grid, run_root=run_root / "hurt")

    victim = first[0].run_dir / "checkpoint" / "store" / "entity_embeddings.npy"
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])

    start = time.perf_counter()
    resumed = sweep(config, grid, run_root=run_root / "hurt")
    resume_seconds = time.perf_counter() - start
    return {
        "scenario": "torn sweep-child checkpoint, healed by resume re-run",
        "resume_seconds": resume_seconds,
        "statuses": [run.status for run in resumed],
        "bit_identical": all(
            healed.metrics["test"].mrr == reference.metrics["test"].mrr
            for healed, reference in zip(resumed, clean)
        ),
    }


def _bench_degraded_serving(fast: bool, run_root: Path) -> dict:
    config = _run_config(fast)
    run_dir = run_root / "serving_run"
    run_pipeline(config, run_dir=run_dir)
    heads = list(range(8))

    async def answers(path, index):
        server = PredictionServer(max_batch=8)
        async with server:
            deployment = await server.load_run(path, index=index)
            start = time.perf_counter()
            served = [await server.top_k(h, 0, side="tail", k=5) for h in heads]
            seconds = time.perf_counter() - start
            return (
                [(list(s.ids), list(s.scores)) for s in served],
                deployment.degraded,
                seconds,
            )

    exact, _, exact_seconds = asyncio.run(answers(run_dir, None))

    corrupt = run_root / "serving_corrupt"
    shutil.copytree(run_dir, corrupt)
    victim = sorted((corrupt / "index" / "store").glob("*.npy"))[0]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))

    degraded, was_degraded, degraded_seconds = asyncio.run(answers(corrupt, "auto"))
    return {
        "scenario": "byte-flipped persisted index, served via degraded exact path",
        "requests": len(heads),
        "exact_seconds": exact_seconds,
        "degraded_seconds": degraded_seconds,
        "deployment_degraded": was_degraded,
        "bit_identical": degraded == exact,
    }


def run_benchmark(
    fast: bool = False, json_path: Path | str | None = DEFAULT_JSON_PATH
) -> dict:
    """Run the benchmark; returns (and optionally writes) the results dict."""
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "benchmarks") as scratch:
        root = Path(scratch)
        results = {
            "config": {
                "fast": fast,
                "cpu_count": os.cpu_count(),
                "overhead_target_pct": OVERHEAD_TARGET_PCT,
            },
            "atomic_write": _bench_atomic_overhead(fast, root / "overhead"),
            "recovery": {
                "eval_crash_retry": _bench_crash_retry(fast),
                "sweep_resume_heal": _bench_resume_heal(fast, root / "resume"),
                "degraded_serving": _bench_degraded_serving(fast, root / "serving"),
            },
        }
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results


def format_results(results: dict) -> str:
    """Human-readable summary of one :func:`run_benchmark` result."""
    atomic = results["atomic_write"]
    lines = [
        f"Reliability benchmark ({results['config']['cpu_count']} cores)",
        (
            f"atomic writes: {atomic['num_artifacts']} artifacts, "
            f"{atomic['artifact_bytes']} bytes -> "
            f"plain {atomic['plain_seconds'] * 1000:.2f} ms, "
            f"atomic {atomic['atomic_seconds'] * 1000:.2f} ms"
        ),
        (
            f"hot-path overhead: {atomic['hot_path_overhead_pct']:.3f}% of a "
            f"{atomic['pipeline_seconds']:.2f}s pipeline "
            f"(target < {atomic['target_pct']:.1f}%)"
        ),
        "",
        f"{'recovery scenario':<52} {'seconds':>9} {'identical':>10}",
    ]
    lines.append("-" * len(lines[-1]))
    recovery = results["recovery"]
    rows = [
        (recovery["eval_crash_retry"], "chaotic_seconds"),
        (recovery["sweep_resume_heal"], "resume_seconds"),
        (recovery["degraded_serving"], "degraded_seconds"),
    ]
    for row, seconds_key in rows:
        lines.append(
            f"{row['scenario']:<52} {row[seconds_key]:>9.3f} "
            f"{str(row['bit_identical']):>10}"
        )
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.reliability
def test_reliability_benchmark():
    """Full-scale run: recovery identity always; overhead target too."""
    results = run_benchmark(fast=bool(os.environ.get("REPRO_BENCH_FAST")))
    print("\n" + format_results(results) + "\n")
    for scenario in results["recovery"].values():
        assert scenario["bit_identical"], scenario
    assert results["recovery"]["degraded_serving"]["deployment_degraded"]
    if results["config"]["fast"]:
        pytest.skip("overhead target applies to the full-scale run only")
    measured = results["atomic_write"]["hot_path_overhead_pct"]
    assert measured < OVERHEAD_TARGET_PCT, (
        f"atomic writes cost {measured:.3f}% of the pipeline; "
        f"target < {OVERHEAD_TARGET_PCT}%"
    )


if __name__ == "__main__":
    print(format_results(run_benchmark(fast="--fast" in sys.argv)))
