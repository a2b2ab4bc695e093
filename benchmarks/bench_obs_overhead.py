"""Observability overhead benchmark: what does telemetry cost?

Three questions, answered with numbers in ``BENCH_obs.json``:

1. **What does a disabled hook cost?**  Every instrumented call site
   pays one ``active_registry() is None`` / ``active_tracer() is None``
   check when telemetry is off.  The micro-benchmark times the no-op
   free functions (``inc``/``observe``/``trace_scope``) in a tight loop
   and, combined with the hook-call volume counted off an enabled run,
   estimates the disabled-path tax on a real pipeline: the acceptance
   target is **< 0.5% of end-to-end wall-clock**.

2. **What does enabled telemetry cost?**  The same pipeline config is
   run with telemetry off and on (ambient ``telemetry_scope``),
   interleaved to share thermal/cache conditions, and the median
   wall-clocks compared.  The acceptance target is **< 3% overhead**:
   instrumentation sits at epoch/batch-group granularity, never inside
   the vectorised scoring kernels.

3. **What does tracing cost the serving hot path?**  A micro-batched
   :class:`PredictionServer` answers the same request stream with and
   without an installed :class:`Tracer` (the daemon's configuration);
   the delta prices the per-group span records.  Recorded, not
   asserted — single-process asyncio timings at millisecond scale are
   too noisy for a hard gate.

Results go to ``BENCH_obs.json`` at the repository root (see
``benchmarks/README.md`` for the schema).

Run modes:

* ``pytest benchmarks/bench_obs_overhead.py`` — full scale; asserts the
  enabled < 3% and disabled < 0.5% pipeline targets.
* ``REPRO_BENCH_FAST=1`` or ``run_benchmark(fast=True)`` — toy scale for
  smoke runs (wired into the tier-1 suite); targets are recorded but
  not asserted (a toy pipeline is too short to average out noise).
* ``python benchmarks/bench_obs_overhead.py`` — full scale, prints the
  table.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.obs import registry as obs_registry
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, install_tracer, telemetry_scope, trace_scope
from repro.pipeline.config import (
    DatasetSection,
    ModelSection,
    RunConfig,
    TrainingSection,
)
from repro.pipeline.runner import run_pipeline
from repro.serving import LinkPredictor, PredictionServer

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_obs.json"

#: Acceptance targets (full-scale run only): enabled telemetry may cost
#: at most 3% of pipeline wall-clock, the disabled no-op hooks at most
#: 0.5%.
ENABLED_TARGET_PCT = 3.0
DISABLED_TARGET_PCT = 0.5


def _run_config(fast: bool) -> RunConfig:
    if fast:
        dataset = {"num_entities": 120, "num_clusters": 6, "seed": 3}
        total_dim, epochs = 8, 2
    else:
        # Long enough that the fixed enabled-mode costs (one
        # telemetry.jsonl write, tracer setup) amortise against real
        # training work — the target gates the steady-state tax, not a
        # constant, and production runs train for minutes.
        dataset = {"num_entities": 800, "num_clusters": 20, "seed": 3}
        total_dim, epochs = 64, 40
    return RunConfig(
        dataset=DatasetSection(generator="synthetic_wn18", params=dataset),
        model=ModelSection(name="complex", total_dim=total_dim),
        training=TrainingSection(epochs=epochs, batch_size=256),
    )


# ------------------------------------------------------------ micro-bench
def _ns_per_call(fn, loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - start) * 1e9 / loops


def _bench_noop_hooks(fast: bool) -> dict:
    """Cost of the telemetry call sites while telemetry is *off*."""
    assert obs_registry.active_registry() is None, "benchmark needs a clean slate"
    loops = 20_000 if fast else 200_000

    def traced_pass():
        with trace_scope("noop"):
            pass

    ns_inc = _ns_per_call(lambda: obs_registry.inc("x"), loops)
    ns_observe = _ns_per_call(lambda: obs_registry.observe("y", 0.001), loops)
    ns_scope = _ns_per_call(traced_pass, loops)

    registry = MetricsRegistry()
    with obs_registry.metrics_scope(registry):
        ns_inc_live = _ns_per_call(lambda: obs_registry.inc("x"), loops)
        ns_observe_live = _ns_per_call(lambda: obs_registry.observe("y", 0.001), loops)
    return {
        "loops": loops,
        "noop_inc_ns": ns_inc,
        "noop_observe_ns": ns_observe,
        "noop_trace_scope_ns": ns_scope,
        "live_inc_ns": ns_inc_live,
        "live_observe_ns": ns_observe_live,
    }


# ------------------------------------------------------- pipeline overhead
def _hook_call_volume(registry: MetricsRegistry, tracer: Tracer) -> int:
    """Rough number of telemetry calls an enabled run performed."""
    snap = registry.snapshot()
    counter_incs = len(snap.counters)  # bulk incs count as one call each
    observes = sum(h.count for h in snap.histograms.values())
    gauge_sets = len(snap.gauges)
    spans = len(tracer.spans()) + tracer.dropped
    return counter_incs + observes + gauge_sets + spans


def _bench_pipeline_overhead(fast: bool, run_root: Path) -> dict:
    config = _run_config(fast)
    repeats = 2 if fast else 5
    off_timings: list[float] = []
    on_timings: list[float] = []
    hook_calls = 0
    for repeat in range(repeats):
        # Interleave off/on so both modes share warm-up and drift.
        start = time.perf_counter()
        run_pipeline(config, run_dir=run_root / f"off_{repeat}")
        off_timings.append(time.perf_counter() - start)

        registry, tracer = MetricsRegistry(), Tracer()
        with telemetry_scope(registry, tracer):
            start = time.perf_counter()
            run_pipeline(config, run_dir=run_root / f"on_{repeat}")
            on_timings.append(time.perf_counter() - start)
        hook_calls = max(hook_calls, _hook_call_volume(registry, tracer))

    off_median = sorted(off_timings)[len(off_timings) // 2]
    on_median = sorted(on_timings)[len(on_timings) // 2]
    enabled_pct = 100.0 * max(0.0, on_median - off_median) / off_median
    return {
        "repeats": repeats,
        "epochs": config.training.epochs,
        "disabled_seconds": off_median,
        "enabled_seconds": on_median,
        "enabled_overhead_pct": enabled_pct,
        "enabled_target_pct": ENABLED_TARGET_PCT,
        "hook_calls": hook_calls,
        "disabled_target_pct": DISABLED_TARGET_PCT,
    }


def _estimate_disabled_pct(pipeline: dict, hooks: dict) -> float:
    """Disabled-path tax: hook volume x no-op cost over the wall-clock."""
    worst_ns = max(
        hooks["noop_inc_ns"], hooks["noop_observe_ns"], hooks["noop_trace_scope_ns"]
    )
    tax_seconds = pipeline["hook_calls"] * worst_ns / 1e9
    return 100.0 * tax_seconds / pipeline["disabled_seconds"]


# -------------------------------------------------------- serving overhead
def _bench_serving_overhead(fast: bool) -> dict:
    dataset = generate_synthetic_kg(
        SyntheticKGConfig(
            num_entities=150 if fast else 400, num_clusters=10, seed=9
        )
    )
    model = make_complex(
        dataset.num_entities,
        dataset.num_relations,
        8 if fast else 32,
        np.random.default_rng(4),
    )
    requests = 64 if fast else 512
    heads = [h % dataset.num_entities for h in range(requests)]

    async def timed(traced: bool) -> float:
        previous = install_tracer(Tracer() if traced else None)
        try:
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=32)
            async with server:
                start = time.perf_counter()
                for chunk in range(0, len(heads), 32):
                    await asyncio.gather(*[
                        server.top_k(h, 0, side="tail", k=5)
                        for h in heads[chunk : chunk + 32]
                    ])
                return time.perf_counter() - start
        finally:
            install_tracer(previous)

    # Warm both paths once (fold caches, allocator), then measure.
    asyncio.run(timed(False))
    plain = asyncio.run(timed(False))
    traced = asyncio.run(timed(True))
    return {
        "requests": requests,
        "plain_seconds": plain,
        "traced_seconds": traced,
        "traced_overhead_pct": 100.0 * max(0.0, traced - plain) / plain,
    }


def run_benchmark(
    fast: bool = False, json_path: Path | str | None = DEFAULT_JSON_PATH
) -> dict:
    """Run the benchmark; returns (and optionally writes) the results dict."""
    hooks = _bench_noop_hooks(fast)
    with tempfile.TemporaryDirectory(dir=REPO_ROOT / "benchmarks") as scratch:
        pipeline = _bench_pipeline_overhead(fast, Path(scratch))
    pipeline["disabled_overhead_pct"] = _estimate_disabled_pct(pipeline, hooks)
    results = {
        "config": {
            "fast": fast,
            "cpu_count": os.cpu_count(),
            "enabled_target_pct": ENABLED_TARGET_PCT,
            "disabled_target_pct": DISABLED_TARGET_PCT,
        },
        "noop_hooks": hooks,
        "pipeline": pipeline,
        "serving": _bench_serving_overhead(fast),
    }
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results


def format_results(results: dict) -> str:
    """Human-readable summary of one :func:`run_benchmark` result."""
    hooks = results["noop_hooks"]
    pipeline = results["pipeline"]
    serving = results["serving"]
    return "\n".join([
        f"Observability benchmark ({results['config']['cpu_count']} cores)",
        (
            f"no-op hooks: inc {hooks['noop_inc_ns']:.0f} ns, "
            f"observe {hooks['noop_observe_ns']:.0f} ns, "
            f"trace_scope {hooks['noop_trace_scope_ns']:.0f} ns "
            f"(live inc {hooks['live_inc_ns']:.0f} ns)"
        ),
        (
            f"pipeline ({pipeline['epochs']} epochs, median of "
            f"{pipeline['repeats']}): off {pipeline['disabled_seconds']:.3f}s, "
            f"on {pipeline['enabled_seconds']:.3f}s -> "
            f"{pipeline['enabled_overhead_pct']:.2f}% enabled overhead "
            f"(target < {pipeline['enabled_target_pct']:.1f}%)"
        ),
        (
            f"disabled-path tax: {pipeline['hook_calls']} hook calls -> "
            f"{pipeline['disabled_overhead_pct']:.4f}% of wall-clock "
            f"(target < {pipeline['disabled_target_pct']:.1f}%)"
        ),
        (
            f"serving ({serving['requests']} requests): plain "
            f"{serving['plain_seconds']:.3f}s, traced "
            f"{serving['traced_seconds']:.3f}s -> "
            f"{serving['traced_overhead_pct']:.2f}% (recorded, not asserted)"
        ),
    ])


@pytest.mark.slow
@pytest.mark.obs
def test_obs_overhead_benchmark():
    """Full-scale run: enabled < 3% and disabled < 0.5% of wall-clock."""
    results = run_benchmark(fast=bool(os.environ.get("REPRO_BENCH_FAST")))
    print("\n" + format_results(results) + "\n")
    pipeline = results["pipeline"]
    assert pipeline["hook_calls"] > 0
    if results["config"]["fast"]:
        pytest.skip("overhead targets apply to the full-scale run only")
    assert pipeline["enabled_overhead_pct"] < ENABLED_TARGET_PCT, (
        f"enabled telemetry cost {pipeline['enabled_overhead_pct']:.2f}% "
        f"of the pipeline; target < {ENABLED_TARGET_PCT}%"
    )
    assert pipeline["disabled_overhead_pct"] < DISABLED_TARGET_PCT, (
        f"disabled hooks cost {pipeline['disabled_overhead_pct']:.4f}% "
        f"of the pipeline; target < {DISABLED_TARGET_PCT}%"
    )


if __name__ == "__main__":
    print(format_results(run_benchmark(fast="--fast" in sys.argv)))
