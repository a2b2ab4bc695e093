"""Serving-daemon benchmark: micro-batched vs request-at-a-time QPS.

Drives the asyncio :class:`~repro.serving.server.PredictionServer` with
an **open-loop Poisson** request stream (arrivals scheduled from an
exponential clock, independent of completions — the load a daemon
actually faces) and compares two configurations of the same server:

* **serial** — ``max_batch=1``: request-at-a-time, one scoring call and
  one thread hop per request;
* **batched** — ``max_batch=64``: the micro-batcher coalesces the
  requests that queued while the previous batch scored and scores the
  batch in one thread hop, one ``LinkPredictor`` call per
  ``(side, filtered)`` group.

Both are offered the *same* arrival sequence at a rate well above the
serial server's measured closed-loop capacity, so the serial run
saturates (queueing latency grows) while the batcher amortises the
per-call overhead — the thread hop, version sync, einsum setup, and
top-k selection — across every coalesced request.  Latency is measured
open-loop (completion minus *scheduled* arrival), which correctly
charges queueing delay to the saturated server.

Both modes are timed in a child process started with one BLAS thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1, as perfbench runs its daemons).  With default BLAS threads on
a two-core host, BLAS workers compete with the event loop's thread: the
fast run's QPS ratio read 0.7x-1.2x in seven runs, under its 2x target,
against 3.0x-4.4x pinned.

Scoring latency is weight-agnostic (the same matmuls run whatever the
values), so the bench scores an untrained model rather than paying for
training it.  Both modes must return identical ids for every request —
coalescing is a latency optimisation, not an approximation — and the
payload records that check.

Results go to ``BENCH_serving.json`` at the repository root (schema in
``benchmarks/README.md``), with the commit and host they were measured
on.  Acceptance — asserted by the slow full run
and, with relaxed thresholds, by the tier-1 smoke run — is the issue's
headline claim: micro-batching sustains **≥ 3x** the request-at-a-time
QPS while holding p99 latency under a fixed bound.

Run modes mirror the other benches:

* ``pytest benchmarks/bench_serving_daemon.py`` — full scale (slow);
* ``python benchmarks/bench_serving_daemon.py [--fast]`` — prints the
  comparison table and writes the JSON.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, PredictionServer

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # run standalone
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.conftest import bench_json_path  # noqa: E402

DEFAULT_JSON_PATH = REPO_ROOT / "BENCH_serving.json"

#: Acceptance targets.  The full run must hit the issue's ≥3x claim at a
#: bounded p99; the tier-1 smoke run (smaller graph, fewer requests, a
#: noisy shared CI core) asserts the same shape with relaxed thresholds.
QPS_RATIO_TARGET = 3.0
P99_BOUND_MS = 75.0
SMOKE_QPS_RATIO_TARGET = 2.0
SMOKE_P99_BOUND_MS = 250.0

#: Offered rate as a multiple of the serial server's measured capacity:
#: high enough to saturate request-at-a-time serving, low enough that
#: the batched server keeps up (its capacity, not the generator, should
#: be what bounds the measured ratio).
OFFERED_MULTIPLIER = 5.0

FULL_SCALE = dict(
    scale=2.0, total_dim=16, requests=800, k=10, max_batch=64,
    ratio_target=QPS_RATIO_TARGET, p99_bound_ms=P99_BOUND_MS,
)
FAST_SCALE = dict(
    scale=1.0, total_dim=16, requests=300, k=10, max_batch=64,
    ratio_target=SMOKE_QPS_RATIO_TARGET, p99_bound_ms=SMOKE_P99_BOUND_MS,
)

#: Closed-loop requests used to estimate the serial server's capacity.
CAPACITY_PROBE_REQUESTS = 40

#: The environment the modes are timed under: one BLAS thread.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


async def _drive_open_loop(
    server: PredictionServer,
    anchors: np.ndarray,
    relations: np.ndarray,
    k: int,
    offered_qps: float,
    seed: int = 0,
) -> dict:
    """Offer a Poisson stream and collect per-request open-loop latency."""
    arrivals = np.cumsum(
        np.random.default_rng(seed).exponential(1.0 / offered_qps, len(anchors))
    )
    latencies_ms = np.empty(len(anchors), dtype=np.float64)
    ids: list[np.ndarray] = [None] * len(anchors)
    coalesced = np.empty(len(anchors), dtype=np.int64)
    start = time.perf_counter()

    async def one(i: int) -> None:
        target = start + arrivals[i]
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result = await server.top_k(int(anchors[i]), int(relations[i]), side="tail", k=k)
        latencies_ms[i] = (time.perf_counter() - target) * 1000.0
        ids[i] = result.ids
        coalesced[i] = result.coalesced

    await asyncio.gather(*[one(i) for i in range(len(anchors))])
    span = time.perf_counter() - start
    return {
        "qps": len(anchors) / span,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p99_ms": float(np.percentile(latencies_ms, 99)),
        "mean_latency_ms": float(latencies_ms.mean()),
        "mean_coalesced": float(coalesced.mean()),
        "max_coalesced": int(coalesced.max()),
        "served": len(anchors),
        "span_seconds": span,
        "_ids": ids,
    }


async def _run_modes(model, dataset, scale_config: dict, seed: int) -> dict:
    num = scale_config["requests"]
    heads = dataset.test.heads[np.arange(num) % len(dataset.test)]
    relations = dataset.test.relations[np.arange(num) % len(dataset.test)]
    k = scale_config["k"]

    serial = PredictionServer(
        LinkPredictor(model, dataset),
        max_batch=1, queue_depth=max(2 * num, 1024),
    )
    async with serial:
        started = time.perf_counter()
        for i in range(CAPACITY_PROBE_REQUESTS):
            await serial.top_k(int(heads[i]), int(relations[i]), side="tail", k=k)
        capacity = CAPACITY_PROBE_REQUESTS / (time.perf_counter() - started)
        offered = OFFERED_MULTIPLIER * capacity
        serial_stats = await _drive_open_loop(
            serial, heads, relations, k, offered, seed=seed
        )

    batched = PredictionServer(
        LinkPredictor(model, dataset),
        max_batch=scale_config["max_batch"],
        queue_depth=max(2 * num, 1024),
    )
    async with batched:
        await batched.top_k(int(heads[0]), int(relations[0]), side="tail", k=k)  # warm
        batched_stats = await _drive_open_loop(
            batched, heads, relations, k, offered, seed=seed
        )

    identical = all(
        np.array_equal(a, b)
        for a, b in zip(serial_stats.pop("_ids"), batched_stats.pop("_ids"))
    )
    return {
        "serial_capacity_qps": capacity,
        "offered_qps": offered,
        "serial": serial_stats,
        "batched": batched_stats,
        "results_identical": identical,
    }


def _measure(fast: bool) -> dict:
    """Build the graph and model, then time both modes in this process."""
    scale_config = FAST_SCALE if fast else FULL_SCALE
    dataset = generate_synthetic_kg(SyntheticKGConfig(seed=3, scale=scale_config["scale"]))
    model = make_complex(
        dataset.num_entities,
        dataset.num_relations,
        scale_config["total_dim"],
        np.random.default_rng(7),
    )
    measured = asyncio.run(_run_modes(model, dataset, scale_config, seed=11))
    measured["dataset"] = {
        "name": dataset.name,
        "scale": scale_config["scale"],
        "num_entities": dataset.num_entities,
        "num_relations": dataset.num_relations,
    }
    return measured


def _measure_pinned(fast: bool) -> dict:
    """:func:`_measure` in a child process started under :data:`PINNED_ENV`
    (BLAS reads the variables once, when numpy loads it), importing from
    this process's ``sys.path``."""
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(entry) for entry in sys.path)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         "fast" if fast else "full"],
        env=env,
        capture_output=True,
        text=True,
    )
    if child.returncode != 0:
        raise RuntimeError(f"pinned serving measurement failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def _host() -> dict:
    """The commit and host a run measured."""

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "benchmarks")),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned_env": PINNED_ENV,
    }


def run_benchmark(fast: bool = False, json_path: Path | str | None = None) -> dict:
    """Measure serial vs micro-batched serving under the same Poisson load."""
    scale_config = FAST_SCALE if fast else FULL_SCALE
    measured = _measure_pinned(fast)

    ratio = measured["batched"]["qps"] / measured["serial"]["qps"]
    p99_ok = measured["batched"]["p99_ms"] <= scale_config["p99_bound_ms"]
    results = {
        "benchmark": "micro-batched serving daemon QPS vs request-at-a-time",
        "host": _host(),
        "dataset": measured["dataset"],
        "config": {
            "fast": fast,
            "model": "complex",
            "total_dim": scale_config["total_dim"],
            "requests": scale_config["requests"],
            "top_k": scale_config["k"],
            "max_batch": scale_config["max_batch"],
            "offered_multiplier": OFFERED_MULTIPLIER,
            "serial_capacity_qps": measured["serial_capacity_qps"],
            "offered_qps": measured["offered_qps"],
            "ratio_target": scale_config["ratio_target"],
            "p99_bound_ms": scale_config["p99_bound_ms"],
        },
        "serial": measured["serial"],
        "batched": measured["batched"],
        "acceptance": {
            "qps_ratio": ratio,
            "p99_within_bound": p99_ok,
            "results_identical": measured["results_identical"],
            "achieved": (
                ratio >= scale_config["ratio_target"]
                and p99_ok
                and measured["results_identical"]
            ),
        },
    }
    json_path = bench_json_path(json_path, DEFAULT_JSON_PATH, fast)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def format_results(results: dict) -> str:
    """Human-readable comparison table of the JSON payload."""
    dataset = results["dataset"]
    config = results["config"]
    acceptance = results["acceptance"]
    lines = [
        f"Serving daemon on {dataset['name']} "
        f"(N={dataset['num_entities']:,}, {config['requests']} requests, "
        f"offered {config['offered_qps']:.0f}/s = "
        f"{config['offered_multiplier']:.0f}x serial capacity)",
        f"{'mode':>8} {'qps':>8} {'p50':>9} {'p99':>9} {'coalesced':>10}",
    ]
    for mode in ("serial", "batched"):
        stats = results[mode]
        lines.append(
            f"{mode:>8} {stats['qps']:>8.0f} {stats['p50_ms']:>7.1f}ms "
            f"{stats['p99_ms']:>7.1f}ms {stats['mean_coalesced']:>10.1f}"
        )
    verdict = "met" if acceptance["achieved"] else "NOT met"
    lines.append(
        f"target {verdict}: {acceptance['qps_ratio']:.2f}x QPS "
        f"(target >= {config['ratio_target']:.1f}x), batched p99 "
        f"{results['batched']['p99_ms']:.1f}ms "
        f"(bound {config['p99_bound_ms']:.0f}ms), results identical: "
        f"{acceptance['results_identical']}"
    )
    return "\n".join(lines)


@pytest.mark.slow
@pytest.mark.serving_daemon
def test_serving_daemon_throughput():
    from benchmarks.conftest import is_fast, publish_table

    results = run_benchmark(fast=is_fast())
    publish_table("serving_daemon", format_results(results))
    assert results["acceptance"]["results_identical"], (
        "micro-batched answers diverged from request-at-a-time answers"
    )
    assert results["acceptance"]["achieved"], (
        f"micro-batching reached only "
        f"{results['acceptance']['qps_ratio']:.2f}x QPS (target "
        f"{results['config']['ratio_target']}x) or batched p99 "
        f"{results['batched']['p99_ms']:.1f}ms exceeded "
        f"{results['config']['p99_bound_ms']}ms"
    )


if __name__ == "__main__":
    if "--measure" in sys.argv:  # the pinned child of _measure_pinned
        print(json.dumps(_measure(fast=sys.argv[-1] == "fast")))
        sys.exit(0)
    fast_flag = "--fast" in sys.argv
    print(format_results(run_benchmark(fast=fast_flag)))
    if not fast_flag:
        print(f"\nwrote {DEFAULT_JSON_PATH}")
