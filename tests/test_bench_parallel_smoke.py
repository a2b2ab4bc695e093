"""Tier-1 smoke run of the parallel-evaluation benchmark.

Runs ``benchmarks/bench_parallel_eval.py`` at toy scale: the JSON
payload must have the documented schema and every worker count must
reproduce the serial evaluator's metrics bit-for-bit.  Throughput
assertions belong to the slow full-scale run only (and only on hosts
with enough cores).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.parallel

BENCH_PATH = Path(__file__).parent.parent / "benchmarks" / "bench_parallel_eval.py"


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_parallel_eval", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_results(bench_module, tmp_path_factory):
    json_path = tmp_path_factory.mktemp("bench") / "BENCH_parallel.json"
    results = bench_module.run_benchmark(fast=True, json_path=json_path)
    return results, json_path


def test_json_written_with_schema(smoke_results):
    results, json_path = smoke_results
    on_disk = json.loads(json_path.read_text(encoding="utf-8"))
    assert on_disk["config"]["fast"] is True
    assert on_disk["config"]["cpu_count"] >= 1
    assert on_disk["serial"]["seconds"] > 0
    assert on_disk["serial"]["triples_per_sec"] > 0
    assert set(on_disk["serial"]["metrics"]) == {"mrr", "mr", "hits", "num_ranks"}
    assert len(on_disk["sharded"]) == len(results["sharded"])
    for row in on_disk["sharded"]:
        for key in (
            "workers",
            "seconds",
            "triples_per_sec",
            "speedup_vs_serial",
            "metrics_match_serial",
        ):
            assert key in row
        assert row["triples_per_sec"] > 0


def test_every_setting_bit_identical_to_serial(smoke_results):
    results, _ = smoke_results
    assert all(row["metrics_match_serial"] for row in results["sharded"])


def test_settings_cover_one_and_several_workers(smoke_results):
    results, _ = smoke_results
    assert any(row["workers"] == 1 for row in results["sharded"])
    assert any(row["workers"] > 1 for row in results["sharded"])


def test_format_results_renders_table(smoke_results, bench_module):
    results, _ = smoke_results
    table = bench_module.format_results(results)
    assert "serial evaluator" in table
    assert "speedup" in table
