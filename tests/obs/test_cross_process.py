"""Cross-process metric aggregation and enabled-vs-disabled bit-identity.

The pool captures a per-task-attempt delta registry and ships its
snapshot home on each :class:`TaskOutcome`; the parent merges only the
final kept attempt of each task.  These tests pin the aggregation
invariants the design leans on:

* in-process and worker-pool execution aggregate to the same numbers,
* a crashed-then-retried task counts exactly once (no double counting),
* sharded :class:`LinkPredictionEvaluator` metrics survive the process
  boundary,
* a telemetry-enabled pipeline run is bit-identical to a disabled one
  in every artifact except ``telemetry.jsonl``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import registry as obs_registry
from repro.obs.registry import MetricsRegistry, metrics_scope
from repro.obs.trace import Tracer, telemetry_scope
from repro.parallel.pool import run_tasks
from repro.reliability.faults import FaultPlan, FaultSpec

pytestmark = [pytest.mark.obs, pytest.mark.parallel]


def _observed_square(task: int) -> int:
    obs_registry.inc("work.tasks_done")
    obs_registry.inc("work.items", task)
    obs_registry.observe("work.seconds", 0.001 * (task + 1))
    return task * task


class TestPoolAggregation:
    def _run(self, workers: int, **kwargs) -> MetricsRegistry:
        registry = MetricsRegistry()
        with metrics_scope(registry):
            outcomes = run_tasks(_observed_square, list(range(4)), workers=workers,
                                 **kwargs)
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        return registry

    def test_in_process_aggregation(self):
        registry = self._run(workers=0)
        assert registry.counter_value("work.tasks_done") == 4
        assert registry.counter_value("work.items") == 0 + 1 + 2 + 3
        assert registry.histogram_count("work.seconds") == 4
        assert registry.counter_value("pool.tasks") == 4
        assert registry.counter_value("pool.task_failures") == 0

    def test_worker_pool_matches_in_process(self):
        serial = self._run(workers=0).snapshot()
        pooled = self._run(workers=2).snapshot()
        # Counters and histogram contents must agree exactly; only the
        # pool bookkeeping counters (attempts) may differ under retries.
        assert pooled.counters["work.tasks_done"] == serial.counters["work.tasks_done"]
        assert pooled.counters["work.items"] == serial.counters["work.items"]
        assert (
            pooled.histograms["work.seconds"].counts
            == serial.histograms["work.seconds"].counts
        )

    def test_crashed_attempt_counts_once_after_retry(self):
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="crash", match="task:1;attempt:0")
        )
        registry = MetricsRegistry()
        with metrics_scope(registry):
            outcomes = run_tasks(
                _observed_square,
                list(range(4)),
                workers=2,
                retries=1,
                fault_plan=plan,
            )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        # The crashed attempt's partial registry must be discarded: only
        # the successful retry contributes, so the totals equal a clean
        # run's exactly.
        assert registry.counter_value("work.tasks_done") == 4
        assert registry.counter_value("work.items") == 6
        assert registry.histogram_count("work.seconds") == 4
        assert registry.counter_value("pool.tasks") == 4
        assert registry.counter_value("pool.task_attempts") >= 5

    def test_no_telemetry_attaches_no_snapshots(self):
        outcomes = run_tasks(_observed_square, [1, 2], workers=0)
        assert all(o.metrics is None for o in outcomes)


class TestShardedEvaluationAggregation:
    @pytest.fixture(scope="class")
    def model(self, tiny_dataset):
        import numpy as np

        from repro.core.models import make_complex

        return make_complex(
            tiny_dataset.num_entities, tiny_dataset.num_relations, 8,
            np.random.default_rng(0),
        )

    def _evaluate(self, dataset, model, workers: int) -> MetricsRegistry:
        from repro.eval.evaluator import LinkPredictionEvaluator

        registry = MetricsRegistry()
        with metrics_scope(registry):
            LinkPredictionEvaluator(dataset, workers=workers, batch_size=4).evaluate(
                model, "test"
            )
        return registry

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_every_evaluator_counts_triples_ranked(self, tiny_dataset, model, workers):
        registry = self._evaluate(tiny_dataset, model, workers=workers)
        assert registry.counter_value("eval.triples_ranked") == 2 * len(
            tiny_dataset.test
        )

    def test_shard_metrics_cross_process_equal_serial(self, tiny_dataset, model):
        serial = self._evaluate(tiny_dataset, model, workers=0)
        pooled = self._evaluate(tiny_dataset, model, workers=2)
        assert pooled.counter_value("eval.triples_ranked") == serial.counter_value(
            "eval.triples_ranked"
        )
        # Every pooled task's snapshot comes home: two blocks per side.
        assert serial.counter_value("eval.shard_tasks") == 0
        assert pooled.counter_value("eval.shard_tasks") == 4
        assert pooled.histogram_count("eval.shard_seconds") == 4


@pytest.mark.pipeline
class TestPipelineBitIdentity:
    def _config(self):
        from repro.pipeline.config import (
            DatasetSection,
            ModelSection,
            RunConfig,
            TrainingSection,
        )

        return RunConfig(
            dataset=DatasetSection(
                generator="synthetic_wn18",
                params={"num_entities": 80, "num_clusters": 4, "seed": 11},
            ),
            model=ModelSection(name="complex", total_dim=8),
            training=TrainingSection(epochs=2, batch_size=64),
        )

    def test_ambient_telemetry_changes_no_artifact_bytes(self, tmp_path):
        from repro.pipeline.runner import run_pipeline

        plain_dir = tmp_path / "plain"
        run_pipeline(self._config(), run_dir=plain_dir)

        traced_dir = tmp_path / "traced"
        registry, tracer = MetricsRegistry(), Tracer()
        with telemetry_scope(registry, tracer):
            run_pipeline(self._config(), run_dir=traced_dir)

        plain_files = {
            p.relative_to(plain_dir) for p in plain_dir.rglob("*") if p.is_file()
        }
        traced_files = {
            p.relative_to(traced_dir) for p in traced_dir.rglob("*") if p.is_file()
        }
        from pathlib import Path

        from repro.obs.summary import TELEMETRY_FILE

        assert traced_files - plain_files == {Path(TELEMETRY_FILE)}
        for relative in plain_files:
            assert (plain_dir / relative).read_bytes() == (
                traced_dir / relative
            ).read_bytes(), f"telemetry changed {relative}"

        # And the telemetry actually recorded the run.
        assert registry.counter_value("pipeline.runs") == 1
        assert registry.counter_value("train.epochs") == 2
        lines = (
            (traced_dir / TELEMETRY_FILE).read_text(encoding="utf-8").splitlines()
        )
        records = [json.loads(line) for line in lines]
        assert records[-1]["type"] == "metrics"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"pipeline.run", "pipeline.train", "train.epoch"} <= span_names

    def test_config_enabled_telemetry_writes_jsonl(self, tmp_path):
        import dataclasses

        from repro.obs.summary import TELEMETRY_FILE
        from repro.pipeline.config import ObservabilitySection
        from repro.pipeline.runner import run_pipeline

        config = dataclasses.replace(
            self._config(), observability=ObservabilitySection(enabled=True)
        )
        result = run_pipeline(config, run_dir=tmp_path / "run")
        telemetry = result.run_dir / TELEMETRY_FILE
        assert telemetry.exists()
        # The manifest must not hash telemetry.jsonl.
        manifest = json.loads(
            (result.run_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert TELEMETRY_FILE not in json.dumps(manifest)
