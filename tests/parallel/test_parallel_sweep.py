"""Multi-process sweeps: parity with serial, caching, crash isolation."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.errors import ConfigError, SweepError
from repro.obs.registry import MetricsRegistry, metrics_scope
from repro.pipeline.config import DatasetSection, ModelSection, RunConfig, TrainingSection
from repro.pipeline.sweep import config_hash, read_status, sweep, write_status
from repro.reliability.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.parallel

GRID = {"model.name": ["distmult", "cph"]}


@pytest.fixture(scope="module")
def base() -> RunConfig:
    return RunConfig(
        dataset=DatasetSection(
            params={"num_entities": 80, "num_clusters": 6, "num_domains": 3, "seed": 1}
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=1, batch_size=256),
        seed=0,
    )


class TestParallelParity:
    def test_metrics_match_serial(self, base):
        serial = sweep(base, GRID)
        pooled = sweep(base, GRID, workers=2)
        assert [run.status for run in pooled] == ["completed", "completed"]
        for a, b in zip(serial, pooled):
            assert a.config == b.config
            assert a.test_metrics.mrr == b.test_metrics.mrr
            assert a.test_metrics.mr == b.test_metrics.mr
            assert a.test_metrics.hits == b.test_metrics.hits

    @pytest.mark.parametrize("workers", [0, 2])
    def test_children_carry_metrics(self, base, workers):
        runs = sweep(base, GRID, workers=workers)
        for run in runs:
            assert run.metrics is not None
            assert run.test_metrics is run.metrics[run.config.evaluation.split]


class TestStatusArtifacts:
    def test_children_record_completed_status(self, base, tmp_path):
        runs = sweep(base, GRID, run_root=tmp_path, workers=2)
        for run in runs:
            status = read_status(run.run_dir)
            assert status["status"] == "completed"
            assert status["config_sha256"] == config_hash(run.config)
            assert status["error"] is None

    def test_serial_sweeps_record_status_too(self, base, tmp_path):
        runs = sweep(base, GRID, run_root=tmp_path)
        assert all(read_status(run.run_dir)["status"] == "completed" for run in runs)


class TestResultCache:
    def test_rerun_skips_completed_children(self, base, tmp_path):
        first = sweep(base, GRID, run_root=tmp_path, workers=2)
        second = sweep(base, GRID, run_root=tmp_path, workers=2)
        assert [run.status for run in second] == ["cached", "cached"]
        for a, b in zip(first, second):
            assert a.test_metrics.mrr == b.test_metrics.mrr
            assert a.test_metrics.hits == b.test_metrics.hits

    def test_cache_applies_to_serial_reruns(self, base, tmp_path):
        sweep(base, GRID, run_root=tmp_path, workers=2)
        rerun = sweep(base, GRID, run_root=tmp_path)
        assert [run.status for run in rerun] == ["cached", "cached"]

    def test_extended_grid_runs_only_new_children(self, base, tmp_path):
        sweep(base, GRID, run_root=tmp_path, workers=2)
        extended = sweep(
            base, {"model.name": ["distmult", "cph", "cp"]}, run_root=tmp_path, workers=2
        )
        assert [run.status for run in extended] == ["cached", "cached", "completed"]

    def test_config_change_invalidates_cache(self, base, tmp_path):
        runs = sweep(base, GRID, run_root=tmp_path, workers=2)
        # Tamper: keep the dir but claim it came from a different config.
        victim = runs[0].run_dir
        write_status(victim, "completed", "0" * 64)
        rerun = sweep(base, GRID, run_root=tmp_path, workers=2)
        assert [run.status for run in rerun] == ["completed", "cached"]

    def test_failed_children_are_retried(self, base, tmp_path):
        runs = sweep(base, GRID, run_root=tmp_path, workers=2)
        write_status(runs[1].run_dir, "failed", config_hash(runs[1].config), error="boom")
        rerun = sweep(base, GRID, run_root=tmp_path, workers=2)
        assert [run.status for run in rerun] == ["cached", "completed"]


class TestCrashIsolation:
    #: num_entities=4 fails validation inside the child's dataset build.
    BAD_GRID = {"dataset.params.num_entities": [80, 4]}

    def test_failing_child_recorded_not_fatal(self, base, tmp_path):
        runs = sweep(base, self.BAD_GRID, run_root=tmp_path, workers=2)
        assert [run.status for run in runs] == ["completed", "failed"]
        assert runs[1].ok is False
        assert "num_entities" in runs[1].error
        status = json.loads((runs[1].run_dir / "status.json").read_text())
        assert status["status"] == "failed"
        assert "num_entities" in status["error"]

    @staticmethod
    def assert_children_counted(registry):
        assert registry.counter_value("sweep.children") == 2
        assert registry.counter_value("sweep.failed") == 1

    def test_serial_default_raises(self, base):
        with metrics_scope(MetricsRegistry()) as registry:
            with pytest.raises(SweepError, match="num_entities"):
                sweep(base, self.BAD_GRID)
        self.assert_children_counted(registry)

    def test_serial_record_mode_isolates(self, base, tmp_path):
        runs = sweep(base, self.BAD_GRID, run_root=tmp_path, on_error="record")
        assert [run.status for run in runs] == ["completed", "failed"]
        assert read_status(runs[1].run_dir)["status"] == "failed"

    def test_parallel_raise_mode_raises(self, base):
        with metrics_scope(MetricsRegistry()) as registry:
            with pytest.raises(SweepError, match="failed"):
                sweep(base, self.BAD_GRID, workers=2, on_error="raise")
        self.assert_children_counted(registry)

    def test_bad_on_error_rejected(self, base):
        with pytest.raises(ConfigError, match="on_error"):
            sweep(base, GRID, on_error="ignore")
        with pytest.raises(ConfigError, match="workers"):
            sweep(base, GRID, workers=-2)


class TestInterrupt:
    def test_ctrl_c_in_serial_child_stops_the_sweep(self, base, tmp_path, monkeypatch):
        """KeyboardInterrupt is no child's failure, even when failures are
        recorded: it leaves the sweep at once and records no status."""
        module = importlib.import_module("repro.pipeline.sweep")
        run_pipeline = module.run_pipeline

        def interrupt_cph(config, dataset=None, run_dir=None):
            if config.model.name == "cph":
                raise KeyboardInterrupt
            return run_pipeline(config, dataset=dataset, run_dir=run_dir)

        monkeypatch.setattr(module, "run_pipeline", interrupt_cph)
        with pytest.raises(KeyboardInterrupt):
            sweep(
                base,
                {"model.name": ["distmult", "cph", "cp"]},
                run_root=tmp_path,
                on_error="record",
            )
        statuses = {
            path.parent.name.split("-")[0]: read_status(path.parent)["status"]
            for path in tmp_path.glob("*/status.json")
        }
        assert statuses == {"run000": "completed"}


class TestNoNestedPools:
    def test_sweep_worker_runs_sharded_eval_in_process(self, base):
        """A sweep child whose config requests eval workers must fall
        back to serial evaluation inside the pool worker (no grandchild
        pools) — and still record identical metrics."""
        data = base.to_dict()
        data["parallel"] = {"eval_workers": 2}
        nested = RunConfig.from_dict(data)
        pooled = sweep(nested, {"model.name": ["distmult"]}, workers=1)
        serial = sweep(base, {"model.name": ["distmult"]})
        assert pooled[0].status == "completed"
        assert pooled[0].test_metrics.mrr == serial[0].test_metrics.mrr
        assert pooled[0].test_metrics.hits == serial[0].test_metrics.hits

    def test_worker_process_flag(self):
        from repro.parallel.pool import in_worker_process, run_tasks

        assert in_worker_process() is False
        outcomes = run_tasks(_probe_worker_flag, [0], workers=1)
        assert outcomes[0].value is True
        assert run_tasks(_probe_worker_flag, [0], workers=0)[0].value is False


def _probe_worker_flag(_: object) -> bool:
    from repro.parallel.pool import in_worker_process

    return in_worker_process()


class TestResumeFlag:
    def test_resume_false_reexecutes(self, base, tmp_path):
        first = sweep(base, GRID, run_root=tmp_path, workers=2)
        rerun = sweep(base, GRID, run_root=tmp_path, resume=False)
        assert [run.status for run in rerun] == ["completed", "completed"]
        for a, b in zip(first, rerun):
            assert a.test_metrics.mrr == b.test_metrics.mrr


class TestSweepContext:
    def test_serial_sweep_holds_no_dataset_after_it_returns(self, base, tiny_dataset):
        module = importlib.import_module("repro.pipeline.sweep")
        sweep(base, GRID)
        assert module._DATASET_CACHE == {}
        sweep(base, GRID, dataset=tiny_dataset)
        assert module._PINNED_DATASET is None
        with pytest.raises(SweepError):
            sweep(base, TestCrashIsolation.BAD_GRID)
        assert module._DATASET_CACHE == {}

    def test_in_process_retry_reuses_the_dataset(self, base, monkeypatch):
        builds = []
        build = DatasetSection.build

        def counted_build(section):
            builds.append(section)
            return build(section)

        monkeypatch.setattr(DatasetSection, "build", counted_build)
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", match="task:1;attempt:0")
        )
        runs = sweep(base, GRID, retries=1, fault_plan=plan)
        assert [run.status for run in runs] == ["completed", "completed"]
        assert len(builds) == 1


class TestPinnedDataset:
    def test_pinned_dataset_ships_to_workers(self, base, tiny_dataset):
        runs = sweep(base, {"model.name": ["distmult"]}, dataset=tiny_dataset, workers=2)
        assert runs[0].status == "completed"
        # tiny_dataset has 100 entities vs the config's 80: metrics were
        # computed on the pinned graph, proving it reached the worker.
        assert runs[0].metrics["test"].num_ranks == 2 * len(tiny_dataset.test)
