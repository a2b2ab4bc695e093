"""Chaos acceptance scenarios: injected disasters, bit-identical recovery.

The three end-to-end stories the fault-tolerance layer exists for:

1. a worker process is hard-killed mid-evaluation and the sharded
   evaluator heals it through a pool retry — merged metrics bit-equal
   to an undisturbed run;
2. a sweep child's artifacts are torn on disk and resume heals the
   child by re-running it — final sweep results bit-equal to a clean
   sweep;
3. a persisted index is byte-flipped, or loses a file, and serving
   degrades to the exact full-sweep path — answers bit-equal to serving
   without an index.

Determinism makes "recovered" checkable as *equality*, not vibes.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.reliability.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.reliability


class TestWorkerCrashMidEvaluation:
    def test_crash_heals_to_bit_identical_metrics(self, tiny_dataset):
        from repro.core.models import make_complex
        from repro.eval.evaluator import LinkPredictionEvaluator

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(7),
        )
        clean = LinkPredictionEvaluator(
            tiny_dataset, shards=4, workers=0
        ).evaluate(model, "test")
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="crash", match="task:1;attempt:0")
        )
        chaotic = LinkPredictionEvaluator(
            tiny_dataset, shards=4, workers=2, retries=1, fault_plan=plan
        ).evaluate(model, "test")
        assert chaotic.overall.mrr == clean.overall.mrr
        assert chaotic.overall.mr == clean.overall.mr
        assert chaotic.overall.hits == clean.overall.hits
        assert chaotic.tail_side.mrr == clean.tail_side.mrr
        assert chaotic.head_side.mrr == clean.head_side.mrr

    def test_crash_without_retry_budget_is_a_typed_failure(self, tiny_dataset):
        from repro.core.models import make_complex
        from repro.errors import EvaluationError
        from repro.eval.evaluator import LinkPredictionEvaluator

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(7),
        )
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="crash", match="task:0", max_hits=10)
        )
        evaluator = LinkPredictionEvaluator(
            tiny_dataset, shards=2, workers=1, retries=0, fault_plan=plan
        )
        with pytest.raises(EvaluationError, match="shards failed"):
            evaluator.evaluate(model, "test")


class TestTornSweepChildOnResume:
    @staticmethod
    def _base_config():
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
            training=TrainingSection(epochs=1, batch_size=256),
        )

    def test_truncated_artifacts_heal_by_rerun(self, tmp_path):
        from repro.pipeline.sweep import sweep

        grid = {"training.learning_rate": [0.05, 0.1]}
        clean_root, hurt_root = tmp_path / "clean", tmp_path / "hurt"
        clean = sweep(self._base_config(), grid, run_root=clean_root)
        first = sweep(self._base_config(), grid, run_root=hurt_root)
        assert [run.status for run in first] == ["completed", "completed"]

        # Tear child 0's checkpoint mid-file (a legacy torn write /
        # bit rot): resume must treat the cache entry as unusable.
        victim = first[0].run_dir / "checkpoint" / "store" / "entity_embeddings.npy"
        raw = victim.read_bytes()
        victim.write_bytes(raw[: len(raw) // 2])

        resumed = sweep(self._base_config(), grid, run_root=hurt_root)
        # Child 0 re-ran from scratch; child 1's cache hit was honoured.
        assert [run.status for run in resumed] == ["completed", "cached"]
        for healed, reference in zip(resumed, clean):
            assert healed.metrics["test"].mrr == reference.metrics["test"].mrr
        # The healed run dir is whole again — checkpoint loads and
        # verifies, so a *second* resume is a pure cache hit.
        again = sweep(self._base_config(), grid, run_root=hurt_root)
        assert [run.status for run in again] == ["cached", "cached"]

    def test_transient_child_fault_healed_by_sweep_retry(self, tmp_path):
        from repro.pipeline.sweep import sweep

        grid = {"training.learning_rate": [0.05, 0.1]}
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", match="task:1;attempt:0")
        )
        clean = sweep(self._base_config(), grid, run_root=tmp_path / "a")
        healed = sweep(
            self._base_config(),
            grid,
            run_root=tmp_path / "b",
            retries=1,
            fault_plan=plan,
        )
        assert [run.status for run in healed] == ["completed", "completed"]
        for chaotic, reference in zip(healed, clean):
            assert chaotic.metrics["test"].mrr == reference.metrics["test"].mrr

    def test_transient_child_fault_fails_without_sweep_retry(self, tmp_path):
        from repro.pipeline.sweep import sweep

        grid = {"training.learning_rate": [0.05, 0.1]}
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", match="task:1;attempt:0")
        )
        runs = sweep(
            self._base_config(),
            grid,
            run_root=tmp_path,
            fault_plan=plan,
            on_error="record",
        )
        assert [run.status for run in runs] == ["completed", "failed"]
        assert "InjectedFault" in runs[1].error


class TestSweepFaultPlanParity:
    """Serial and pooled sweeps arm the plan and fire ``pool.task`` alike."""

    @pytest.mark.parametrize("workers", [0, 1])
    def test_plan_failing_every_task_fails_every_child(self, workers):
        from repro.pipeline.sweep import sweep

        plan = FaultPlan.of(FaultSpec(site="pool.task", kind="exception", max_hits=100))
        runs = sweep(
            TestTornSweepChildOnResume._base_config(),
            {"training.learning_rate": [0.05, 0.1]},
            workers=workers,
            retries=0,
            on_error="record",
            fault_plan=plan,
        )
        assert [run.status for run in runs] == ["failed", "failed"]


async def _answers(path, index, expect_degraded):
    from repro.serving import PredictionServer

    server = PredictionServer(max_batch=8)
    async with server:
        deployment = await server.load_run(path, index=index)
        assert deployment.degraded is expect_degraded
        served = [
            await server.top_k(h, 0, side="tail", k=5, filtered=True)
            for h in range(6)
        ]
        assert all(s.degraded is expect_degraded for s in served)
        health = server.health_dict()
        assert health["degraded"] is expect_degraded
        return [(list(s.ids), list(s.scores)) for s in served]


class TestByteFlippedIndexDegradesServing:
    def test_corrupt_index_serves_exact_answers(self, run_copy):
        # Sanity: the intact index deploys non-degraded.
        asyncio.run(_answers(run_copy, "auto", False))
        # The bit-identity reference: the same checkpoint served with
        # no index at all (exact full sweeps).
        exact = asyncio.run(_answers(run_copy, None, False))

        victim = run_copy / "index" / "store" / "tail_0_members.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))

        degraded = asyncio.run(_answers(run_copy, "auto", True))
        # Degraded mode must be *exactly* index-free serving — same
        # ids, same score bits — not merely a plausible approximation.
        assert degraded == exact


class TestIncompleteIndexDegradesServing:
    """Regression: a missing index store file failed the deploy with
    :class:`~repro.errors.MissingArtifactError` instead of degrading."""

    @pytest.mark.parametrize("missing", ["head_0_centroids.npy", "store.json"])
    def test_missing_store_file_serves_exact_answers(self, run_copy, missing):
        from repro.errors import MissingArtifactError
        from repro.serving import PredictionServer

        exact = asyncio.run(_answers(run_copy, None, False))
        (run_copy / "index" / "store" / missing).unlink()
        degraded = asyncio.run(_answers(run_copy, "auto", True))
        assert degraded == exact

        async def require():
            server = PredictionServer()
            async with server:
                await server.load_run(run_copy, index="require")

        with pytest.raises(MissingArtifactError):
            asyncio.run(require())
