"""Sharded evaluation: shard plans, payload round-trips, bit-identity.

Every ``workers`` setting of :class:`LinkPredictionEvaluator` must
reproduce its default, serial metrics bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.transe import TransE
from repro.core.models import make_model
from repro.core.weights import PRESETS
from repro.errors import EvaluationError, ModelError
from repro.eval.evaluator import LinkPredictionEvaluator, plan_shards
from repro.parallel.payload import model_from_payload, model_to_payload
from repro.parallel.pool import run_tasks
from repro.reliability.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.training.trainer import Trainer, TrainingConfig

pytestmark = pytest.mark.parallel


def _assert_same_metrics(a, b):
    """Bit-identical EvaluationResults, every aggregate and side."""
    for field in ("overall", "tail_side", "head_side"):
        ma, mb = getattr(a, field), getattr(b, field)
        assert ma.mrr == mb.mrr
        assert ma.mr == mb.mr
        assert ma.hits == mb.hits
        assert ma.num_ranks == mb.num_ranks


@pytest.fixture(scope="module")
def trained_model(tiny_dataset):
    model = make_model(
        PRESETS.get("complex"),
        tiny_dataset.num_entities,
        tiny_dataset.num_relations,
        total_dim=16,
        rng=np.random.default_rng(5),
    )
    config = TrainingConfig(epochs=3, batch_size=256, seed=0, verbose=False)
    Trainer(tiny_dataset, config).train(model)
    return model


@pytest.fixture(scope="module")
def serial_result(tiny_dataset, trained_model):
    return LinkPredictionEvaluator(tiny_dataset, batch_size=32).evaluate(
        trained_model, "test"
    )


class TestPlanShards:
    def test_bounds_cover_total(self):
        plan = plan_shards(100, 3, align=8)
        assert plan.bounds[0] == 0 and plan.bounds[-1] == 100
        assert list(plan.bounds) == sorted(plan.bounds)

    def test_interior_bounds_are_aligned(self):
        plan = plan_shards(103, 4, align=16)
        for bound in plan.bounds[1:-1]:
            assert bound % 16 == 0

    def test_slices_skip_empty_shards(self):
        plan = plan_shards(2, 5)
        covered = []
        for start, stop in plan.slices():
            assert stop > start
            covered.extend(range(start, stop))
        assert covered == [0, 1]

    def test_single_shard_is_everything(self):
        assert plan_shards(7, 1).slices() == [(0, 7)]

    def test_validation(self):
        with pytest.raises(EvaluationError, match="shards"):
            plan_shards(10, 0)
        with pytest.raises(EvaluationError, match="alignment"):
            plan_shards(10, 2, align=0)


class TestPayload:
    def test_round_trip_scores_bit_identical(self, trained_model):
        rebuilt = model_from_payload(model_to_payload(trained_model))
        heads = np.arange(10, dtype=np.int64)
        tails = np.arange(10, 20, dtype=np.int64)
        relations = np.zeros(10, dtype=np.int64)
        assert np.array_equal(
            rebuilt.score_triples(heads, tails, relations),
            trained_model.score_triples(heads, tails, relations),
        )
        assert np.array_equal(
            rebuilt.score_all_tails(heads, relations),
            trained_model.score_all_tails(heads, relations),
        )

    def test_payload_is_a_snapshot(self, trained_model):
        payload = model_to_payload(trained_model)
        before = payload.arrays["entity_embeddings"].copy()
        trained_model.entity_embeddings[0] += 1.0
        try:
            assert np.array_equal(payload.arrays["entity_embeddings"], before)
        finally:
            trained_model.entity_embeddings[0] -= 1.0

    def test_non_multi_embedding_models_rejected(self, tiny_dataset):
        transe = TransE(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(0),
        )
        with pytest.raises(ModelError, match="workers=0"):
            model_to_payload(transe)


class TestShardedBitIdentity:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_worker_sharding(self, tiny_dataset, trained_model, serial_result, workers):
        evaluator = LinkPredictionEvaluator(tiny_dataset, workers=workers, batch_size=32)
        _assert_same_metrics(evaluator.evaluate(trained_model, "test"), serial_result)

    def test_unaligned_batch_size(self, tiny_dataset, trained_model):
        serial = LinkPredictionEvaluator(tiny_dataset, batch_size=7).evaluate(
            trained_model, "test"
        )
        sharded = LinkPredictionEvaluator(
            tiny_dataset, workers=2, batch_size=7
        ).evaluate(trained_model, "test")
        _assert_same_metrics(sharded, serial)

    def test_degenerate_tie_model(self, tiny_dataset):
        """ω with zero rows scores whole candidate blocks exactly equal —
        the tie-handling stress case for merged shard ranks."""
        model = make_model(
            PRESETS.get("bad_example_1"),
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            total_dim=16,
            rng=np.random.default_rng(7),
        )
        serial = LinkPredictionEvaluator(tiny_dataset, batch_size=32).evaluate(model, "test")
        sharded = LinkPredictionEvaluator(
            tiny_dataset, workers=2, batch_size=32
        ).evaluate(model, "test")
        _assert_same_metrics(sharded, serial)

    def test_raw_protocol_and_max_triples(self, tiny_dataset, trained_model):
        serial = LinkPredictionEvaluator(
            tiny_dataset, batch_size=16, filtered=False
        ).evaluate_triples(trained_model, tiny_dataset.train, max_triples=40)
        sharded = LinkPredictionEvaluator(
            tiny_dataset, workers=2, filtered=False, batch_size=16
        ).evaluate_triples(trained_model, tiny_dataset.train, max_triples=40)
        _assert_same_metrics(sharded, serial)


def _evaluate_with_two_workers(task):
    dataset, model = task
    return LinkPredictionEvaluator(dataset, workers=2, batch_size=32).evaluate(model, "test")


class TestPooledPlan:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_two_tasks_per_worker(self, tiny_dataset, trained_model, serial_result,
                                  monkeypatch, workers):
        """Each side is cut into ``workers`` batch-aligned blocks."""
        import repro.eval.evaluator as evaluator_module

        plans = []

        def in_process(fn, tasks, **kwargs):
            plans.append((list(tasks), kwargs["workers"]))
            return run_tasks(fn, tasks, **{**kwargs, "workers": 0})

        monkeypatch.setattr(evaluator_module, "run_tasks", in_process)
        monkeypatch.setattr(evaluator_module, "_EVAL_CTX", None)
        result = LinkPredictionEvaluator(
            tiny_dataset, workers=workers, batch_size=4
        ).evaluate(trained_model, "test")
        [(tasks, pool_workers)] = plans
        assert pool_workers == workers
        assert len(tasks) == 2 * workers
        assert [side for side, _, _ in tasks] == ["tail"] * workers + ["head"] * workers
        for side in ("tail", "head"):
            blocks = [(start, stop) for task_side, start, stop in tasks if task_side == side]
            assert blocks[0][0] == 0 and blocks[-1][1] == len(tiny_dataset.test)
            assert all(start % 4 == 0 for start, _ in blocks)
        _assert_same_metrics(result, serial_result)

    def test_pool_worker_never_calls_run_tasks(
        self, tiny_dataset, trained_model, serial_result, monkeypatch
    ):
        """An evaluator asked for workers inside a pool worker (e.g. a
        parallel-sweep child) ranks serially: no grandchild pool."""
        import repro.eval.evaluator as evaluator_module

        def forbidden(*args, **kwargs):
            raise AssertionError("an evaluator inside a pool worker must not call run_tasks")

        # The forked worker inherits the patched module.
        monkeypatch.setattr(evaluator_module, "run_tasks", forbidden)
        [outcome] = run_tasks(
            _evaluate_with_two_workers, [(tiny_dataset, trained_model)], workers=1
        )
        assert outcome.ok, outcome.error
        _assert_same_metrics(outcome.value, serial_result)


class TestDefaultPath:
    """``workers == 0`` ranks each side directly: no pool, so no
    ``pool.task`` fault site can fire inside it."""

    PLAN = FaultPlan.of(FaultSpec(site="pool.task", kind="exception", max_hits=100))

    def test_default_path_never_reaches_the_pool(
        self, tiny_dataset, trained_model, serial_result, monkeypatch
    ):
        import repro.eval.evaluator as evaluator_module

        def forbidden(*args, **kwargs):
            raise AssertionError("the default evaluator must not call run_tasks")

        monkeypatch.setattr(evaluator_module, "run_tasks", forbidden)
        with fault_scope(FaultInjector(self.PLAN)) as injector:
            result = LinkPredictionEvaluator(tiny_dataset, batch_size=32).evaluate(
                trained_model, "test"
            )
        assert injector.hits == []
        _assert_same_metrics(result, serial_result)

    def test_sharded_path_fires_the_pool_site(self, tiny_dataset, trained_model):
        """With workers every block is a pool task: one worker runs one
        block per side, and the evaluator's plan fails both on attempt 0."""
        evaluator = LinkPredictionEvaluator(
            tiny_dataset, workers=1, retries=0, fault_plan=self.PLAN
        )
        with pytest.raises(
            EvaluationError,
            match=r"(?s)2 of 2 evaluation shards failed.*context 'task:0;attempt:0'",
        ):
            evaluator.evaluate(trained_model, "test")


class TestValidation:
    def test_constructor_rejects_bad_arguments(self, tiny_dataset):
        with pytest.raises(EvaluationError):
            LinkPredictionEvaluator(tiny_dataset, workers=-1)
        with pytest.raises(EvaluationError):
            LinkPredictionEvaluator(tiny_dataset, tie_policy="hopeful")
        with pytest.raises(EvaluationError):
            LinkPredictionEvaluator(tiny_dataset, batch_size=0)
        with pytest.raises(EvaluationError, match="hits_at"):
            LinkPredictionEvaluator(tiny_dataset, hits_at=(0, 10))
        with pytest.raises(EvaluationError, match="retries"):
            LinkPredictionEvaluator(tiny_dataset, retries=-1)
        with pytest.raises(EvaluationError, match="backoff"):
            LinkPredictionEvaluator(tiny_dataset, backoff=-0.5)
        with pytest.raises(EvaluationError, match="task_timeout"):
            LinkPredictionEvaluator(tiny_dataset, task_timeout=0)

    def test_unknown_split(self, tiny_dataset, trained_model):
        with pytest.raises(EvaluationError, match="split"):
            LinkPredictionEvaluator(tiny_dataset).evaluate(trained_model, "dev")

    def test_workers_require_payloadable_model(self, tiny_dataset):
        transe = TransE(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(3),
        )
        evaluator = LinkPredictionEvaluator(tiny_dataset, workers=1)
        with pytest.raises(ModelError, match="multi-embedding"):
            evaluator.evaluate(transe, "test")
