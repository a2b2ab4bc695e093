"""Hot ingestion through the serving daemon: ``apply_delta`` + versions.

Contract (see :meth:`repro.serving.server.PredictionServer.apply_delta`):
the full ingest pipeline runs on a private copy of the deployed model and
index while reads keep being answered by the deployment in service; the
successor is published by the same flip a hot-swap makes, so no response
is computed against a half-applied delta and the previous deployment is
never written.  Applied deltas advance both the generation and the
monotonically increasing ``graph_version`` (echoed on every response);
deltas serialise, each built on the one before; a swap that lands while
a delta builds fails the delta; a bad ingest knob is refused before any
work; empty deltas are committed no-ops.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

import repro.ingest
from repro.core.models import make_complex
from repro.errors import ReproError, ServingError
from repro.index.ivf import IVFIndex
from repro.ingest import GraphDelta
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.server import _error_payload, _handle_message

pytestmark = pytest.mark.ingest

BUDGET = 16


@pytest.fixture()
def dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture()
def model(dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations, BUDGET, np.random.default_rng(2)
    )


def make_delta(dataset, tag: str = "new") -> GraphDelta:
    names = dataset.entities.to_list()
    rels = dataset.relations.to_list()
    return GraphDelta(
        add_triples=(
            (f"{tag}_entity", names[0], rels[0]),
            (names[1], f"{tag}_entity", rels[0]),
        )
    )


class TestApplyDelta:
    def test_applied_delta_advances_both_versions(self, model, dataset):
        delta = make_delta(dataset)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                before = await server.top_k(0, 0, side="tail", k=5)
                receipt = await server.apply_delta(delta, epochs=1, seed=0)
                after = await server.top_k(0, 0, side="tail", k=5)
                health = server.health_dict()
                stats = server.stats_dict()
            return before, receipt, after, health, stats

        before, receipt, after, health, stats = asyncio.run(main())
        assert before.graph_version == 0
        assert receipt["applied"] is True
        assert receipt["graph_version"] == 1
        assert receipt["generation"] == before.generation + 1
        assert after.graph_version == 1
        assert after.generation == receipt["generation"]
        assert health["graph_version"] == 1
        assert stats["graph_version"] == 1
        assert stats["deltas_applied"] == 1

    def test_new_entity_is_immediately_queryable(self, model, dataset):
        delta = make_delta(dataset)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                await server.apply_delta(delta, epochs=1)
                new_id = dataset.num_entities  # first fresh id
                return await server.top_k(new_id, 0, side="tail", k=5)

        served = asyncio.run(main())
        assert len(served.ids) == 5
        assert served.graph_version == 1

    def test_empty_delta_is_a_committed_noop(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                receipt = await server.apply_delta(GraphDelta())
                return receipt, server.stats_dict()

        receipt, stats = asyncio.run(main())
        assert receipt["applied"] is False
        assert receipt["graph_version"] == 0
        assert stats["deltas_applied"] == 0

    def test_chained_deltas_monotonic_versions(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            versions = []
            async with server:
                for tag in ("a", "b", "c"):
                    receipt = await server.apply_delta(
                        make_delta(dataset if tag == "a" else server._active.predictor.dataset, tag),
                        epochs=0,
                    )
                    versions.append(receipt["graph_version"])
            return versions

        assert asyncio.run(main()) == [1, 2, 3]

    def test_indexed_deployment_splices_without_invalidating(self, model, dataset):
        index = IVFIndex(model, seed=0, spill=2)
        index.build(relations=np.arange(dataset.num_relations), sides=("tail",))

        async def main():
            predictor = LinkPredictor(model, dataset, index=index)
            server = PredictionServer(predictor)
            async with server:
                receipt = await server.apply_delta(
                    make_delta(dataset), epochs=1, drift_threshold=1.0
                )
                served = await server.top_k(dataset.num_entities, 0, side="tail", k=5)
            return receipt, served, server.deployment.predictor.index

        receipt, served, deployed = asyncio.run(main())
        assert receipt["index"]["rebuild_triggered"] is False
        assert index.rebuilds == 0
        # The successor serves a twin of the index, spliced, not rebuilt.
        assert deployed is not index
        assert deployed.rebuilds == 0
        assert len(served.ids) == 5

    def test_bad_delta_type_rejected(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                await server.apply_delta(["not", "a", "delta"])

        with pytest.raises(ServingError, match="GraphDelta"):
            asyncio.run(main())

    def test_no_deployment_rejected(self):
        async def main():
            server = PredictionServer()
            async with server:
                await server.apply_delta(GraphDelta())

        with pytest.raises(ServingError, match="no model deployed"):
            asyncio.run(main())


class TestWireOp:
    def test_wire_apply_delta_round_trip(self, model, dataset):
        delta = make_delta(dataset)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                reply = await _handle_message(
                    server,
                    {
                        "op": "apply_delta",
                        "delta": delta.to_dict(),
                        "ingest": {"epochs": 1, "seed": 4},
                    },
                    None,
                )
                query = await _handle_message(
                    server, {"op": "top_k", "head": 0, "relation": 0, "k": 3}, None
                )
            return reply, query

        reply, query = asyncio.run(main())
        assert reply["ingest"]["applied"] is True
        assert reply["ingest"]["graph_version"] == 1
        assert query["graph_version"] == 1  # echoed on every response

    def test_wire_rejects_unknown_ingest_knobs(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                await _handle_message(
                    server,
                    {
                        "op": "apply_delta",
                        "delta": GraphDelta().to_dict(),
                        "ingest": {"reactor": "warp"},
                    },
                    None,
                )

        with pytest.raises(ServingError, match="unknown ingest knobs"):
            asyncio.run(main())

    def test_wire_requires_delta_object(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                await _handle_message(server, {"op": "apply_delta"}, None)

        with pytest.raises(ServingError, match="needs a delta object"):
            asyncio.run(main())


#: Knob sets each refused as a bad request before the delta does any work.
BAD_KNOBS = [
    {"epochs": "x"},
    {"epochs": -1},
    {"seed": -1},
    {"optimizer": "bogus"},
    {"batch_size": 0},
    {"learning_rate": True},
    {"drift_threshold": 2.0},
]


class TestKnobsCheckedFirst:
    @pytest.mark.parametrize(
        "knobs", BAD_KNOBS, ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items())
    )
    def test_bad_knob_is_a_bad_request_that_changes_nothing(self, model, dataset, knobs):
        index = IVFIndex(model, seed=0, spill=2)
        index.build(relations=np.arange(dataset.num_relations), sides=("tail",))
        message = {"op": "apply_delta", "delta": make_delta(dataset).to_dict(), "ingest": knobs}

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset, index=index))
            async with server:
                with pytest.raises(ReproError) as refused:
                    await _handle_message(server, message, None)
                # The delta's new entity was never deployed.
                with pytest.raises(ServingError, match="out of range"):
                    await server.top_k(dataset.num_entities, 0, side="tail", k=5)
                return refused.value, server.deployment, server.health_dict()

        error, deployment, health = asyncio.run(main())
        assert _error_payload(error)["code"] == "bad_request"
        assert deployment.predictor.model.num_entities == dataset.num_entities
        assert deployment.graph_version == 0
        assert health["status"] == "ok"


#: Seconds a snapshot test waits on the daemon before calling it stuck.
TIMEOUT_S = 10.0


@pytest.fixture()
def held_ingest(monkeypatch):
    """Hold each live delta inside ``ingest_delta`` until released.

    Returns the ``(entered, release)`` events.  The daemon looks
    ``ingest_delta`` up on the package at call time, so the patch
    reaches it.
    """
    entered, release = threading.Event(), threading.Event()
    original = repro.ingest.ingest_delta

    def held(*args, **kwargs):
        entered.set()
        release.wait(TIMEOUT_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.ingest, "ingest_delta", held)
    return entered, release


class TestSnapshotDelta:
    def test_reads_are_answered_while_a_delta_builds(self, model, dataset, held_ingest):
        entered, release = held_ingest

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                writing = asyncio.create_task(
                    server.apply_delta(make_delta(dataset), epochs=1)
                )
                try:
                    assert await asyncio.to_thread(entered.wait, TIMEOUT_S)
                    reads = await asyncio.wait_for(
                        asyncio.gather(
                            *(server.top_k(head, 0, side="tail", k=5) for head in range(4))
                        ),
                        TIMEOUT_S,
                    )
                finally:
                    release.set()
                receipt = await writing
                after = await server.top_k(0, 0, side="tail", k=5)
            return reads, receipt, after

        reads, receipt, after = asyncio.run(main())
        assert [served.graph_version for served in reads] == [0, 0, 0, 0]
        assert receipt["graph_version"] == 1
        assert after.graph_version == 1

    def test_a_swap_during_a_delta_fails_the_delta(self, model, dataset, held_ingest):
        entered, release = held_ingest
        other = make_complex(
            dataset.num_entities, dataset.num_relations, BUDGET, np.random.default_rng(9)
        )

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                writing = asyncio.create_task(
                    server.apply_delta(make_delta(dataset), epochs=1)
                )
                try:
                    assert await asyncio.to_thread(entered.wait, TIMEOUT_S)
                    swapped = await asyncio.wait_for(
                        server.swap_predictor(LinkPredictor(other, dataset)), TIMEOUT_S
                    )
                finally:
                    release.set()
                with pytest.raises(ServingError, match="re-send"):
                    await writing
                served = await server.top_k(0, 0, side="tail", k=5)
                return swapped, served, server.deployment, server.stats_dict()

        swapped, served, deployment, stats = asyncio.run(main())
        assert deployment is swapped
        assert deployment.predictor.model is other
        assert other.num_entities == dataset.num_entities
        assert (served.generation, served.graph_version) == (swapped.generation, 0)
        assert stats["deltas_applied"] == 0

    def test_concurrent_deltas_each_build_on_the_last(self, model, dataset, held_ingest):
        entered, release = held_ingest
        names, rels = dataset.entities.to_list(), dataset.relations.to_list()
        first = make_delta(dataset, "a")
        # Deleting a triple only the first delta adds fails unless the
        # second delta is applied on top of the first.
        second = GraphDelta(
            add_triples=(("b_entity", "a_entity", rels[0]),),
            delete_triples=(("a_entity", names[0], rels[0]),),
        )

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                writes = [asyncio.create_task(server.apply_delta(first, epochs=1))]
                try:
                    assert await asyncio.to_thread(entered.wait, TIMEOUT_S)
                    writes.append(asyncio.create_task(server.apply_delta(second, epochs=1)))
                    await asyncio.sleep(0)
                finally:
                    release.set()
                receipts = await asyncio.gather(*writes)
                return receipts, server.deployment

        receipts, deployment = asyncio.run(main())
        assert [receipt["graph_version"] for receipt in receipts] == [1, 2]
        assert receipts[1]["generation"] == receipts[0]["generation"] + 1
        final = deployment.predictor.dataset
        assert final.num_entities == dataset.num_entities + 2
        assert deployment.predictor.model.num_entities == final.num_entities
        a_id, b_id = final.entities.index("a_entity"), final.entities.index("b_entity")
        assert final.filter_index.contains(b_id, a_id, 0)
        assert not final.filter_index.contains(a_id, 0, 0)

    def test_previous_deployment_is_never_written(self, model, dataset):
        index = IVFIndex(model, seed=0, spill=2)
        index.build(relations=np.arange(dataset.num_relations), sides=("tail", "head"))
        tables = (model.entity_embeddings.copy(), model.relation_embeddings.copy())
        version = model.scoring_version
        partitions = {
            key: (part.centroids.copy(), part.members.copy(), part.offsets.copy())
            for key, part in index._partitions.items()
        }

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset, index=index))
            async with server:
                return await server.apply_delta(
                    make_delta(dataset), epochs=2, drift_threshold=1.0
                )

        receipt = asyncio.run(main())
        assert receipt["applied"] and receipt["warm"]["steps"] > 0
        assert receipt["index"]["partitions_updated"] == len(partitions)
        assert model.num_entities == dataset.num_entities
        assert model.scoring_version == version
        np.testing.assert_array_equal(model.entity_embeddings, tables[0])
        np.testing.assert_array_equal(model.relation_embeddings, tables[1])
        assert sorted(index._partitions) == sorted(partitions)
        for key, arrays in partitions.items():
            part = index._partitions[key]
            for before, after in zip(arrays, (part.centroids, part.members, part.offsets)):
                np.testing.assert_array_equal(after, before)


class TestIngestCounters:
    def test_one_applied_delta_counts_once_in_stats_and_metrics(self, model, dataset):
        """The live delta's ``ingest.*`` counters land in the server's
        registry, and ``deltas_applied`` renders from the one kept counter."""
        delta = make_delta(dataset)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                await server.apply_delta(delta, epochs=1, seed=0)
                return server.stats_dict(), server.metrics_dict()["metrics"]

        stats, metrics = asyncio.run(main())
        assert stats["deltas_applied"] == 1
        assert metrics["counters"]["ingest.deltas_applied"] == 1
        assert "server.deltas_applied" not in metrics["counters"]
        assert metrics["counters"]["ingest.triples_added"] == 2
        assert metrics["counters"]["ingest.triples_deleted"] == 0
        assert metrics["histograms"]["ingest.delta_seconds"]["count"] == 1


def _stored_run(root):
    from repro.pipeline.config import (
        DatasetSection,
        ModelSection,
        RunConfig,
        TrainingSection,
    )
    from repro.pipeline.runner import run_pipeline

    config = RunConfig(
        dataset=DatasetSection(
            generator="synthetic_wn18",
            params={"num_entities": 80, "num_clusters": 4, "seed": 3},
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=1, batch_size=256),
    )
    path = root / "run"
    run_pipeline(config, run_dir=path)
    return path


class TestMemmapDeployment:
    def test_delta_on_a_memmapped_run_matches_an_in_memory_copy(self, tmp_path):
        """Regression: the warm-start fine-tune wrote rows in place into
        the read-only mapped tables of a loaded run, so a live delta
        among existing entities failed with ``ValueError: assignment
        destination is read-only``.  The mapped deployment must answer
        exactly like the same delta applied to an in-memory copy."""
        from repro.core.memstore import is_mapped
        from repro.core.serialization import model_from_state, model_state
        from repro.pipeline.runner import load_run

        run = _stored_run(tmp_path)
        loaded = load_run(run)
        assert is_mapped(loaded.model.entity_embeddings)
        meta, arrays = model_state(loaded.model)
        in_memory = model_from_state(
            meta, {name: np.array(array) for name, array in arrays.items()}
        )
        plain_predictor = LinkPredictor(in_memory, loaded.build_dataset())

        async def serve(deploy):
            server = PredictionServer()
            async with server:
                await deploy(server)
                dataset = server.deployment.predictor.dataset
                known = (
                    dataset.train.as_set() | dataset.valid.as_set() | dataset.test.as_set()
                )
                names = dataset.entities.to_list()
                rels = dataset.relations.to_list()
                fresh = [
                    (names[head], names[head + 2], rels[0])
                    for head in range(3, 40)
                    if (head, head + 2, 0) not in known
                ][:2]
                delta = GraphDelta(add_triples=tuple(fresh))
                receipt = await server.apply_delta(delta, epochs=2, seed=1)
                served = await server.top_k(3, 0, side="tail", k=10)
            return receipt, served

        mapped_receipt, mapped = asyncio.run(
            serve(lambda server: server.load_run(run, index=None))
        )
        plain_receipt, plain = asyncio.run(
            serve(lambda server: server.swap_predictor(plain_predictor))
        )
        assert mapped_receipt["applied"] and plain_receipt["applied"]
        assert mapped_receipt["warm"]["grew_entities"] == 0
        assert mapped_receipt["warm"]["steps"] > 0
        np.testing.assert_array_equal(mapped.ids, plain.ids)
        np.testing.assert_array_equal(mapped.scores, plain.scores)
