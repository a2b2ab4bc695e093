"""The micro-batched asyncio serving daemon.

Contract under test (see :mod:`repro.serving.server`):

* **Coalescing is exact** — a micro-batch groups requests by
  ``(side, filtered)`` and answers each group with one ``LinkPredictor``
  call at the group's largest k, all groups in one thread hop,
  bit-identical to composing the same direct batched call by hand (same
  code path, same shapes).  Per-query equivalence holds to the
  repository's chunking tolerance (ids exact, scores to 1e-10 — BLAS
  reassociates across batch shapes).
* **A failing request fails alone** — a group whose call fails is re-run
  one request at a time, so its batch-mates are still answered.
* **Backpressure** — requests beyond ``queue_depth`` fast-fail with
  :class:`ServerOverloadedError` carrying a retry-after hint.
* **Hot-swap is atomic** — every response is tagged with the
  generation/``scoring_version`` that served it, and the scores always
  match that deployment's model: no response mixes old and new.
* **Shutdown** — graceful drain answers everything queued; non-drain
  shutdown fails queued futures with :class:`ServerClosedError`.

No pytest-asyncio: each test drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import (
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    StaleIndexError,
)
from repro.index.ivf import IVFIndex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.server import MAX_LINE_BYTES, k_bucket, start_tcp_server

pytestmark = pytest.mark.serving_daemon

BUDGET = 16


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(num_entities=200, num_clusters=10, seed=1)
    )


@pytest.fixture()
def model(dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations, BUDGET, np.random.default_rng(2)
    )


def _second_model(dataset):
    """A visibly different model (fresh init, different seed)."""
    return make_complex(
        dataset.num_entities, dataset.num_relations, BUDGET, np.random.default_rng(99)
    )


def _count_calls_and_hops(monkeypatch) -> tuple[list, list]:
    """Record each ``LinkPredictor.top_k`` call's ``(side, k)`` and each
    ``asyncio.to_thread`` hop."""
    calls, hops = [], []
    top_k, to_thread = LinkPredictor.top_k, asyncio.to_thread

    def counting_top_k(self, *args, **kwargs):
        calls.append((kwargs["side"], kwargs["k"]))
        return top_k(self, *args, **kwargs)

    async def counting_to_thread(func, /, *args, **kwargs):
        hops.append(func)
        return await to_thread(func, *args, **kwargs)

    monkeypatch.setattr(LinkPredictor, "top_k", counting_top_k)
    monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
    return calls, hops


class TestKBucket:
    def test_powers_of_two(self):
        assert [k_bucket(k) for k in (1, 2, 3, 4, 5, 8, 9, 16, 17)] == [
            1, 2, 4, 4, 8, 8, 16, 16, 32,
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ServingError):
            k_bucket(0)


class TestCoalescing:
    def test_single_group_bit_identical_to_direct_batched_call(self, model, dataset):
        """One (side, filtered, k-bucket) group == one hand-composed call."""
        heads = [3, 17, 9, 40, 3, 55, 28, 64]
        rels = [0, 1, 2, 0, 1, 2, 0, 1]
        k = 5

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=32)
            async with server:
                return await asyncio.gather(*[
                    server.top_k(h, r, side="tail", k=k, filtered=True)
                    for h, r in zip(heads, rels)
                ])

        results = asyncio.run(main())
        assert all(r.coalesced == len(heads) for r in results)
        direct = LinkPredictor(model, dataset).top_k(
            heads, rels, side="tail", k=k_bucket(k), filtered=True
        )
        for row, served in enumerate(results):
            np.testing.assert_array_equal(served.ids, direct.ids[row, :k])
            np.testing.assert_array_equal(served.scores, direct.scores[row, :k])

    def test_per_query_equivalence_all_sides(self, model, dataset):
        """Coalesced answers match per-query direct calls: ids exactly,
        scores to the repository's cross-batch-shape tolerance."""
        rng = np.random.default_rng(0)
        queries = [
            (("tail", "head", "relation")[i % 3], int(a), int(b), 3 + (i % 3))
            for i, (a, b) in enumerate(
                zip(
                    rng.integers(0, dataset.num_entities, 24),
                    rng.integers(0, dataset.num_relations, 24),
                )
            )
        ]

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=64)
            async with server:
                return await asyncio.gather(
                    *(server.top_k(a, b, side=side, k=k) for side, a, b, k in queries)
                )

        results = asyncio.run(main())
        direct = LinkPredictor(model, dataset)
        for (side, a, b, k), served in zip(queries, results):
            expected = direct.top_k([a], [b], side=side, k=k)
            np.testing.assert_array_equal(served.ids, expected.ids[0])
            np.testing.assert_allclose(served.scores, expected.scores[0], atol=1e-10)

    def test_mixed_k_share_one_call(self, model, dataset, monkeypatch):
        """k=3 and k=7 in one (side, filtered) group ⇒ one call at k=7,
        one thread hop, each answer the single-row call's."""
        calls, hops = _count_calls_and_hops(monkeypatch)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=32)
            async with server:
                small = [server.top_k(i, 0, side="tail", k=3) for i in range(4)]
                large = [server.top_k(i, 0, side="tail", k=7) for i in range(4)]
                return await asyncio.gather(*small, *large), server.stats_dict()

        results, stats = asyncio.run(main())
        assert stats["batches"] == 1
        assert stats["dispatch_calls"] == 1
        assert calls == [("tail", 7)]
        assert len(hops) == 1
        assert all(r.coalesced == 8 for r in results)
        direct = LinkPredictor(model, dataset)
        for row, served in enumerate(results):
            expected = direct.top_k([row % 4], [0], side="tail", k=3 if row < 4 else 7)
            np.testing.assert_array_equal(served.ids, expected.ids[0])
            np.testing.assert_allclose(served.scores, expected.scores[0], atol=1e-10)

    def test_full_mix_is_five_calls_in_one_hop(self, model, dataset, monkeypatch):
        """Every (side, filtered) pair and k in {1, 10, 50} in one batch:
        five predictor calls, one thread hop, exact answers."""
        calls, hops = _count_calls_and_hops(monkeypatch)
        rng = np.random.default_rng(5)
        queries = []
        for i in range(40):
            side = ("tail", "head", "relation")[i % 3]
            filtered = side != "relation" and bool(i % 2)
            other = dataset.num_entities if side == "relation" else dataset.num_relations
            queries.append((side, int(rng.integers(0, dataset.num_entities)),
                            int(rng.integers(0, other)), int(rng.choice([1, 10, 50])),
                            filtered))
        largest = {}
        for side, _, _, k, filtered in queries:
            largest[side, filtered] = max(k, largest.get((side, filtered), 0))
        assert len(largest) == 5

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=64)
            async with server:
                return await asyncio.gather(*(
                    server.top_k(a, b, side=side, k=k, filtered=filtered)
                    for side, a, b, k, filtered in queries
                )), server.stats_dict()

        results, stats = asyncio.run(main())
        assert stats["batches"] == 1
        assert stats["dispatch_calls"] == len(calls) == 5
        assert sorted(calls) == sorted((side, k) for (side, _), k in largest.items())
        assert len(hops) == 1
        direct = LinkPredictor(model, dataset)
        for (side, a, b, k, filtered), served in zip(queries, results):
            expected = direct.top_k([a], [b], side=side, k=k, filtered=filtered)
            np.testing.assert_array_equal(served.ids, expected.ids[0])
            np.testing.assert_allclose(served.scores, expected.scores[0], atol=1e-10)

    def test_max_batch_bounds_a_tick(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                return await asyncio.gather(*[
                    server.top_k(i % 100, 0, side="tail", k=4) for i in range(20)
                ])

        results = asyncio.run(main())
        assert max(r.coalesced for r in results) <= 8
        assert len(results) == 20


class TestBackpressure:
    def test_overflow_fast_fails_with_retry_hint(self, model, dataset):
        depth = 8

        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset),
                max_batch=4,
                queue_depth=depth,
            )
            async with server:
                return await asyncio.gather(
                    *[server.top_k(i % 100, 0, side="tail", k=4) for i in range(depth + 12)],
                    return_exceptions=True,
                )

        outcomes = asyncio.run(main())
        rejected = [r for r in outcomes if isinstance(r, ServerOverloadedError)]
        served = [r for r in outcomes if not isinstance(r, Exception)]
        assert rejected, "queue overflow must reject"
        assert len(served) >= depth
        for error in rejected:
            assert error.retry_after_ms > 0
        assert len(served) + len(rejected) == depth + 12

    def test_stats_count_rejections(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset),
                max_batch=2,
                queue_depth=2,
            )
            async with server:
                await asyncio.gather(
                    *[server.top_k(i, 0, side="tail", k=2) for i in range(6)],
                    return_exceptions=True,
                )
                return server.stats_dict()

        stats = asyncio.run(main())
        assert stats["rejected"] > 0
        assert stats["submitted"] + stats["rejected"] == 6


class TestHotSwap:
    def test_no_response_mixes_versions(self, model, dataset):
        """Under a continuous request stream, every response's scores
        match the exact deployment (generation) it claims served it."""
        model_a, model_b = model, _second_model(dataset)
        # Distinct scoring_version so the tags are distinguishable.
        model_b._bump_scoring_version()

        async def main():
            server = PredictionServer(LinkPredictor(model_a, dataset), max_batch=8)
            async with server:
                first = [
                    asyncio.ensure_future(server.top_k(i % 100, 0, side="tail", k=4))
                    for i in range(30)
                ]
                await asyncio.sleep(0.005)
                swapped = await server.swap_predictor(LinkPredictor(model_b, dataset))
                second = [
                    asyncio.ensure_future(server.top_k(i % 100, 0, side="tail", k=4))
                    for i in range(30)
                ]
                results = await asyncio.gather(*first, *second)
                return results, swapped.generation

        results, new_generation = asyncio.run(main())
        assert new_generation == 2
        by_version = {
            1: (model_a.scoring_version, LinkPredictor(model_a, dataset)),
            2: (model_b.scoring_version, LinkPredictor(model_b, dataset)),
        }
        seen_generations = set()
        for i, served in enumerate(results):
            query = i % 100 if i < 30 else (i - 30) % 100
            version, direct = by_version[served.generation]
            seen_generations.add(served.generation)
            assert served.scoring_version == version
            expected = direct.top_k([query], [0], side="tail", k=4)
            np.testing.assert_array_equal(served.ids, expected.ids[0])
            np.testing.assert_allclose(served.scores, expected.scores[0], atol=1e-10)
        # The post-swap wave must be served by the new deployment.
        assert results[-1].generation == 2
        assert 2 in seen_generations

    def test_batches_never_straddle_a_swap(self, model, dataset):
        """Requests coalesced into one predictor call all carry the same
        generation tag (the dispatch lock excludes mid-batch flips)."""
        model_b = _second_model(dataset)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=16)
            async with server:
                futures = [
                    asyncio.ensure_future(server.top_k(i, 0, side="tail", k=4))
                    for i in range(16)
                ]
                swap = asyncio.ensure_future(
                    server.swap_predictor(LinkPredictor(model_b, dataset))
                )
                results = await asyncio.gather(*futures)
                await swap
                return results

        results = asyncio.run(main())
        # Group responses by the dispatch call that served them: same
        # coalesced size + same generation within a group is the invariant;
        # cheapest faithful check — every response pairs its generation
        # with that generation's scoring_version, never the other's.
        versions = {1: results[0].scoring_version}
        for served in results:
            if served.generation not in versions:
                versions[served.generation] = served.scoring_version
            assert versions[served.generation] == served.scoring_version

    def test_stale_index_refused_and_old_deployment_kept(self, model, dataset):
        index = IVFIndex(model, nlist=10, nprobe=2, on_stale="error")
        indexed = LinkPredictor(model, dataset, index=index)
        model._bump_scoring_version()  # the model "trained" after the build

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=4)
            async with server:
                with pytest.raises(StaleIndexError):
                    await server.swap_predictor(indexed)
                assert server.generation == 1
                served = await server.top_k(0, 0, side="tail", k=3)
                return served.generation

        assert asyncio.run(main()) == 1


class TestIsolation:
    def test_a_request_out_of_range_after_a_swap_fails_alone(
        self, model, dataset, monkeypatch
    ):
        """Four tail requests admitted against a 200-entity model queue
        behind a held batch; a swap to a 100-entity model lands first.
        Head 150 is now out of range: it fails, heads 1-3 are answered."""
        scoring, release = threading.Event(), threading.Event()
        top_k = LinkPredictor.top_k

        def held_top_k(self, *args, **kwargs):
            if not scoring.is_set():
                scoring.set()
                release.wait(10.0)
            return top_k(self, *args, **kwargs)

        monkeypatch.setattr(LinkPredictor, "top_k", held_top_k)
        small = make_complex(
            100, dataset.num_relations, BUDGET, np.random.default_rng(5)
        )

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=32)
            async with server:
                held = asyncio.ensure_future(server.top_k(0, 0, side="tail", k=5))
                await asyncio.to_thread(scoring.wait, 10.0)
                queued = [
                    asyncio.ensure_future(server.top_k(head, 0, side="tail", k=5))
                    for head in (150, 1, 2, 3)
                ]
                await asyncio.sleep(0)  # all four admitted and queued
                swap = asyncio.ensure_future(server.swap_predictor(LinkPredictor(small)))
                await asyncio.sleep(0)  # the swap waits for the held batch
                release.set()
                await held
                await swap
                outcomes = await asyncio.gather(*queued, return_exceptions=True)
                return outcomes, server.stats_dict()

        outcomes, stats = asyncio.run(main())
        assert isinstance(outcomes[0], ServingError)
        assert "head id 150 out of range [0, 100)" in str(outcomes[0])
        monkeypatch.undo()
        direct = LinkPredictor(small)
        for head, served in zip((1, 2, 3), outcomes[1:]):
            assert not isinstance(served, Exception), served
            assert served.generation == 2
            expected = direct.top_k([head], [0], side="tail", k=5)
            np.testing.assert_array_equal(served.ids, expected.ids[0])
            np.testing.assert_allclose(served.scores, expected.scores[0], atol=1e-10)
        assert stats["failed"] == 1
        assert stats["served"] == 4


class TestLifecycle:
    def test_graceful_drain_answers_everything(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=4)
            await server.start()
            futures = [
                asyncio.ensure_future(server.top_k(i, 0, side="tail", k=3)) for i in range(10)
            ]
            await asyncio.sleep(0)
            await server.close(drain=True)
            results = await asyncio.gather(*futures)
            return results, server.stats_dict()

        results, stats = asyncio.run(main())
        assert len(results) == 10
        assert stats["served"] == 10
        assert stats["queue_len"] == 0

    def test_non_drain_shutdown_fails_queued_requests(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=4)
            await server.start()
            futures = [
                asyncio.ensure_future(server.top_k(i, 0, side="tail", k=3)) for i in range(6)
            ]
            await asyncio.sleep(0)
            await server.close(drain=False)
            return await asyncio.gather(*futures, return_exceptions=True)

        outcomes = asyncio.run(main())
        assert all(isinstance(r, ServerClosedError) for r in outcomes)

    def test_submission_after_close_is_refused(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                pass
            with pytest.raises(ServerClosedError):
                await server.top_k(0, 0, side="tail", k=2)

        asyncio.run(main())

    def test_empty_server_refuses_requests(self):
        async def main():
            server = PredictionServer()
            async with server:
                with pytest.raises(ServingError):
                    await server.top_k(0, 0, side="tail", k=2)

        asyncio.run(main())

    def test_constructor_validation(self, model, dataset):
        predictor = LinkPredictor(model, dataset)
        with pytest.raises(ServingError):
            PredictionServer(predictor, max_batch=0)
        with pytest.raises(ServingError):
            PredictionServer(predictor, queue_depth=0)


class TestTCPFrontend:
    def test_round_trip_and_error_codes(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=16)
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            messages = [
                {"id": 1, "op": "top_k", "side": "tail", "head": 3, "relation": 0,
                 "k": 5, "filtered": True},
                {"id": 2, "op": "top_k", "side": "head", "tail": 7, "relation": 1, "k": 3},
                {"id": 3, "op": "top_k", "side": "relation", "head": 1, "tail": 2, "k": 2},
                {"id": 4, "op": "ping"},
                {"id": 5, "op": "top_k", "side": "tail", "head": "x", "relation": 0},
                {"id": 6, "op": "unknown-op"},
                {"id": 7, "op": "stats"},
            ]
            writer.write(("".join(json.dumps(m) + "\n" for m in messages)).encode())
            await writer.drain()
            responses = {}
            for _ in messages:
                response = json.loads(await reader.readline())
                responses[response["id"]] = response
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return responses

        responses = asyncio.run(main())
        direct = LinkPredictor(model, dataset)
        expected = direct.top_k([3], [0], side="tail", k=k_bucket(5), filtered=True)
        assert responses[1]["ok"] is True
        assert responses[1]["ids"] == [int(i) for i in expected.ids[0, :5]]
        assert responses[1]["generation"] == 1
        assert responses[2]["ok"] and len(responses[2]["ids"]) == 3
        assert responses[3]["ok"] and len(responses[3]["ids"]) == 2
        assert responses[4]["pong"] is True
        assert responses[5]["ok"] is False
        assert responses[5]["error"]["code"] == "bad_request"
        assert responses[6]["ok"] is False
        assert responses[6]["error"]["code"] == "bad_request"
        assert responses[7]["stats"]["generation"] == 1

    def test_filtered_scores_transport_as_null(self, model, dataset):
        """-inf (filtered) scores must arrive as JSON null."""
        import collections

        pairs = collections.Counter(
            zip(dataset.train.heads.tolist(), dataset.train.relations.tolist())
        )
        # The busiest (head, relation) pair: a full-width filtered query
        # for it is guaranteed to carry -inf entries for its positives.
        (head, relation), positives = pairs.most_common(1)[0]
        assert positives > 0

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=4)
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            request = {"id": 1, "op": "top_k", "side": "tail", "head": head,
                       "relation": relation, "k": dataset.num_entities,
                       "filtered": True}
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return response

        response = asyncio.run(main())
        assert response["ok"] is True
        assert None in response["scores"]  # filtered candidates sort last
        finite = [s for s in response["scores"] if s is not None]
        assert finite == sorted(finite, reverse=True)

    def test_wire_shutdown_op_sets_event(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            shutdown = asyncio.Event()
            tcp = await start_tcp_server(server, port=0, shutdown=shutdown)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"id": 1, "op": "shutdown"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return response, shutdown.is_set()

        response, is_set = asyncio.run(main())
        assert response["ok"] is True and response["closing"] is True
        assert is_set

    @pytest.mark.parametrize("size", [70_000, 200_000, 3 * MAX_LINE_BYTES + 7])
    @pytest.mark.parametrize("newline_in_first_write", [True, False])
    def test_oversize_line_answered_once_then_connection_serves(
        self, model, dataset, size, newline_in_first_write
    ):
        """Regression: a line past the reader limit raised out of the
        connection handler, which dropped the connection unanswered."""
        oversize = b'{"op": "ping", "pad": "' + b"x" * size + b'"}'
        request = {"id": 1, "op": "top_k", "side": "tail", "head": 3, "relation": 0,
                   "k": 5}

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            follow_up = (json.dumps(request) + "\n").encode()
            if newline_in_first_write:
                writer.write(oversize + b"\n" + follow_up)
            else:
                # The line's end arrives only after the server has read
                # past its limit.
                writer.write(oversize)
                await writer.drain()
                await asyncio.sleep(0.05)
                writer.write(b"\n" + follow_up)
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return replies

        refused, answered = asyncio.run(main())
        assert refused["id"] is None and refused["ok"] is False
        assert refused["error"]["code"] == "too_large"
        expected = LinkPredictor(model, dataset).top_k([3], [0], side="tail", k=k_bucket(5))
        assert answered["id"] == 1 and answered["ok"] is True
        assert answered["ids"] == [int(i) for i in expected.ids[0, :5]]


class TestRunDirIntegration:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from repro.pipeline.config import (
            DatasetSection,
            IndexSection,
            ModelSection,
            RunConfig,
            TrainingSection,
        )
        from repro.pipeline.runner import run_pipeline

        config = RunConfig(
            dataset=DatasetSection(
                generator="synthetic_wn18",
                params={"num_entities": 120, "num_clusters": 6, "seed": 3},
            ),
            model=ModelSection(name="complex", total_dim=8),
            training=TrainingSection(epochs=2, batch_size=256),
            index=IndexSection(kind="ivf", nlist=8, nprobe=8),
        )
        path = tmp_path_factory.mktemp("serve_run") / "run"
        run_pipeline(config, run_dir=path)
        return path

    def test_load_run_hot_swaps_in_background(self, run_dir):
        async def main():
            server = PredictionServer(max_batch=4)
            async with server:
                deployment = await server.load_run(run_dir)
                served = await server.top_k(0, 0, side="tail", k=3, filtered=True)
                return deployment, served

        deployment, served = asyncio.run(main())
        assert deployment.generation == 1
        assert deployment.run_dir == str(run_dir)
        assert served.generation == 1
        assert len(served.ids) == 3

    def test_load_run_refuses_stale_persisted_index(self, run_dir):
        """A checkpoint re-written after the index build (fingerprint
        mismatch) is never rebuilt silently: ``index="require"`` refuses
        the swap, and the default ``"auto"`` *degrades* — it deploys the
        checkpoint without the index and flags the server degraded."""
        from repro.core.serialization import load_model, save_model
        from repro.reliability.manifest import read_manifest, write_manifest

        def checkpoint(model):
            # Re-save like a real training continuation would: refresh
            # the run manifest so the integrity layer stays consistent
            # (an unrefreshed manifest is the *corruption* case, tested
            # in the reliability suite).
            hashes = save_model(model, run_dir / "checkpoint")
            manifest = read_manifest(run_dir) or {}
            manifest.update(
                {f"checkpoint/{name}": digest for name, digest in hashes.items()}
            )
            write_manifest(run_dir, manifest)

        model = load_model(run_dir / "checkpoint")
        # "Trained" past the index build.
        model.entity_embeddings = model.entity_embeddings + 0.25
        checkpoint(model)
        try:
            async def main():
                server = PredictionServer()
                async with server:
                    with pytest.raises(StaleIndexError):
                        await server.load_run(run_dir, index="require")
                    assert server.generation == 0
                    deployment = await server.load_run(run_dir)
                    assert deployment.degraded
                    assert deployment.predictor.index is None
                    assert server.degraded
                    assert server.health_dict()["status"] == "degraded"
                    return server.generation

            assert asyncio.run(main()) == 1
        finally:
            model.entity_embeddings = model.entity_embeddings - 0.25
            checkpoint(model)
