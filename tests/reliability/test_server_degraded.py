"""Degraded-mode serving: deadlines, exact fallback, health, retry hints.

Contract under test (see :mod:`repro.serving.server`):

* a request whose ``deadline_ms`` budget expires before dispatch fails
  with :class:`DeadlineExceededError` instead of occupying batch slots;
* an index that turns stale/corrupt **at serving time** degrades the
  affected group to the exact full-sweep path — answers stay correct,
  responses are tagged ``degraded`` and the sticky server flag holds
  until the next successful swap;
* the ``retry_after_ms`` overload hint is clamped: no pathological
  service-time sample can balloon (or collapse) it;
* drain shutdown and hot-swap atomicity hold with injected latency in
  the scoring thread (the ``server.dispatch`` fault site).
"""

from __future__ import annotations

import asyncio
import collections
import json

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import (
    DeadlineExceededError,
    ServerOverloadedError,
    ServingError,
)
from repro.index.ivf import IVFIndex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.reliability.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.server import (
    RETRY_AFTER_CEILING_MS,
    RETRY_AFTER_FLOOR_MS,
    SERVICE_EMA_CEILING_S,
    SERVICE_EMA_FLOOR_S,
    start_tcp_server,
)

pytestmark = pytest.mark.reliability

BUDGET = 16


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(num_entities=150, num_clusters=8, seed=4)
    )


@pytest.fixture()
def model(dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations, BUDGET, np.random.default_rng(6)
    )


def _slow_dispatch(delay_s: float, max_hits: int = 1) -> FaultInjector:
    return FaultInjector(
        FaultPlan.of(
            FaultSpec(
                site="server.dispatch", kind="slow", delay_s=delay_s, max_hits=max_hits
            )
        )
    )


def _service_histogram(server):
    return server.metrics.snapshot().histograms["server.service_seconds"]


class TestRetryAfterClamp:
    """Satellite: service-time samples and the retry hint are clamped."""

    def test_pathological_sample_clamps_to_ceiling(self, model, dataset):
        server = PredictionServer(LinkPredictor(model, dataset))
        server._observe_service_time(3600.0)  # one stuck batch
        assert _service_histogram(server).max_value == SERVICE_EMA_CEILING_S

    def test_subnormal_sample_clamps_to_floor(self, model, dataset):
        server = PredictionServer(LinkPredictor(model, dataset))
        server._observe_service_time(1e-12)
        assert _service_histogram(server).min_value == SERVICE_EMA_FLOOR_S

    def test_hint_prices_off_the_p90_sample(self, model, dataset):
        server = PredictionServer(
            LinkPredictor(model, dataset), max_batch=10, max_wait_ms=0.0
        )
        assert server._retry_after_ms() == RETRY_AFTER_FLOOR_MS  # 50ms prior, no queue
        for _ in range(9):
            server._observe_service_time(0.02)
        server._observe_service_time(4.0)  # the outlier stays above p90
        server._pending = collections.deque(range(40))
        # p90 is the 25ms bucket edge: 40 queued / 10 per batch * 25ms.
        assert _service_histogram(server).count == 10
        assert server._retry_after_ms() == pytest.approx(100.0)

    def test_hint_ceiling(self, model, dataset):
        server = PredictionServer(LinkPredictor(model, dataset), queue_depth=4096)
        server._observe_service_time(SERVICE_EMA_CEILING_S)
        server._pending = collections.deque(range(4096))
        assert server._retry_after_ms() == RETRY_AFTER_CEILING_MS

    def test_hint_floor(self, model, dataset):
        server = PredictionServer(LinkPredictor(model, dataset), max_wait_ms=0.0)
        server._observe_service_time(SERVICE_EMA_FLOOR_S)
        assert server._retry_after_ms() == RETRY_AFTER_FLOOR_MS

    def test_overload_error_carries_clamped_hint(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), queue_depth=1)
            server._observe_service_time(1e9)  # would be absurd without the clamp
            server._submit("tail", 0, 0, 5, False)
            with pytest.raises(ServerOverloadedError) as caught:
                server._submit("tail", 1, 0, 5, False)
            return caught.value.retry_after_ms

        hint = asyncio.run(main())
        assert RETRY_AFTER_FLOOR_MS <= hint <= RETRY_AFTER_CEILING_MS


class TestDeadlines:
    def test_expired_deadline_fails_typed(self, model, dataset):
        async def main():
            # max_wait_ms far beyond the request deadline: the batcher's
            # straggler wait alone expires the budget before dispatch.
            server = PredictionServer(
                LinkPredictor(model, dataset), max_batch=64, max_wait_ms=80.0
            )
            async with server:
                with pytest.raises(DeadlineExceededError):
                    await server.top_k_tails(0, 0, k=5, deadline_ms=1.0)
                assert server.stats_dict()["deadline_expired"] == 1
                # The server keeps serving normally afterwards.
                served = await server.top_k_tails(0, 0, k=5)
                assert len(served.ids) == 5

        asyncio.run(main())

    def test_default_deadline_applies(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset),
                max_batch=64,
                max_wait_ms=80.0,
                default_deadline_ms=1.0,
            )
            async with server:
                with pytest.raises(DeadlineExceededError):
                    await server.top_k_heads(0, 0, k=5)

        asyncio.run(main())

    def test_generous_deadline_serves(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset), max_batch=1, max_wait_ms=0.0
            )
            async with server:
                served = await server.top_k_tails(0, 0, k=5, deadline_ms=30_000.0)
                assert served.degraded is False
                assert server.stats_dict()["deadline_expired"] == 0

        asyncio.run(main())

    def test_invalid_deadlines_rejected(self, model, dataset):
        with pytest.raises(ServingError, match="default_deadline_ms"):
            PredictionServer(LinkPredictor(model, dataset), default_deadline_ms=0)

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                with pytest.raises(ServingError, match="deadline_ms"):
                    await server.top_k_tails(0, 0, k=5, deadline_ms=-1.0)

        asyncio.run(main())


class TestServingTimeDegradation:
    def test_stale_index_falls_back_to_exact(self, model, dataset):
        """An index that goes stale *between* swap and request must not
        fail the request: the group re-scores exactly, tagged degraded."""
        index = IVFIndex(model, nlist=8, nprobe=2, on_stale="error")
        predictor = LinkPredictor(model, dataset, index=index)
        reference = LinkPredictor(model, dataset)  # index-free twin

        async def main():
            server = PredictionServer(predictor, max_batch=4, max_wait_ms=1.0)
            async with server:
                before = await server.top_k_tails(1, 0, k=5, filtered=True)
                assert before.degraded is False
                assert server.health_dict()["status"] == "ok"

                # Simulate training racing the serving path: the version
                # moves, the on_stale="error" index refuses to answer.
                model._bump_scoring_version()
                after = await server.top_k_tails(1, 0, k=5, filtered=True)
                assert after.degraded is True
                assert server.degraded
                assert server.health_dict()["status"] == "degraded"
                assert server.stats_dict()["degraded_served"] == 1

                # Degraded answers are the exact full-sweep answers.
                exact = reference.top_k_tails([1], [0], k=5, filtered=True)
                assert list(after.ids) == list(exact.ids[0])
                assert list(after.scores) == list(exact.scores[0])
                return server

        asyncio.run(main())

    def test_successful_swap_clears_degraded(self, model, dataset):
        index = IVFIndex(model, nlist=8, nprobe=2, on_stale="error")
        predictor = LinkPredictor(model, dataset, index=index)

        async def main():
            server = PredictionServer(predictor, max_batch=4, max_wait_ms=1.0)
            async with server:
                model._bump_scoring_version()
                served = await server.top_k_tails(0, 0, k=3)
                assert served.degraded and server.degraded
                # A fresh, healthy deployment resets the sticky flag.
                await server.swap_predictor(LinkPredictor(model, dataset))
                assert not server.degraded
                assert server.health_dict()["status"] == "ok"
                healthy = await server.top_k_tails(0, 0, k=3)
                assert healthy.degraded is False

        asyncio.run(main())


class TestDrainAndSwapUnderInjectedLatency:
    """Satellite: close(drain=True) and swap atomicity with slow batches."""

    def test_drain_answers_everything_despite_slow_batch(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset), max_batch=4, max_wait_ms=1.0
            )
            with fault_scope(_slow_dispatch(0.15, max_hits=2)):
                async with server:
                    pending = [
                        asyncio.ensure_future(server.top_k_tails(h, 0, k=4))
                        for h in range(8)
                    ]
                    await asyncio.sleep(0)  # let the batcher pick them up
                    await server.close(drain=True)
                results = await asyncio.gather(*pending)
            assert len(results) == 8
            stats = server.stats_dict()
            assert stats["served"] == 8
            assert stats["failed"] == 0

        asyncio.run(main())

    def test_swap_waits_for_inflight_slow_batch(self, model, dataset):
        second = make_complex(
            dataset.num_entities, dataset.num_relations, BUDGET,
            np.random.default_rng(99),
        )

        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset), max_batch=8, max_wait_ms=0.0
            )
            with fault_scope(_slow_dispatch(0.2, max_hits=1)):
                async with server:
                    first = [
                        asyncio.ensure_future(server.top_k_tails(h, 0, k=4))
                        for h in range(4)
                    ]
                    await asyncio.sleep(0.05)  # batch now slow-scoring in-thread
                    deployment = await server.swap_predictor(
                        LinkPredictor(second, dataset)
                    )
                    assert deployment.generation == 2
                    batch_one = await asyncio.gather(*first)
                    after = await server.top_k_tails(0, 0, k=4)
            # Every pre-swap response came from generation 1 — the swap
            # could not land mid-batch even with the batch artificially
            # slowed; post-swap traffic sees generation 2.
            assert {served.generation for served in batch_one} == {1}
            assert after.generation == 2

        asyncio.run(main())


class TestWireProtocol:
    def test_health_and_degraded_round_trip(self, model, dataset, run_copy):
        async def query(reader, writer, payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        async def main():
            server = PredictionServer(max_batch=4, max_wait_ms=1.0)
            # Corrupt the persisted index: the TCP deployment degrades.
            victim = run_copy / "index" / "store" / "tail_0_centroids.npy"
            raw = bytearray(victim.read_bytes())
            raw[0] ^= 0xFF
            victim.write_bytes(bytes(raw))
            await server.load_run(run_copy)
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                health = await query(reader, writer, {"op": "health", "id": 1})
                assert health["ok"] and health["health"]["status"] == "degraded"
                assert health["health"]["degraded"] is True

                top = await query(
                    reader, writer,
                    {"op": "top_k", "id": 2, "head": 0, "relation": 0, "k": 3},
                )
                assert top["ok"] and top["degraded"] is True

                stats = await query(reader, writer, {"op": "stats", "id": 3})
                assert stats["stats"]["degraded"] is True
                assert stats["stats"]["degraded_served"] >= 1
            finally:
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                await server.close()

        asyncio.run(main())

    def test_deadline_error_code_on_the_wire(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset), max_batch=64, max_wait_ms=80.0
            )
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                payload = {
                    "op": "top_k", "id": 7, "head": 0, "relation": 0,
                    "k": 3, "deadline_ms": 1.0,
                }
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "deadline"
            finally:
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                await server.close()

        asyncio.run(main())

    def test_bad_deadline_type_rejected(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            tcp = await start_tcp_server(server)
            host, port = tcp.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                payload = {
                    "op": "top_k", "id": 8, "head": 0, "relation": 0,
                    "deadline_ms": "soon",
                }
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
            finally:
                writer.close()
                await writer.wait_closed()
                tcp.close()
                await tcp.wait_closed()
                await server.close()

        asyncio.run(main())
