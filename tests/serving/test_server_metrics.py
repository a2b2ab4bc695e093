"""Server telemetry: the ``metrics`` op, slow-query log, swap-scoped latency.

Contract under test (see :mod:`repro.serving.server`):

* **``stats_dict`` is unchanged** — the counters now live in the
  server's :class:`MetricsRegistry`, but the wire ``stats`` payload
  keeps its exact key set and semantics (clients pin these).
* **The ``metrics`` op** exposes the full registry snapshot (counters,
  gauges, histograms) plus the slow-query ring over TCP, and
  :meth:`metrics_text` renders the same snapshot Prometheus-style.
* **Slow queries** — a micro-batch group whose scoring call exceeds
  ``slow_query_ms`` wall-clock lands in a bounded ring with enough
  context to debug it (side, bucket, coalesced, generation).
* **Hot-swap resets the latency profile** — the retry-after hint is
  priced off the *current* deployment's service times; carrying the old
  model's histogram across a swap mis-priced every hint until the
  profile drifted back (the regression pinned here).

No pytest-asyncio: each test drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import ServingError
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.server import (
    DEFAULT_SLOW_QUERY_MS,
    SLOW_QUERY_RING,
    start_tcp_server,
)

pytestmark = [pytest.mark.serving_daemon, pytest.mark.obs]

BUDGET = 16

STATS_KEYS = {
    "generation", "graph_version", "scoring_version", "run_dir", "label",
    "queue_len", "queue_depth", "max_batch", "closing",
    "submitted", "served", "rejected", "failed", "cancelled", "batches",
    "dispatch_calls", "mean_coalesced", "coalesced_max", "swaps",
    "peak_depth", "degraded", "degraded_served", "deadline_expired",
    "deltas_applied", "index",
}


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


def _serve_some(server, n: int = 6):
    """Submit *n* tail queries and await them all."""
    return asyncio.gather(
        *[server.top_k(i, 0, side="tail", k=5) for i in range(n)]
    )


class TestStatsCompatibility:
    def test_stats_dict_keys_and_counters_unchanged(self, model, dataset):
        """Registry-backed counters must not change the stats payload."""

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 6)
                return server.stats_dict()

        stats = asyncio.run(main())
        assert set(stats) == STATS_KEYS
        assert stats["submitted"] == 6
        assert stats["served"] == 6
        assert stats["rejected"] == 0
        assert stats["generation"] == 1
        assert stats["batches"] >= 1
        assert isinstance(stats["mean_coalesced"], float)
        # The same counters must be readable straight off the registry.

    def test_counters_live_in_the_registry(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 4)
                return server

        server = asyncio.run(main())
        assert server.metrics.counter_value("server.served") == 4
        assert server.metrics.counter_value("server.submitted") == 4
        assert server.stats_dict()["served"] == 4  # rendered from the registry

    def test_slow_query_ms_must_be_positive(self, model, dataset):
        predictor = LinkPredictor(model, dataset)
        with pytest.raises(ServingError):
            PredictionServer(predictor, slow_query_ms=0)
        server = PredictionServer(predictor)
        assert server.slow_query_ms == DEFAULT_SLOW_QUERY_MS


class TestMetricsOp:
    def test_metrics_dict_has_registry_and_gauges(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 5)
                return server.metrics_dict()

        payload = asyncio.run(main())
        assert payload["generation"] == 1
        snap = payload["metrics"]
        assert snap["counters"]["server.served"] == 5
        assert snap["gauges"]["server.queue_depth"] > 0
        assert snap["gauges"]["server.generation"] == 1
        for name in ("server.service_seconds", "server.dispatch_seconds",
                     "server.wait_seconds"):
            assert snap["histograms"][name]["count"] > 0, name
        # Exposition-time publication of the predictor's cache tallies.
        assert any(key.startswith("serving.cache.") for key in snap["counters"])
        assert payload["slow_queries"] == []

    def test_metrics_op_over_tcp(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            queries = [
                {"id": 1, "op": "top_k", "side": "tail", "head": 3, "relation": 0,
                 "k": 5},
                {"id": 2, "op": "top_k", "side": "head", "tail": 7, "relation": 1,
                 "k": 3},
            ]
            writer.write(("".join(json.dumps(m) + "\n" for m in queries)).encode())
            await writer.drain()
            responses = {}
            for _ in queries:
                response = json.loads(await reader.readline())
                responses[response["id"]] = response
            # Each wire message is handled in its own task, so the
            # metrics scrape must go out *after* the query responses to
            # observe their counters.
            writer.write(b'{"id": 3, "op": "metrics"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            responses[response["id"]] = response
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return responses

        responses = asyncio.run(main())
        assert responses[1]["ok"] and responses[2]["ok"]
        payload = responses[3]["metrics"]
        assert payload["generation"] == 1
        assert payload["slow_query_ms"] == DEFAULT_SLOW_QUERY_MS
        counters = payload["metrics"]["counters"]
        assert counters["server.served"] == 2
        assert counters["server.submitted"] == 2
        assert payload["metrics"]["histograms"]["server.service_seconds"]["count"] == 2

    def test_metrics_text_is_prometheus_shaped(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 3)
                return server.metrics_text()

        text = asyncio.run(main())
        assert "# TYPE repro_server_served counter" in text
        assert "repro_server_served 3" in text
        assert "# TYPE repro_server_service_seconds histogram" in text
        # wait_seconds is observed per served request (service_seconds is
        # per coalesced group, so its count depends on batching luck).
        assert 'repro_server_wait_seconds_bucket{le="+Inf"} 3' in text

    def test_unknown_op_error_lists_metrics(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"id": 1, "op": "nope"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return response

        response = asyncio.run(main())
        assert response["ok"] is False
        assert "metrics" in response["error"]["message"]


class TestSlowQueryLog:
    def test_over_threshold_groups_land_in_the_ring(self, model, dataset, caplog):
        """With a microscopic threshold every group is a slow query."""
        import logging

        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset),
                max_batch=8,
                slow_query_ms=1e-6,
            )
            async with server:
                await _serve_some(server, 4)
                return server.metrics_dict()

        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            payload = asyncio.run(main())
        entries = payload["slow_queries"]
        assert entries, "expected every group to exceed a 1ns threshold"
        entry = entries[0]
        assert entry["side"] == "tail"
        assert entry["coalesced"] >= 1
        assert entry["elapsed_ms"] > 0
        assert entry["per_request_ms"] <= entry["elapsed_ms"]
        assert entry["generation"] == 1
        assert payload["metrics"]["counters"]["server.slow_queries"] == len(entries)
        assert any("slow query" in r.message for r in caplog.records)

    def test_ring_is_bounded(self, model, dataset):
        async def main():
            server = PredictionServer(
                LinkPredictor(model, dataset),
                max_batch=1,  # one group per request -> one entry each
                slow_query_ms=1e-6,
            )
            async with server:
                for i in range(SLOW_QUERY_RING + 8):
                    await server.top_k(i % 50, 0, side="tail", k=2)
                return server

        server = asyncio.run(main())
        assert len(server._slow_queries) == SLOW_QUERY_RING
        assert server.metrics.counter_value("server.slow_queries") == SLOW_QUERY_RING + 8

    def test_fast_default_threshold_records_nothing(self, model, dataset):
        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 4)
                return server.metrics_dict()

        payload = asyncio.run(main())
        assert payload["slow_queries"] == []
        assert "server.slow_queries" not in payload["metrics"]["counters"]


class TestSwapResetsLatencyProfile:
    def test_retry_hint_rebuilds_from_post_swap_measurements(self, model, dataset):
        """Regression: the old deployment's service-time histogram leaked
        across ``swap_predictor``, so an overloaded server kept quoting
        retry-after hints priced off the *previous* model's latency (e.g.
        sweep-sized backoffs after swapping in an indexed predictor)."""

        async def main():
            loop = asyncio.get_running_loop()
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=16)
            async with server:
                # A generation-1 deployment with pathological service
                # times: every observation lands in the <= 5s bucket.
                for _ in range(20):
                    server._observe_service_time(4.0)
                # Manufacture a backlog so the hint prices a real queue.
                from repro.serving.server import _Pending

                backlog = [
                    _Pending(
                        side="tail", first=0, second=0, k=4, filtered=False,
                        future=loop.create_future(), enqueued_at=loop.time(),
                    )
                    for _ in range(8)
                ]
                server._pending.extend(backlog)
                slow_hint = server._retry_after_ms()

                await server.swap_predictor(
                    LinkPredictor(_second_model(dataset), dataset)
                )
                fresh_hint = server._retry_after_ms()

                # Unblock the manufactured queue before drain-close.
                for request in backlog:
                    server._pending.remove(request)
                    request.future.cancel()
                return slow_hint, fresh_hint, server

        slow_hint, fresh_hint, server = asyncio.run(main())
        # Pre-swap: 8 pending * 5s p90 = 40s of backlog (clamped to 10s).
        assert slow_hint > 1000
        # Post-swap there are no measurements for generation 2; the hint
        # falls back to the 50ms prior instead of the stale histogram:
        # 8 pending * 50ms.
        assert fresh_hint == pytest.approx(400.0)
        assert server.metrics.histogram_count("server.service_seconds") == 0
        # One post-swap measurement prices the hint again.
        server._observe_service_time(0.001)
        assert server.metrics.histogram_count("server.service_seconds") == 1
        assert server.metrics_dict()["metrics"]["gauges"]["server.generation"] == 2

    def test_generation_counters_survive_swap(self, model, dataset):
        """Only the latency profile resets; cumulative counters do not."""

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=8)
            async with server:
                await _serve_some(server, 3)
                await server.swap_predictor(
                    LinkPredictor(_second_model(dataset), dataset)
                )
                await _serve_some(server, 2)
                return server.stats_dict(), server.metrics_dict()

        stats, payload = asyncio.run(main())
        assert stats["served"] == 5
        assert stats["swaps"] == 1
        assert stats["generation"] == 2
        histograms = payload["metrics"]["histograms"]
        # Only the service-time profile resets on swap: it holds just the
        # post-swap groups (2 requests -> 1 or 2 groups, batching luck)...
        assert 1 <= histograms["server.service_seconds"]["count"] <= 2
        # ...while the cumulative per-request wait histogram keeps all 5.
        assert histograms["server.wait_seconds"]["count"] == 5


def _ivfpq_predictor(model, dataset):
    from repro.index.ivf import IVFIndex
    from repro.index.pq import PQConfig

    index = IVFIndex(model, nlist=14, nprobe=3, spill=2, pq=PQConfig(m=4, refine=10))
    return LinkPredictor(model, dataset, index=index)


INDEX_KEYS = {
    "num_entities", "queries", "entities_scored", "entities_scanned",
    "exhaustive_queries", "recall_checks", "probed_fraction",
    "recall_estimate", "fold_cache_hits", "fold_cache_misses",
}


class TestOneSnapshot:
    """Every read renders one merged snapshot of the server's registry and
    the active deployment's; nothing is copied between stores."""

    def test_swap_to_a_bare_deployment_drops_the_old_counters(self, model, dataset):
        """Regression: scrape-time copies left the previous deployment's
        ``index.*`` / ``serving.cache.*`` values in the server registry,
        so ``metrics`` kept reporting them after ``stats`` said no index."""

        async def main():
            server = PredictionServer(_ivfpq_predictor(model, dataset))
            async with server:
                await _serve_some(server, 6)
                before = server.metrics_dict()["metrics"]
                bare = LinkPredictor(_second_model(dataset), dataset, cache_size=0)
                await server.swap_predictor(bare)
                await _serve_some(server, 2)
                return before, server.metrics_dict()["metrics"], server.stats_dict()

        before, after, stats = asyncio.run(main())
        assert before["counters"]["index.queries"] == 6
        assert before["counters"]["serving.cache.misses"] == 0  # index path
        stale = [
            name
            for family in ("counters", "gauges", "histograms")
            for name in after[family]
            if name.startswith(("index.", "serving.cache."))
        ]
        assert stale == []
        assert stats["index"] is None
        assert after["counters"]["server.served"] == 8  # server counters persist

    def test_metrics_op_carries_the_index_pq_counters(self, model, dataset):
        """Regression: ``index.pq.*`` went to an ambient registry the daemon
        never installs, so the ``metrics`` op never showed them."""
        predictor = _ivfpq_predictor(model, dataset)

        async def main():
            server = PredictionServer(predictor, max_batch=8)
            async with server:
                await _serve_some(server, 8)
                return server.metrics_dict()["metrics"]["counters"], server.stats_dict()

        counters, stats = asyncio.run(main())
        recorded = predictor.index.metrics.snapshot().counters
        assert counters["index.pq.rows_pruned"] == recorded["index.pq.rows_pruned"] > 0
        assert counters["index.pq.candidates_pruned"] == recorded["index.pq.candidates_pruned"]
        # Two owners, one event: every pruned row scanned its whole union
        # and kept `refine` ids.
        assert counters["index.pq.candidates_pruned"] == (
            stats["index"]["entities_scanned"] - 10 * counters["index.pq.rows_pruned"]
        )

    def test_index_stats_key_sets_are_pinned(self, model, dataset):
        from repro.index.exact import ExactIndex

        async def main(predictor):
            server = PredictionServer(predictor)
            async with server:
                await _serve_some(server, 3)
                return server.stats_dict()["index"], server.metrics_dict()["metrics"]

        ivf, ivf_metrics = asyncio.run(main(_ivfpq_predictor(model, dataset)))
        exact, _ = asyncio.run(
            main(LinkPredictor(model, dataset, index=ExactIndex(model)))
        )
        assert set(ivf) == INDEX_KEYS | {"fold_cache"}
        assert set(ivf["fold_cache"]) == {"hits", "misses", "evictions", "store_hits"}
        assert set(exact) == INDEX_KEYS
        assert exact["probed_fraction"] == 1.0
        assert exact["fold_cache_hits"] == exact["fold_cache_misses"] == 0
        # The stats view and the metrics view read the same counters.
        assert ivf["queries"] == ivf_metrics["counters"]["index.queries"] == 3
        assert ivf["fold_cache"]["misses"] == ivf_metrics["counters"]["index.fold_cache.misses"]
        assert ivf["probed_fraction"] == ivf_metrics["gauges"]["index.probed_fraction"]

    def test_scrapes_race_requests_and_a_delta_without_errors(self, model, dataset):
        """``stats``/``metrics`` read the deployment's registries on the event
        loop while the scoring and ingest threads write them."""
        from repro.ingest import GraphDelta

        names = dataset.entities.to_list()
        rels = dataset.relations.to_list()
        delta = GraphDelta(add_triples=(("scrape_entity", names[0], rels[0]),))

        async def scraper(port, stop):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            while not stop.is_set():
                writer.write(b'{"op": "stats"}\n{"op": "metrics"}\n')
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        async def traffic(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": i, "op": "top_k", "head": i % 50, "relation": i % 3, "k": 5}
                for i in range(40)
            ]
            requests.insert(20, {"id": "delta", "op": "apply_delta",
                                 "delta": delta.to_dict(), "ingest": {"epochs": 1}})
            writer.write("".join(json.dumps(r) + "\n" for r in requests).encode())
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in requests]
            writer.close()
            await writer.wait_closed()
            return replies

        async def main():
            server = PredictionServer(_ivfpq_predictor(model, dataset), max_batch=4)
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            stop = asyncio.Event()
            scraping = asyncio.create_task(scraper(port, stop))
            served = await traffic(port)
            stop.set()
            scrapes = await scraping
            tcp.close()
            await tcp.wait_closed()
            await server.close()
            return served, scrapes, server.stats_dict()

        served, scrapes, stats = asyncio.run(main())
        assert all(reply["ok"] for reply in served), served
        assert len(scrapes) >= 2
        assert all(reply["ok"] for reply in scrapes), [r for r in scrapes if not r["ok"]]
        assert stats["deltas_applied"] == 1
        assert stats["served"] == 40
