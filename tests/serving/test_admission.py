"""Id range checks at admission: a bad id fails alone, with a typed error.

Unchecked, numpy indexing answers a negative id as the entity counted
from the end of the table, and an id past the end raises a bare
``IndexError`` inside the micro-batch, failing every request coalesced
with it.  ``PredictionServer`` refuses both before a request joins a
batch (``bad_request`` on the wire), and ``LinkPredictor.top_k`` runs the
same check for library callers.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import ServingError
from repro.ingest import GraphDelta
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.server import _handle_message, k_bucket, start_tcp_server

pytestmark = pytest.mark.serving_daemon


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(num_entities=150, num_clusters=8, seed=4)
    )


@pytest.fixture()
def model(dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations, 16, np.random.default_rng(6)
    )


class TestPredictorBackstop:
    @pytest.mark.parametrize(
        "side, anchor, other, slot",
        [
            ("tail", -1, 0, "head"),
            ("tail", 0, -1, "relation"),
            ("head", 10**6, 0, "tail"),
            ("head", 0, 10**6, "relation"),
            ("relation", 0, -3, "tail"),
        ],
    )
    def test_out_of_range_ids_raise_a_typed_error(
        self, model, dataset, side, anchor, other, slot
    ):
        predictor = LinkPredictor(model, dataset)
        with pytest.raises(ServingError, match=f"{slot} id"):
            predictor.top_k([0, anchor], [0, other], side=side, k=3)

    def test_boundary_ids_are_served(self, model, dataset):
        predictor = LinkPredictor(model, dataset)
        last = dataset.num_entities - 1
        result = predictor.top_k([last], [dataset.num_relations - 1], side="head", k=3)
        assert result.ids.shape == (1, 3)


class TestAdmission:
    def test_negative_ids_are_refused_over_the_wire(self, model, dataset):
        messages = [
            {"id": 1, "op": "top_k", "side": "tail", "head": -1, "relation": 0, "k": 5},
            {"id": 2, "op": "top_k", "side": "head", "tail": 3, "relation": -1, "k": 5},
            {"id": 3, "op": "top_k", "side": "relation", "head": 2, "tail": -7, "k": 2},
            {"id": 4, "op": "top_k", "side": "tail", "head": 5, "relation": 0, "k": 5},
        ]

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write("".join(json.dumps(m) + "\n" for m in messages).encode())
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
        for request_id, slot in ((1, "head"), (2, "relation"), (3, "tail")):
            assert responses[request_id]["ok"] is False
            assert responses[request_id]["error"]["code"] == "bad_request"
            assert f"{slot} id -" in responses[request_id]["error"]["message"]
        assert responses[4]["ok"] is True

    def test_bad_id_fails_alone_in_its_batch(self, model, dataset):
        heads = [3, 17, 9, 40, 55, 28]
        relations = [0, 1, 2, 0, 1, 2]
        k = 5

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset), max_batch=32)
            async with server:
                calls = [
                    server.top_k(h, r, side="tail", k=k, filtered=True)
                    for h, r in zip(heads, relations)
                ]
                calls.insert(3, server.top_k(dataset.num_entities + 5, 0, side="tail", k=k))
                return await asyncio.gather(*calls, return_exceptions=True)

        results = asyncio.run(main())
        refused = results.pop(3)
        assert isinstance(refused, ServingError)
        assert "out of range" in str(refused)
        assert all(served.coalesced == len(heads) for served in results)
        direct = LinkPredictor(model, dataset).top_k(
            heads, relations, side="tail", k=k_bucket(k), filtered=True
        )
        for row, served in enumerate(results):
            np.testing.assert_array_equal(served.ids, direct.ids[row, :k])
            np.testing.assert_array_equal(served.scores, direct.scores[row, :k])

    def test_id_added_by_a_delta_is_accepted_after_it(self, model, dataset):
        names = dataset.entities.to_list()
        relation = dataset.relations.to_list()[0]
        delta = GraphDelta(
            add_triples=(("fresh_entity", names[0], relation),
                         (names[1], "fresh_entity", relation))
        )
        fresh = dataset.num_entities

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            async with server:
                with pytest.raises(ServingError, match="out of range"):
                    await server.top_k(fresh, 0, side="tail", k=5)
                await server.apply_delta(delta, epochs=1, seed=0)
                return await server.top_k(fresh, 0, side="tail", k=5)

        served = asyncio.run(main())
        assert len(served.ids) == 5
        assert served.graph_version == 1


class TestOneCheck:
    @pytest.mark.parametrize(
        "side, anchor, other, k, filtered",
        [
            ("edge", 0, 0, 3, False),
            ("tail", 0, 0, 0, False),
            ("relation", 0, 1, 3, True),
            ("head", -2, 0, 3, False),
        ],
    )
    def test_library_and_daemon_refuse_alike(
        self, model, dataset, side, anchor, other, k, filtered
    ):
        predictor = LinkPredictor(model, dataset)
        with pytest.raises(ServingError) as library:
            predictor.top_k([anchor], [other], side=side, k=k, filtered=filtered)

        async def main():
            async with PredictionServer(predictor) as server:
                with pytest.raises(ServingError) as daemon:
                    await server.top_k(anchor, other, side=side, k=k, filtered=filtered)
                return daemon

        assert str(asyncio.run(main()).value) == str(library.value)

    def test_warm_cache_refuses_out_of_range_ids(self, model, dataset):
        predictor = LinkPredictor(model, dataset)
        with pytest.raises(ServingError, match="head id -1 out of range"):
            predictor.warm_cache([-1], [0])
        with pytest.raises(ServingError, match="out of range"):
            predictor.warm_cache([dataset.num_entities], [0])
        assert len(predictor.cache) == 0


class TestWireTypes:
    def test_every_side_enters_through_one_top_k(self, model, dataset, monkeypatch):
        calls = []
        original = PredictionServer.top_k

        async def spy(self, anchor, other, **kwargs):
            calls.append((kwargs["side"], anchor, other))
            return await original(self, anchor, other, **kwargs)

        monkeypatch.setattr(PredictionServer, "top_k", spy)
        messages = [
            {"op": "top_k", "side": "tail", "head": 3, "relation": 0, "k": 2},
            {"op": "top_k", "side": "head", "tail": 4, "relation": 1, "k": 2},
            {"op": "top_k", "side": "relation", "head": 3, "tail": 4, "k": 2},
        ]

        async def main():
            async with PredictionServer(LinkPredictor(model, dataset)) as server:
                return [await _handle_message(server, m, None) for m in messages]

        replies = asyncio.run(main())
        assert calls == [("tail", 3, 0), ("head", 4, 1), ("relation", 3, 4)]
        assert all(len(reply["ids"]) == 2 for reply in replies)

    def test_malformed_fields_are_refused_before_admission(self, model, dataset):
        """Each malformed request gets bad_request; a well-formed one sent in
        the same burst on the same connection gets its exact answer."""
        bad = [
            {"side": "tail", "head": 3, "relation": 0, "filtered": "false"},
            {"side": "tail", "head": 3, "relation": 0, "filtered": "0"},
            {"side": "head", "tail": 3, "relation": 0, "filtered": [0]},
            {"side": "relation", "head": 3, "tail": 4, "filtered": True},
            {"side": [1], "head": 3, "relation": 0},
            {"side": {"a": 1}, "head": 3, "relation": 0},
            {"side": "tail", "head": 3, "relation": 0, "deadline_ms": float("nan")},
            {"side": "tail", "head": 3, "relation": 0, "deadline_ms": float("inf")},
        ]
        good = {"side": "tail", "head": 3, "relation": 0, "k": 5, "filtered": False}
        messages = [{"id": i, "op": "top_k", **fields} for i, fields in enumerate(bad)]
        messages.append({"id": len(bad), "op": "top_k", **good})

        async def main():
            server = PredictionServer(LinkPredictor(model, dataset))
            tcp = await start_tcp_server(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write("".join(json.dumps(m) + "\n" for m in messages).encode())
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
        for request_id in range(len(bad)):
            assert responses[request_id]["ok"] is False, bad[request_id]
            assert responses[request_id]["error"]["code"] == "bad_request", bad[request_id]
        answer = responses[len(bad)]
        assert answer["ok"] is True
        expected = LinkPredictor(model, dataset).top_k([3], [0], side="tail", k=k_bucket(5))
        assert answer["ids"] == [int(i) for i in expected.ids[0, :5]]
