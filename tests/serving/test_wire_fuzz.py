"""Seeded wire fuzz: a malformed line never costs the connection or a good request.

One TCP connection carries a seeded shuffle of well-formed ``top_k``
requests and malformed lines — invalid JSON, invalid UTF-8, over-deep
nesting, non-object JSON, wrong types, out-of-range ids, unknown ops and
over-limit lines.  Every well-formed request must be answered with the
ids of a one-at-a-time :meth:`LinkPredictor.top_k`; every malformed line
with ``bad_request`` or ``too_large``; the connection must stay open and
``health`` must report ``ok`` afterwards.  A table test then sends each
unparseable line alone, first on a fresh connection, so a regression
names the line that caused it.

No pytest-asyncio: each test drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.serving import LinkPredictor, PredictionServer
from repro.serving.predictor import query_slots
from repro.serving.server import MAX_LINE_BYTES, start_tcp_server

pytestmark = pytest.mark.serving_daemon

#: Seconds to wait for any one reply before calling the connection lost.
REPLY_TIMEOUT_S = 10.0


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic_kg(
        SyntheticKGConfig(num_entities=120, num_clusters=8, seed=3)
    )


@pytest.fixture(scope="module")
def model(dataset):
    return make_complex(
        dataset.num_entities, dataset.num_relations, 16, np.random.default_rng(4)
    )


def _good_request(rng, dataset, request_id: int) -> dict:
    side = str(rng.choice(["tail", "head", "relation"]))
    anchor_slot, other_slot = query_slots(side)
    bounds = {"head": dataset.num_entities, "tail": dataset.num_entities,
              "relation": dataset.num_relations}
    return {
        "id": request_id,
        "op": "top_k",
        "side": side,
        anchor_slot: int(rng.integers(bounds[anchor_slot])),
        other_slot: int(rng.integers(bounds[other_slot])),
        "k": int(rng.integers(1, 12)),
        "filtered": bool(rng.integers(2)) if side != "relation" else False,
    }


def _typed_bad_requests(dataset) -> list[dict]:
    """Parseable JSON objects the wire or admission must refuse."""
    base = {"op": "top_k", "side": "tail", "head": 3, "relation": 0, "k": 5}
    return [
        {**base, "k": 2.5},
        {**base, "k": "5"},
        {**base, "k": True},
        {**base, "k": 0},
        {**base, "filtered": "false"},
        {**base, "head": "3"},
        {**base, "relation": "0"},
        {**base, "side": 5},
        {**base, "side": "sideways"},
        {**base, "head": dataset.num_entities},
        {**base, "head": -1},
        {**base, "head": 10**30},
        {**base, "relation": dataset.num_relations},
        {"op": "top_k", "side": "relation", "head": 1, "tail": 2, "filtered": True},
        {"op": "frobnicate"},
        {"op": ["top_k"]},
        {"op": "swap", "run_dir": 7},
    ]


#: Lines refused before any request id is read: the reply carries id null.
_UNPARSEABLE_LINES = {
    "truncated-json": b'{"op": "top_k", "head": 1,',
    "single-quoted": b"{'op': 'ping'}",
    "utf16-bom": b"\xff\xfe{}",
    "invalid-utf8-in-string": b'{"op": "ping", "pad": "\xc3\x28"}',
    "deep-list": b"[" * 5000,
    "deep-object": b'{"a": ' * 3000,
    "int-past-digit-limit": b'{"id": ' + b"9" * 5000 + b', "op": "ping"}',
    "json-list": b"[1, 2]",
    "json-string": b'"top_k"',
    "json-number": b"42",
    "json-null": b"null",
}

_OVERSIZE_LINE = b'{"op": "ping", "pad": "' + b"x" * (MAX_LINE_BYTES + 10) + b'"}'


def _script(seed: int, dataset):
    """The shuffled lines of one connection, with what each must get back."""
    rng = np.random.default_rng(seed)
    entries = []  # (line, expectation)
    for request_id in range(40):
        request = _good_request(rng, dataset, request_id)
        entries.append((json.dumps(request).encode(), ("good", request)))
    for offset, request in enumerate(_typed_bad_requests(dataset)):
        request = {"id": 1000 + offset, **request}
        entries.append((json.dumps(request).encode(), ("refused", request["id"])))
    for line in _UNPARSEABLE_LINES.values():
        entries.append((line, ("refused", None)))
    entries.append((_OVERSIZE_LINE, ("too_large", None)))
    order = rng.permutation(len(entries))
    return [entries[i] for i in order]


async def _exchange(model, dataset, lines: list[bytes]):
    server = PredictionServer(LinkPredictor(model, dataset), max_batch=16)
    tcp = await start_tcp_server(server, port=0)
    port = tcp.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=4 * MAX_LINE_BYTES
    )
    try:
        writer.write(b"".join(line + b"\n" for line in lines))
        await writer.drain()
        replies = []
        for _ in lines:
            raw = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            if not raw:
                break  # the server closed the connection
            replies.append(json.loads(raw))
        health = None
        if len(replies) == len(lines):
            writer.write(b'{"id": "health", "op": "health"}\n')
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            health = json.loads(raw) if raw else None
        return replies, health
    finally:
        writer.close()
        await writer.wait_closed()
        tcp.close()
        await tcp.wait_closed()
        await server.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_malformed_lines_never_cost_the_connection(model, dataset, seed):
    script = _script(seed, dataset)
    replies, health = asyncio.run(_exchange(model, dataset, [line for line, _ in script]))
    assert len(replies) == len(script), "the server closed the connection early"

    by_id = {}
    anonymous = []
    for reply in replies:
        if reply["id"] is None:
            anonymous.append(reply)
        else:
            by_id[reply["id"]] = reply
    expected_anonymous = sorted(
        kind for _, (kind, request_id) in script if request_id is None
    )
    assert sorted(
        "too_large" if reply["error"]["code"] == "too_large" else "refused"
        for reply in anonymous
    ) == expected_anonymous
    assert all(reply["ok"] is False for reply in anonymous)
    assert all(reply["error"]["code"] == "bad_request" for reply in anonymous
               if reply["error"]["code"] != "too_large")

    predictor = LinkPredictor(model, dataset, cache_size=0)
    for _, (kind, payload) in script:
        if kind == "refused" and payload is not None:
            reply = by_id[payload]
            assert reply["ok"] is False, reply
            assert reply["error"]["code"] == "bad_request", reply
        elif kind == "good":
            reply = by_id[payload["id"]]
            assert reply["ok"] is True, reply
            anchor_slot, other_slot = query_slots(payload["side"])
            expected = predictor.top_k(
                [payload[anchor_slot]],
                [payload[other_slot]],
                side=payload["side"],
                k=payload["k"],
                filtered=payload["filtered"],
            )
            assert reply["ids"] == [int(i) for i in expected.ids[0]], payload

    assert health is not None and health["ok"] is True
    assert health["health"]["status"] == "ok"


@pytest.mark.parametrize(
    "line, code",
    [pytest.param(line, "bad_request", id=name) for name, line in _UNPARSEABLE_LINES.items()]
    + [pytest.param(_OVERSIZE_LINE, "too_large", id="over-limit")],
)
def test_one_bad_line_then_pipelined_requests(model, dataset, line, code):
    """Each refused line on its own, first on a fresh connection: it gets
    *code* with id null, and the requests pipelined behind it are still
    answered."""
    request = {"id": 1, "op": "top_k", "side": "tail", "head": 3, "relation": 0,
               "k": 5, "filtered": False}
    lines = [line, json.dumps(request).encode(), b'{"id": 2, "op": "ping"}']
    replies, health = asyncio.run(_exchange(model, dataset, lines))
    assert len(replies) == len(lines), "the server closed the connection early"

    # The read loop sends a refusal before it reads the next line.
    refusal, *answers = replies
    assert refusal["id"] is None and refusal["ok"] is False
    assert refusal["error"]["code"] == code
    by_id = {reply["id"]: reply for reply in answers}
    assert by_id[1]["ok"] is True, by_id[1]
    expected = LinkPredictor(model, dataset, cache_size=0).top_k(
        [3], [0], side="tail", k=5, filtered=False
    )
    assert by_id[1]["ids"] == [int(i) for i in expected.ids[0]]
    assert by_id[2]["pong"] is True
    assert health is not None and health["health"]["status"] == "ok"
