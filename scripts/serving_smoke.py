#!/usr/bin/env python
"""End-to-end smoke of the serving daemon: real process, real socket.

The asyncio test suite (``tests/serving/test_server.py``) exercises the
server in-process; this script is the missing integration layer that CI
runs (``scripts/ci.sh``) — it proves the daemon works as an *operating
system process*:

1. train a tiny pipeline run (with an IVF index) into a temp dir,
2. launch ``python -m repro serve <run_dir> --port 0`` as a subprocess,
3. parse the ``REPRO-SERVE READY ... port=<n>`` line for the bound port,
4. fire concurrent newline-delimited JSON requests over two sockets,
5. cross-check served answers against a direct in-process predictor,
   one request at a time, then as one pipelined burst of the
   exact-serving mix (tail, head and relation queries, k in {1, 10, 50},
   half the entity queries filtered) that the daemon must coalesce and
   score in at most five calls per micro-batch,
6. send an oversize request line and require a ``too_large`` reply
   followed by a correct answer on the same connection,
7. send an ``apply_delta`` with a bad ingest knob and require a
   ``bad_request`` reply that changes nothing, then pipeline a good delta
   between ``top_k`` lines and require every read answered, the delta at
   ``graph_version`` 1 and its new entity served after the flip,
8. require from the ``stats`` op that the index answered approximately
   (no exhaustive query, a nonzero PQ scan), and from the ``metrics``
   op the same query count plus nonzero PQ pruning,
9. shut down over the wire and require a clean exit.

The index probes 2 of 8 cells and prunes each probed union to 16
candidates by PQ, so the daemon serves the approximate path — probed
unions and the ADC prune — rather than the exact sweep a probe-all
index falls back to.

Exit code 0 means every step passed.  Stdlib only — no test framework —
so it can run anywhere the library runs.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

READY_TIMEOUT_SECONDS = 60.0
REQUESTS_PER_CONNECTION = 24


def build_run(run_dir: Path) -> None:
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
        # ComplEx total_dim 8 folds to width 8, so pq_m=4 divides it; a
        # 2-of-8 probe unions ~50 of the 120 entities, above pq_refine.
        index=IndexSection(kind="ivf", nlist=8, nprobe=2, pq_m=4, pq_refine=16),
    )
    run_pipeline(config, run_dir=run_dir)


def wait_for_ready(process: subprocess.Popen) -> int:
    """Read daemon stdout until the READY line; return the bound port."""
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"daemon exited before READY (rc={process.poll()})"
            )
        sys.stdout.write(f"  [daemon] {line}")
        if line.startswith("REPRO-SERVE READY"):
            fields = dict(
                part.split("=", 1) for part in line.split() if "=" in part
            )
            return int(fields["port"])
    raise RuntimeError("timed out waiting for REPRO-SERVE READY")


def drive_connection(port: int, offset: int) -> list[dict]:
    """Write a burst of pipelined requests, then collect every response."""
    requests = []
    for i in range(REQUESTS_PER_CONNECTION):
        requests.append(
            {
                "id": offset + i,
                "op": "top_k",
                "side": "tail",
                "head": (offset + 7 * i) % 120,
                "relation": i % 3,
                "k": 5,
                "filtered": i % 2 == 0,
            }
        )
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(
            "".join(json.dumps(r) + "\n" for r in requests).encode()
        )
        reader = conn.makefile("r", encoding="utf-8")
        responses = [json.loads(reader.readline()) for _ in requests]
    by_id = {r["id"]: r for r in responses}
    for request in requests:
        response = by_id[request["id"]]
        assert response["ok"] is True, f"request {request} failed: {response}"
        assert len(response["ids"]) == 5, response
        finite = [s for s in response["scores"] if s is not None]
        assert finite == sorted(finite, reverse=True), response
    return responses


#: (side, anchor field, anchor, relation, filtered) of the cross-checked requests.
CROSS_CHECKS = [
    ("tail", "head", 11, 1, True),
    ("tail", "head", 42, 0, False),
    ("head", "tail", 7, 2, True),
    ("head", "tail", 98, 1, False),
    ("tail", "head", 63, 2, True),
]


def direct_predictor(run_dir: Path):
    from repro.pipeline.runner import serve_run

    return serve_run(str(run_dir), index="auto", on_stale="error")


def cross_check(predictor, port: int) -> None:
    """Single requests, sent one at a time so each is its own micro-batch,
    must match single-row in-process calls exactly."""
    from repro.serving.server import k_bucket

    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        reader = conn.makefile("r", encoding="utf-8")
        for i, (side, field, anchor, relation, filtered) in enumerate(CROSS_CHECKS):
            conn.sendall(
                json.dumps(
                    {"id": i, "op": "top_k", "side": side, field: anchor,
                     "relation": relation, "k": 5, "filtered": filtered}
                ).encode() + b"\n"
            )
            response = json.loads(reader.readline())
            expected = predictor.top_k(
                [anchor], [relation], side=side, k=k_bucket(5), filtered=filtered
            )
            assert response["ok"] is True, response
            assert response["coalesced"] == 1, response
            assert response["ids"] == [int(j) for j in expected.ids[0, :5]], (
                f"wire ids {response['ids']} != direct {expected.ids[0, :5]}"
            )


#: k of the mixed burst: perfbench's exact-serving mix.
MIX_KS = (1, 10, 50)


def mixed_burst(predictor, port: int) -> None:
    """A pipelined burst of every side, k and filter setting on one
    connection: each answer must equal the single-row in-process answer,
    and the daemon must score each micro-batch in at most five predictor
    calls, one per ``(side, filtered)`` group."""
    requests = []
    for i in range(60):
        side = ("tail", "head", "relation")[i % 3]
        request = {"id": i, "op": "top_k", "side": side, "k": MIX_KS[(i // 3) % 3]}
        if side == "relation":
            request.update(head=(11 * i) % 120, tail=(7 * i + 3) % 120)
        else:
            anchor = "head" if side == "tail" else "tail"
            request.update({anchor: (13 * i) % 120, "relation": i % 3,
                            "filtered": i % 2 == 0})
        requests.append(request)
    stats = (json.dumps({"id": "stats", "op": "stats"}) + "\n").encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        reader = conn.makefile("r", encoding="utf-8")
        conn.sendall(stats)
        before = json.loads(reader.readline())["stats"]
        conn.sendall("".join(json.dumps(r) + "\n" for r in requests).encode())
        replies = [json.loads(reader.readline()) for _ in requests]
        conn.sendall(stats)
        after = json.loads(reader.readline())["stats"]
    by_id = {reply["id"]: reply for reply in replies}
    for request in requests:
        reply = by_id[request["id"]]
        assert reply["ok"] is True, (request, reply)
        side, k = request["side"], request["k"]
        if side == "relation":
            expected = predictor.top_k(
                [request["head"]], [request["tail"]], side="relation", k=k
            )
        else:
            anchor = request["head"] if side == "tail" else request["tail"]
            expected = predictor.top_k(
                [anchor], [request["relation"]], side=side, k=k,
                filtered=request["filtered"],
            )
        assert reply["ids"] == [int(j) for j in expected.ids[0]], (
            f"{request}: wire ids {reply['ids']} != direct {expected.ids[0]}"
        )
    assert max(reply["coalesced"] for reply in replies) > 1, "burst never coalesced"
    batches = after["batches"] - before["batches"]
    calls = after["dispatch_calls"] - before["dispatch_calls"]
    assert calls <= 5 * batches, f"{calls} dispatch calls for {batches} batches"


def oversize_line(predictor, port: int) -> None:
    """A line past the daemon's read limit gets one ``too_large`` reply;
    the next request on the same connection is still answered."""
    from repro.serving.server import MAX_LINE_BYTES, k_bucket

    pad = "x" * (3 * MAX_LINE_BYTES)
    request = {"id": 1, "op": "top_k", "side": "tail", "head": 11, "relation": 1, "k": 5}
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(
            (json.dumps({"id": 0, "op": "ping", "pad": pad}) + "\n"
             + json.dumps(request) + "\n").encode()
        )
        reader = conn.makefile("r", encoding="utf-8")
        refused = json.loads(reader.readline())
        answered = json.loads(reader.readline())
    assert refused["ok"] is False and refused["error"]["code"] == "too_large", refused
    expected = predictor.top_k([11], [1], side="tail", k=k_bucket(5))
    assert answered["id"] == 1 and answered["ok"] is True, answered
    assert answered["ids"] == [int(j) for j in expected.ids[0, :5]], answered


def live_delta(predictor, port: int) -> None:
    """A bad ingest knob is refused before any work; a good delta
    pipelined between reads is published while every read is answered,
    and the entity it adds is served after the flip."""
    from repro.ingest import GraphDelta

    dataset = predictor.dataset
    names, relations = dataset.entities.to_list(), dataset.relations.to_list()
    fresh = dataset.num_entities  # the id the delta's new entity gets
    delta = GraphDelta(
        add_triples=(
            ("smoke_entity", names[0], relations[0]),
            (names[1], "smoke_entity", relations[0]),
        )
    ).to_dict()
    reads = [
        {"id": f"read-{i}", "op": "top_k", "head": (5 * i) % fresh,
         "relation": i % 3, "k": 5}
        for i in range(16)
    ]
    fresh_read = {"id": "fresh", "op": "top_k", "head": fresh, "relation": 0, "k": 5}
    health = {"id": "health", "op": "health"}
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        reader = conn.makefile("r", encoding="utf-8")

        def call(*requests) -> dict:
            conn.sendall("".join(json.dumps(r) + "\n" for r in requests).encode())
            replies = [json.loads(reader.readline()) for _ in requests]
            return {reply["id"]: reply for reply in replies}

        refused = call({"id": "bad", "op": "apply_delta", "delta": delta,
                        "ingest": {"epochs": "x"}})["bad"]
        assert refused["error"]["code"] == "bad_request", refused
        after_refusal = call(health, fresh_read)
        assert after_refusal["health"]["health"]["status"] == "ok", after_refusal
        assert after_refusal["health"]["health"]["graph_version"] == 0, after_refusal
        assert after_refusal["fresh"]["error"]["code"] == "bad_request", after_refusal

        replies = call(*reads[:8], {"id": "delta", "op": "apply_delta", "delta": delta,
                                    "ingest": {"epochs": 1}}, *reads[8:])
        assert all(reply["ok"] for reply in replies.values()), replies
        assert replies["delta"]["ingest"]["graph_version"] == 1, replies["delta"]
        after_delta = call(health, fresh_read)
    assert after_delta["health"]["health"]["status"] == "ok", after_delta
    assert after_delta["health"]["health"]["graph_version"] == 1, after_delta
    served = after_delta["fresh"]
    assert served["ok"] is True and served["graph_version"] == 1, served
    assert len(served["ids"]) == 5, served


def shutdown_over_wire(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(b'{"id": 0, "op": "stats"}\n{"id": 1, "op": "metrics"}\n')
        reader = conn.makefile("r", encoding="utf-8")
        replies = [json.loads(reader.readline()) for _ in range(2)]
        stats, metrics = sorted(replies, key=lambda reply: reply["id"])
        conn.sendall(b'{"id": 2, "op": "shutdown"}\n')
        closing = json.loads(reader.readline())
    assert stats["stats"]["served"] >= 2 * REQUESTS_PER_CONNECTION, stats
    # Every query took the approximate path: probed unions, PQ-pruned.
    index = stats["stats"]["index"]
    assert index["exhaustive_queries"] == 0, index
    assert index["entities_scanned"] > 0, index
    # The metrics op renders the same counters, the index's own included.
    counters = metrics["metrics"]["metrics"]["counters"]
    assert counters["index.queries"] == index["queries"], (counters, index)
    assert counters["index.pq.rows_pruned"] > 0, counters
    assert closing["ok"] is True and closing["closing"] is True, closing


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serving-smoke-") as tmp:
        run_dir = Path(tmp) / "run"
        print("== serving smoke: training tiny run ==")
        build_run(run_dir)

        print("== serving smoke: launching daemon ==")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(run_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            port = wait_for_ready(process)
            print(f"== serving smoke: daemon ready on port {port} ==")
            drive_connection(port, offset=100)
            drive_connection(port, offset=200)
            print("== serving smoke: 48 concurrent wire requests served ==")
            predictor = direct_predictor(run_dir)
            cross_check(predictor, port)
            print("== serving smoke: wire answers match direct predictor ==")
            mixed_burst(predictor, port)
            print("== serving smoke: mixed burst coalesced, <= 5 calls per batch ==")
            oversize_line(predictor, port)
            print("== serving smoke: oversize line refused, connection kept ==")
            live_delta(predictor, port)
            print("== serving smoke: bad delta refused, live delta served beside reads ==")
            shutdown_over_wire(port)
            rc = process.wait(timeout=30)
            remainder = process.stdout.read()
            for line in remainder.splitlines():
                sys.stdout.write(f"  [daemon] {line}\n")
            assert rc == 0, f"daemon exited with rc={rc}"
            assert "REPRO-SERVE STOPPED" in remainder, remainder
            print("== serving smoke: clean shutdown ==")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    print("serving smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
