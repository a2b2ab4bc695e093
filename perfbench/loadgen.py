"""Open-loop NDJSON load generator: one process, at most ``nproc`` connections.

Requests are sent on a precomputed schedule regardless of replies (an
open loop: independent users), round-robin over the connections.  Each
request's latency is timed from the moment it was *due*, so a stall
charges every request queued behind it; how late the generator itself
sent each request is recorded separately.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import math
from dataclasses import dataclass

from common import quantile

#: Connections the requests are spread over: one per core of the
#: two-core reference host, which the client and the daemon share.
CONNECTIONS = 2


@dataclass
class Phase:
    """One schedule's raw outcome, index-aligned with its requests."""

    kinds: list[str]
    due: list[float]
    sent: list[float]
    recv: list[float]
    responses: list[dict | None]
    #: Time from the last send to the last reply (a standing backlog
    #: shows as a long drain).
    drain_s: float

    @classmethod
    def concat(cls, phases: list["Phase"]) -> "Phase":
        """Pool several runs of one schedule shape (drain = the worst)."""
        pooled = cls([], [], [], [], [], max((p.drain_s for p in phases), default=0.0))
        for phase in phases:
            pooled.kinds += phase.kinds
            pooled.due += phase.due
            pooled.sent += phase.sent
            pooled.recv += phase.recv
            pooled.responses += phase.responses
        return pooled

    def indices(self, kind: str = "read") -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == kind]

    def ok(self, i: int) -> bool:
        r = self.responses[i]
        return r is not None and bool(r.get("ok"))

    def latencies_ms(self, kind: str = "read") -> list[float]:
        """Due-time latency of every successful request of *kind*."""
        return [1000.0 * (self.recv[i] - self.due[i]) for i in self.indices(kind) if self.ok(i)]

    def failures(self, kind: str | None = None) -> int:
        pool = range(len(self.kinds)) if kind is None else self.indices(kind)
        return sum(1 for i in pool if not self.ok(i))

    def lateness_ms(self) -> list[float]:
        return [1000.0 * (s - d) for s, d in zip(self.sent, self.due)]

    def peak_in_flight(self) -> int:
        """Most requests sent but not yet answered, over every send.

        Phases run one after another, so the send times of a pooled
        phase are still in order."""
        answered = sorted(t for t in self.recv if not math.isnan(t))
        return max(
            (i + 1 - bisect.bisect_right(answered, s) for i, s in enumerate(self.sent)),
            default=0,
        )

    def summary(self, slo_ms: float, late_limit_ms: float) -> dict:
        lat = self.latencies_ms()
        reads = self.indices()
        late = self.lateness_ms()
        failed = self.failures("read")
        p99 = quantile(lat, 0.99)
        generator_late = quantile(late, 0.99) > late_limit_ms
        # A queue still standing when the schedule ended: replies took
        # far longer than the SLO to catch up with the last send.
        grew = self.drain_s > max(1.0, 10 * slo_ms / 1000.0)
        return {
            "requests": len(reads),
            "failed": failed,
            "p50_ms": quantile(lat, 0.5),
            "p99_ms": p99,
            "late_p99_ms": quantile(late, 0.99),
            "drain_s": self.drain_s,
            "backlog_grew": grew,
            "valid": not generator_late,
            "meets_slo": (not generator_late and failed == 0 and not grew
                          and math.isfinite(p99) and p99 <= slo_ms),
        }


async def _drive(port: int, offsets, payloads, kinds) -> Phase:
    loop = asyncio.get_running_loop()
    streams = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    n = len(payloads)
    lines = [
        (json.dumps({"id": i, **payload}) + "\n").encode()
        for i, payload in enumerate(payloads)
    ]
    raw: list[tuple[float, bytes]] = []
    finished = loop.create_future()

    async def reader(stream: asyncio.StreamReader) -> None:
        while len(raw) < n:
            line = await stream.readline()
            if not line:
                break
            raw.append((loop.time(), line))
        if not finished.done():
            finished.set_result(None)

    readers = [asyncio.create_task(reader(r)) for r, _ in streams]
    due = [0.0] * n
    sent = [0.0] * n
    start = loop.time() + 0.02
    for i in range(n):
        target = start + float(offsets[i])
        now = loop.time()
        if target > now:
            await asyncio.sleep(target - now)
            now = loop.time()
        due[i] = target
        sent[i] = now
        streams[i % CONNECTIONS][1].write(lines[i])
    for _, writer in streams:
        await writer.drain()
    if n:
        await asyncio.wait_for(finished, timeout=120)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    recv = [math.nan] * n
    responses: list[dict | None] = [None] * n
    for t, line in raw:
        message = json.loads(line)
        i = message["id"]
        recv[i] = t
        responses[i] = message
    drain = max(t for t, _ in raw) - sent[-1] if n else 0.0
    return Phase(list(kinds), due, sent, recv, responses, drain)


def run_phase(port: int, offsets, payloads, kinds=None) -> Phase:
    """Send *payloads* at *offsets* (seconds) and collect every reply."""
    if kinds is None:
        kinds = ["read"] * len(payloads)
    # A full collection over the client's objects would stall the
    # generator mid-schedule; collect first, then hold it off.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_drive(port, offsets, payloads, kinds))
    finally:
        gc.enable()


async def _saturate(port: int, payloads, window: int, seconds: float) -> dict:
    loop = asyncio.get_running_loop()
    streams = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    lines = [(json.dumps({"id": i, **p}) + "\n").encode() for i, p in enumerate(payloads)]
    state = {"next": 0, "done": 0, "failed": 0}
    stop_at = loop.time() + seconds

    def send() -> None:
        i = state["next"] % len(lines)
        streams[state["next"] % CONNECTIONS][1].write(lines[i])
        state["next"] += 1

    async def reader(stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            state["done"] += 1
            if b'"ok": true' not in line:
                state["failed"] += 1
            if loop.time() < stop_at:
                send()
            elif state["done"] == state["next"]:
                return

    started = loop.time()
    for _ in range(window):
        send()
    readers = [asyncio.create_task(reader(r)) for r, _ in streams]
    while state["done"] < state["next"] or loop.time() < stop_at:
        await asyncio.sleep(0.01)
    elapsed = loop.time() - started
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return {"completed": state["done"], "failed": state["failed"], "seconds": elapsed}


def run_saturated(port: int, payloads, window: int, seconds: float) -> dict:
    """Closed loop at full load: keep *window* requests outstanding for
    *seconds* (cycling through *payloads*); returns completions/failures."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_saturate(port, payloads, window, seconds))
    finally:
        gc.enable()
