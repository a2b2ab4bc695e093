"""The serving daemon as a subprocess: launch, READY, control ops, stop.

The untraced daemon is exactly ``python -m repro serve <run_dir>``.  The
traced one is the same CLI entry point started through
``perfbench/traced_serve.py``, which installs the span recorder first;
the process layout (one daemon process, one asyncio loop, scoring in
``asyncio.to_thread`` workers) is the same.
"""

from __future__ import annotations

import json
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, WORK, child_env

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 120.0


class Daemon:
    def __init__(self, run_dir: Path, *, index: str, queue_depth: int,
                 trace_out: Path | None = None) -> None:
        # Batching (max_batch, max_wait_ms) stays at the daemon's own
        # defaults, so a change to them shows in the benchmark.
        serve_args = [
            "serve", str(run_dir), "--port", "0", "--index", index,
            "--queue-depth", str(queue_depth),
        ]
        if trace_out is None:
            self.cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            self.cmd = [sys.executable, str(HERE / "traced_serve.py"), str(trace_out),
                        *serve_args]
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._lines: queue.Queue = queue.Queue()
        self._stderr = None

    # --------------------------------------------------------------- life
    def start(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self._stderr = open(WORK / "daemon.stderr", "ab")
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise RuntimeError("daemon did not print READY in time") from None
            if line is None:
                raise RuntimeError(f"daemon exited before READY (rc={self.proc.wait()})")
            if line.startswith("REPRO-SERVE READY"):
                fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
                self.port = int(fields["port"])
                return

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def set_tracing(self, enabled: bool) -> None:
        """Toggle the traced daemon's recorder (SIGUSR1 on, SIGUSR2 off)."""
        self.proc.send_signal(signal.SIGUSR1 if enabled else signal.SIGUSR2)
        time.sleep(0.05)

    def stop(self) -> None:
        """Wire shutdown (graceful drain), then wait; escalate if stuck."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.call({"op": "shutdown"})
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired, RuntimeError):
            self.kill()
        finally:
            if self._stderr is not None:
                self._stderr.close()
                self._stderr = None

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    # ------------------------------------------------------------ control
    def call(self, message: dict, timeout: float = 120.0) -> dict:
        """One closed-loop request/response on a fresh connection."""
        return self.call_many([message], timeout=timeout)[0]

    def call_many(self, messages: list[dict], timeout: float = 120.0) -> list[dict]:
        """Pipeline *messages* on one connection; responses in request order."""
        payload = "".join(
            json.dumps({"id": i, **m}) + "\n" for i, m in enumerate(messages)
        ).encode()
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as conn:
            conn.sendall(payload)
            reader = conn.makefile("r", encoding="utf-8")
            responses = [json.loads(reader.readline()) for _ in messages]
        by_id = {r["id"]: r for r in responses}
        return [by_id[i] for i in range(len(messages))]

    def call_many_sequential(self, messages: list[dict], timeout: float = 120.0) -> list[dict]:
        """Send *messages* one at a time, each after the previous reply."""
        out = []
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as conn:
            reader = conn.makefile("r", encoding="utf-8")
            for i, message in enumerate(messages):
                conn.sendall((json.dumps({"id": i, **message}) + "\n").encode())
                out.append(json.loads(reader.readline()))
        return out

    def stats(self) -> dict:
        response = self.call({"op": "stats"})
        if not response.get("ok"):
            raise RuntimeError(f"stats op failed: {response}")
        return response["stats"]
