#!/usr/bin/env python
"""End-to-end chaos smoke: real artifacts torn, real daemon degraded.

The reliability test suite (``tests/reliability/``) exercises fault
injection in-process; this script is the integration layer CI runs
(``scripts/ci.sh``) — it proves the recovery stories hold with real
processes and real files:

1. sweep a tiny two-point grid into a temp dir, truncate one child's
   checkpoint table mid-file, resume, and require the torn child to
   heal by re-run (``completed``) while the intact child stays
   ``cached`` — with metrics bit-identical to an undisturbed sweep;
2. byte-flip one file of a persisted index's array store, launch
   ``python -m repro serve`` as a subprocess on the damaged run, and
   require the daemon to come up **degraded** (health op over the
   wire), serve top-k answers tagged ``degraded: true``, and match the
   exact in-process predictor bit-for-bit;
3. the same with one index store file deleted instead of flipped;
4. start a four-child sweep in its own process group, serial and then
   pooled (``workers=1``), wait for its first child to complete, send
   SIGINT to the group as a terminal's Ctrl-C does, and require the
   sweep to exit with ``KeyboardInterrupt`` within 10 s, with no child
   recorded ``failed``, fewer children completed than the grid holds
   and no process of the group left running.

Exit code 0 means every step passed.  Stdlib only — no test framework —
so it can run anywhere the library runs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
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
INTERRUPT_EXIT_SECONDS = 10.0
INTERRUPT_GRID = {"training.learning_rate": [0.01, 0.02, 0.05, 0.1]}


def tiny_config():
    from repro.pipeline.config import (
        DatasetSection,
        IndexSection,
        ModelSection,
        RunConfig,
        TrainingSection,
    )

    return RunConfig(
        dataset=DatasetSection(
            generator="synthetic_wn18",
            params={"num_entities": 120, "num_clusters": 6, "seed": 3},
        ),
        model=ModelSection(name="complex", total_dim=8),
        training=TrainingSection(epochs=2, batch_size=256),
        index=IndexSection(kind="ivf", nlist=8, nprobe=2),
    )


def truncate_then_resume(root: Path) -> Path:
    """Tear a sweep child's checkpoint; resume must heal it by re-run."""
    from repro.pipeline.sweep import sweep

    grid = {"training.learning_rate": [0.05, 0.1]}
    clean = sweep(tiny_config(), grid, run_root=root / "clean")
    first = sweep(tiny_config(), grid, run_root=root / "hurt")
    assert [run.status for run in first] == ["completed", "completed"], first

    victim = first[0].run_dir / "checkpoint" / "store" / "entity_embeddings.npy"
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    print(f"== chaos smoke: truncated {victim.name} to {len(raw) // 2} bytes ==")

    resumed = sweep(tiny_config(), grid, run_root=root / "hurt")
    statuses = [run.status for run in resumed]
    assert statuses == ["completed", "cached"], (
        f"expected the torn child to re-run and the intact one to cache-hit, "
        f"got {statuses}"
    )
    for healed, reference in zip(resumed, clean):
        assert healed.metrics["test"].mrr == reference.metrics["test"].mrr, (
            "healed child metrics drifted from the fault-free sweep"
        )
    print("== chaos smoke: resume healed the torn child bit-identically ==")
    return resumed[0].run_dir


def wait_for_ready(process: subprocess.Popen) -> int:
    """Read daemon stdout until the READY line; return the bound port."""
    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited before READY (rc={process.poll()})")
        sys.stdout.write(f"  [daemon] {line}")
        if line.startswith("REPRO-SERVE READY"):
            fields = dict(
                part.split("=", 1) for part in line.split() if "=" in part
            )
            return int(fields["port"])
    raise RuntimeError("timed out waiting for REPRO-SERVE READY")


def query(conn_file, conn, payload: dict) -> dict:
    conn.sendall(json.dumps(payload).encode() + b"\n")
    return json.loads(conn_file.readline())


def flip_index_store_file(run_dir: Path) -> str:
    victim = sorted((run_dir / "index" / "store").glob("*.npy"))[0]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))
    return f"byte-flipped index/store/{victim.name}"


def delete_index_store_file(run_dir: Path) -> str:
    victim = sorted((run_dir / "index" / "store").glob("*.npy"))[0]
    victim.unlink()
    return f"deleted index/store/{victim.name}"


def degraded_serving_round_trip(run_dir: Path, damage) -> None:
    """Damage the index; the daemon must degrade, not die or lie."""
    from repro.pipeline.runner import serve_run
    from repro.serving.server import k_bucket

    print(f"== chaos smoke: {damage(run_dir)} ==")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(run_dir),
         "--port", "0", "--index", "auto"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        port = wait_for_ready(process)
        exact = serve_run(str(run_dir), index=None)
        with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
            reader = conn.makefile("r", encoding="utf-8")

            health = query(reader, conn, {"id": 1, "op": "health"})
            assert health["ok"], health
            assert health["health"]["status"] == "degraded", health
            assert health["health"]["index_attached"] is False, health
            print("== chaos smoke: daemon reports degraded health ==")

            for head in (0, 11, 42):
                served = query(
                    reader, conn,
                    {"id": head, "op": "top_k", "side": "tail", "head": head,
                     "relation": 1, "k": 5, "filtered": True},
                )
                assert served["ok"], served
                assert served["degraded"] is True, served
                expected = exact.top_k(
                    [head], [1], side="tail", k=k_bucket(5), filtered=True
                )
                assert served["ids"] == [int(i) for i in expected.ids[0, :5]], (
                    f"degraded wire ids {served['ids']} != exact "
                    f"{expected.ids[0, :5]}"
                )
            print("== chaos smoke: degraded answers match exact predictor ==")

            stats = query(reader, conn, {"id": 9, "op": "stats"})
            assert stats["stats"]["degraded"] is True, stats
            assert stats["stats"]["degraded_served"] >= 3, stats

            closing = query(reader, conn, {"id": 10, "op": "shutdown"})
            assert closing["ok"] and closing["closing"], closing
        rc = process.wait(timeout=30)
        assert rc == 0, f"daemon exited with rc={rc}"
        print("== chaos smoke: clean shutdown ==")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def interrupt_target(run_root: str, workers: int) -> None:
    """Body of the sweep process that :func:`interrupt_running_sweep` stops."""
    # A shell that starts a job in the background ignores SIGINT for it;
    # restore Python's Ctrl-C handling, which the pool workers inherit.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from dataclasses import replace

    from repro.pipeline.config import IndexSection, TrainingSection
    from repro.pipeline.sweep import sweep

    # Long enough a child that the signal lands while one is running.
    config = replace(
        tiny_config(),
        training=TrainingSection(epochs=200, batch_size=256),
        index=IndexSection(),
    )
    sweep(config, INTERRUPT_GRID, run_root=run_root, workers=workers)


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def interrupt_running_sweep(root: Path, workers: int) -> None:
    """Ctrl-C a running sweep: it must stop at once and record no failure."""
    run_root = root / f"interrupt-workers{workers}"
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "interrupt-target",
         str(run_root), str(workers)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while not any(run_root.glob("*/status.json")):
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"sweep ended or stalled before its first child completed "
                    f"(rc={process.poll()}):\n{process.stdout.read()}"
                )
            time.sleep(0.02)
        os.killpg(process.pid, signal.SIGINT)
        sent = time.monotonic()
        output, _ = process.communicate(timeout=INTERRUPT_EXIT_SECONDS)
        elapsed = time.monotonic() - sent
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert "KeyboardInterrupt" in output and process.returncode != 0, (
        f"workers={workers}: the sweep did not stop on Ctrl-C "
        f"(rc={process.returncode}):\n{output}"
    )
    statuses = [
        json.loads(path.read_text())["status"]
        for path in sorted(run_root.glob("*/status.json"))
    ]
    assert "failed" not in statuses, f"workers={workers}: Ctrl-C recorded {statuses}"
    assert len(statuses) < len(INTERRUPT_GRID["training.learning_rate"]), (
        f"workers={workers}: every child completed; the sweep ignored Ctrl-C"
    )
    settle = time.monotonic() + 2.0
    while group_alive(process.pid) and time.monotonic() < settle:
        time.sleep(0.05)
    if group_alive(process.pid):
        os.killpg(process.pid, signal.SIGKILL)
        raise AssertionError(f"workers={workers}: a worker outlived Ctrl-C")
    print(
        f"== chaos smoke: Ctrl-C stopped a workers={workers} sweep in "
        f"{elapsed:.2f} s; children completed: {len(statuses)} of "
        f"{len(INTERRUPT_GRID['training.learning_rate'])} =="
    )


def main() -> int:
    if sys.argv[1:2] == ["interrupt-target"]:
        interrupt_target(sys.argv[2], int(sys.argv[3]))
        return 0
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        root = Path(tmp)
        print("== chaos smoke: sweeping tiny grid ==")
        healed_run = truncate_then_resume(root)
        for damage in (flip_index_store_file, delete_index_store_file):
            run_dir = root / damage.__name__
            shutil.copytree(healed_run, run_dir)
            degraded_serving_round_trip(run_dir, damage)
        for workers in (0, 1):
            interrupt_running_sweep(root, workers)
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
