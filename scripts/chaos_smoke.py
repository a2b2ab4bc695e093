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
3. the same with one index store file deleted instead of flipped.

Exit code 0 means every step passed.  Stdlib only — no test framework —
so it can run anywhere the library runs.
"""

from __future__ import annotations

import json
import os
import shutil
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        root = Path(tmp)
        print("== chaos smoke: sweeping tiny grid ==")
        healed_run = truncate_then_resume(root)
        for damage in (flip_index_store_file, delete_index_store_file):
            run_dir = root / damage.__name__
            shutil.copytree(healed_run, run_dir)
            degraded_serving_round_trip(run_dir, damage)
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
