"""Shared helpers: paths, thread pinning, provenance, statistics, RSS.

Everything the benchmark writes lives under ``<checkout>/.bench_work``
(per run) and ``<checkout>/.bench_state`` (kept between runs); nothing
is read or written outside the checkout it runs from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Every process the benchmark starts runs single-threaded BLAS, so the
#: client and the daemon together fit in the host's two cores.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Pin BLAS threads in this process (before numpy is imported)."""
    os.environ.update(PINNED_ENV)


def child_env() -> dict:
    """Environment for subprocesses: pinned threads, the checkout's ``src``."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def source_digest() -> str:
    """sha256 over every file under ``src/`` (path + bytes), sorted.

    Identifies the code under test when the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 — provenance is best effort
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "pinned_env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


# ------------------------------------------------------------------ stats
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default); NaN when empty."""
    if not len(values):
        return math.nan
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    return sum(values) / len(values) if len(values) else math.nan


# -------------------------------------------------------------------- rss
def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), MB."""
    path = Path(f"/proc/{pid or 'self'}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ----------------------------------------------------------------- output
def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric by name with its unit, then the result line."""
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
