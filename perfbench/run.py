"""Single entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``serve-exact``, ``serve-ivfpq-ingest``, ``train-eval`` (see
``perfbench/README.md``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
Provenance (commit, host, library versions, seed, thread pinning) goes
to stderr and to ``.bench_work/last_run.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, log, pin_threads, provenance  # noqa: E402

WORKLOADS = ("serve-exact", "serve-ivfpq-ingest", "train-eval")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no repro package under {SRC}; run from a checkout of the repository")
        return 2
    # A termination request unwinds normally, so the daemon a workload
    # started is shut down by its ``finally`` block, not orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401 — imported after pinning so BLAS starts single-threaded

    import workloads

    info = provenance(args.workload, args.seed, bool(args.trace))
    log("provenance " + json.dumps(info, sort_keys=True))
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    runner = {
        "serve-exact": workloads.serve_exact,
        "serve-ivfpq-ingest": workloads.serve_ivfpq_ingest,
        "train-eval": workloads.train_eval,
    }[args.workload]
    result = runner(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    (WORK / "last_run.json").write_text(
        json.dumps({"provenance": info, **result.report}, indent=2, default=str)
    )
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
