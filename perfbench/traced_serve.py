"""Start the serving daemon with the span recorder installed.

Usage: ``python perfbench/traced_serve.py <spans.json> serve <run_dir> ...``

Runs the unmodified ``repro`` CLI entry point in this process after
wrapping the layer functions (see ``spans.install_serving``).  Recording
starts disabled; SIGUSR1 turns it on in a new segment and SIGUSR2 off,
so one daemon can serve untraced and traced phases and each traced
phase is read on its own.  Segments are written to ``<spans.json>``
when the daemon shuts down.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

from spans import SpanRecorder, install_serving


def main() -> int:
    out = Path(sys.argv[1])
    recorder = SpanRecorder()
    install_serving(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.start_segment())
    signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", False))
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.enabled = False
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
