"""Crash-safe artifact writes: tempfile + fsync + ``os.replace``.

Every durable artifact in the repository (run-dir JSON, checkpoints,
persisted indexes, sweep status files) goes through
:func:`atomic_write_bytes`: the payload is written to a uniquely-named
sibling tempfile, flushed and fsynced, then atomically renamed over the
destination.  A crash at any point leaves either the old complete file
or the new complete file — never a torn one.  (Stray ``.tmp-*``
siblings from a crash mid-write are harmless and overwritten-or-ignored
by the next successful write; loaders never look at them.)

The write hook doubles as the fault-injection point for artifact chaos:
the payload is filtered through the active
:class:`~repro.reliability.faults.FaultInjector` at site ``io.write``
(``truncate``/``byteflip`` corrupt it — simulating the torn writes this
module exists to prevent, so manifest verification stays testable) and
the site is fired before the replace (an ``exception`` fault aborts the
write with the previous content intact, which is exactly the crash-
safety contract under test).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.reliability import faults

#: Injection site consulted on every atomic write.
WRITE_SITE = "io.write"


def atomic_write_bytes(
    path: str | Path, data: bytes, fsync: bool = True
) -> Path:
    """Write *data* to *path* atomically; returns the path.

    The temp file lives in the destination's directory so the final
    ``os.replace`` stays on one filesystem (rename atomicity).  With
    ``fsync`` (default) the payload is forced to disk before the rename,
    so a machine crash cannot replace a good file with an empty one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = faults.filter_bytes(WRITE_SITE, data, context=str(path))
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".tmp-{path.name}-"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        faults.fire(WRITE_SITE, context=str(path))
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8", fsync: bool = True
) -> Path:
    """Text flavour of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: str | Path,
    payload,
    *,
    indent: int = 2,
    sort_keys: bool = False,
    fsync: bool = True,
) -> Path:
    """Serialize *payload* as JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, fsync=fsync)

