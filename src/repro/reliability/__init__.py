"""repro.reliability — the fault-tolerance layer.

Production systems fail in boring, recurring ways: a worker process is
OOM-killed mid-shard, the machine dies halfway through a checkpoint
write, a disk flips a bit in a persisted index.  This package gives the
repository one shared vocabulary for surviving all three:

:mod:`repro.reliability.faults`
    Deterministic, seeded fault injection (:class:`FaultPlan` /
    :class:`FaultInjector`) with named sites threaded through the
    parallel pool, artifact IO and the serving daemon — chaos tests are
    ordinary reproducible tests.
:mod:`repro.reliability.atomic`
    Crash-safe writes (tempfile + fsync + ``os.replace``) used by every
    durable artifact: run dirs, checkpoints, indexes, sweep status.
:mod:`repro.reliability.manifest`
    Per-directory sha256 manifests so loaders *detect* torn or
    bit-rotted artifacts (:class:`~repro.errors.CorruptArtifactError`)
    instead of crashing on a raw decode error — and resume paths fall
    back to re-creating the artifact from the last good state.

The remaining pieces live where the failures happen: retry/backoff in
:func:`repro.parallel.pool.run_tasks`, and degraded-mode serving (exact
full-sweep fallback, ``degraded: true`` response tags, the ``health``
wire op) in :class:`repro.serving.server.PredictionServer`.
"""

from repro.reliability.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.reliability.faults import (
    FaultHit,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    fault_scope,
    install_fault_injector,
)
from repro.reliability.manifest import (
    MANIFEST_FILE,
    read_manifest,
    sha256_bytes,
    sha256_file,
    verify_artifact,
    verify_manifest,
    write_manifest,
)

__all__ = [
    "FaultHit",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MANIFEST_FILE",
    "active_injector",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fault_scope",
    "install_fault_injector",
    "read_manifest",
    "sha256_bytes",
    "sha256_file",
    "verify_artifact",
    "verify_manifest",
    "write_manifest",
]
