"""In-memory model checkpoints for shipping models to worker processes.

Worker processes never receive a live model object: they receive a
:class:`ModelPayload` — the same ``(meta, arrays)`` state that disk
checkpoints store (:mod:`repro.core.serialization`), minus the
filesystem.  Rebuilding from the payload restores the embedding tables
bit-for-bit, so a worker-side model scores bit-identically to the
parent's — the property pooled evaluation's exactness guarantee rests
on.

Store-backed models ship by reference: when a table is a whole-file
``.npy`` memory map (a loaded checkpoint or any other
:class:`~repro.core.memstore.MemStore` entry), the payload records its
``(path, dtype, shape)`` instead of copying the bytes, and the worker
re-maps the same file read-only.  Every worker then shares the parent's
OS page-cache pages — the pickled payload shrinks from the full table
bytes to a file name, which :func:`describe_shipping` makes observable
at dispatch time (``nbytes`` logical vs bytes actually shipped).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import KGEModel
from repro.core.interaction import MultiEmbeddingModel
from repro.core.memstore import mappable_source, open_mapped
from repro.core.serialization import model_from_state, model_state
from repro.errors import ModelError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModelPayload:
    """A picklable, framework-free snapshot of a multi-embedding model.

    ``arrays`` holds the tables shipped by value; ``mapped`` records the
    ``(path, dtype, shape)`` of tables shipped by reference to a
    memory-mapped ``.npy`` file the worker re-maps.
    """

    meta: dict
    arrays: dict[str, np.ndarray]
    mapped: dict[str, tuple[str, str, tuple[int, ...]]] = field(default_factory=dict)

    def nbytes(self) -> int:
        """Total logical array bytes the rebuilt model will reference."""
        copied = sum(array.nbytes for array in self.arrays.values())
        referenced = sum(
            np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64))
            for _, dtype, shape in self.mapped.values()
        )
        return int(copied + referenced)

    def shipped_nbytes(self) -> int:
        """Array bytes actually serialized per worker (by-value tables only)."""
        return int(sum(array.nbytes for array in self.arrays.values()))


def describe_shipping(payload: ModelPayload) -> str:
    """One-line dispatch summary: logical size vs bytes actually shipped."""
    return (
        f"model payload: {payload.nbytes()} array bytes logical, "
        f"{payload.shipped_nbytes()} shipped by value, "
        f"{len(payload.mapped)} table(s) shipped as memmap paths"
    )


def model_to_payload(model: KGEModel) -> ModelPayload:
    """Snapshot *model* for transport to worker processes.

    In-memory arrays are copied so later in-place training in the parent
    cannot race the payload (fork shares pages; spawn pickles — either
    way the payload must be frozen at snapshot time).  Whole-file
    ``.npy`` memory maps are *not* copied: the file itself is the frozen
    snapshot (checkpoint stores are immutable-by-replacement), so only
    the path travels and every worker maps the same pages.
    """
    if not isinstance(model, MultiEmbeddingModel):
        raise ModelError(
            "parallel workers rebuild models from checkpoint state, which only "
            f"multi-embedding models support; got {type(model).__name__}. "
            "Use workers=0 to evaluate other model classes in process."
        )
    meta, arrays = model_state(model)
    copied: dict[str, np.ndarray] = {}
    mapped: dict[str, tuple[str, str, tuple[int, ...]]] = {}
    for name, array in arrays.items():
        source = mappable_source(array)
        if source is not None:
            mapped[name] = source
        else:
            copied[name] = np.array(array)
    payload = ModelPayload(meta=meta, arrays=copied, mapped=mapped)
    if mapped:
        logger.info("%s", describe_shipping(payload))
    return payload


def model_from_payload(payload: ModelPayload) -> MultiEmbeddingModel:
    """Rebuild the model inside a worker; scores bit-identical to the source.

    By-reference tables are re-mapped read-only from their recorded
    paths (layout-checked against the recorded dtype/shape, so a store
    replaced mid-flight fails loudly instead of scoring garbage).
    """
    arrays = dict(payload.arrays)
    for name, (path, dtype, shape) in payload.mapped.items():
        arrays[name] = open_mapped(path, dtype=dtype, shape=shape)
    return model_from_state(payload.meta, arrays)
