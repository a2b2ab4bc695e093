"""Shared contract of the approximate-retrieval subsystem.

A *candidate index* answers one narrow question for the serving layer:
given a batch of ``(anchor, relation)`` queries, which entity ids are
worth scoring exactly?  The :class:`~repro.serving.predictor.LinkPredictor`
then re-ranks that shortlist with true model scores, so an index never
changes *what* a score is — only *how many* candidates pay for one.

Contract highlights every implementation must honour:

* **Ascending rows** — each per-query candidate array is sorted by
  entity id, so the predictor's stable descending-score sort keeps the
  repository-wide lower-id tie rule.
* **Exhaustive means exact** — when a search would probe every
  partition cell, :class:`CandidateBatch.covers_all` is set and the
  predictor takes its ordinary full-sweep path, making the degenerate
  configuration (``nprobe == nlist``, or :class:`ExactIndex`)
  bit-identical to serving without an index by construction.
* **Versioned against training** — indexes remember the model's
  ``scoring_version`` at build time; :meth:`CandidateIndex.ensure_fresh`
  either rebuilds or raises :class:`~repro.errors.StaleIndexError`, so
  a resumed training run can never be silently served from a stale
  partition.  Persistence adds a content fingerprint for the same
  guarantee across process boundaries.
"""

from __future__ import annotations

import abc
import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.interaction import MultiEmbeddingModel
from repro.core.memstore import STORE_META_FILE, MemStore
from repro.core.serialization import read_legacy_npz
from repro.errors import CorruptArtifactError, ServingError, StaleIndexError
from repro.obs.registry import MetricsRegistry
from repro.reliability.atomic import atomic_write_json
from repro.reliability.manifest import sha256_file

#: Files that make up a saved index directory.
INDEX_META_FILE = "meta.json"
INDEX_STORE_DIR = "store"
#: The single-file payload of indexes saved before the store.
INDEX_ARRAYS_FILE = "arrays.npz"

_FORMAT_VERSION = 1

#: Valid staleness policies.
STALE_POLICIES = ("rebuild", "error")


def model_fingerprint(model) -> str:
    """Content hash of everything the model scores with.

    ``scoring_version`` is a per-process counter and restarts at zero on
    every checkpoint load, so persisted indexes are validated against
    the parameter *bytes* instead: embedding tables plus ω.
    """
    digest = hashlib.sha256()
    for array in (
        np.ascontiguousarray(model.entity_embeddings),
        np.ascontiguousarray(model.relation_embeddings),
        np.ascontiguousarray(model.omega),
    ):
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class CandidateBatch:
    """Shortlists produced by one :meth:`CandidateIndex.candidate_lists` call.

    ``ids`` is a padded ``(b, width)`` int64 matrix: row ``i`` holds
    query ``i``'s ascending shortlist in its first ``lengths[i]``
    columns, and ``width`` is the longest shortlist.  Pad columns repeat
    the row's last id (0 for an empty row), so every entry is a valid
    entity id and a column slice can be scored as it is.  Both are
    ``None`` when ``covers_all`` is set (every entity would be listed,
    so the caller should take its exact full-sweep path instead).
    ``num_scored`` counts the candidate ids the caller will score —
    the quantity the sub-linear claim is measured in.  ``num_scanned``
    counts ids the index itself examined with a cheap approximate pass
    (the PQ/ADC scan) before shortlisting; it is 0 for indexes that
    return the probed union unpruned.
    """

    ids: np.ndarray | None
    lengths: np.ndarray | None
    covers_all: bool
    num_scored: int
    num_scanned: int = 0

    @property
    def rows(self) -> list[np.ndarray] | None:
        """Each query's shortlist without its pad columns (views into ``ids``)."""
        if self.ids is None:
            return None
        return [row[:length] for row, length in zip(self.ids, self.lengths)]


@dataclass
class IndexBuildReport:
    """What an eager :meth:`CandidateIndex.build` call did."""

    partitions_built: int
    partitions_reused: int
    seconds: float
    sides: tuple[str, ...] = field(default_factory=tuple)


class CandidateIndex(abc.ABC):
    """Abstract candidate shortlist generator over one model's entities.

    :attr:`metrics` holds the counters of events the index owns (the
    IVF fold cache and PQ pruning); a serving deployment renders them
    with its predictor's.  Every kind reports fold-cache hits and misses,
    zero when it has no fold cache.
    """

    #: Registry/persistence discriminator; set by subclasses.
    kind: str = "base"

    def __init__(self, model: MultiEmbeddingModel, on_stale: str = "rebuild") -> None:
        if on_stale not in STALE_POLICIES:
            raise ServingError(
                f"on_stale must be one of {list(STALE_POLICIES)}, got {on_stale!r}"
            )
        self.model = model
        self.on_stale = on_stale
        self._version = model.scoring_version
        self.metrics = MetricsRegistry()
        for name in ("index.fold_cache.hits", "index.fold_cache.misses"):
            self.metrics.inc(name, 0)

    # ------------------------------------------------------------- interface
    @property
    def num_entities(self) -> int:
        return self.model.num_entities

    @property
    def built_version(self) -> int:
        """The model ``scoring_version`` the current index data matches."""
        return self._version

    @abc.abstractmethod
    def candidate_lists(
        self,
        anchors: np.ndarray,
        relations: np.ndarray,
        side: str,
    ) -> CandidateBatch:
        """Ascending candidate id shortlists for a query batch."""

    def build(
        self,
        relations=None,
        sides: tuple[str, ...] = ("tail", "head"),
        workers: int | None = None,
    ) -> IndexBuildReport:
        """Eagerly materialise any precomputed data (no-op by default).

        Index kinds with nothing to precompute (:class:`ExactIndex`)
        inherit this, so pipeline code can always build-then-save an
        index regardless of its kind.
        """
        return IndexBuildReport(
            partitions_built=0, partitions_reused=0, seconds=0.0, sides=tuple(sides)
        )

    @abc.abstractmethod
    def invalidate(self) -> None:
        """Drop any precomputed data and resync to the model's current version."""

    def bound_to(self, model: MultiEmbeddingModel) -> "CandidateIndex":
        """A twin over *model*, a copy that scores like :attr:`model`.

        It shares this index's data and registry and is exactly as fresh;
        its upkeep replaces what it holds, never writing into this index.
        """
        twin = copy.copy(self)
        twin.model = model
        lag = self.model.scoring_version - self._version
        twin._version = model.scoring_version - lag
        return twin

    def ensure_fresh(self) -> bool:
        """Reconcile the index with the model's current parameter version.

        Returns True when stale data was discarded (``on_stale="rebuild"``,
        the default); raises :class:`StaleIndexError` under
        ``on_stale="error"``.  Fresh indexes are a no-op.
        """
        if self.model.scoring_version == self._version:
            return False
        if self.on_stale == "error":
            raise StaleIndexError(
                f"{self.kind} index was built at model version {self._version} "
                f"but the model is now at {self.model.scoring_version}; rebuild "
                "the index or construct it with on_stale='rebuild'"
            )
        self.invalidate()
        return True

    # ----------------------------------------------------------- persistence
    def _meta(self) -> dict:
        """Subclass hook: extra JSON-compatible metadata to persist."""
        return {}

    def _arrays(self) -> dict[str, np.ndarray]:
        """Subclass hook: arrays to persist."""
        return {}

    def save(self, directory: str | Path) -> Path:
        """Write the index next to a checkpoint; returns the directory.

        The arrays go to a :class:`~repro.core.memstore.MemStore` of
        plain ``.npy`` files, so loading maps the partition tables
        (centroids, member lists, PQ codes) read-only and every process
        serving the run shares the pages.  An ``arrays.npz`` left by an
        index saved before the store is removed.

        Crash-safe: all files go through atomic writes, and the meta
        records the sha256 of the store meta — which in turn records
        per-file hashes — so a torn or bit-flipped artifact raises
        :class:`~repro.errors.CorruptArtifactError` at load time (the
        serving layer then degrades to exact sweeps instead of serving
        from a silently damaged partition table).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "format_version": _FORMAT_VERSION,
            "kind": self.kind,
            "num_entities": self.num_entities,
            "fingerprint": model_fingerprint(self.model),
            "storage": "memmap",
            **self._meta(),
        }
        arrays = self._arrays()
        if arrays:
            # begin/flush: the store meta commits once, after every
            # payload landed, so a torn rewrite never half-replaces it.
            store = MemStore.begin(directory / INDEX_STORE_DIR, extra={"kind": self.kind})
            for name, array in arrays.items():
                store.put(name, array, flush=False)
            store.flush()
            meta["store_sha256"] = sha256_file(
                directory / INDEX_STORE_DIR / STORE_META_FILE
            )
        atomic_write_json(directory / INDEX_META_FILE, meta, sort_keys=True)
        (directory / INDEX_ARRAYS_FILE).unlink(missing_ok=True)
        return directory


def read_index_meta(directory: str | Path) -> dict:
    """The ``meta.json`` of a saved index directory.

    A meta file that exists but cannot be parsed raises
    :class:`~repro.errors.CorruptArtifactError` (torn write / bit rot),
    not a raw ``JSONDecodeError``.
    """
    directory = Path(directory)
    meta_path = directory / INDEX_META_FILE
    if not meta_path.exists():
        raise ServingError(f"not an index directory (no {INDEX_META_FILE}): {directory}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArtifactError(
            f"index metadata is torn or corrupt ({error}): {meta_path}", path=meta_path
        ) from None
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ServingError(
            f"unsupported index format version: {meta.get('format_version')}"
        )
    return meta


def read_index_arrays(directory: str | Path, meta: dict) -> dict[str, np.ndarray]:
    """Every persisted array of a saved index.

    Opens the index's array store and returns read-only mappings,
    verified against the sha256 chain rooted in ``meta.json``; an index
    saved before the store is read from its ``arrays.npz`` instead.
    Either way damage surfaces as a typed
    :class:`~repro.errors.ArtifactError`.
    """
    directory = Path(directory)
    if meta.get("storage") != "memmap":
        return read_legacy_npz(directory / INDEX_ARRAYS_FILE, meta.get("arrays_sha256"))
    store_dir = directory / INDEX_STORE_DIR
    store = MemStore.open(store_dir)
    expected = meta.get("store_sha256")
    if expected is not None and sha256_file(store_dir / STORE_META_FILE) != expected:
        raise CorruptArtifactError(
            "index array store meta failed its integrity check (sha256 "
            f"mismatch against {INDEX_META_FILE}): {store_dir / STORE_META_FILE}",
            path=store_dir / STORE_META_FILE,
        )
    return store.get_all()


def check_loaded_meta(meta: dict, model, on_stale: str) -> bool:
    """Validate a saved index's meta against *model*.

    Returns True when the persisted data is usable as-is; False when it
    is stale but the policy allows rebuilding.  Mismatched id spaces are
    always an error (that is the wrong model, not a stale one).
    """
    if meta.get("num_entities") != model.num_entities:
        raise ServingError(
            f"index was built over {meta.get('num_entities')} entities but the "
            f"model has {model.num_entities}; this index belongs to a different model"
        )
    if meta.get("fingerprint") == model_fingerprint(model):
        return True
    if on_stale == "error":
        raise StaleIndexError(
            "saved index fingerprint does not match the model's parameters "
            "(the model trained after the index was built); rebuild the index "
            "or load with on_stale='rebuild'"
        )
    return False


def load_index(directory: str | Path, model, on_stale: str = "rebuild"):
    """Load any saved index, dispatching on its persisted ``kind``.

    Stale indexes (fingerprint mismatch) come back empty under the
    ``"rebuild"`` policy — partitions are rebuilt lazily on first use —
    and raise :class:`StaleIndexError` under ``"error"``.
    """
    meta = read_index_meta(directory)
    kind = meta.get("kind")
    if kind == "ivf":
        from repro.index.ivf import IVFIndex

        return IVFIndex.load(directory, model, on_stale=on_stale)
    if kind == "exact":
        from repro.index.exact import ExactIndex

        return ExactIndex.load(directory, model, on_stale=on_stale)
    raise ServingError(f"unknown index kind in {directory}: {kind!r}")
