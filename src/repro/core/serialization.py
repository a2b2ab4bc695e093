"""Saving and loading trained multi-embedding models.

A checkpoint is a directory holding ``meta.json`` and a ``store/``
subdirectory of plain ``.npy`` files
(:class:`~repro.core.memstore.MemStore`) that :func:`load_model` maps
read-only, so every process serving the same checkpoint shares OS
page-cache pages instead of holding a private float64 copy each.
Checkpoints written before the store became the only layout keep one
``weights.npz`` instead; :func:`load_model` still reads them, and
re-saving over such a directory converts it.

The embedding tables may be downcast (``dtype="float32"`` /
``"float16"``); the downcast is gated by :func:`score_equivalence_gap`,
which measures the worst relative score deviation the parameter
rounding introduces on a seeded probe batch and refuses to write a
checkpoint whose gap exceeds ``equivalence_tol`` (default ``1e-6`` —
float32 passes comfortably, float16 needs an explicit looser tolerance).
Scoring promotes mixed-dtype einsum operands to float64, so serving a
downcast checkpoint computes in float64 arithmetic over the rounded
parameters — exactly what the gate measures.

The format is deliberately framework-free so checkpoints written here
can be consumed by any numpy-reading tool.

The directory format is a thin shell around two in-memory halves,
:func:`model_state` and :func:`model_from_state`, which are also what
the parallel execution engine pickles to rebuild models inside worker
processes (:mod:`repro.parallel.payload`) — one serialization contract,
two transports.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.interaction import MultiEmbeddingModel
from repro.core.learned import LearnedWeightModel
from repro.core.memstore import MemStore
from repro.core.weights import WeightVector
from repro.errors import CorruptArtifactError, ModelError
from repro.reliability.atomic import atomic_write_text
from repro.reliability.manifest import sha256_bytes, sha256_file

_FORMAT_VERSION = 1

#: Subdirectory of a checkpoint holding the ``.npy`` store.
CHECKPOINT_STORE_DIR = "store"

#: The single-file payload of checkpoints written before the store.
LEGACY_WEIGHTS_FILE = "weights.npz"

#: dtypes a checkpoint may store its embedding tables in.
DOWNCAST_DTYPES = ("float64", "float32", "float16")

#: Default score-equivalence tolerance for downcast checkpoints.
DEFAULT_EQUIVALENCE_TOL = 1e-6

#: Array names the dtype policy applies to (ω stays float64: it is the
#: tiny interaction tensor the kernel compiles, not a per-entity table).
_DOWNCASTABLE = ("entity_embeddings", "relation_embeddings", "rho")


def model_state(model: MultiEmbeddingModel) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` pair fully describing *model*.

    ``meta`` is JSON-compatible plain data, ``arrays`` maps array names
    to the live embedding tables (no copies are taken — callers that
    need isolation from further training must copy, and pickling or
    writing a checkpoint both do).
    """
    if not isinstance(model, MultiEmbeddingModel):
        raise ModelError(
            f"only multi-embedding models are serializable, got {type(model).__name__}"
        )
    arrays = {
        "entity_embeddings": model.entity_embeddings,
        "relation_embeddings": model.relation_embeddings,
        "omega": np.asarray(model.omega),
    }
    meta = {
        "format_version": _FORMAT_VERSION,
        "model_class": type(model).__name__,
        "name": model.name,
        "num_entities": model.num_entities,
        "num_relations": model.num_relations,
        "dim": model.dim,
        "weight_name": model.weights.name,
        "weight_shape": list(model.weights.tensor.shape),
        "regularization": model.regularizer.strength,
        "unit_norm_entities": model.constraint is not None,
    }
    if isinstance(model, LearnedWeightModel):
        arrays["rho"] = model.rho
        meta["transform"] = model.transform.name
        meta["has_sparsity"] = model.sparsity is not None
        if model.sparsity is not None:
            meta["sparsity_alpha"] = model.sparsity.alpha
            meta["sparsity_strength"] = model.sparsity.strength
    return meta, arrays


def model_from_state(meta: dict, arrays: dict[str, np.ndarray]) -> MultiEmbeddingModel:
    """Rebuild a model from a :func:`model_state` pair.

    The returned model scores bit-identically to the source model: the
    embedding tables are adopted as-is and both score through the same
    compiled ω kernel.  The engine flag that checkpoints recorded while
    a second (dense-einsum) engine existed is ignored.  Optimizer state
    is not part of the contract (retraining restarts moments from zero).
    """
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ModelError(f"unsupported checkpoint version: {meta.get('format_version')}")

    # Tables are overwritten below, so skip the random init entirely
    # ("empty" allocates untouched pages): at million-entity scale the
    # discarded draw would cost seconds and a full-table transient.
    rng = np.random.default_rng(0)
    if meta["model_class"] == "LearnedWeightModel":
        from repro.nn.regularizers import DirichletSparsityRegularizer

        sparsity = None
        if meta.get("has_sparsity"):
            sparsity = DirichletSparsityRegularizer(
                alpha=meta["sparsity_alpha"], strength=meta["sparsity_strength"]
            )
        shape = meta["weight_shape"]
        model: MultiEmbeddingModel = LearnedWeightModel(
            meta["num_entities"],
            meta["num_relations"],
            meta["dim"],
            rng,
            num_entity_vectors=shape[0],
            num_relation_vectors=shape[2],
            transform=meta["transform"],
            sparsity=sparsity,
            regularization=meta["regularization"],
            initializer="empty",
        )
        model.rho = np.array(arrays["rho"])  # ρ must stay trainable/writable
        model.refresh_omega()
    elif meta["model_class"] == "MultiEmbeddingModel":
        weights = WeightVector(meta["weight_name"], arrays["omega"])
        model = MultiEmbeddingModel(
            meta["num_entities"],
            meta["num_relations"],
            meta["dim"],
            weights,
            rng,
            regularization=meta["regularization"],
            initializer="empty",
            unit_norm_entities=meta["unit_norm_entities"],
        )
    else:
        raise ModelError(f"unknown model class in checkpoint: {meta['model_class']}")

    model.entity_embeddings = arrays["entity_embeddings"]
    model.relation_embeddings = arrays["relation_embeddings"]
    model.name = meta["name"]
    return model


def _downcast_arrays(arrays: dict[str, np.ndarray], dtype: str) -> dict[str, np.ndarray]:
    """The checkpoint arrays with the big tables cast to *dtype* (ω untouched)."""
    return {
        name: (
            np.asarray(array).astype(dtype, copy=False)
            if name in _DOWNCASTABLE
            else np.asarray(array)
        )
        for name, array in arrays.items()
    }


def score_equivalence_gap(
    model: MultiEmbeddingModel, dtype: str, probes: int = 256, seed: int = 0
) -> float:
    """Worst relative score deviation a dtype downcast would introduce.

    A seeded probe batch of random triples is scored by *model* and by a
    rebuilt model whose embedding tables were rounded through *dtype*;
    the return value is ``max |Δscore| / max(1, max |score|)``.  Because
    mixed-dtype einsums promote to float64, the rebuilt model is exactly
    what serving the downcast checkpoint computes — so a gap under the
    save-time tolerance is a guarantee about served scores, not a proxy.
    """
    if dtype not in DOWNCAST_DTYPES:
        raise ModelError(f"dtype must be one of {list(DOWNCAST_DTYPES)}, got {dtype!r}")
    if probes < 1:
        raise ModelError(f"probes must be >= 1, got {probes}")
    if dtype == "float64":
        return 0.0
    meta, arrays = model_state(model)
    rounded = model_from_state(meta, _downcast_arrays(arrays, dtype))
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, model.num_entities, size=probes)
    tails = rng.integers(0, model.num_entities, size=probes)
    relations = rng.integers(0, model.num_relations, size=probes)
    base = np.asarray(model.score_triples(heads, tails, relations), dtype=np.float64)
    approx = np.asarray(rounded.score_triples(heads, tails, relations), dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(base))) if len(base) else 1.0)
    return float(np.max(np.abs(base - approx))) / scale


def save_model(
    model: MultiEmbeddingModel,
    directory: str | Path,
    *,
    dtype: str | None = None,
    equivalence_tol: float | None = DEFAULT_EQUIVALENCE_TOL,
    probes: int = 256,
) -> dict[str, str]:
    """Write *model* to *directory* (created if needed).

    The tables land in a ``store/`` of plain ``.npy`` files that
    :func:`load_model` memory-maps, so concurrent readers share pages; a
    ``weights.npz`` left by a checkpoint written before the store is
    removed.  ``dtype`` downcasts the embedding tables
    (``"float32"``/``"float16"``; ω always stays float64); the downcast
    is refused — :class:`ModelError` — when its measured
    :func:`score_equivalence_gap` exceeds ``equivalence_tol`` (pass
    ``equivalence_tol=None`` to skip the gate, e.g. for float16 where
    ~1e-3 gaps are expected and accepted).

    Everything is written crash-safely (tempfile + fsync + rename) and
    ``store.json`` records the sha256 of each payload, so a torn or
    bit-rotted table is *detected* at load time instead of surfacing as
    a numpy traceback (or, worse, silently wrong parameters).  Returns
    the ``{relative filename: sha256}`` mapping of everything written —
    run-dir manifests aggregate it.
    """
    meta, arrays = model_state(model)
    dtype = dtype or "float64"
    if dtype not in DOWNCAST_DTYPES:
        raise ModelError(f"dtype must be one of {list(DOWNCAST_DTYPES)}, got {dtype!r}")
    if dtype != "float64":
        gap = score_equivalence_gap(model, dtype, probes=probes)
        if equivalence_tol is not None and gap > equivalence_tol:
            raise ModelError(
                f"downcasting this checkpoint to {dtype} moves scores by a "
                f"relative {gap:.3e}, above the equivalence tolerance "
                f"{equivalence_tol:.1e}; keep float64, loosen equivalence_tol, "
                "or pass equivalence_tol=None to accept the loss explicitly"
            )
        arrays = _downcast_arrays(arrays, dtype)
        meta = {**meta, "dtype": dtype, "score_equivalence_gap": gap}
    else:
        meta = {**meta, "dtype": dtype}
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # begin/flush so rewriting an existing checkpoint commits the store
    # meta once, at the end — a torn rewrite leaves the previous
    # store.json (and usually the previous payloads) intact.
    store = MemStore.begin(directory / CHECKPOINT_STORE_DIR)
    for name, array in arrays.items():
        store.put(name, array, flush=False)
    store.flush()
    meta = {**meta, "storage": "memmap"}
    hashes = store.hashes(prefix=f"{CHECKPOINT_STORE_DIR}/")
    meta_payload = json.dumps(meta, indent=2)
    atomic_write_text(directory / "meta.json", meta_payload)
    hashes["meta.json"] = sha256_bytes(meta_payload.encode("utf-8"))
    (directory / LEGACY_WEIGHTS_FILE).unlink(missing_ok=True)
    return hashes


def read_legacy_npz(path: str | Path, sha256: str | None) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` artifact written before the ``.npy`` store.

    The one reader of the retired layout, shared by checkpoints
    (``weights.npz``) and indexes (``arrays.npz``).  *sha256* is the
    hash the artifact's meta recorded (``None`` for files older than
    the hash).  A missing file, a hash mismatch or an unparseable file
    raises :class:`~repro.errors.CorruptArtifactError` naming *path*.
    """
    path = Path(path)
    if not path.exists():
        raise CorruptArtifactError(
            f"arrays recorded in meta.json are missing: {path}", path=path
        )
    if sha256 is not None and sha256_file(path) != sha256:
        raise CorruptArtifactError(
            f"arrays failed their integrity check (sha256 mismatch against "
            f"meta.json): {path}",
            path=path,
        )
    try:
        with np.load(path, allow_pickle=False) as payload:
            return {name: payload[name] for name in payload.files}
    except Exception as error:  # zipfile.BadZipFile, ValueError, OSError
        raise CorruptArtifactError(
            f"arrays are unreadable ({error}): {path}", path=path
        ) from None


def load_model(directory: str | Path) -> MultiEmbeddingModel:
    """Rebuild a model saved by :func:`save_model`.

    The returned model scores identically to the saved one; optimizer
    state is not checkpointed (retraining restarts moments from zero).
    Tables come back as read-only mappings of the checkpoint store;
    the first training step swaps in private copies.  A legacy
    ``weights.npz`` checkpoint loads into private memory.  Torn/corrupt
    checkpoint files raise :class:`~repro.errors.CorruptArtifactError`
    naming the offending path.
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ModelError(f"not a model checkpoint directory: {directory}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArtifactError(
            f"checkpoint metadata is torn or corrupt ({error}): {meta_path}",
            path=meta_path,
        ) from None
    if meta.get("storage") == "memmap":
        source = directory / CHECKPOINT_STORE_DIR
        arrays = MemStore.open(source).get_all()
    else:
        source = directory / LEGACY_WEIGHTS_FILE
        arrays = read_legacy_npz(source, meta.get("weights_sha256"))
    try:
        return model_from_state(meta, arrays)
    except KeyError as error:
        raise CorruptArtifactError(
            f"checkpoint is missing array {error} promised by meta.json: {source}",
            path=source,
        ) from None
