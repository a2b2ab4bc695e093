"""Declarative run configuration: the ``RunConfig`` dataclass tree.

A :class:`RunConfig` fully describes one experiment — dataset, model,
training hyperparameters, and evaluation protocol — as plain data.  It
serializes to/from JSON (``to_json``/``from_json``/``save``/``load``),
validates every field eagerly with field-named
:class:`~repro.errors.ConfigError` messages, and resolves component
names (model, optimizer, negative sampler, dataset generator) against
the pipeline registries, so a config referencing an unknown component
fails at construction time, not mid-run.

Seeding convention (matching the paper-table harness): the run-level
``seed`` drives training (shuffling + negative sampling); model
initialization uses ``seed + 1000 + model.seed_offset`` unless
``model.init_seed`` pins it explicitly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.serialization import DOWNCAST_DTYPES
from repro.errors import ConfigError
from repro.kg.graph import KGDataset
from repro.pipeline.components import DATASET_GENERATORS, MODELS, OMEGA_PRESETS
from repro.training.trainer import TrainingConfig

_EVAL_SPLITS = ("test", "valid")


def _check_keys(data: Mapping[str, Any], cls: type, context: str) -> None:
    """Reject keys that are not fields of *cls*, naming them."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{context} must be a mapping, got {type(data).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {context} field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _section_from_dict(cls, data: Mapping[str, Any], context: str):
    _check_keys(data, cls, context)
    return cls(**dict(data))


def _drop_retired(section: Any, key: str) -> Any:
    """*section* without the retired field *key*; non-mappings pass through."""
    if not isinstance(section, Mapping):
        return section
    return {name: value for name, value in section.items() if name != key}


@dataclass(frozen=True)
class DatasetSection:
    """Which dataset to build, and how.

    ``generator`` names an entry of the ``DATASET_GENERATORS`` registry;
    ``params`` is passed to it verbatim (e.g. ``num_entities``/``seed``
    for the synthetic generators, ``path`` for ``directory``).
    """

    generator: str = "synthetic_wn18"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.generator not in DATASET_GENERATORS:
            raise ConfigError(
                f"dataset.generator must be one of {DATASET_GENERATORS.names()}, "
                f"got {self.generator!r}"
            )
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"dataset.params must be a mapping, got {type(self.params).__name__}"
            )
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> KGDataset:
        """Construct the dataset (deterministic for the synthetic generators)."""
        return DATASET_GENERATORS.get(self.generator)(dict(self.params))


def _split_model_name(name: str) -> tuple[str, bool]:
    """``("cph", False)`` for registry names, ``("cph", True)`` for ``omega:cph``.

    The ``omega:`` prefix forces ω-preset resolution, reaching presets
    whose key a model factory shadows (``omega:distmult`` is the Table 1
    two-embedding derivation; plain ``distmult`` is the §5.3
    one-embedding factory).
    """
    if isinstance(name, str) and name.lower().startswith("omega:"):
        return name[len("omega:"):], True
    return name, False


@dataclass(frozen=True)
class ModelSection:
    """Which model to build, and how.

    ``name`` is resolved first against the model-factory registry
    (``distmult``, ``complex``, …, ``learned``), then against the ω
    preset registry — so Table 1/2 weight vectors are directly
    addressable (``bad_example_1``, ``uniform``, ``distmult_n1``…).
    Prefix the name with ``omega:`` to force preset resolution when a
    factory shadows the preset key (e.g. ``omega:distmult``).
    ``options`` forwards extra factory keywords (``transform``/``sparse``
    for the learned model, ``use_compiled_kernel``, a ``loss`` name…).
    """

    name: str = "complex"
    total_dim: int = 64
    regularization: float = 3e-3
    seed_offset: int = 0
    init_seed: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        name, is_preset = _split_model_name(self.name)
        known = (name in OMEGA_PRESETS) if is_preset else (
            name in MODELS or name in OMEGA_PRESETS
        )
        if not known:
            raise ConfigError(
                f"model.name must be a registered model {MODELS.names()} "
                f"or ω preset {OMEGA_PRESETS.names()} (optionally 'omega:'-"
                f"prefixed), got {self.name!r}"
            )
        if self.total_dim < 1:
            raise ConfigError(f"model.total_dim must be >= 1, got {self.total_dim}")
        if self.regularization < 0:
            raise ConfigError(
                f"model.regularization must be >= 0, got {self.regularization}"
            )
        if not isinstance(self.options, Mapping):
            raise ConfigError(
                f"model.options must be a mapping, got {type(self.options).__name__}"
            )
        object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class TrainingSection:
    """Training hyperparameters (mirrors :class:`TrainingConfig` sans seed)."""

    epochs: int = 200
    batch_size: int = 1024
    learning_rate: float = 0.02
    optimizer: str = "adam"
    num_negatives: int = 1
    negative_sampler: str = "uniform"
    validate_every: int = 50
    patience: int = 100
    verbose: bool = False

    def __post_init__(self) -> None:
        # TrainingConfig.__post_init__ carries the authoritative range and
        # registry checks; constructing one validates every field here.
        self.training_config(seed=0)

    def training_config(self, seed: int, verbose: bool | None = None) -> TrainingConfig:
        """The :class:`TrainingConfig` for one run with the given seed."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer=self.optimizer,
            num_negatives=self.num_negatives,
            negative_sampler=self.negative_sampler,
            validate_every=self.validate_every,
            patience=self.patience,
            seed=seed,
            verbose=self.verbose if verbose is None else verbose,
        )


@dataclass(frozen=True)
class EvalSection:
    """Evaluation protocol for the run."""

    split: str = "test"
    evaluate_train: bool = False
    train_eval_triples: int = 1000
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.split not in _EVAL_SPLITS:
            raise ConfigError(
                f"evaluation.split must be one of {list(_EVAL_SPLITS)}, got {self.split!r}"
            )
        if self.train_eval_triples < 1:
            raise ConfigError(
                f"evaluation.train_eval_triples must be >= 1, got {self.train_eval_triples}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(
                f"evaluation.batch_size must be >= 1 or null, got {self.batch_size}"
            )


_INDEX_KINDS = ("none", "ivf", "exact")
_STALE_POLICIES = ("rebuild", "error")


@dataclass(frozen=True)
class IndexSection:
    """Approximate-retrieval index settings for serving a run.

    ``kind="none"`` (default) serves exact full sweeps.  ``"ivf"``
    builds the k-means inverted file of :mod:`repro.index.ivf` (with
    ``nlist``/``nprobe`` defaulting from the entity count), ``"exact"``
    the brute-force oracle.  With a run directory the index is built
    after training and persisted next to the checkpoint, so
    ``serve_run``/the ``predict`` CLI can reload it without rebuilding.

    ``pq_m`` switches on the product-quantized coarse pass
    (:mod:`repro.index.pq`): probed unions are pruned to ``pq_refine``
    survivors by an ADC scan before the exact re-rank.  ``train_sample``
    bounds the k-means/codebook fitting cost at million-entity scale,
    and ``fold_cache`` sizes the folded-matrix LRU the builds stream
    through.
    """

    kind: str = "none"
    nlist: int | None = None
    nprobe: int | None = None
    seed: int = 0
    iters: int = 10
    spill: int = 2
    pq_m: int | None = None
    pq_refine: int = 64
    train_sample: int | None = None
    fold_cache: int = 2
    on_stale: str = "rebuild"

    def __post_init__(self) -> None:
        if self.kind not in _INDEX_KINDS:
            raise ConfigError(
                f"index.kind must be one of {list(_INDEX_KINDS)}, got {self.kind!r}"
            )
        if self.nlist is not None and self.nlist < 1:
            raise ConfigError(f"index.nlist must be >= 1 or null, got {self.nlist}")
        if self.nprobe is not None and self.nprobe < 1:
            raise ConfigError(f"index.nprobe must be >= 1 or null, got {self.nprobe}")
        if (
            self.nlist is not None
            and self.nprobe is not None
            and self.nprobe > self.nlist
        ):
            # Catch the typo at config time, not after an hours-long
            # training run when the index finally builds.
            raise ConfigError(
                f"index.nprobe must be <= index.nlist, got {self.nprobe} > {self.nlist}"
            )
        if self.seed < 0:
            raise ConfigError(f"index.seed must be >= 0, got {self.seed}")
        if self.iters < 1:
            raise ConfigError(f"index.iters must be >= 1, got {self.iters}")
        if self.spill < 1:
            raise ConfigError(f"index.spill must be >= 1, got {self.spill}")
        if self.pq_m is not None and self.pq_m < 1:
            raise ConfigError(f"index.pq_m must be >= 1 or null, got {self.pq_m}")
        if self.pq_refine < 1:
            raise ConfigError(f"index.pq_refine must be >= 1, got {self.pq_refine}")
        if self.train_sample is not None and self.train_sample < 1:
            raise ConfigError(
                f"index.train_sample must be >= 1 or null, got {self.train_sample}"
            )
        if self.fold_cache < 1:
            raise ConfigError(f"index.fold_cache must be >= 1, got {self.fold_cache}")
        if self.on_stale not in _STALE_POLICIES:
            raise ConfigError(
                f"index.on_stale must be one of {list(_STALE_POLICIES)}, "
                f"got {self.on_stale!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this section selects any index at all."""
        return self.kind != "none"


@dataclass(frozen=True)
class StorageSection:
    """How the run directory stores its model checkpoint.

    The checkpoint is always a directory of plain ``.npy`` files
    (:mod:`repro.core.memstore`) that loading memory-maps read-only, so
    eval workers and the serving daemon share OS pages instead of
    private copies.  ``dtype`` optionally downcasts the embedding tables
    (``float32`` halves, ``float16`` quarters the footprint); the save
    refuses any downcast whose serving-path score deviation on seeded
    probe triples exceeds ``equivalence_tol`` (``null`` disables the
    gate — explicitly accepting lossy storage).

    A lossy ``dtype`` changes stored parameters and therefore
    re-evaluation results, which is why it is opt-in and gated.
    """

    dtype: str = "float64"
    equivalence_tol: float | None = 1e-6

    def __post_init__(self) -> None:
        if self.dtype not in DOWNCAST_DTYPES:
            raise ConfigError(
                f"storage.dtype must be one of {list(DOWNCAST_DTYPES)}, "
                f"got {self.dtype!r}"
            )
        if self.equivalence_tol is not None and not self.equivalence_tol > 0:
            raise ConfigError(
                f"storage.equivalence_tol must be > 0 or null, "
                f"got {self.equivalence_tol}"
            )


@dataclass(frozen=True)
class ParallelSection:
    """Parallel-execution settings for the run's evaluation phase.

    ``eval_shards`` splits each side's eval triples into that many
    batch-aligned blocks; ``eval_workers`` scores the blocks in that
    many worker processes (``0`` = in-process).  Both go straight to the
    run's one :class:`~repro.eval.evaluator.LinkPredictionEvaluator`,
    which validation and final evaluation share.  They change
    wall-clock time, never results: every block runs exactly the chunk
    sweeps of the unsharded evaluation, so metrics are bit-identical by
    construction.  ``evaluation.batch_size`` is the setting that bounds
    memory.
    """

    eval_shards: int = 1
    eval_workers: int = 0

    def __post_init__(self) -> None:
        if self.eval_shards < 1:
            raise ConfigError(
                f"parallel.eval_shards must be >= 1, got {self.eval_shards}"
            )
        if self.eval_workers < 0:
            raise ConfigError(
                f"parallel.eval_workers must be >= 0, got {self.eval_workers}"
            )


_SERVING_INDEX_MODES = ("none", "auto", "require")


@dataclass(frozen=True)
class ServingSection:
    """Serving-daemon settings for a run (the ``serve`` CLI command).

    Knobs of the micro-batching loop in :mod:`repro.serving.server`:
    the batcher takes up to ``max_batch`` queued requests the moment the
    previous batch is scored (it never waits for a batch to fill), and
    requests beyond ``queue_depth`` fast-fail with a retry-after hint
    instead of queueing unboundedly.
    ``index`` selects how the daemon attaches the run's retrieval index
    (``"auto"`` uses a persisted one when present, ``"require"`` builds
    one if missing, ``"none"`` serves exact sweeps); stale persisted
    indexes are always *refused* at swap time, never rebuilt on the
    request path.  ``port=0`` binds an ephemeral port.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    queue_depth: int = 1024
    default_k: int = 10
    index: str = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigError(f"serving.host must be a nonempty string, got {self.host!r}")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"serving.port must be in [0, 65535], got {self.port}")
        if self.max_batch < 1:
            raise ConfigError(f"serving.max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"serving.queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.default_k < 1:
            raise ConfigError(f"serving.default_k must be >= 1, got {self.default_k}")
        if self.index not in _SERVING_INDEX_MODES:
            raise ConfigError(
                f"serving.index must be one of {list(_SERVING_INDEX_MODES)}, "
                f"got {self.index!r}"
            )

    @property
    def index_mode(self) -> str | None:
        """The ``serve_run``/daemon index argument (None for ``"none"``)."""
        return None if self.index == "none" else self.index


@dataclass(frozen=True)
class IngestSection:
    """Incremental-ingestion settings (the ``ingest`` CLI command and the
    serving daemon's ``apply_delta`` op).

    Field-for-field these mirror the keyword knobs of
    :func:`repro.ingest.ingest_delta`, so ``dataclasses.asdict`` of this
    section splats straight into it.  ``epochs`` is the warm-start
    fine-tuning budget per delta (``0`` grows tables without training);
    ``drift_threshold`` is the fraction of re-assigned dirty entities
    past which incremental IVF maintenance gives up and triggers a full
    rebuild; ``grow_initializer`` names how fresh embedding rows are
    drawn (:mod:`repro.nn.initializers`).
    """

    epochs: int = 2
    batch_size: int = 256
    learning_rate: float = 0.01
    optimizer: str = "adam"
    num_negatives: int = 1
    seed: int = 0
    drift_threshold: float = 0.5
    grow_initializer: str = "unit_normalized"

    def __post_init__(self) -> None:
        from repro.nn.initializers import INITIALIZERS
        from repro.nn.optimizers import OPTIMIZERS

        if self.epochs < 0:
            raise ConfigError(f"ingest.epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"ingest.batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(
                f"ingest.learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"ingest.optimizer must be one of {OPTIMIZERS.names()}, "
                f"got {self.optimizer!r}"
            )
        if self.num_negatives < 1:
            raise ConfigError(
                f"ingest.num_negatives must be >= 1, got {self.num_negatives}"
            )
        if self.seed < 0:
            raise ConfigError(f"ingest.seed must be >= 0, got {self.seed}")
        if not 0 < self.drift_threshold <= 1:
            raise ConfigError(
                f"ingest.drift_threshold must be in (0, 1], "
                f"got {self.drift_threshold}"
            )
        if self.grow_initializer not in INITIALIZERS:
            raise ConfigError(
                f"ingest.grow_initializer must be one of {sorted(INITIALIZERS)}, "
                f"got {self.grow_initializer!r}"
            )

    def ingest_kwargs(self) -> dict:
        """The keyword arguments for :func:`repro.ingest.ingest_delta`."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ObservabilitySection:
    """Telemetry settings (:mod:`repro.obs`).

    ``enabled`` turns on per-run telemetry in the pipeline runner: a
    metrics registry and tracer are installed for the run's duration
    and the span stream lands in ``<run_dir>/telemetry.jsonl`` (never
    listed in ``manifest.json`` — telemetry must not change what a run
    hashes to).  Telemetry can equally be enabled *ambiently* with
    :class:`repro.obs.telemetry_scope`, which leaves the config — and
    therefore every artifact byte — untouched.  ``slow_query_ms`` is
    the serving daemon's slow-query threshold (micro-batch groups whose
    per-request service time exceeds it are logged and ring-buffered);
    ``ring_size`` bounds the in-memory span ring.
    """

    enabled: bool = False
    slow_query_ms: float = 250.0
    ring_size: int = 4096

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigError(
                f"observability.enabled must be a bool, got {self.enabled!r}"
            )
        if not self.slow_query_ms > 0:
            raise ConfigError(
                f"observability.slow_query_ms must be > 0, got {self.slow_query_ms}"
            )
        if self.ring_size < 1:
            raise ConfigError(
                f"observability.ring_size must be >= 1, got {self.ring_size}"
            )


@dataclass(frozen=True)
class RunConfig:
    """A complete, serializable description of one training/eval run."""

    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    evaluation: EvalSection = field(default_factory=EvalSection)
    parallel: ParallelSection = field(default_factory=ParallelSection)
    index: IndexSection = field(default_factory=IndexSection)
    serving: ServingSection = field(default_factory=ServingSection)
    storage: StorageSection = field(default_factory=StorageSection)
    ingest: IngestSection = field(default_factory=IngestSection)
    observability: ObservabilitySection = field(default_factory=ObservabilitySection)
    seed: int = 0
    label: str | None = None

    def __post_init__(self) -> None:
        for name, cls in (
            ("dataset", DatasetSection),
            ("model", ModelSection),
            ("training", TrainingSection),
            ("evaluation", EvalSection),
            ("parallel", ParallelSection),
            ("index", IndexSection),
            ("serving", ServingSection),
            ("storage", StorageSection),
            ("ingest", IngestSection),
            ("observability", ObservabilitySection),
        ):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"RunConfig.{name} must be a {cls.__name__}")

    @property
    def model_init_seed(self) -> int:
        """Seed of the model-initialization RNG stream."""
        if self.model.init_seed is not None:
            return self.model.init_seed
        return self.seed + 1000 + self.model.seed_offset

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-data form (JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Build from plain data; unknown fields raise :class:`ConfigError`."""
        _check_keys(data, cls, "run config")
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"run config field 'seed' must be an integer, got {seed!r}")
        # Configs that set a retired switch still load: ``storage.memmap``
        # (one checkpoint layout is left), ``parallel.shard_axis`` (one
        # ranking algorithm is left) and ``serving.max_wait_ms`` (the
        # batcher no longer waits for stragglers).
        storage = _drop_retired(data.get("storage", {}), "memmap")
        parallel = _drop_retired(data.get("parallel", {}), "shard_axis")
        serving = _drop_retired(data.get("serving", {}), "max_wait_ms")
        return cls(
            dataset=_section_from_dict(
                DatasetSection, data.get("dataset", {}), "dataset"
            ),
            model=_section_from_dict(ModelSection, data.get("model", {}), "model"),
            training=_section_from_dict(
                TrainingSection, data.get("training", {}), "training"
            ),
            evaluation=_section_from_dict(
                EvalSection, data.get("evaluation", {}), "evaluation"
            ),
            parallel=_section_from_dict(ParallelSection, parallel, "parallel"),
            index=_section_from_dict(IndexSection, data.get("index", {}), "index"),
            serving=_section_from_dict(ServingSection, serving, "serving"),
            storage=_section_from_dict(
                StorageSection, storage, "storage"
            ),
            ingest=_section_from_dict(IngestSection, data.get("ingest", {}), "ingest"),
            observability=_section_from_dict(
                ObservabilitySection, data.get("observability", {}), "observability"
            ),
            seed=seed,
            label=data.get("label"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"run config is not valid JSON: {error}") from None
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        """Write the config as JSON to *path*, crash-safely (parent dirs created)."""
        from repro.reliability.atomic import atomic_write_text

        return atomic_write_text(Path(path), self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """Read a JSON config written by :meth:`save` (or by hand)."""
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"run config file does not exist: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))
