"""The pipeline driver: config in, trained/evaluated run (+ artifacts) out.

:func:`run_pipeline` is the single orchestration path used by the CLI,
the paper tables, and the benchmarks: build the dataset and model from a
:class:`~repro.pipeline.config.RunConfig`, train, evaluate, and — when a
run directory is requested — persist everything needed to come back
later::

    run-dir/
      config.json      the RunConfig (reloadable, re-runnable)
      checkpoint/      model weights via repro.core.serialization
      history.json     per-epoch losses + validation MRRs, stop info
      metrics.json     final metrics per evaluated split

A written run directory is *resumable*: :func:`load_run` restores the
model and config, :func:`evaluate_run` recomputes metrics (bit-identical
to the original run), and :func:`serve_run` hands the checkpoint
directly to :class:`~repro.serving.LinkPredictor` without retraining.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.base import KGEModel
from repro.core.interaction import MultiEmbeddingModel
from repro.core.models import make_model
from repro.core.serialization import load_model, save_model
from repro.errors import ConfigError, CorruptArtifactError, MissingArtifactError, ModelError
from repro.eval.evaluator import LinkPredictionEvaluator
from repro.eval.metrics import RankingMetrics
from repro.kg.graph import KGDataset
from repro.nn.losses import make_loss
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, telemetry_scope, trace_scope
from repro.pipeline.components import MODELS, OMEGA_PRESETS
from repro.pipeline.config import RunConfig, _split_model_name
from repro.reliability.atomic import atomic_write_text
from repro.reliability.manifest import (
    read_manifest,
    sha256_bytes,
    verify_artifact,
    write_manifest,
)
from repro.serving import LinkPredictor
from repro.training.trainer import Trainer, TrainingResult

_CONFIG_FILE = "config.json"
_CHECKPOINT_DIR = "checkpoint"
_HISTORY_FILE = "history.json"
_METRICS_FILE = "metrics.json"
_INDEX_DIR = "index"
#: Telemetry stream written next to the artifacts.  Deliberately NOT
#: hashed into manifest.json: telemetry must never change what a run's
#: artifacts verify to, so enabled-vs-disabled runs stay bit-identical
#: modulo this one file.
_TELEMETRY_FILE = "telemetry.jsonl"


@dataclass
class RunResult:
    """Everything produced by one pipeline run."""

    config: RunConfig
    dataset: KGDataset
    model: KGEModel
    training: TrainingResult
    metrics: dict[str, RankingMetrics]
    run_dir: Path | None = None

    @property
    def test_metrics(self) -> RankingMetrics:
        """Metrics on the configured evaluation split."""
        return self.metrics[self.config.evaluation.split]

    @property
    def train_metrics(self) -> RankingMetrics | None:
        """Training-subsample metrics, if ``evaluation.evaluate_train``."""
        return self.metrics.get("train")

    @property
    def epochs_run(self) -> int:
        return self.training.epochs_run


@dataclass
class LoadedRun:
    """A run directory restored from disk (see :func:`load_run`)."""

    run_dir: Path
    config: RunConfig
    model: MultiEmbeddingModel
    metrics: dict[str, RankingMetrics] = field(default_factory=dict)
    history: dict = field(default_factory=dict)

    def build_dataset(self) -> KGDataset:
        """Regenerate/reload the dataset described by the stored config."""
        return self.config.dataset.build()


# --------------------------------------------------------------- construction
def build_model(config: RunConfig, dataset: KGDataset) -> KGEModel:
    """Build the configured model with its seeded init RNG.

    ``model.name`` resolves against the model-factory registry first,
    then against the ω presets; an explicit ``omega:`` prefix skips the
    factories, reaching presets a factory name shadows (e.g.
    ``omega:distmult`` is Table 1's two-embedding derivation, while the
    ``distmult`` factory is the paper's §5.3 one-embedding full-budget
    model).  A ``loss`` entry in ``model.options`` is resolved through
    the loss registry.
    """
    section = config.model
    rng = np.random.default_rng(config.model_init_seed)
    options = dict(section.options)
    loss_name = options.pop("loss", None)
    if loss_name is not None:
        loss = make_loss(str(loss_name))
        if not hasattr(loss, "grad_score"):
            # Fail at construction, not deep inside epoch 1: train_step
            # needs the value/grad_score interface (margin ranking is
            # pair-based and only fits the TransE baseline's loop).
            raise ConfigError(
                f"loss {loss_name!r} does not provide the value/grad_score "
                "interface required by multi-embedding training"
            )
        options["loss"] = loss
    common = dict(
        total_dim=section.total_dim,
        rng=rng,
        regularization=section.regularization,
        **options,
    )
    name, is_preset = _split_model_name(section.name)
    if not is_preset and name in MODELS:
        factory = MODELS.get(name)
        return factory(dataset.num_entities, dataset.num_relations, **common)
    preset = OMEGA_PRESETS.get(name)
    return make_model(preset, dataset.num_entities, dataset.num_relations, **common)


def _evaluate(
    config: RunConfig, dataset: KGDataset, model: KGEModel
) -> dict[str, RankingMetrics]:
    """The run's evaluation protocol; shared by training and reloading.

    ``config.parallel`` selects between the serial evaluator and the
    sharded/multi-process one; both produce bit-identical metrics, so
    the choice never changes what a run dir records.
    """
    section = config.evaluation
    kwargs = {} if section.batch_size is None else {"batch_size": section.batch_size}
    if config.parallel.is_serial:
        evaluator = LinkPredictionEvaluator(dataset, **kwargs)
    else:
        from repro.parallel.sharded_eval import ShardedEvaluator

        evaluator = ShardedEvaluator(
            dataset,
            shards=config.parallel.eval_shards,
            workers=config.parallel.eval_workers,
            shard_axis=config.parallel.shard_axis,
            **kwargs,
        )
    with trace_scope("pipeline.evaluate", split=section.split):
        metrics = {
            section.split: evaluator.evaluate(model, split=section.split).overall
        }
    if section.evaluate_train:
        with trace_scope("pipeline.evaluate", split="train"):
            train_result = evaluator.evaluate_triples(
                model,
                dataset.train,
                split_name="train",
                max_triples=section.train_eval_triples,
            )
        metrics["train"] = train_result.overall
    return metrics


def _write_telemetry(run_dir: Path, tracer: Tracer, registry: MetricsRegistry) -> None:
    """Emit the run's span stream + final metrics snapshot as JSONL."""
    lines = [json.dumps(record, sort_keys=True) for record in tracer.records()]
    lines.append(
        json.dumps(
            {"type": "metrics", "metrics": registry.snapshot().to_dict()},
            sort_keys=True,
        )
    )
    atomic_write_text(Path(run_dir) / _TELEMETRY_FILE, "\n".join(lines) + "\n")


def _train_and_evaluate_inner(
    config: RunConfig,
    dataset: KGDataset,
    model: KGEModel,
    run_dir: str | Path | None,
) -> RunResult:
    trainer = Trainer(dataset, config.training.training_config(seed=config.seed))
    with trace_scope("pipeline.train"):
        training = trainer.train(model)
    metrics = _evaluate(config, dataset, model)
    result = RunResult(
        config=config,
        dataset=dataset,
        model=model,
        training=training,
        metrics=metrics,
    )
    if run_dir is not None:
        with trace_scope("pipeline.persist"):
            result.run_dir = write_run_dir(result, run_dir)
        if config.index.enabled:
            # Persist the retrieval index next to the checkpoint so
            # serve_run / `predict --index` can reload it without a
            # rebuild.  Metrics above are unaffected: evaluation always
            # ranks exactly.
            from repro.pipeline.components import build_index

            with trace_scope("pipeline.index_build", kind=config.index.kind):
                index = build_index(
                    result.model, config.index, workers=config.parallel.eval_workers
                )
                index.build(workers=config.parallel.eval_workers)
                index.save(result.run_dir / _INDEX_DIR)
    return result


def train_and_evaluate(
    config: RunConfig,
    dataset: KGDataset,
    model: KGEModel,
    run_dir: str | Path | None = None,
) -> RunResult:
    """Train a pre-built *model* per *config* and evaluate it.

    This is the engine under :func:`run_pipeline`, and the one entry
    point for models built outside the pipeline (the baseline and
    ablation benchmarks seed theirs from ``config.model_init_seed``).

    Telemetry: when ``config.observability.enabled`` is set *or* an
    ambient registry/tracer is installed (:class:`repro.obs.telemetry_scope`),
    the run gets its own registry + tracer, pool workers ship their
    metric snapshots home through :func:`repro.parallel.pool.run_tasks`,
    and the span stream lands in ``<run_dir>/telemetry.jsonl``.  The
    run registry is merged into the ambient one afterwards, so sweeps
    aggregate across children.  Telemetry never touches the numerics:
    enabled and disabled runs are bit-identical modulo the telemetry
    file itself.
    """
    ambient_registry = obs_registry.active_registry()
    ambient_tracer = obs_trace.active_tracer()
    telemetry = (
        config.observability.enabled
        or ambient_registry is not None
        or ambient_tracer is not None
    )
    if not telemetry:
        return _train_and_evaluate_inner(config, dataset, model, run_dir)
    registry = MetricsRegistry()
    tracer = Tracer(ring_size=config.observability.ring_size)
    with telemetry_scope(registry, tracer):
        with trace_scope(
            "pipeline.run", label=config.label or "", seed=config.seed
        ):
            result = _train_and_evaluate_inner(config, dataset, model, run_dir)
        registry.inc("pipeline.runs")
    if ambient_registry is not None:
        ambient_registry.merge(registry.snapshot())
    if result.run_dir is not None:
        _write_telemetry(result.run_dir, tracer, registry)
    return result


def run_pipeline(
    config: RunConfig,
    dataset: KGDataset | None = None,
    run_dir: str | Path | None = None,
) -> RunResult:
    """Execute one run end-to-end: dataset → model → train → evaluate.

    Pass *dataset* to reuse an already-built dataset across runs (the
    paper tables train every row on one shared graph); otherwise it is
    built from ``config.dataset``.  With *run_dir*, the run's artifacts
    are persisted for later reloading/serving.
    """
    if dataset is None:
        dataset = config.dataset.build()
    model = build_model(config, dataset)
    return train_and_evaluate(config, dataset, model, run_dir=run_dir)


# ------------------------------------------------------------------ artifacts
def _metrics_to_dict(metrics: RankingMetrics) -> dict:
    return {
        "mrr": metrics.mrr,
        "mr": metrics.mr,
        "hits": {str(k): v for k, v in metrics.hits.items()},
        "num_ranks": metrics.num_ranks,
    }


def _metrics_from_dict(data: dict) -> RankingMetrics:
    return RankingMetrics(
        mrr=data["mrr"],
        mr=data["mr"],
        hits={int(k): v for k, v in data.get("hits", {}).items()},
        num_ranks=data.get("num_ranks", 0),
    )


def _history_to_dict(training: TrainingResult) -> dict:
    return {
        "records": [
            {
                "epoch": record.epoch,
                "loss": record.loss,
                "validation_mrr": record.validation_mrr,
            }
            for record in training.history.records
        ],
        "stopped_early": training.stopped_early,
        "epochs_run": training.epochs_run,
    }


def write_run_dir(result: RunResult, run_dir: str | Path) -> Path:
    """Persist *result* as a resumable run directory; returns its path.

    Every file is written crash-safely (tempfile + fsync + rename), and
    a ``manifest.json`` records the sha256 of each artifact so
    :func:`load_run` (and sweep resume) can tell a good run dir from a
    torn or bit-rotted one.
    """
    if not isinstance(result.model, MultiEmbeddingModel):
        raise ConfigError(
            "run directories require a checkpointable multi-embedding model, "
            f"got {type(result.model).__name__}"
        )
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    hashes: dict[str, str] = {}

    config_text = result.config.to_json() + "\n"
    atomic_write_text(run_dir / _CONFIG_FILE, config_text)
    hashes[_CONFIG_FILE] = sha256_bytes(config_text.encode("utf-8"))

    storage = result.config.storage
    checkpoint_hashes = save_model(
        result.model,
        run_dir / _CHECKPOINT_DIR,
        dtype=None if storage.dtype == "float64" else storage.dtype,
        equivalence_tol=storage.equivalence_tol,
    )
    for name, digest in checkpoint_hashes.items():
        hashes[f"{_CHECKPOINT_DIR}/{name}"] = digest

    history_text = json.dumps(_history_to_dict(result.training), indent=2) + "\n"
    atomic_write_text(run_dir / _HISTORY_FILE, history_text)
    hashes[_HISTORY_FILE] = sha256_bytes(history_text.encode("utf-8"))

    metrics_text = (
        json.dumps(
            {split: _metrics_to_dict(m) for split, m in result.metrics.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    atomic_write_text(run_dir / _METRICS_FILE, metrics_text)
    hashes[_METRICS_FILE] = sha256_bytes(metrics_text.encode("utf-8"))

    write_manifest(run_dir, hashes)
    return run_dir


def _read_json_artifact(
    run_dir: Path, name: str, manifest: dict[str, str] | None
):
    """Read an optional JSON artifact with integrity checking.

    Returns ``None`` when the file is absent *and* no manifest promises
    it (pre-manifest run dirs stay loadable).  A file the manifest
    records but the directory lacks raises
    :class:`~repro.errors.MissingArtifactError`; a file that fails its
    hash or cannot be parsed raises
    :class:`~repro.errors.CorruptArtifactError` — both name the path,
    neither leaks a raw ``JSONDecodeError``/``FileNotFoundError``.
    """
    path = run_dir / name
    if not path.exists():
        if manifest is not None and name in manifest:
            raise MissingArtifactError(
                f"run artifact {name!r} is recorded in the manifest but missing: {path}",
                path=path,
            )
        return None
    verify_artifact(run_dir, name, manifest)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArtifactError(
            f"run artifact {name!r} is torn or corrupt ({error}): {path}", path=path
        ) from None


def load_run(run_dir: str | Path) -> LoadedRun:
    """Restore a run directory written by :func:`write_run_dir`.

    Artifacts are verified against the run's sha256 manifest when one
    exists; damage surfaces as a typed
    :class:`~repro.errors.ArtifactError` naming the offending file
    rather than a raw decode traceback.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / _CONFIG_FILE
    checkpoint = run_dir / _CHECKPOINT_DIR
    if not config_path.exists() or not checkpoint.exists():
        raise ModelError(
            f"not a pipeline run directory (need {_CONFIG_FILE} + {_CHECKPOINT_DIR}/): "
            f"{run_dir}"
        )
    manifest = read_manifest(run_dir)
    verify_artifact(run_dir, _CONFIG_FILE, manifest)
    verify_artifact(run_dir, f"{_CHECKPOINT_DIR}/meta.json", manifest)
    if manifest is not None:
        # Every manifest entry under checkpoint/ is checked — the store's
        # .npy files and store.json, or a legacy weights.npz — so a torn
        # mapped table is caught here, before any page of it is scored.
        for relative in sorted(manifest):
            if relative.startswith(f"{_CHECKPOINT_DIR}/") and relative != (
                f"{_CHECKPOINT_DIR}/meta.json"
            ):
                verify_artifact(run_dir, relative, manifest)
    config = RunConfig.load(config_path)
    model = load_model(checkpoint)
    metrics: dict[str, RankingMetrics] = {}
    stored = _read_json_artifact(run_dir, _METRICS_FILE, manifest)
    if stored is not None:
        metrics = {split: _metrics_from_dict(m) for split, m in stored.items()}
    history = _read_json_artifact(run_dir, _HISTORY_FILE, manifest) or {}
    return LoadedRun(
        run_dir=run_dir, config=config, model=model, metrics=metrics, history=history
    )


def evaluate_run(
    run_dir: str | Path, dataset: KGDataset | None = None
) -> dict[str, RankingMetrics]:
    """Re-evaluate a stored run without retraining.

    The dataset is rebuilt from the stored config unless given; for the
    deterministic synthetic generators the recomputed metrics are
    bit-identical to the ones recorded at training time.
    """
    loaded = load_run(run_dir)
    if dataset is None:
        dataset = loaded.build_dataset()
    return _evaluate(loaded.config, dataset, loaded.model)


def build_run_index(
    run_dir: str | Path,
    section=None,
    workers: int = 0,
    sides: tuple[str, ...] = ("tail", "head"),
):
    """Build (and persist) the retrieval index of a stored run.

    *section* overrides the stored config's index section; when neither
    selects an index kind, an IVF index with default knobs is built.
    Returns the built :class:`~repro.index.base.CandidateIndex`.
    """
    from repro.pipeline.components import build_index
    from repro.pipeline.config import IndexSection

    loaded = load_run(run_dir)
    if section is None:
        section = loaded.config.index
    if not section.enabled:
        section = IndexSection(kind="ivf")
    index = build_index(loaded.model, section, workers=workers)
    index.build(sides=sides, workers=workers)
    index.save(Path(run_dir) / _INDEX_DIR)
    return index


def load_run_index(run_dir: str | Path, model, on_stale: str = "rebuild"):
    """Load the persisted index of a run directory, or None if absent."""
    index_dir = Path(run_dir) / _INDEX_DIR
    if not index_dir.exists():
        return None
    from repro.index import load_index

    return load_index(index_dir, model, on_stale=on_stale)


def serve_run(
    run_dir: str | Path,
    dataset: KGDataset | None = None,
    index: object = None,
    on_stale: str | None = None,
    **predictor_kwargs: object,
) -> LinkPredictor:
    """Stand up a :class:`LinkPredictor` from a stored run directory.

    ``index="auto"`` attaches the run's persisted index when one exists
    (approximate serving); ``index="require"`` additionally builds one
    (per the stored config, or IVF defaults) when none was saved.  The
    default ``None`` serves exact full sweeps.  ``on_stale`` overrides
    the stored config's staleness policy for the persisted index — the
    serving daemon passes ``"error"`` so a hot-swap can *refuse* an
    index whose fingerprint no longer matches the checkpoint instead of
    silently rebuilding it on the request path.
    """
    loaded = load_run(run_dir)
    if dataset is None:
        dataset = loaded.build_dataset()
    resolved = None
    if index == "auto" or index == "require":
        resolved = load_run_index(
            run_dir, loaded.model, on_stale=on_stale or loaded.config.index.on_stale
        )
        if resolved is None and index == "require":
            from repro.pipeline.components import build_index
            from repro.pipeline.config import IndexSection

            section = loaded.config.index
            if not section.enabled:
                section = IndexSection(kind="ivf")
            resolved = build_index(loaded.model, section)
    elif index is not None:
        raise ConfigError(
            'serve_run index must be None, "auto" or "require"; pass a prebuilt '
            "index directly to LinkPredictor instead"
        )
    return LinkPredictor(loaded.model, dataset, index=resolved, **predictor_kwargs)
