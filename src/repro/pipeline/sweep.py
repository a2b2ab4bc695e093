"""Grid sweeps: expand a grid spec into seeded child runs, and run them.

The paper's §5.3 experiments grid-search learning rates, regularization
strengths and batch sizes per model; :func:`sweep` expresses that as a
base :class:`~repro.pipeline.config.RunConfig` plus a grid of dotted
field paths::

    sweep(base, {
        "training.learning_rate": [1e-3, 1e-4],
        "model.regularization": [1e-2, 1e-3, 0.0],
    }, seeds=[0, 1])

Expansion is deterministic (sorted keys, row-major product, seeds
outermost) and every child config revalidates through ``RunConfig``.
Every child runs as one :func:`~repro.parallel.pool.run_tasks` task —
in this process for ``workers=0``, on a process pool otherwise — with
three guarantees:

* **determinism** — a child's result depends only on its config (every
  RNG stream derives from config seeds), so running the same grid spec
  twice, or with any worker count, writes byte-identical run-dir trees;
* **crash isolation** — a child that raises records ``status.json`` with
  ``status: "failed"`` (plus the traceback) in its run directory and the
  sweep continues; the caller decides whether to re-raise;
* **resumability** — completed children leave ``status.json`` carrying a
  hash of their config, so re-running the same sweep over the same
  ``run_root`` skips them (see :func:`load_cached_child`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ArtifactError, ConfigError, SweepError
from repro.eval.metrics import RankingMetrics
from repro.kg.graph import KGDataset
from repro.obs import registry as obs_registry
from repro.obs.trace import trace_scope
from repro.parallel.pool import run_tasks
from repro.pipeline.config import RunConfig
from repro.pipeline.runner import _metrics_from_dict, run_pipeline
from repro.reliability.atomic import atomic_write_json
from repro.reliability.manifest import verify_manifest

_STATUS_FILE = "status.json"
_METRICS_FILE = "metrics.json"


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """All grid points as override dicts, in deterministic order.

    Keys are dotted ``RunConfig`` field paths (``"training.epochs"``,
    ``"model.total_dim"``, ``"dataset.params.num_entities"``, or a
    top-level ``"seed"``); values are the candidate lists.  Keys are
    sorted before taking the product, so the expansion order does not
    depend on dict insertion order.
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    for key in keys:
        values = grid[key]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ConfigError(f"grid values for {key!r} must be a sequence of candidates")
        if len(values) == 0:
            raise ConfigError(f"grid values for {key!r} must be non-empty")
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[key] for key in keys))
    ]


def apply_overrides(config: RunConfig, overrides: Mapping[str, Any]) -> RunConfig:
    """A copy of *config* with dotted-path *overrides* applied.

    Goes through ``to_dict``/``from_dict`` so every override is
    re-validated; unknown paths raise :class:`ConfigError` naming the
    offending segment.
    """
    data = config.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        node = data
        for depth, part in enumerate(parts[:-1]):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(
                    f"unknown config path {path!r} (no section {'.'.join(parts[: depth + 1])!r})"
                )
            node = node[part]
        leaf = parts[-1]
        # dataset.params and model.options are free-form dicts: new keys
        # are legitimate there, everywhere else the field must exist.
        free_form = parts[:-1] in (["dataset", "params"], ["model", "options"])
        if not isinstance(node, dict) or (leaf not in node and not free_form):
            raise ConfigError(f"unknown config path {path!r} (no field {leaf!r})")
        node[leaf] = value
    return RunConfig.from_dict(data)


def _slug(overrides: Mapping[str, Any], seed: int | None) -> str:
    parts = [f"{key.split('.')[-1]}={overrides[key]}" for key in sorted(overrides)]
    if seed is not None:
        parts.append(f"seed={seed}")
    text = ",".join(parts) if parts else "base"
    # Filesystem-safe: override values may contain '/', spaces, braces…
    return re.sub(r"[^A-Za-z0-9_.=,+-]+", "-", text).strip("-")[:96]


@dataclass
class SweepRun:
    """One child run of a sweep: its overrides, config, and outcome.

    ``status`` is ``"completed"``, ``"failed"`` (crash-isolated child;
    see *on_error*) or ``"cached"`` (skipped because a previous sweep
    already completed an identical config in the same ``run_root``).
    ``metrics`` maps each evaluated split to its metrics for completed
    and cached children; with a ``run_root``, the artifacts live under
    ``run_dir``.
    """

    index: int
    overrides: dict[str, Any]
    config: RunConfig
    status: str = "completed"
    error: str | None = None
    metrics: dict[str, RankingMetrics] | None = None
    run_dir: Path | None = None

    @property
    def label(self) -> str:
        return self.config.label or f"run{self.index:03d}"

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "cached")

    @property
    def test_metrics(self) -> RankingMetrics | None:
        """Metrics on the child's evaluation split."""
        if self.metrics is None:
            return None
        return self.metrics.get(self.config.evaluation.split)


@dataclass(frozen=True)
class _ChildSpec:
    """One planned child: everything needed to run (or skip) it.

    It is also the pool task: :func:`run_sweep_child` receives it.
    """

    index: int
    overrides: dict[str, Any]
    config: RunConfig
    run_dir: Path | None


def _plan_children(
    base: RunConfig,
    grid: Mapping[str, Sequence[Any]],
    seeds: Sequence[int] | None,
    run_root: str | Path | None,
) -> list[_ChildSpec]:
    """Expand the grid into fully-resolved child specs, in sweep order."""
    seed_list: list[int | None] = list(seeds) if seeds is not None else [None]
    if not seed_list:
        raise ConfigError("seeds must be non-empty when given")
    specs: list[_ChildSpec] = []
    index = 0
    for overrides in expand_grid(grid):
        for seed in seed_list:
            child_overrides = dict(overrides)
            if seed is not None:
                child_overrides["seed"] = seed
            config = apply_overrides(base, child_overrides)
            slug = _slug(overrides, seed)
            config = RunConfig.from_dict(
                {**config.to_dict(), "label": config.label or slug}
            )
            run_dir = (
                Path(run_root) / f"run{index:03d}-{slug}"
                if run_root is not None
                else None
            )
            specs.append(
                _ChildSpec(
                    index=index,
                    overrides=child_overrides,
                    config=config,
                    run_dir=run_dir,
                )
            )
            index += 1
    return specs


# ---------------------------------------------------------------- status files
def config_hash(config: RunConfig) -> str:
    """Stable content hash of a config — the sweep result-cache key."""
    return hashlib.sha256(config.to_json().encode("utf-8")).hexdigest()


def write_status(
    run_dir: str | Path, status: str, config_sha256: str, error: str | None = None
) -> None:
    """Record a child's outcome in its run directory.

    Deliberately timestamp-free: two runs of the same sweep must produce
    byte-identical run-dir trees.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {"status": status, "config_sha256": config_sha256, "error": error}
    atomic_write_json(run_dir / _STATUS_FILE, payload, sort_keys=True)


def read_status(run_dir: str | Path) -> dict | None:
    """The ``status.json`` payload of a child run dir, or ``None``."""
    path = Path(run_dir) / _STATUS_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def load_cached_child(
    run_dir: str | Path, config: RunConfig
) -> dict[str, RankingMetrics] | None:
    """Metrics of a previously *completed* child with an identical config.

    Returns ``None`` (run the child) unless ``status.json`` reports
    ``completed`` **and** the stored config hash matches — a stale dir
    from an edited grid is re-run, never silently reused.  Failed
    children are always retried.

    Integrity: when the child dir carries a sha256 manifest, every
    recorded artifact is verified before the cache hit is honoured — a
    truncated checkpoint or torn ``metrics.json`` (a crash mid-write
    under pre-atomic IO, or plain bit rot) makes the child re-run from
    scratch instead of resuming onto corrupt state.  That re-run is the
    "fall back to the last good state" contract: resume never crashes
    on a damaged child, it heals it.
    """
    status = read_status(run_dir)
    if not status or status.get("status") != "completed":
        return None
    if status.get("config_sha256") != config_hash(config):
        return None
    metrics_path = Path(run_dir) / _METRICS_FILE
    if not metrics_path.exists():
        return None
    try:
        verify_manifest(run_dir)
        stored = json.loads(metrics_path.read_text(encoding="utf-8"))
    except (ArtifactError, OSError, json.JSONDecodeError):
        return None
    return {split: _metrics_from_dict(data) for split, data in stored.items()}


# ------------------------------------------------------------------ child side
#: Per-process dataset cache, keyed by the dataset section's JSON: a
#: process running several children of one sweep builds each graph once.
_DATASET_CACHE: dict[str, KGDataset] = {}

#: Dataset the caller pinned for every child (set by the pool initializer).
_PINNED_DATASET: KGDataset | None = None


def _init_sweep_context(pinned_dataset: KGDataset | None) -> None:
    """Pool initializer: pin *pinned_dataset* for every child in this process."""
    global _PINNED_DATASET
    _PINNED_DATASET = pinned_dataset


def child_dataset(config: RunConfig) -> KGDataset:
    """The dataset for one sweep child, built at most once per process.

    The pinned dataset when there is one; otherwise children whose
    ``dataset`` sections serialize identically share one build.
    """
    if _PINNED_DATASET is not None:
        return _PINNED_DATASET
    key = json.dumps(
        {"generator": config.dataset.generator, "params": config.dataset.params},
        sort_keys=True,
        default=str,
    )
    dataset = _DATASET_CACHE.get(key)
    if dataset is None:
        dataset = _DATASET_CACHE[key] = config.dataset.build()
    return dataset


def run_sweep_child(spec: _ChildSpec) -> dict[str, RankingMetrics]:
    """Run one sweep child end to end in this process; return its metrics.

    The pool task behind every sweep.  The outcome is recorded in the
    run dir's ``status.json`` before it travels home: a child that
    raises records ``failed`` with its traceback and re-raises, and the
    pool turns the exception into a failed outcome (retrying a
    :class:`~repro.errors.TransientError`), so one bad grid point cannot
    kill the sweep.  ``KeyboardInterrupt`` records nothing and stops the
    sweep.
    """
    digest = config_hash(spec.config)
    try:
        dataset = child_dataset(spec.config)
        with trace_scope("sweep.child", index=spec.index, run_dir=str(spec.run_dir)):
            result = run_pipeline(spec.config, dataset=dataset, run_dir=spec.run_dir)
        if spec.run_dir is not None:
            write_status(spec.run_dir, "completed", digest)
    except Exception:
        if spec.run_dir is not None:
            write_status(spec.run_dir, "failed", digest, error=traceback.format_exc())
        raise
    return dict(result.metrics)


def sweep(
    base: RunConfig,
    grid: Mapping[str, Sequence[Any]],
    seeds: Sequence[int] | None = None,
    run_root: str | Path | None = None,
    dataset: KGDataset | None = None,
    workers: int = 0,
    on_error: str | None = None,
    resume: bool = True,
    retries: int = 0,
    backoff: float = 0.0,
    task_timeout: float | None = None,
    fault_plan=None,
) -> list[SweepRun]:
    """Run every grid point (crossed with *seeds*, if given) as a child run.

    Each child is ``base`` with its grid overrides applied (and its
    ``seed`` replaced when *seeds* is given), labelled deterministically.
    With *run_root*, child ``i`` persists its artifacts under
    ``run_root/run<i>-<slug>/`` — including a ``status.json`` whose
    config hash makes completed children *resumable*: re-running the
    same sweep over the same root skips them (``status="cached"``, with
    the stored ``metrics``).  Pass ``resume=False`` to ignore the cache
    and re-execute every child (results are overwritten in place).

    Every child runs as one :func:`~repro.parallel.pool.run_tasks` task:
    ``workers`` is the pool size (``0`` = in this process, one child
    after another).  Every child's RNG streams derive only from its
    config, so worker count and scheduling cannot change any result —
    all worker counts write identical run-dir trees.

    ``on_error`` controls crash isolation: ``"record"`` (default for
    ``workers >= 1``) turns a failing child into a ``status="failed"``
    entry (recorded in its run dir) and continues; ``"raise"`` (default
    for ``workers=0``) raises :class:`~repro.errors.SweepError` with the
    first failed child's traceback once every child has run.  Ctrl-C
    (``KeyboardInterrupt``) stops the sweep at once in either mode.

    ``retries``/``backoff``/``task_timeout`` heal *transient* child
    failures (a :class:`~repro.errors.TransientError`, a hard worker
    death, a timeout) through the pool's retry machinery before the
    child is recorded as failed — deterministic failures still fail
    fast.  ``fault_plan`` arms a reproducible
    :class:`~repro.reliability.faults.FaultPlan` for every child and
    fires ``pool.task`` with the per-attempt context
    ``task:<i>;attempt:<n>``, ``i`` counting the children that run
    (chaos testing).

    Datasets are cached per distinct ``dataset`` section in each process
    that runs children, for the length of the call, so a sweep over
    training hyperparameters builds each graph once per process.  Pass
    *dataset* to pin one shared dataset for every child regardless of
    config.
    """
    if on_error is None:
        on_error = "raise" if workers == 0 else "record"
    if on_error not in ("raise", "record"):
        raise ConfigError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    runs: dict[int, SweepRun] = {}
    pending: list[_ChildSpec] = []
    for spec in _plan_children(base, grid, seeds, run_root):
        cached = (
            load_cached_child(spec.run_dir, spec.config)
            if resume and spec.run_dir is not None
            else None
        )
        if cached is not None:
            runs[spec.index] = SweepRun(
                index=spec.index,
                overrides=spec.overrides,
                config=spec.config,
                status="cached",
                metrics=cached,
                run_dir=spec.run_dir,
            )
        else:
            pending.append(spec)

    try:
        outcomes = run_tasks(
            run_sweep_child,
            pending,
            workers=workers,
            initializer=_init_sweep_context,
            initargs=(dataset,),
            retries=retries,
            backoff=backoff,
            task_timeout=task_timeout,
            fault_plan=fault_plan,
        )
    finally:
        # workers=0 ran the children in *this* process; drop the datasets
        # they left so none outlives the call.  The cache is emptied here,
        # not by the initializer, so an in-process retry round reuses it.
        _init_sweep_context(None)
        _DATASET_CACHE.clear()
    for spec, outcome in zip(pending, outcomes):
        runs[spec.index] = SweepRun(
            index=spec.index,
            overrides=spec.overrides,
            config=spec.config,
            status="completed" if outcome.ok else "failed",
            error=outcome.error,
            metrics=outcome.value,
            run_dir=spec.run_dir,
        )
    ordered = [runs[index] for index in sorted(runs)]
    failed = [r for r in ordered if r.status == "failed"]
    obs_registry.inc("sweep.children", len(ordered))
    obs_registry.inc("sweep.cached", sum(1 for r in ordered if r.status == "cached"))
    obs_registry.inc("sweep.failed", len(failed))
    if failed and on_error == "raise":
        raise SweepError(f"sweep child {failed[0].label!r} failed:\n{failed[0].error}")
    return ordered
