"""Grid sweeps: expand a grid spec into seeded child runs.

The paper's §5.3 experiments grid-search learning rates, regularization
strengths and batch sizes per model; :func:`sweep` expresses that as a
base :class:`~repro.pipeline.config.RunConfig` plus a grid of dotted
field paths::

    sweep(base, {
        "training.learning_rate": [1e-3, 1e-4],
        "model.regularization": [1e-2, 1e-3, 0.0],
    }, seeds=[0, 1])

Expansion is deterministic (sorted keys, row-major product, seeds
outermost), every child config revalidates through ``RunConfig``, and —
because each child's RNG streams derive only from its config — running
the same grid spec twice yields bit-identical per-run metrics.  With
``workers=N`` the children execute on a process pool
(:mod:`repro.parallel.sweeps`) with crash isolation and a config-hash
result cache, still writing the exact run-dir trees a serial sweep
would.
"""

from __future__ import annotations

import itertools
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError, SweepError
from repro.eval.metrics import RankingMetrics
from repro.kg.graph import KGDataset
from repro.pipeline.config import RunConfig
from repro.pipeline.runner import RunResult, run_pipeline
from repro.reliability import faults


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
    ``result`` carries the full in-memory :class:`RunResult` only for
    children executed serially in this process (``workers=0``); pool
    children and cached children expose their ``metrics`` instead.
    """

    index: int
    overrides: dict[str, Any]
    config: RunConfig
    result: RunResult | None = None
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
        """Metrics on the child's evaluation split, however it was run."""
        if self.metrics is None:
            return None
        return self.metrics.get(self.config.evaluation.split)


@dataclass(frozen=True)
class _ChildSpec:
    """One planned child: everything needed to run (or skip) it."""

    index: int
    overrides: dict[str, Any]
    config: RunConfig
    slug: str
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
                    slug=slug,
                    run_dir=run_dir,
                )
            )
            index += 1
    return specs


def _run_serial_child(
    spec: _ChildSpec,
    position: int,
    dataset: KGDataset | None,
    dataset_cache: dict[str, KGDataset],
    on_error: str,
    retries: int = 0,
    backoff: float = 0.0,
    injectors: Sequence[faults.FaultInjector] | None = None,
) -> SweepRun:
    """Run one child in this process, keeping the full RunResult.

    Mirrors the pool's retry classification: a child that dies with a
    :class:`~repro.errors.TransientError` is re-run (with deterministic
    exponential backoff) up to *retries* times before being recorded as
    failed; deterministic failures fail on the first attempt.

    It also mirrors the pool's fault site: attempt ``n`` fires
    ``pool.task`` with the context the pool gives it
    (``task:<position>;attempt:<n>``, *position* counting the children
    that run) under ``injectors[n]``, one injector per attempt round,
    as :func:`~repro.parallel.pool.run_tasks` arms in process.
    """
    import time as _time
    from contextlib import nullcontext

    from repro.errors import TransientError
    from repro.obs.trace import trace_scope
    from repro.parallel.pool import TASK_SITE, task_context
    from repro.parallel.sweeps import child_dataset, config_hash, write_status

    digest = config_hash(spec.config)
    try:
        for attempt in range(retries + 1):
            if attempt and backoff:
                _time.sleep(backoff * (2 ** (attempt - 1)))
            armed = faults.fault_scope(injectors[attempt]) if injectors else nullcontext()
            try:
                with armed:
                    faults.fire(TASK_SITE, context=task_context(position, attempt))
                    built = child_dataset(spec.config, dataset_cache, pinned=dataset)
                    with trace_scope(
                        "sweep.child", index=spec.index, run_dir=str(spec.run_dir)
                    ):
                        result = run_pipeline(
                            spec.config, dataset=built, run_dir=spec.run_dir
                        )
                break
            except TransientError:
                if attempt >= retries:
                    raise
    except Exception:
        error = traceback.format_exc()
        if spec.run_dir is not None:
            write_status(spec.run_dir, "failed", digest, error=error)
        if on_error == "raise":
            raise
        return SweepRun(
            index=spec.index,
            overrides=spec.overrides,
            config=spec.config,
            status="failed",
            error=error,
            run_dir=spec.run_dir,
        )
    if spec.run_dir is not None:
        write_status(spec.run_dir, "completed", digest)
    return SweepRun(
        index=spec.index,
        overrides=spec.overrides,
        config=spec.config,
        result=result,
        metrics=dict(result.metrics),
        run_dir=spec.run_dir,
    )


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
    same sweep over the same root skips them (``status="cached"``,
    ``result=None`` — read their ``metrics``/``test_metrics`` instead).
    Pass ``resume=False`` to ignore the cache and re-execute every
    child (results are overwritten in place).

    ``workers`` dispatches children to that many worker processes
    (``0`` = serial in-process execution).  Every child's RNG streams
    derive only from its config, so worker count and scheduling cannot
    change any result — parallel and serial sweeps write identical
    run-dir trees.

    ``on_error`` controls crash isolation: ``"record"`` (default for
    ``workers >= 1``) turns a failing child into a ``status="failed"``
    entry (recorded in its run dir) and continues; ``"raise"`` (default
    for serial sweeps, matching the historical behaviour) re-raises.

    ``retries``/``backoff``/``task_timeout`` heal *transient* child
    failures (a :class:`~repro.errors.TransientError`, a hard worker
    death, a timeout) through the pool's retry machinery before the
    child is recorded as failed — deterministic failures still fail
    fast.  ``fault_plan`` arms a reproducible
    :class:`~repro.reliability.faults.FaultPlan` in every child, pooled
    or serial, and fires ``pool.task`` with the same per-attempt context
    either way (chaos testing).

    Datasets are cached per distinct ``dataset`` section — serially in
    the parent, per-process in workers — so a sweep over training
    hyperparameters builds each graph once per process.  Pass *dataset*
    to pin one shared dataset for every child regardless of config.
    """
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ConfigError(f"backoff must be >= 0, got {backoff}")
    if on_error is None:
        on_error = "raise" if workers == 0 else "record"
    if on_error not in ("raise", "record"):
        raise ConfigError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    from repro.parallel import sweeps as parallel_sweeps

    specs = _plan_children(base, grid, seeds, run_root)

    runs: dict[int, SweepRun] = {}
    pending: list[_ChildSpec] = []
    for spec in specs:
        cached = (
            parallel_sweeps.load_cached_child(spec.run_dir, spec.config)
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

    if workers == 0:
        injectors = (
            [faults.FaultInjector(fault_plan) for _ in range(retries + 1)]
            if fault_plan is not None
            else None
        )
        dataset_cache: dict[str, KGDataset] = {}
        for position, spec in enumerate(pending):
            runs[spec.index] = _run_serial_child(
                spec,
                position,
                dataset,
                dataset_cache,
                on_error,
                retries=retries,
                backoff=backoff,
                injectors=injectors,
            )
    elif pending:
        from repro.parallel.pool import run_tasks

        tasks = [
            {
                "config": spec.config.to_dict(),
                "run_dir": str(spec.run_dir) if spec.run_dir is not None else None,
            }
            for spec in pending
        ]
        outcomes = run_tasks(
            parallel_sweeps.run_sweep_child,
            tasks,
            workers=workers,
            initializer=parallel_sweeps._init_sweep_context,
            initargs=(dataset,),
            retries=retries,
            backoff=backoff,
            task_timeout=task_timeout,
            fault_plan=fault_plan,
        )
        for spec, outcome in zip(pending, outcomes):
            summary = outcome.value if outcome.ok else {"status": "failed", "error": outcome.error}
            run = SweepRun(
                index=spec.index,
                overrides=spec.overrides,
                config=spec.config,
                status=summary["status"],
                error=summary.get("error"),
                metrics=parallel_sweeps.metrics_from_summary(summary),
                run_dir=spec.run_dir,
            )
            runs[spec.index] = run
            if not run.ok and on_error == "raise":
                # The original exception object died with the worker;
                # SweepError is the dedicated carrier for its traceback.
                raise SweepError(f"sweep child {run.label!r} failed:\n{run.error}")
    ordered = [runs[index] for index in sorted(runs)]
    from repro.obs import registry as obs_registry

    obs_registry.inc("sweep.children", len(ordered))
    obs_registry.inc("sweep.cached", sum(1 for r in ordered if r.status == "cached"))
    obs_registry.inc("sweep.failed", sum(1 for r in ordered if r.status == "failed"))
    return ordered
