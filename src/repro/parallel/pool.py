"""Process-pool execution primitives for the parallel engine.

:func:`run_tasks` is the one place worker processes are created:
sharded evaluation, index builds and every sweep, serial or pooled,
funnel their work through it.  It deliberately has a tiny contract —

* ``workers=0`` runs every task in-process (no subprocess, no pickling),
  so callers get a deterministic fallback with identical semantics and
  the parallel paths stay testable without multiprocessing;
* ``workers>=1`` runs tasks on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with per-worker
  state set up once through *initializer*/*initargs* instead of being
  re-pickled per task;
* a task that raises never kills the batch — every task yields a
  :class:`TaskOutcome` carrying either the value or the formatted
  worker traceback, and the caller decides whether failure is fatal
  (evaluation) or isolated (sweeps).  Even *hard* worker death (OOM
  kill, segfault, a crashing initializer) comes back as error outcomes
  rather than a hang: the executor marks the pool broken and every
  unfinished task reports it (``multiprocessing.Pool.map`` would
  respawn workers and block forever on the lost task).  What is no
  ``Exception`` is no task's failure: a ``KeyboardInterrupt`` (Ctrl-C)
  or ``SystemExit``, in the caller or in a task, terminates the
  workers and propagates, never retried.

On top of that sits the fault-tolerance contract (``retries=``,
``task_timeout=``, ``backoff=``):

* failures are **classified** — a task that dies with a
  :class:`~repro.errors.TransientError` (including injected faults), a
  hard worker death, or a timeout is *retryable*; any other exception is
  deterministic and never retried (re-running a ``ValueError`` burns
  cycles to fail identically);
* retryable failures are re-run on a **fresh pool**, up to *retries*
  extra attempts, sleeping ``backoff * 2**attempt`` seconds between
  attempts (deterministic exponential backoff — no jitter, so chaos
  tests replay exactly);
* ``task_timeout`` bounds how long the caller waits on any single
  future; on expiry the pool's workers are terminated and every
  uncollected task comes back as a retryable timeout outcome
  (``workers=0`` cannot preempt a running function, so the timeout is
  ignored in-process).

Results always come back in task order, regardless of which worker
finished first.  Retries cannot change results: every caller's task
functions are deterministic in their inputs (the repository-wide seed
discipline), so a healed task is bit-identical to one that never failed.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

from repro.errors import ConfigError, TransientError
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.reliability import faults
from repro.reliability.faults import FaultInjector, FaultPlan

#: Injection site fired immediately before each task body runs.  The
#: context is ``"task:<index>;attempt:<n>"`` so plans can target one
#: deterministic (task, attempt) pair — see :mod:`repro.reliability.faults`.
TASK_SITE = "pool.task"


#: True in processes forked/spawned by :func:`run_tasks` (set by the
#: worker bootstrap).  ProcessPoolExecutor workers are *not* daemonic
#: (since Python 3.9), so the ``daemon`` flag cannot be used to detect
#: "I am already a pool worker"; consumers that must not nest pools
#: (e.g. sharded evaluation inside a sweep child) check this instead.
_IN_WORKER_PROCESS = False


def in_worker_process() -> bool:
    """Whether the current process is a :func:`run_tasks` pool worker."""
    return _IN_WORKER_PROCESS


def task_context(index: int, attempt: int) -> str:
    """The :data:`TASK_SITE` fault context of one task attempt."""
    return f"task:{index};attempt:{attempt}"


def _worker_bootstrap(
    initializer: Callable[..., None] | None,
    initargs: tuple,
    fault_plan: FaultPlan | None,
    telemetry: bool = False,
) -> None:
    """Per-worker setup: mark the process, arm faults, run the initializer.

    The worker runs exactly *fault_plan*: a forked worker inherits its
    parent's active injector, which belongs to the task level that armed
    it (e.g. an outer in-process ``run_tasks`` whose task started this
    pool), so ``None`` clears it.

    ``telemetry`` mirrors whether the *parent* had a metrics registry
    installed when the pool was built: the flag (not the registry — it
    is process-local state) ships across the process boundary, and the
    worker arms a private registry so per-task snapshot capture in
    :func:`_call_captured` switches on.
    """
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True
    faults.install_fault_injector(FaultInjector(fault_plan) if fault_plan is not None else None)
    if telemetry:
        obs_registry.install_metrics_registry(MetricsRegistry())
    if initializer is not None:
        initializer(*initargs)


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one task: its value, or the error that ate it.

    ``retryable`` marks failures the pool may heal by re-running
    (transient exceptions, worker death, timeouts); ``attempts`` counts
    how many times the task actually ran (1 = first try succeeded).
    ``metrics`` carries the task's private metrics-registry snapshot
    when telemetry was armed (``None`` otherwise); :func:`run_tasks`
    merges the snapshot of each task's *final* attempt into the
    caller's registry, so a retried task counts exactly once.
    """

    index: int
    value: Any = None
    error: str | None = None
    retryable: bool = False
    attempts: int = 1
    metrics: MetricsSnapshot | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def default_start_method() -> str:
    """``"fork"`` where available (cheap, inherits page cache), else ``"spawn"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _call_captured(
    fn: Callable[[Any], Any], attempt: int, indexed_task: tuple[int, Any]
) -> TaskOutcome:
    """Run one task, converting any exception into a classified outcome.

    When telemetry is armed (a registry is active in this process), the
    task runs against a *fresh* per-attempt registry and its snapshot
    travels home on the outcome — so metrics from a failed attempt are
    dropped when a retry supersedes it, and long-lived workers never
    leak one task's counts into another's.
    """
    index, task = indexed_task
    context = task_context(index, attempt)
    telemetry = obs_registry.active_registry() is not None
    task_registry = MetricsRegistry() if telemetry else None
    previous = obs_registry.install_metrics_registry(task_registry) if telemetry else None
    try:
        with obs_trace.trace_scope("pool.task", context=context):
            faults.fire(TASK_SITE, context=context)
            outcome = TaskOutcome(index=index, value=fn(task))
    except TransientError:
        outcome = TaskOutcome(index=index, error=traceback.format_exc(), retryable=True)
    except Exception:  # worker tracebacks must travel home
        outcome = TaskOutcome(index=index, error=traceback.format_exc())
    finally:
        if telemetry:
            obs_registry.install_metrics_registry(previous)
    if task_registry is not None:
        outcome = replace(outcome, metrics=task_registry.snapshot())
    return outcome


def _pool_attempt(
    fn: Callable[[Any], Any],
    indexed: list[tuple[int, Any]],
    workers: int,
    initializer: Callable[..., None] | None,
    initargs: tuple,
    start_method: str | None,
    task_timeout: float | None,
    fault_plan: FaultPlan | None,
    attempt: int,
    telemetry: bool,
) -> list[TaskOutcome]:
    """One executor lifetime: submit *indexed*, collect classified outcomes."""
    context = multiprocessing.get_context(start_method or default_start_method())
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(indexed)),
        mp_context=context,
        initializer=_worker_bootstrap,
        initargs=(initializer, initargs, fault_plan, telemetry),
    )
    outcomes: list[TaskOutcome] = []
    torn_down = False
    try:
        futures = [
            pool.submit(partial(_call_captured, fn, attempt), item) for item in indexed
        ]
        for (index, _), future in zip(indexed, futures):
            if torn_down:
                outcomes.append(
                    TaskOutcome(
                        index=index,
                        error="task abandoned after pool teardown (earlier timeout)",
                        retryable=True,
                    )
                )
                continue
            try:
                outcomes.append(future.result(timeout=task_timeout))
            except FuturesTimeoutError:
                # The worker may be wedged; terminate the whole pool and
                # mark everything uncollected retryable.  Retrying more
                # than strictly necessary is only a latency cost — task
                # results are deterministic.
                torn_down = True
                _terminate_workers(pool)
                outcomes.append(
                    TaskOutcome(
                        index=index,
                        error=f"task timed out after {task_timeout}s and was abandoned",
                        retryable=True,
                    )
                )
            except Exception as error:  # BrokenProcessPool et al.
                outcomes.append(
                    TaskOutcome(
                        index=index,
                        error=(
                            "worker process died before returning "
                            f"({type(error).__name__}: {error})"
                        ),
                        retryable=True,
                    )
                )
    except BaseException:
        # Ctrl-C, here or in a worker: stop the workers now, or shutdown
        # would wait for the tasks they are running.
        _terminate_workers(pool)
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return outcomes


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    for process in getattr(pool, "_processes", {}).values():
        process.terminate()


def _in_process_attempt(
    fn: Callable[[Any], Any],
    indexed: list[tuple[int, Any]],
    initializer: Callable[..., None] | None,
    initargs: tuple,
    fault_plan: FaultPlan | None,
    attempt: int,
) -> list[TaskOutcome]:
    """The ``workers=0`` twin of :func:`_pool_attempt` (same classification).

    The round runs exactly *fault_plan* (``None`` arms nothing), and the
    caller's injector comes back afterwards: a plan stays at the task
    level that armed it.
    """
    previous = faults.install_fault_injector(
        FaultInjector(fault_plan) if fault_plan is not None else None
    )
    try:
        if initializer is not None:
            initializer(*initargs)
        return [_call_captured(fn, attempt, item) for item in indexed]
    finally:
        faults.install_fault_injector(previous)


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int = 0,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    start_method: str | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    backoff: float = 0.0,
    fault_plan: FaultPlan | None = None,
) -> list[TaskOutcome]:
    """Apply *fn* to every task, optionally across worker processes.

    Parameters
    ----------
    fn:
        Module-level callable (it must be picklable when ``workers>=1``).
    tasks:
        The work items, applied in order.
    workers:
        ``0`` — in-process execution; ``>=1`` — pool of that many
        processes.  The pool is sized down to ``len(tasks)`` so idle
        workers are never forked.
    initializer, initargs:
        Per-worker setup, run once per process before any task (the
        standard :class:`multiprocessing.Pool` contract).  With
        ``workers=0`` the initializer runs once in-process, so both
        modes see identical module state.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"`` override; defaults to
        :func:`default_start_method`.
    retries:
        Extra attempts granted to *retryable* failures (transient
        exceptions, worker death, timeouts).  Deterministic failures
        are never retried.  Each retry round runs on a fresh pool, so a
        broken executor from a hard crash cannot poison the re-run.
    task_timeout:
        Per-future wait ceiling in seconds; expiry tears the pool down
        and marks uncollected tasks retryable.  Ignored with
        ``workers=0`` (a running function cannot be preempted in-process).
    backoff:
        Base of the deterministic exponential backoff: the pool sleeps
        ``backoff * 2**round`` seconds before retry round ``round``
        (0-based).  ``0.0`` (default) retries immediately.
    fault_plan:
        Optional :class:`~repro.reliability.faults.FaultPlan` armed in
        every worker (and in-process for ``workers=0``); the hook that
        makes chaos tests reproducible.  It is the only plan the tasks
        see: an injector active in the caller is not inherited, so a
        nested ``run_tasks`` never consumes faults aimed at its parent.
    """
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ConfigError(f"backoff must be >= 0, got {backoff}")
    if task_timeout is not None and task_timeout <= 0:
        raise ConfigError(f"task_timeout must be > 0 or None, got {task_timeout}")
    tasks = list(tasks)
    if not tasks:
        return []
    telemetry = obs_registry.active_registry() is not None
    remaining = list(enumerate(tasks))
    results: dict[int, TaskOutcome] = {}
    for attempt in range(retries + 1):
        if attempt and backoff:
            time.sleep(backoff * (2 ** (attempt - 1)))
        if workers == 0:
            attempt_outcomes = _in_process_attempt(
                fn, remaining, initializer, initargs, fault_plan, attempt
            )
        else:
            attempt_outcomes = _pool_attempt(
                fn,
                remaining,
                workers,
                initializer,
                initargs,
                start_method,
                task_timeout,
                fault_plan,
                attempt,
                telemetry,
            )
        for outcome in attempt_outcomes:
            results[outcome.index] = replace(outcome, attempts=attempt + 1)
        remaining = [
            (outcome.index, tasks[outcome.index])
            for outcome in attempt_outcomes
            if not outcome.ok and outcome.retryable
        ]
        if not remaining:
            break
    ordered = [results[index] for index in sorted(results)]
    parent = obs_registry.active_registry()
    if parent is not None:
        # Fold each task's *final* attempt home: earlier failed attempts
        # were overwritten above, so a retried task contributes exactly
        # one snapshot and crashed attempts (no outcome at all) none.
        for outcome in ordered:
            if outcome.metrics is not None:
                parent.merge(outcome.metrics)
        parent.inc("pool.tasks", len(ordered))
        parent.inc("pool.task_attempts", sum(o.attempts for o in ordered))
        parent.inc("pool.task_failures", sum(1 for o in ordered if not o.ok))
    return ordered
