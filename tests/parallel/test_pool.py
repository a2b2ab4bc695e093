"""Tests for the process-pool primitive."""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.parallel.pool import TaskOutcome, default_start_method, run_tasks
from repro.reliability.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    fault_scope,
)

pytestmark = pytest.mark.parallel

_INIT_STATE: dict = {}


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x


def _record_init(tag: str) -> None:
    _INIT_STATE["tag"] = tag


def _read_init(_: object) -> str:
    return _INIT_STATE.get("tag", "<unset>")


def _pid_of(_: object) -> int:
    return os.getpid()


def _exit_hard(_: object) -> None:
    os._exit(1)


def _mark_then_interrupt_first(task: tuple[str, int]) -> int:
    """Leave one marker file per run of task *index*; task 0 is Ctrl-C'd."""
    directory, index = task
    markers = Path(directory)
    (markers / f"task{index}-run{len(list(markers.glob(f'task{index}-*')))}").touch()
    if index == 0:
        raise KeyboardInterrupt
    return index


class TestInProcess:
    def test_results_in_task_order(self):
        outcomes = run_tasks(_square, [3, 1, 4, 1, 5], workers=0)
        assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.ok for o in outcomes)

    def test_error_is_captured_not_raised(self):
        outcomes = run_tasks(_fail_on_three, [1, 3, 5], workers=0)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "three is right out" in outcomes[1].error
        assert outcomes[1].value is None

    def test_initializer_runs_once_in_process(self):
        _INIT_STATE.clear()
        outcomes = run_tasks(
            _read_init, [0, 1], workers=0, initializer=_record_init, initargs=("hello",)
        )
        assert [o.value for o in outcomes] == ["hello", "hello"]

    def test_runs_in_this_process(self):
        outcomes = run_tasks(_pid_of, [0], workers=0)
        assert outcomes[0].value == os.getpid()

    def test_empty_tasks(self):
        assert run_tasks(_square, [], workers=0) == []
        assert run_tasks(_square, [], workers=4) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            run_tasks(_square, [1], workers=-1)


class TestPool:
    def test_results_match_in_process(self):
        serial = run_tasks(_square, list(range(10)), workers=0)
        pooled = run_tasks(_square, list(range(10)), workers=3)
        assert [o.value for o in serial] == [o.value for o in pooled]

    def test_runs_in_other_processes(self):
        outcomes = run_tasks(_pid_of, [0, 1, 2, 3], workers=2)
        assert all(o.value != os.getpid() for o in outcomes)

    def test_worker_error_is_isolated(self):
        outcomes = run_tasks(_fail_on_three, [1, 3, 5], workers=2)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ValueError" in outcomes[1].error
        assert outcomes[0].value == 1 and outcomes[2].value == 5

    def test_initializer_seeds_every_worker(self):
        outcomes = run_tasks(
            _read_init,
            list(range(6)),
            workers=2,
            initializer=_record_init,
            initargs=("pooled",),
        )
        assert {o.value for o in outcomes} == {"pooled"}

    def test_more_workers_than_tasks(self):
        outcomes = run_tasks(_square, [2], workers=8)
        assert [o.value for o in outcomes] == [4]

    def test_hard_worker_death_reports_instead_of_hanging(self):
        """os._exit bypasses Python exception handling entirely — the
        pool must surface the dead worker as error outcomes, not block."""
        outcomes = run_tasks(_exit_hard, [0, 1], workers=1)
        assert all(not o.ok for o in outcomes)
        assert "died" in outcomes[0].error


class TestKeyboardInterrupt:
    """Ctrl-C is no task's failure: it stops the call, in either mode."""

    def test_in_process_interrupt_stops_later_tasks(self, tmp_path):
        tasks = [(str(tmp_path), index) for index in range(3)]
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_mark_then_interrupt_first, tasks, workers=0, retries=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["task0-run0"]

    def test_pool_interrupt_propagates_unretried(self, tmp_path):
        tasks = [(str(tmp_path), index) for index in range(3)]
        before = set(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt):
            run_tasks(_mark_then_interrupt_first, tasks, workers=1, retries=1)
        assert [p.name for p in tmp_path.glob("task0-*")] == ["task0-run0"]
        assert set(multiprocessing.active_children()) <= before  # no worker left


def _inner_round(inner_workers: int) -> list[bool]:
    """An outer task that runs its own, unplanned ``run_tasks``."""
    return [outcome.ok for outcome in run_tasks(_square, [1, 2, 3], workers=inner_workers)]


class TestFaultPlanScope:
    @pytest.mark.parametrize("inner_workers", [0, 2])
    def test_plan_stays_at_the_level_that_armed_it(self, inner_workers):
        """A plan aimed at outer task 1 fails outer task 1 only: the inner
        rounds (in process, or forked workers that would inherit the
        outer injector) run no plan and every inner task succeeds."""
        plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", match="task:1;attempt:0")
        )
        outcomes = run_tasks(
            _inner_round, [inner_workers, inner_workers], workers=0, fault_plan=plan
        )
        assert outcomes[0].ok, outcomes[0].error
        assert outcomes[0].value == [True, True, True]
        assert not outcomes[1].ok
        assert "InjectedFault" in outcomes[1].error

    @pytest.mark.parametrize("workers", [0, 1])
    def test_callers_injector_stays_with_the_caller(self, workers):
        """An injector the caller armed with ``fault_scope`` is not the
        round's: an unplanned round's tasks (in process, or in forked
        workers that would inherit it) never fire it, and it is active
        again when the round returns."""
        plan = FaultPlan.of(FaultSpec(site="pool.task", kind="exception", max_hits=100))
        with fault_scope(FaultInjector(plan)) as injector:
            outcomes = run_tasks(_square, [1, 2, 3], workers=workers)
            assert active_injector() is injector
        assert [outcome.value for outcome in outcomes] == [1, 4, 9]
        assert injector.hits == []

    def test_planned_round_runs_its_own_plan_then_restores_the_callers(self):
        caller_plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", max_hits=100)
        )
        round_plan = FaultPlan.of(
            FaultSpec(site="pool.task", kind="exception", match="task:0;attempt:0")
        )
        with fault_scope(FaultInjector(caller_plan)) as injector:
            outcomes = run_tasks(_square, [2, 3], workers=0, fault_plan=round_plan)
            assert active_injector() is injector
        assert [outcome.ok for outcome in outcomes] == [False, True]
        assert "task:0;attempt:0" in outcomes[0].error
        assert injector.hits == []


def test_default_start_method_is_known():
    assert default_start_method() in ("fork", "spawn")


def test_outcome_ok_property():
    assert TaskOutcome(index=0, value=1).ok
    assert not TaskOutcome(index=0, error="boom").ok
