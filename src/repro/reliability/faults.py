"""Deterministic fault injection: plans, injectors, and named sites.

Chaos that cannot be replayed is noise.  This module makes every
injected failure *planned*: a :class:`FaultPlan` is a picklable list of
:class:`FaultSpec` entries, each naming an injection **site** (a string
the instrumented code passes when it reaches the hook), the fault
**kind**, and a deterministic trigger (a substring ``match`` over the
site's context plus a per-process ``max_hits`` budget).  A
:class:`FaultInjector` executes a plan; instrumented code reaches it
either through an explicit parameter (the parallel pool ships plans to
its workers) or the module-level active injector installed with
:func:`install_fault_injector` (run-dir and index IO consult it on
every write).

Sites currently instrumented:

``pool.task``
    Fired by :func:`repro.parallel.pool.run_tasks` immediately before a
    task body runs, with context ``"task:<index>;attempt:<n>"``.  The
    attempt counter is part of the context, so a plan can crash attempt
    0 of task 3 and let its retry succeed — reproducible recovery, no
    shared state across worker processes.
``io.write``
    Fired by :func:`repro.reliability.atomic.atomic_write_bytes` with
    the destination path as context.  ``truncate``/``byteflip`` kinds
    corrupt the payload (simulating a torn legacy write or bit rot, so
    manifest verification can be tested); ``exception`` aborts before
    the atomic replace (the destination keeps its previous content).
``server.dispatch``
    Fired by :class:`repro.serving.server.PredictionServer` in a
    micro-batch's scoring thread before each predictor call, with
    context ``"side:<side>;k:<k>"`` — ``slow`` faults here exercise
    drain/swap atomicity with a batch genuinely in flight.

Fault kinds: ``exception`` raises :class:`~repro.errors.InjectedFault`
(a :class:`~repro.errors.TransientError`, so pool retries heal it);
``crash`` hard-kills a pool worker with ``os._exit`` (outside a worker
it degrades to an exception rather than killing the host process);
``slow`` sleeps ``delay_s`` then continues; ``truncate`` drops
``drop_bytes`` from the tail of a write; ``byteflip`` XOR-flips one
seeded byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigError, InjectedFault

#: Kinds that interrupt control flow (handled by :meth:`FaultInjector.fire`).
CONTROL_KINDS = ("exception", "crash", "slow")
#: Kinds that corrupt byte payloads (handled by :meth:`FaultInjector.filter_bytes`).
DATA_KINDS = ("truncate", "byteflip")
FAULT_KINDS = CONTROL_KINDS + DATA_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where it fires, what it does, when it triggers.

    ``match`` is a substring filter over the context string the
    instrumented site passes (``""`` matches everything), and
    ``max_hits`` bounds how many times the spec fires *per injector*
    (pool workers each rebuild their injector from the plan, so cross-
    process plans should pin their trigger via ``match`` — e.g. on the
    ``attempt:<n>`` token — instead of relying on shared hit counts).
    """

    site: str
    kind: str
    match: str = ""
    max_hits: int = 1
    delay_s: float = 0.0
    drop_bytes: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {list(FAULT_KINDS)}, got {self.kind!r}"
            )
        if not self.site:
            raise ConfigError("fault site must be a non-empty string")
        if self.max_hits < 1:
            raise ConfigError(f"max_hits must be >= 1, got {self.max_hits}")
        if self.delay_s < 0:
            raise ConfigError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.drop_bytes < 1:
            raise ConfigError(f"drop_bytes must be >= 1, got {self.drop_bytes}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable collection of fault specs.

    Plans travel across process boundaries (the pool ships them to its
    workers through the initializer), so they carry no live state —
    hit counting lives in the :class:`FaultInjector` built from a plan.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=specs)

    def at_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.site == site)

    def to_dicts(self) -> list[dict]:
        return [asdict(spec) for spec in self.specs]

    @classmethod
    def from_dicts(cls, entries: Iterable[dict]) -> "FaultPlan":
        return cls(specs=tuple(FaultSpec(**entry) for entry in entries))


@dataclass
class FaultHit:
    """One fault that actually fired (recorded for test assertions)."""

    site: str
    kind: str
    context: str


class FaultInjector:
    """Executes a :class:`FaultPlan`; one instance per process/attempt scope."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining: dict[int, int] = {
            position: spec.max_hits for position, spec in enumerate(plan.specs)
        }
        self.hits: list[FaultHit] = []

    def _armed(self, site: str, context: str, kinds: tuple[str, ...]):
        """Specs at *site* matching *context* with hit budget left, in order."""
        for position, spec in enumerate(self.plan.specs):
            if spec.site != site or spec.kind not in kinds:
                continue
            if spec.match and spec.match not in context:
                continue
            if self._remaining[position] <= 0:
                continue
            yield position, spec

    def _consume(self, position: int, spec: FaultSpec, context: str) -> None:
        self._remaining[position] -= 1
        self.hits.append(FaultHit(site=spec.site, kind=spec.kind, context=context))

    def fire(self, site: str, context: str = "") -> None:
        """Trigger any armed control-flow fault at *site*.

        ``slow`` sleeps and continues (several slow specs may stack);
        the first armed ``exception``/``crash`` spec ends the call.
        """
        for position, spec in self._armed(site, context, CONTROL_KINDS):
            if spec.kind == "slow":
                self._consume(position, spec, context)
                time.sleep(spec.delay_s)
                continue
            self._consume(position, spec, context)
            if spec.kind == "crash":
                from repro.parallel.pool import in_worker_process

                if in_worker_process():
                    # Hard death: no exception, no cleanup — exactly an
                    # OOM-kill as the parent pool observes it.
                    os._exit(13)
                # Outside a pool worker, killing the process would take
                # the test runner down with it; degrade to a transient.
            raise InjectedFault(
                f"injected {spec.kind} fault at {site!r} (context {context!r})",
                site=site,
                context=context,
            )

    def filter_bytes(self, site: str, data: bytes, context: str = "") -> bytes:
        """Apply any armed data-corruption fault at *site* to *data*."""
        for position, spec in self._armed(site, context, DATA_KINDS):
            self._consume(position, spec, context)
            if spec.kind == "truncate":
                keep = max(0, len(data) - spec.drop_bytes)
                data = data[:keep]
            else:  # byteflip
                if data:
                    rng = np.random.default_rng(spec.seed)
                    offset = int(rng.integers(0, len(data)))
                    flipped = bytearray(data)
                    flipped[offset] ^= 0xFF
                    data = bytes(flipped)
        return data


# --------------------------------------------------------------- active scope
_ACTIVE: FaultInjector | None = None


def install_fault_injector(injector: FaultInjector | None) -> FaultInjector | None:
    """Install *injector* as this process's active injector; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    return previous


def active_injector() -> FaultInjector | None:
    return _ACTIVE


def fire(site: str, context: str = "") -> None:
    """Fire *site* on the active injector (no-op when none is installed)."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site, context)


def filter_bytes(site: str, data: bytes, context: str = "") -> bytes:
    """Filter *data* through the active injector (identity when none)."""
    if _ACTIVE is None:
        return data
    return _ACTIVE.filter_bytes(site, data, context)


class fault_scope:
    """Context manager installing an injector for a ``with`` block.

    >>> with fault_scope(FaultInjector(plan)) as injector:
    ...     ...  # instrumented writes in this block see the plan
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._previous: FaultInjector | None = None

    def __enter__(self) -> FaultInjector:
        self._previous = install_fault_injector(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> None:
        install_fault_injector(self._previous)
