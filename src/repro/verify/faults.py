"""Deterministic fault injection for the parallel executor.

The executor's reliability story — per-task timeouts, dead-worker
respawn, retries, in-parent solves — is only trustworthy if it is
*exercised*.  This module injects four fault kinds at **chosen
dispatch indices** (the executor numbers every ``apply_async``
submission 0, 1, 2, ... within a call; one submission is one attempt
at one whole polynomial), so failure timing is reproducible rather
than left to OS races:

* **poisoned task** (``poison_at``): the task body raises
  :class:`InjectedFault` inside the worker.  The pool routes the
  exception back and the executor counts ``executor.worker_failures``.
* **stalled task** (``stall_at``): the task body sleeps past the
  executor's ``task_timeout``.  The dispatch loop times out and counts
  ``executor.task_timeouts``.
* **worker death** (``kill_at``): the task body SIGKILLs *its own
  worker process* mid-task — the deterministic rendering of "a worker
  died while holding work".  The task's result never arrives, so the
  task times out (``executor.task_timeouts``) and the pid change is
  detected (``executor.worker_failures``).
* **slow task** (``slow_at``): the task body sleeps ``slow_seconds``
  and then runs the *real* task — deterministic latency injection.
  Below the executor's ``task_timeout`` it exercises the
  nothing-should-happen path (no timeout, no retry); above it, the
  retry resubmits while the slow original eventually returns a late
  result the executor must discard as stale
  (``executor.stale_results``).

In each case the faulted polynomial is **retried** on a fresh worker
(``executor.retries``); one that exhausts its retries, or that a
tripped circuit breaker (``executor.breaker_open``) keeps off the pool,
is solved in the parent process (``executor.inline_tasks``).  In every
scenario the call still returns the exact, sequential-parity answer;
the fault-matrix tests close the loop by certifying that answer with
:func:`repro.core.certify.certify_roots` and asserting the exact
counter increments.

Attach a plan via ``ParallelRootFinder(..., faults=FaultPlan(...))``;
the executor calls :meth:`FaultPlan.intercept` once per submission.
The replacement task bodies are module-level functions so they pickle
into ``spawn`` workers.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "poison_worker",
    "stall_worker",
    "suicide_worker",
    "slow_worker",
]


class InjectedFault(RuntimeError):
    """Raised by a poisoned task body — never by production code."""


def poison_worker(args: Any) -> Any:
    """Pool task body that fails immediately (picklable)."""
    raise InjectedFault("poisoned task (fault injection)")


def stall_worker(args: Any) -> Any:
    """Pool task body that sleeps past any reasonable ``task_timeout``.

    ``args = (seconds,)``.  Raises afterwards so that even an
    over-generous timeout cannot mistake the stall for a result.
    """
    time.sleep(float(args[0]))
    raise InjectedFault("stalled task woke up (fault injection)")


def slow_worker(args: Any) -> Any:
    """Pool task body that injects latency, then runs the real task.

    ``args = (seconds, fn, payload)``.  Unlike :func:`stall_worker` the
    answer it eventually produces is *correct* — the interesting part
    is when it arrives relative to the executor's per-task deadline.
    """
    seconds, fn, payload = args
    time.sleep(float(seconds))
    return fn(payload)


def suicide_worker(args: Any) -> Any:
    """Pool task body that SIGKILLs its own worker process.

    The deterministic "worker died mid-task" scenario: the kill happens
    *inside* the task, so the task is guaranteed in-flight (unlike
    killing an arbitrary pool pid, which races with the dispatcher).
    """
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class FaultPlan:
    """Deterministic fault schedule keyed by dispatch index.

    ``poison_at`` / ``stall_at`` / ``kill_at`` / ``slow_at`` are
    collections of submission indices (0-based, in executor dispatch
    order — retries consume fresh indices) whose task bodies are
    replaced by the corresponding fault.  ``injected`` records
    ``(index, kind)`` for every replacement actually made, so tests can
    assert the schedule fired.
    """

    poison_at: frozenset[int] = frozenset()
    stall_at: frozenset[int] = frozenset()
    kill_at: frozenset[int] = frozenset()
    slow_at: frozenset[int] = frozenset()
    stall_seconds: float = 60.0
    slow_seconds: float = 0.5
    injected: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.poison_at = frozenset(self.poison_at)
        self.stall_at = frozenset(self.stall_at)
        self.kill_at = frozenset(self.kill_at)
        self.slow_at = frozenset(self.slow_at)
        sets = [self.poison_at, self.stall_at, self.kill_at, self.slow_at]
        overlap: frozenset[int] = frozenset()
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                overlap |= a & b
        if overlap:
            raise ValueError(f"conflicting faults at indices {sorted(overlap)}")

    def intercept(
        self, index: int, fn: Callable, payload: Any, finder: Any
    ) -> tuple[Callable, Any]:
        """Executor hook: possibly replace one submission's task body.

        Returns the ``(fn, payload)`` actually submitted.  Fault-free
        indices pass through untouched.
        """
        if index in self.kill_at:
            self.injected.append((index, "kill"))
            return suicide_worker, payload
        if index in self.poison_at:
            self.injected.append((index, "poison"))
            return poison_worker, payload
        if index in self.stall_at:
            self.injected.append((index, "stall"))
            return stall_worker, (self.stall_seconds,)
        if index in self.slow_at:
            self.injected.append((index, "slow"))
            return slow_worker, (self.slow_seconds, fn, payload)
        return fn, payload
