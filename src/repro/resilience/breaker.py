"""Circuit breaker around the executor's worker pool.

Classic three-state breaker, specialized for the executor's routing
decision (pool vs. in-parent execution):

* **closed** — pool submissions allowed.  ``failure_threshold``
  *consecutive* task failures (worker exceptions, per-task timeouts)
  trip it open; any pool success resets the streak.
* **open** — :meth:`allow` answers ``False``: the executor solves
  polynomials in the parent process (sequential routing, exact answers)
  until ``cooldown_seconds`` have elapsed on the injectable clock.
* **half-open** — after the cool-down, exactly one submission is let
  through as a probe.  Probe success closes the breaker; probe failure
  reopens it and restarts the cool-down.

State transitions are reported through ``on_transition(old, new)`` —
the executor wires that to the ``executor.breaker_*`` counters and
``breaker_*`` tracer events, which is how the fault matrix pins the
state machine deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Consecutive-failure breaker with cool-down and single-probe
    half-open recovery.

    The breaker owns no I/O and consults only its injected ``clock``,
    so every transition is deterministic under test.  One breaker is
    shared across all calls a :class:`~repro.sched.executor.
    ParallelRootFinder` serves — pool health is a property of the pool,
    not of one polynomial.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 5.0
    clock: Callable[[], float] = time.monotonic
    on_transition: Callable[[str, str], None] | None = None
    state: str = field(default=BREAKER_CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    _opened_at: float = field(default=0.0, init=False, repr=False)
    _probe_in_flight: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")

    def _to(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        if old != new_state and self.on_transition is not None:
            self.on_transition(old, new_state)

    def allow(self) -> bool:
        """May the next task go to the pool?  ``False`` means route it
        to the parent process.

        In the open state this is also where the cool-down expiry is
        noticed: the first ``allow`` after the cool-down half-opens the
        breaker and admits the probe.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if self.clock() - self._opened_at >= self.cooldown_seconds:
                self._to(BREAKER_HALF_OPEN)
                self._probe_in_flight = True
                return True
            return False
        # half-open: one probe at a time.
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        """A pool task completed normally."""
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self._probe_in_flight = False
            self._to(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A pool task failed (worker exception or per-task timeout)."""
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            self._probe_in_flight = False
            self._opened_at = self.clock()
            self._to(BREAKER_OPEN)
        elif (self.state == BREAKER_CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._opened_at = self.clock()
            self._to(BREAKER_OPEN)
