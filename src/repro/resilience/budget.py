"""Wall-clock / bit-cost budgets with structured partial results.

A :class:`Budget` bounds one logical piece of work — a single
``find_roots`` call, or a whole batch when the caller starts it once
and shares it — along two axes:

* ``deadline_seconds``: wall-clock time since :meth:`Budget.start`;
* ``max_bit_ops``: quadratic bit cost charged to the attached
  :class:`~repro.costmodel.counter.CostCounter` since start (the
  paper's machine-model currency, so the same ceiling means the same
  amount of *work* on any host).

Checks are **cooperative**: the finders call :meth:`Budget.check` at
phase boundaries (after the remainder sequence, after the tree, between
interval problems); the executor hands each worker what remains of
the budget and checks once per dispatch-loop event.  An overrun raises
:class:`BudgetExceeded` carrying a :class:`PartialResult` with every
top-level root certified so far — callers keep what was paid for
instead of getting nothing.

The clock is injectable for deterministic tests; bit cost is exact and
deterministic by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = ["Budget", "BudgetExceeded", "PartialResult"]


@dataclass
class PartialResult:
    """What a budget-bounded run had finished when the budget tripped.

    ``scaled`` follows the :class:`repro.core.rootfinder.RootResult`
    convention (ascending ``ceil(2**mu * x)`` values), but holds only
    the roots whose interval problems completed — a *subset* of the
    input's roots, each individually exact.  Verify with
    ``certify_roots(p, partial.scaled, None, mu, partial=True)``.
    """

    mu: int
    scaled: list[int]
    degree: int
    phase: str
    reason: str
    elapsed_seconds: float
    bit_cost: int

    def __len__(self) -> int:
        return len(self.scaled)

    def as_floats(self) -> list[float]:
        from repro.core.scaling import scaled_to_float

        return [scaled_to_float(s, self.mu) for s in self.scaled]


class BudgetExceeded(RuntimeError):
    """A cooperative budget check failed; partial progress is attached.

    ``reason`` is ``"deadline"`` or ``"bit_budget"``; ``partial`` is the
    :class:`PartialResult` assembled at the check site.
    """

    def __init__(self, reason: str, partial: PartialResult):
        super().__init__(
            f"budget exceeded ({reason}) in phase {partial.phase!r} after "
            f"{partial.elapsed_seconds:.3f}s / {partial.bit_cost} bit ops; "
            f"{len(partial.scaled)} certified roots completed"
        )
        self.reason = reason
        self.partial = partial


@dataclass
class Budget:
    """Deadline and/or bit-cost ceiling for one logical piece of work.

    Construct with at least one bound; attach via
    ``RealRootFinder(..., budget=...)`` or
    ``ParallelRootFinder(..., budget=...)``.  The budget starts ticking
    at the first :meth:`start` call (the finders call it on entry;
    callers who want one budget to span several calls may start it
    earlier themselves — ``start`` is idempotent).

    Parameters
    ----------
    deadline_seconds:
        Wall-clock allowance measured on ``clock`` (monotonic seconds).
    max_bit_ops:
        Quadratic bit-cost allowance measured as the delta of the
        attached counter's ``total_bit_cost`` since start.  In the
        parallel executor each worker enforces what remains of the
        ceiling on its own solve, and the parent's counter absorbs
        every worker's costs, so the whole solve is charged.
    clock:
        Injectable monotonic clock, for deterministic tests.  The
        default is ``time.monotonic`` — the same timebase the
        executor's dispatch loop and task deadlines use — never
        ``time.time``, whose NTP/wall-clock steps would make a
        deadline fire early or never when mixed with monotonic
        readings.
    """

    deadline_seconds: float | None = None
    max_bit_ops: int | None = None
    clock: Callable[[], float] = time.monotonic
    _t0: float | None = field(default=None, init=False, repr=False)
    _counter: Any = field(default=None, init=False, repr=False)
    _bits0: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.max_bit_ops is not None and self.max_bit_ops < 0:
            raise ValueError("max_bit_ops must be >= 0")

    # -- lifecycle -------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once :meth:`start` has run."""
        return self._t0 is not None

    def start(self, counter: Any = None) -> "Budget":
        """Begin measuring (idempotent); returns ``self``.

        ``counter`` is the :class:`~repro.costmodel.counter.CostCounter`
        the bit ceiling reads.  The first call pins the epoch; later
        calls are no-ops so one budget can span several finder calls.
        """
        if self._t0 is None:
            self._t0 = self.clock()
            self._counter = counter
            self._bits0 = self._spent_total()
        return self

    # -- measurement -----------------------------------------------------
    def _spent_total(self) -> int:
        if self._counter is None:
            return 0
        return self._counter.total_bit_cost

    def elapsed_seconds(self) -> float:
        """Seconds since start (0.0 before start)."""
        if self._t0 is None:
            return 0.0
        return self.clock() - self._t0

    def spent_bit_ops(self) -> int:
        """Bit cost charged to the attached counter since start."""
        return self._spent_total() - self._bits0

    def over(self) -> str | None:
        """The exceeded axis (``"deadline"`` / ``"bit_budget"``), else
        ``None``.  Never raises; :meth:`check` wraps it.

        A positive deadline is inclusive — elapsed time must *exceed*
        it to trip — but ``deadline_seconds=0`` ("no time at all")
        trips at the first check after :meth:`start` even when a
        coarse clock still reads an elapsed time of exactly 0.0; with
        strict ``>`` a zero deadline could never fire on such ties.
        """
        if self._t0 is None:
            return None
        if self.deadline_seconds is not None:
            elapsed = self.elapsed_seconds()
            if (elapsed > self.deadline_seconds
                    or (self.deadline_seconds == 0 and elapsed >= 0.0)):
                return "deadline"
        if (self.max_bit_ops is not None
                and self.spent_bit_ops() > self.max_bit_ops):
            return "bit_budget"
        return None

    def check(
        self,
        *,
        scaled: Sequence[int] = (),
        phase: str = "",
        mu: int = 0,
        degree: int = 0,
    ) -> None:
        """Cooperative check point: raise :class:`BudgetExceeded` if a
        bound is exceeded, attaching the caller's completed roots
        (``scaled``) as the structured partial result."""
        reason = self.over()
        if reason is None:
            return
        raise BudgetExceeded(
            reason,
            PartialResult(
                mu=mu,
                scaled=list(scaled),
                degree=degree,
                phase=phase,
                reason=reason,
                elapsed_seconds=self.elapsed_seconds(),
                bit_cost=self.spent_bit_ops(),
            ),
        )
