"""Resilience layer: budgets, retries, circuit breaking, checkpoints.

The north star is a service shape, and a service cannot let one slow or
dead worker throw away a whole request, nor let a pathological input
(Wilkinson-style clusters — see Sagraloff's adaptive-precision
analysis, arXiv:1011.0344) hold a request slot forever.  This package
holds the four pieces the executor and the finders thread through:

- :mod:`repro.resilience.budget` — :class:`Budget` bounds a run by wall
  clock and/or bit cost; overruns raise :class:`BudgetExceeded`, which
  carries the certified roots found so far as a
  :class:`PartialResult`.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy`: per-task
  resubmission with exponential backoff before any degradation.
- :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`: after K
  consecutive pool failures, solve polynomials in the parent process
  for a cool-down, then half-open with a single probe task.
- :mod:`repro.resilience.checkpoint` — :class:`BatchCheckpoint`:
  streaming JSONL checkpoint for ``repro batch`` so a killed batch run
  resumes where it stopped instead of re-solving finished polynomials.

Everything here is deterministic and clock-injectable so the fault
matrix (:mod:`repro.verify.faults`, ``tests/verify/test_faults.py``)
can pin each behavior with exact counter assertions.  See
docs/RESILIENCE.md for the semantics and the counter glossary.
"""

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.budget import Budget, BudgetExceeded, PartialResult
from repro.resilience.checkpoint import (
    BatchCheckpoint,
    CheckpointMismatch,
    poly_key,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Budget",
    "BudgetExceeded",
    "PartialResult",
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "BatchCheckpoint",
    "CheckpointMismatch",
    "poly_key",
]
