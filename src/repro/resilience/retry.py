"""Per-task retry policy with exponential backoff.

The executor resubmits a failed/timed-out/killed task to a fresh
worker up to ``max_retries`` times before solving that polynomial in
the parent process (see docs/RESILIENCE.md).  The backoff schedule is deterministic (no
jitter): retries are scheduled, not slept, so the dispatch loop keeps
servicing other completions while a backoff elapses, and tests can
assert exact retry counts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to resubmit a failed task, and how long to wait.

    ``delay(attempt)`` is the pause before resubmitting after failed
    attempt number ``attempt`` (1-based):
    ``min(backoff_max, backoff_base * backoff_factor**(attempt - 1))``.
    ``max_retries=0`` disables retries entirely (a failed task degrades
    straight to the parent process).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max < self.backoff_base:
            raise ValueError("backoff_max must be >= backoff_base")

    def delay(self, attempt: int) -> float:
        """Backoff before the resubmission that follows failed attempt
        ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
