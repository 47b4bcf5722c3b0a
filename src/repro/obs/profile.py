"""Opt-in low-overhead sampling profiler with collapsed-stack output.

A :class:`SamplingProfiler` runs a daemon timer thread that samples one
target thread's Python stack every ``interval`` seconds via
``sys._current_frames()`` — no tracing hooks, no interpreter slowdown
between samples, so overhead is bounded by ``samples/sec x cost of one
stack walk`` (well under 5% at the 5 ms default on any real workload).

Samples are ``(t_ns, stack)`` pairs where ``stack`` is a root-first
tuple of ``module:function`` frames.  :func:`collapse` folds them into
the classic collapsed-stack mapping (``"a;b;c" -> count``) consumed by
flamegraph tooling (``flamegraph.pl``, speedscope, inferno);
:func:`write_collapsed` emits the one-line-per-stack text file.

Two integration points:

* the executor's pool task runs under its own profiler and returns
  its folded samples with the task result — the parent merges them into
  :meth:`repro.sched.executor.ParallelRootFinder.profile_collapsed`;
* timestamped samples from the parent process fold into the Chrome
  trace as instant events on a dedicated ``profiler`` lane
  (:func:`profile_chrome_events`), putting hot-stack samples next to
  the span timeline.

Every ``start()`` takes one immediate anchor sample, so even a
microsecond-lived profiled region contributes at least one stack and a
profiled run's collapsed output is never empty.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO, Any, Iterable, Mapping

__all__ = [
    "SamplingProfiler",
    "collapse",
    "merge_collapsed",
    "write_collapsed",
    "read_collapsed",
    "profile_chrome_events",
    "DEFAULT_INTERVAL",
]

#: Default sampling period in seconds (200 Hz): coarse enough to stay
#: far under the <5% overhead budget, fine enough to catch ms-scale
#: phases.
DEFAULT_INTERVAL = 0.005


def _format_frame(frame: Any) -> str:
    """One stack entry: ``module:function`` (collapsed-format safe)."""
    mod = frame.f_globals.get("__name__", "?")
    name = frame.f_code.co_name
    return f"{mod}:{name}".replace(";", "_").replace(" ", "_")


def _walk_stack(frame: Any, limit: int) -> tuple[str, ...]:
    out: list[str] = []
    while frame is not None and len(out) < limit:
        out.append(_format_frame(frame))
        frame = frame.f_back
    out.reverse()  # collapsed stacks are root-first
    return tuple(out)


class SamplingProfiler:
    """Samples one thread's stack on a timer; collects ``(t_ns, stack)``.

    Parameters
    ----------
    interval:
        Seconds between samples (default :data:`DEFAULT_INTERVAL`).
    thread_id:
        ``threading.get_ident()`` of the thread to sample; defaults to
        the thread that calls :meth:`start`.
    max_depth:
        Stack-walk depth cap (frames beyond it are dropped from the
        root end).

    The profiler is restartable: ``start``/``stop`` pairs may repeat,
    and :meth:`drain` hands back (and clears) the samples collected so
    far, so a long-lived worker can attribute samples per task.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        thread_id: int | None = None,
        max_depth: int = 64,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = interval
        self.thread_id = thread_id
        self.max_depth = max_depth
        self.samples: list[tuple[int, tuple[str, ...]]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """True while the sampler thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def sample_once(self) -> None:
        """Take one sample of the target thread right now."""
        tid = self.thread_id
        if tid is None:
            tid = threading.get_ident()
        frame = sys._current_frames().get(tid)
        if frame is None:
            return
        stack = _walk_stack(frame, self.max_depth)
        if stack:
            with self._lock:
                self.samples.append((time.perf_counter_ns(), stack))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent); takes one immediate anchor sample.

        The target defaults to the calling thread, which is what both
        integration points want: the worker wrapper and the parent
        dispatch loop each profile themselves.
        """
        if self.running:
            return self
        if self.thread_id is None:
            self.thread_id = threading.get_ident()
        self.sample_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (idempotent; samples are kept)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._thread = None

    def drain(self) -> list[tuple[int, tuple[str, ...]]]:
        """Hand back all samples collected so far and clear the buffer."""
        with self._lock:
            out, self.samples = self.samples, []
        return out

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def collapse(
    samples: Iterable[tuple[int, tuple[str, ...]]],
) -> dict[str, int]:
    """Fold timestamped samples into ``{"root;child;leaf": count}``."""
    out: dict[str, int] = {}
    for _t, stack in samples:
        key = ";".join(stack)
        out[key] = out.get(key, 0) + 1
    return out


def merge_collapsed(*folded: Mapping[str, int]) -> dict[str, int]:
    """Sum several collapsed-stack mappings into one."""
    out: dict[str, int] = {}
    for d in folded:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def write_collapsed(
    path_or_file: str | IO[str], folded: Mapping[str, int]
) -> None:
    """Write the flamegraph.pl input format: ``stack count`` per line,
    sorted by stack for reproducible diffs."""
    payload = "".join(
        f"{stack} {count}\n" for stack, count in sorted(folded.items())
    )
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path_or_file.write(payload)


def read_collapsed(path: str) -> dict[str, int]:
    """Parse a collapsed-stack file back into its mapping."""
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            out[stack] = out.get(stack, 0) + int(count)
    return out


def profile_chrome_events(
    samples: Iterable[tuple[int, tuple[str, ...]]],
    t0: int,
    pid: int = 1,
    tid: int = 9999,
) -> list[dict[str, Any]]:
    """Timestamped samples as Chrome-trace instant events.

    One ``"ph": "i"`` event per sample on lane ``tid``, named by the
    leaf function and carrying the full collapsed stack in ``args`` —
    hot-function samples inspectable right under the span lanes.
    ``t0`` is the trace epoch in nanoseconds (the same origin
    ``spans_to_chrome`` subtracts).
    """
    events: list[dict[str, Any]] = []
    for t_ns, stack in samples:
        events.append({
            "ph": "i", "s": "t", "pid": pid, "tid": tid,
            "name": stack[-1] if stack else "?", "cat": "profile",
            "ts": (t_ns - t0) / 1000.0,
            "args": {"stack": ";".join(stack)},
        })
    return events
