"""Real process-pool execution: one pool task per polynomial.

The simulator (:mod:`repro.sched.simulator`) reproduces the paper's
parallel study at the paper's task grain (Tables 3-7).  Sent across
pickling process boundaries that grain lost to in-process solving at
every degree measured, so this module sends **whole polynomials** to
one persistent ``spawn`` pool: each task runs
:class:`~repro.core.rootfinder.RealRootFinder` on one input with the
finder's ``mu``, ``strategy``, ``check_tree`` and ``backend``, so the
answers are the sequential finder's, bit for bit.  Parallelism comes
from batches (:meth:`ParallelRootFinder.find_roots_many`).

Each polynomial is a *logical task* (:mod:`repro.resilience`): a
timed-out, poisoned or killed attempt is retried with backoff; a task
out of retries, or refused by the open circuit breaker, is solved in
the parent; a late result of an abandoned attempt is discarded as
stale; only a broken pool sends the rest of a call down the counted
sequential fallback.  The worker builds its
:class:`~repro.resilience.budget.Budget` from what remains of the
caller's, returns an overrun's
:class:`~repro.resilience.budget.PartialResult` as data, and ships back
its counter snapshot (absorbed by the parent's counter), span tree
(adopted onto a per-pid lane under ``executor.dispatch``) and collapsed
profile.  Every submit/complete samples queue depth and in-flight tasks
into the :class:`~repro.obs.metrics.MetricsRegistry`; the reliability
counters are glossed in docs/RESILIENCE.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import multiprocessing as mp
import os
import queue
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial as _partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.interval import solve_linear_scaled
from repro.core.rootfinder import RealRootFinder
from repro.costmodel.backend import (
    counter_for, null_counter_for, resolve_backend)
from repro.costmodel.counter import NULL_COUNTER, CostCounter, NullCounter
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler, collapse, merge_collapsed
from repro.obs.trace import NULL_TRACER, Tracer
from repro.poly.dense import IntPoly
from repro.resilience.breaker import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, CircuitBreaker)
from repro.resilience.budget import Budget, BudgetExceeded, PartialResult
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.resilience.checkpoint import BatchCheckpoint

__all__ = ["ParallelRootFinder", "solve_worker"]


class _Degraded(Exception):
    """Internal: the pool cannot take work; solve the rest in-parent."""


# -- worker side -----------------------------------------------------------

def solve_worker(args: tuple) -> tuple:
    """Pool worker: solve one whole polynomial with ``RealRootFinder``.

    ``args = (coeffs, mu, strategy, check_tree, backend, counted, trace,
    profile, deadline_seconds, max_bit_ops)``; the last two are what
    remains of the caller's budget (``None`` = unbounded).  Returns
    ``(outcome, costs, spans, folded)``: the ascending scaled roots, a
    budget overrun's :class:`PartialResult`, or the exception the solve
    raised (the same on every attempt, so the parent re-raises it);
    then the counter snapshot, the span export and the collapsed
    profile, each ``None`` when not asked for.
    """
    (coeffs, mu, strategy, check_tree, backend, counted, trace, profile,
     deadline, max_bits) = args
    counted = counted or trace or max_bits is not None
    counter = counter_for(backend) if counted else null_counter_for(backend)
    tracer = Tracer(counter=counter) if trace else NULL_TRACER
    budget = (Budget(deadline_seconds=deadline, max_bit_ops=max_bits)
              if deadline is not None or max_bits is not None else None)
    finder = RealRootFinder(
        mu_bits=mu, check_tree=check_tree, counter=counter,
        strategy=strategy, tracer=tracer, budget=budget, backend=backend,
    )
    p = IntPoly(coeffs)
    prof = SamplingProfiler() if profile else None
    outcome: Any
    try:
        with prof or contextlib.nullcontext(), \
                tracer.span("solve", pid=os.getpid(), degree=p.degree):
            outcome = finder.find_roots(p).scaled
    except BudgetExceeded as exc:
        outcome = exc.partial
    except Exception as exc:  # the solve's own verdict, not a pool fault
        outcome = exc
    return (outcome, counter.snapshot() if counted else None,
            tracer.export() if trace else None,
            collapse(prof.drain()) if prof is not None else None)


# -- parent side -----------------------------------------------------------


@dataclass
class ParallelRootFinder:
    """Multiprocessing variant of :class:`repro.core.rootfinder.RealRootFinder`
    built around one persistent worker pool.

    The pool is spawned on the first call that needs it and reused
    until :meth:`close`.  Each polynomial of degree >= 2 is one pool
    task; constants and linear inputs are answered in the parent.
    Degenerate inputs behave like the sequential finder: ``ValueError``
    on the zero polynomial, ``[]`` for constants, the square-free
    reduction (in the worker) for repeated roots.  A call always
    returns the exact answer.

    Parameters
    ----------
    mu:
        Output precision in bits (scaled grid is ``2**-mu``).
    processes:
        Pool size.  The pool respawns dead workers; a broken pool is
        replaced on the next call.
    check_tree / strategy / backend:
        As for the sequential finder, applied in every worker; may be
        changed between calls.  ``backend`` is resolved at
        construction (docs/BACKENDS.md).
    task_timeout:
        Per-task deadline in seconds (``None`` = wait forever), timed
        from when the task can hold a worker: queueing behind earlier
        polynomials is not charged.  A late attempt is abandoned and the
        task retried or solved in-parent.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy` for failed tasks
        (default 2 retries, exponential backoff); ``max_retries=0``
        degrades straight to in-parent solving.
    breaker:
        :class:`~repro.resilience.breaker.CircuitBreaker` shared by
        every call: while open, polynomials are solved in-parent.
        Transitions count ``executor.breaker_*`` and emit
        ``breaker_*`` tracer events.
    budget:
        Optional :class:`~repro.resilience.budget.Budget`, started on
        the first dispatching call.  Each task carries what remains of
        it into the worker; the parent checks it once per dispatch-loop
        event.  An overrun raises
        :class:`~repro.resilience.budget.BudgetExceeded`.
    counter:
        Charged with every solve's bit cost: a charging counter makes
        each worker count its whole solve and ship the snapshot back.
    tracer:
        Observability hook (see the module docstring).
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``executor.queue_depth`` / ``executor.in_flight`` gauges, the
        ``executor.queue_depth.samples`` histogram and the reliability
        counters (:data:`repro.obs.metrics.EXECUTOR_COUNTERS`).
    faults:
        Test-only fault-injection plan with an ``intercept(
        dispatch_index, fn, payload, finder)`` method (see
        :class:`repro.verify.faults.FaultPlan`), consulted once per pool
        submission; retries take fresh indices.
    profile / profile_interval:
        Sample every pool task in its worker and the parent's dispatch
        thread (at ``profile_interval`` seconds); read the merge via
        :meth:`profile_collapsed` / :attr:`profile_samples`.
    sample_hook:
        Optional ``(queue_depth, in_flight)`` callable invoked at every
        telemetry sample — how ``repro serve`` sees the executor's
        backlog.  Its exceptions are swallowed.
    request_tag:
        Stamped onto the ``executor.dispatch`` span as ``request_id``
        (``None`` adds nothing), tying a solve's spans to its request.
    """

    mu: int
    processes: int = 2
    check_tree: bool = True
    strategy: str = "hybrid"
    task_timeout: float | None = None
    retry: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None
    budget: Budget | None = None
    counter: CostCounter = NULL_COUNTER
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    faults: Any = None
    profile: bool = False
    profile_interval: float = 0.005
    sample_hook: Any = None
    request_tag: Any = None
    backend: str = "python"
    #: parent-side timestamped profiler samples (``(t_ns, stack)``,
    #: same clock as tracer spans) — feed to ``spans_to_chrome``'s
    #: ``profile`` argument for a profiler lane in the Chrome trace.
    profile_samples: list = field(default_factory=list, init=False,
                                  repr=False)
    _profile_folded: dict = field(default_factory=dict, init=False,
                                  repr=False)
    #: polynomials solved sequentially because the pool broke (0 under
    #: task faults too: retries and in-parent tasks absorb those).
    fallback_count: int = field(default=0, init=False)
    _pool: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        from repro.core.sieve import STRATEGIES

        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {list(STRATEGIES)}"
            )
        if self.retry is None:
            self.retry = RetryPolicy()
        if self.breaker is None:
            self.breaker = CircuitBreaker()
        self.breaker.on_transition = self._on_breaker_transition
        # Resolve the backend eagerly so a bad name/missing package fails
        # at construction, not inside a worker.
        self.backend = resolve_backend(self.backend).name
        if self.counter is NULL_COUNTER:
            self.counter = null_counter_for(self.backend)
        if (self.budget is not None and self.budget.max_bit_ops is not None
                and isinstance(self.counter, NullCounter)):
            # The bit ceiling needs a real counter to read.
            self.counter = counter_for(self.backend)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        suffix = {BREAKER_OPEN: "open", BREAKER_HALF_OPEN: "half_open",
                  BREAKER_CLOSED: "close"}[new]
        self.metrics.counter(f"executor.breaker_{suffix}").inc()
        self.tracer.event(
            f"breaker_{new}", previous=old,
            consecutive_failures=self.breaker.consecutive_failures,
        )

    # -- pool lifecycle --------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            with self.tracer.span("pool.spawn", phase="pool",
                                  processes=self.processes):
                self._pool = mp.get_context("spawn").Pool(self.processes)
        return self._pool

    def worker_pids(self) -> list[int]:
        """Sorted OS pids of the live pool's workers (``[]`` if none)."""
        if self._pool is None:
            return []
        return sorted(w.pid for w in self._pool._pool)

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the pool down cleanly (idempotent).

        The join is bounded: a worker still chewing on an abandoned
        (timed-out) task must not wedge the caller, so after
        ``join_timeout`` seconds the pool is torn down hard instead
        (``executor_close_timeout`` event).  The finder stays usable:
        the next call simply spawns a fresh pool.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        with self.tracer.span("pool.close", phase="pool"):
            pool.close()
            t = threading.Thread(target=pool.join, daemon=True)
            t.start()
            t.join(timeout=join_timeout)
            if t.is_alive():
                self.tracer.event("executor_close_timeout",
                                  timeout=join_timeout)
                self._hard_teardown(pool)

    def _discard_pool(self) -> None:
        """Hard-kill a wedged pool; the next call respawns."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._hard_teardown(pool)

    def _hard_teardown(self, pool: Any) -> None:
        # terminate() can itself block forever: a worker SIGKILLed while
        # blocked in the inqueue's recv dies holding the queue read-lock
        # (a POSIX semaphore — no owner, never released), and
        # Pool._terminate drains the inqueue under that same lock.  Run
        # the teardown in a daemon thread with a bounded join; if it
        # wedges, SIGKILL the workers directly and abandon the pool
        # (its daemonic processes are reaped at interpreter exit, and
        # the daemon teardown thread cannot keep the interpreter alive).
        pids = [w.pid for w in pool._pool if w.pid]

        def _teardown() -> None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

        t = threading.Thread(target=_teardown, daemon=True)
        t.start()
        t.join(timeout=5.0)
        if t.is_alive():
            self.metrics.counter("executor.teardown_timeouts").inc()
            self.tracer.event("executor_teardown_timeout",
                              pids=pids, timeout=5.0)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

    def __enter__(self) -> "ParallelRootFinder":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    def __del__(self) -> None:
        try:
            self._discard_pool()
        except Exception:
            pass

    # -- public API ------------------------------------------------------
    def find_roots_scaled(self, p: IntPoly) -> list[int]:
        """Scaled mu-approximations of all distinct real roots, ascending
        (exact; bit-identical to the sequential finder)."""
        return self._run([p])[0]

    def find_roots_many(
        self,
        polys: Sequence[IntPoly],
        checkpoint: "BatchCheckpoint | None" = None,
    ) -> list[list[int]]:
        """Batched throughput API: every polynomial not already in
        ``checkpoint`` is submitted at once, one pool task each.
        Results are in input order, each exactly what
        :meth:`find_roots_scaled` returns.

        ``checkpoint`` (a :class:`~repro.resilience.checkpoint.
        BatchCheckpoint`) makes the batch resumable: each polynomial is
        durably recorded as it completes, and polynomials already in it
        are answered without re-solving (``executor.checkpoint_hits``).
        A rerun with the same checkpoint continues where a dead run — a
        :class:`~repro.resilience.budget.BudgetExceeded` included —
        stopped.
        """
        out: list[Any] = [None] * len(polys)
        todo: list[int] = []
        keys: dict[int, str] = {}
        with self.tracer.span("executor.batch", phase="interval",
                              count=len(polys)):
            for i, p in enumerate(polys):
                if checkpoint is not None:
                    keys[i] = checkpoint.key_for(p.coeffs)
                    cached = checkpoint.get(keys[i])
                    if cached is not None:
                        checkpoint.hit()
                        self.metrics.counter("executor.checkpoint_hits").inc()
                        self.tracer.event("checkpoint_hit", index=i,
                                          degree=p.degree)
                        out[i] = cached
                        continue
                todo.append(i)

            def done(k: int, scaled: list[int]) -> None:
                out[todo[k]] = scaled
                if checkpoint is not None:
                    checkpoint.record(keys[todo[k]], todo[k], scaled)

            self._run([polys[i] for i in todo], done)
        return out

    def profile_collapsed(self) -> dict[str, int]:
        """Merged collapsed-stack profile of every profiled call so far:
        worker task folds plus the parent dispatch thread's samples, in
        flamegraph.pl's format (``{"root;child;leaf": count}``).  Empty
        unless the finder was built with ``profile=True`` and has run.
        """
        return merge_collapsed(self._profile_folded,
                               collapse(self.profile_samples))

    # -- internals -------------------------------------------------------
    def _sequential_scaled(self, p: IntPoly) -> list[int]:
        """In-parent solve with the finder's parameters, hence the same
        answer as a worker's."""
        finder = RealRootFinder(
            mu_bits=self.mu, check_tree=self.check_tree,
            counter=self.counter, strategy=self.strategy, tracer=self.tracer,
            budget=self.budget, backend=self.backend,
        )
        return finder.find_roots(p).scaled

    def _payload(self, p: IntPoly) -> tuple:
        """:func:`solve_worker`'s arguments for ``p``, with what remains
        of the budget right now."""
        deadline = max_bits = None
        budget = self.budget
        if budget is not None and budget.deadline_seconds is not None:
            deadline = max(0.0, budget.deadline_seconds
                           - budget.elapsed_seconds())
        if budget is not None and budget.max_bit_ops is not None:
            max_bits = max(0, budget.max_bit_ops - budget.spent_bit_ops())
        return (p.coeffs, self.mu, self.strategy, self.check_tree,
                self.backend, not isinstance(self.counter, NullCounter),
                self.tracer.enabled, self.profile, deadline, max_bits)

    def _run(
        self,
        polys: Sequence[IntPoly],
        on_done: Callable[[int, list[int]], None] = lambda i, scaled: None,
    ) -> list[list[int]]:
        """Answer ``polys`` in order, calling ``on_done(index, scaled)``
        as each completes.  Constants and linear inputs are answered
        here; the rest go to :meth:`_dispatch`."""
        results: list[Any] = [None] * len(polys)
        pending: list[int] = []
        for i, p in enumerate(polys):
            if p.is_zero():
                raise ValueError(
                    "the zero polynomial has every number as a root")
            if p.degree >= 2:
                pending.append(i)
                continue
            if p.leading_coefficient < 0:
                p = -p
            results[i] = ([solve_linear_scaled(p, self.mu)]
                          if p.degree == 1 else [])
            on_done(i, results[i])
        if not pending:
            return results
        degree = max(polys[i].degree for i in pending)
        if self.budget is not None:
            self.budget.start(self.counter)
            self.budget.check(phase="remainder", mu=self.mu, degree=degree)
        tag = ({"request_id": self.request_tag}
               if self.request_tag is not None else {})
        prof = (SamplingProfiler(interval=self.profile_interval)
                if self.profile else None)
        try:
            with prof or contextlib.nullcontext(), \
                    self.tracer.span("executor.dispatch", phase="interval",
                                     degree=degree, tasks=len(pending),
                                     **tag):
                self._dispatch(polys, pending, results, on_done, degree)
        except _Degraded as exc:
            self.tracer.event("executor_fallback", reason=str(exc),
                              degree=degree)
            self._discard_pool()
            for i in pending:
                if results[i] is None:
                    self.fallback_count += 1
                    self.metrics.counter("executor.fallbacks").inc()
                    results[i] = self._sequential_scaled(polys[i])
                    on_done(i, results[i])
        finally:
            if prof is not None:
                self.profile_samples.extend(prof.drain())
        return results

    def _dispatch(
        self,
        polys: Sequence[IntPoly],
        pending: list[int],
        results: list[Any],
        on_done: Callable[[int, list[int]], None],
        degree: int,
    ) -> None:
        """Solve ``polys[i]`` on the pool for each ``i`` in ``pending``:
        a *logical task* with at most one live attempt, retried with
        backoff after a failure or timeout, then solved in-parent.  Late
        results of abandoned attempts are discarded as stale."""
        pool = self._ensure_pool()
        tracer, breaker, budget = self.tracer, self.breaker, self.budget
        clock = time.monotonic
        counted = not isinstance(self.counter, NullCounter)
        results_q: queue.Queue = queue.Queue()
        attempts = dict.fromkeys(pending, 0)
        live: dict[int, int] = {}  # attempt id -> task, submission order
        deadlines: dict[int, float] = {}  # attempt id -> deadline if timed
        retry_due: list[tuple[float, int]] = []  # heap of (due, i)
        inline_q: deque = deque()
        left = len(pending)
        n_dispatched = 0  # attempt ids = the fault plan's dispatch indices
        pool_successes = timeouts = 0
        start_pids = set(self.worker_pids())

        # Live telemetry, sampled at every submit/complete: the moments
        # the series change (no timer thread).
        depth_gauge = self.metrics.gauge("executor.queue_depth")
        inflight_gauge = self.metrics.gauge("executor.in_flight")
        depth_hist = self.metrics.histogram("executor.queue_depth.samples")

        def sample() -> None:
            inflight = min(len(live), self.processes)
            depth = len(live) - inflight
            depth_gauge.set(depth)
            inflight_gauge.set(inflight)
            depth_hist.observe(depth)
            if self.sample_hook is not None:
                try:
                    self.sample_hook(depth, inflight)
                except Exception:
                    pass
            tracer.sample("executor.queue_depth", depth)
            tracer.sample("executor.in_flight", inflight)

        def enqueue(tid: int, item: Any) -> None:  # pool's result thread
            results_q.put((tid, item, time.perf_counter_ns()))

        def dispatch(i: int) -> None:
            """One attempt at task ``i``, unless the breaker refuses."""
            nonlocal n_dispatched
            if not breaker.allow():
                inline_q.append(i)
                return
            tid = n_dispatched
            n_dispatched += 1
            fn, payload = solve_worker, self._payload(polys[i])
            if self.faults is not None:
                fn, payload = self.faults.intercept(tid, fn, payload, self)
            attempts[i] += 1
            live[tid] = i
            try:
                pool.apply_async(fn, (payload,),
                                 callback=_partial(enqueue, tid),
                                 error_callback=_partial(enqueue, tid))
            except Exception as exc:  # pool broken/closed underneath us
                raise _Degraded(f"dispatch failed: {exc!r}") from exc
            sample()

        def failed(i: int, reason: str) -> None:
            breaker.record_failure()
            n = attempts[i]
            if n <= self.retry.max_retries:
                self.metrics.counter("executor.retries").inc()
                tracer.event("executor_retry", index=i, attempt=n,
                             reason=reason)
                heapq.heappush(retry_due,
                               (clock() + self.retry.delay(n), i))
            else:
                tracer.event("executor_inline", index=i, attempts=n,
                             reason=reason)
                inline_q.append(i)

        def finish(i: int, scaled: list[int]) -> None:
            nonlocal left
            results[i] = scaled
            left -= 1
            on_done(i, scaled)

        def deliver(i: int, item: tuple, arrived_ns: int) -> None:
            outcome, costs, spans, folded = item
            if costs and counted:
                self.counter.absorb(costs)
            for stack, n in (folded or {}).items():
                self._profile_folded[stack] = (
                    self._profile_folded.get(stack, 0) + n)
            if spans:  # on the lane of the pid the "solve" root carries
                tracer.adopt(spans, key=spans[0]["attrs"].get("pid"),
                             end_ns=arrived_ns)
            if isinstance(outcome, PartialResult):
                assert budget is not None  # only a budget makes partials
                raise BudgetExceeded(outcome.reason, dataclasses.replace(
                    outcome, elapsed_seconds=budget.elapsed_seconds(),
                    bit_cost=budget.spent_bit_ops()))
            if isinstance(outcome, BaseException):
                raise outcome
            finish(i, outcome)

        for i in pending:
            dispatch(i)
        while left:
            if budget is not None:
                budget.check(phase="executor", mu=self.mu, degree=degree)
            if inline_q:
                i = inline_q.popleft()
                self.metrics.counter("executor.inline_tasks").inc()
                finish(i, self._sequential_scaled(polys[i]))
                continue
            now = clock()
            for tid in [t for t, dl in deadlines.items() if dl <= now]:
                del deadlines[tid]
                i = live.pop(tid)
                timeouts += 1
                self.metrics.counter("executor.task_timeouts").inc()
                # A changed worker-pid set means a worker died holding
                # this attempt: its result is gone for good.
                pids = set(self.worker_pids())
                if pids != start_pids:
                    self.metrics.counter("executor.worker_failures").inc()
                    start_pids = pids
                tracer.event("executor_task_timeout", index=i,
                             timeout=self.task_timeout)
                sample()
                failed(i, "timeout")
            while retry_due and retry_due[0][0] <= now:
                dispatch(heapq.heappop(retry_due)[1])
            if inline_q:
                continue
            if not live and not retry_due:
                raise _Degraded("scheduler stalled with no pending tasks")
            if self.task_timeout is not None:
                # The pool runs attempts in submission order: only the
                # oldest `processes` can be running, so start their clocks.
                for tid in itertools.islice(live, self.processes):
                    deadlines.setdefault(tid, now + self.task_timeout)
            wake = [*deadlines.values(), *(due for due, _ in retry_due[:1])]
            try:
                tid, item, arrived_ns = results_q.get(
                    timeout=max(0.0, min(wake) - now) if wake else None)
            except queue.Empty:
                continue  # deadlines/retries are re-examined at the top
            i = live.pop(tid, None)
            deadlines.pop(tid, None)
            sample()
            if i is None:
                # A late result of an abandoned (timed-out) attempt.
                self.metrics.counter("executor.stale_results").inc()
                continue
            if isinstance(item, BaseException):
                self.metrics.counter("executor.worker_failures").inc()
                tracer.event("executor_task_error", index=i,
                             error=repr(item))
                failed(i, "error")
                continue
            pool_successes += 1
            breaker.record_success()
            deliver(i, item, arrived_ns)

        if timeouts and not pool_successes:
            # Every pool interaction this call timed out: the pool is
            # likely wedged (e.g. a worker died holding the shared queue
            # lock).  Discard it so the next call starts fresh.
            tracer.event("executor_pool_suspect", timeouts=timeouts)
            self._discard_pool()
