"""Fault-matrix tests: the executor's resilience layer under
deterministic poisoned tasks, stalls, worker death, injected latency,
and sustained failure (circuit breaker).

Every scenario runs a four-polynomial ``find_roots_many`` batch — one
pool task per polynomial, so dispatch indices 0-3 are the first
attempts and retries take 4 onwards — and must (a) still return the
exact sequential-parity answers, (b) pass the exact Sturm certificate,
and (c) increment exactly the right ``executor.*`` reliability
counters — single faults are absorbed by retries
(``executor.fallbacks`` stays 0), sustained failure trips the breaker
and solves the refused polynomials in-parent (``executor.inline_tasks``),
never through the broken-pool fallback.

Set ``REPRO_FAULT_LOG=/path/events.jsonl`` to capture the structured
event log of every scenario (retry/timeout/breaker events) — CI
uploads it as an artifact.
"""

import os

import pytest

from repro.core.certify import certify_roots
from repro.core.rootfinder import RealRootFinder
from repro.costmodel.counter import CostCounter
from repro.obs.metrics import reliability_rollup
from repro.obs.trace import NULL_TRACER, Tracer
from repro.poly.dense import IntPoly
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.sched.executor import ParallelRootFinder
from repro.verify.faults import FaultPlan, InjectedFault, poison_worker

BATCH = [IntPoly.from_roots(r) for r in
         ([-5, -1, 2, 7, 11], [-9, -4, 0, 3, 8], [-6, -2, 1, 5, 10],
          [-8, -3, 2, 4, 9])]
MU = 16


@pytest.fixture(scope="module")
def reference():
    return [RealRootFinder(mu_bits=MU).find_roots(p) for p in BATCH]


@pytest.fixture(scope="module")
def fault_log():
    """Optional JSONL event sink shared by the whole module (enabled by
    ``REPRO_FAULT_LOG``); ``None`` disables capture entirely."""
    path = os.environ.get("REPRO_FAULT_LOG")
    if not path:
        yield None
        return
    from repro.obs.events import EventLog

    log = EventLog(path)
    log.run_header("fault-matrix", suite="tests/verify/test_faults.py")
    yield log
    log.run_end()
    log.close()


def _tracer(fault_log):
    if fault_log is None:
        return NULL_TRACER
    return Tracer(counter=CostCounter(), sink=fault_log)


def _fired(finder):
    """The nonzero reliability counters, short names."""
    return {k.removeprefix("executor."): v
            for k, v in reliability_rollup(finder.metrics).items() if v}


def _run_with(plan, reference, fault_log, **kwargs):
    kwargs.setdefault("task_timeout", 2.0)
    with ParallelRootFinder(mu=MU, processes=2, faults=plan,
                            tracer=_tracer(fault_log), **kwargs) as finder:
        got = finder.find_roots_many(BATCH)
        assert got == [ref.scaled for ref in reference]
        for p, scaled, ref in zip(BATCH, got, reference):
            certify_roots(p, scaled, ref.multiplicities, MU)
        return finder.fallback_count, _fired(finder)


class TestSingleFaultRetries:
    """One faulted task is absorbed by one retry: the batch still
    completes on the pool — no in-parent solve of any kind."""

    def test_poisoned_task(self, reference, fault_log):
        plan = FaultPlan(poison_at={1})
        fallbacks, fired = _run_with(plan, reference, fault_log)
        assert plan.injected == [(1, "poison")]
        assert fallbacks == 0
        assert fired == {"retries": 1, "worker_failures": 1}

    def test_stalled_task(self, reference, fault_log):
        # stall_seconds straddles task_timeout (attempt abandoned) but
        # ends before close()'s bounded join, so teardown stays clean.
        plan = FaultPlan(stall_at={2}, stall_seconds=4.0)
        fallbacks, fired = _run_with(plan, reference, fault_log)
        assert plan.injected == [(2, "stall")]
        assert fallbacks == 0
        assert fired == {"retries": 1, "task_timeouts": 1}

    def test_killed_worker(self, reference, fault_log):
        plan = FaultPlan(kill_at={0})
        fallbacks, fired = _run_with(plan, reference, fault_log)
        assert plan.injected == [(0, "kill")]
        assert fallbacks == 0
        # The in-flight task died with its worker: its deadline expires,
        # and the changed worker-pid set is detected as a failure.
        assert fired == {"retries": 1, "task_timeouts": 1,
                         "worker_failures": 1}

    def test_slow_task_below_timeout_is_invisible(self, reference, fault_log):
        plan = FaultPlan(slow_at={1}, slow_seconds=0.3)
        fallbacks, fired = _run_with(plan, reference, fault_log,
                                     task_timeout=5.0)
        assert plan.injected == [(1, "slow")]
        assert fallbacks == 0
        assert fired == {}

    def test_slow_task_above_timeout_is_retried(self, reference, fault_log):
        # The slow attempt is abandoned at the deadline and retried; its
        # (correct!) late answer may still arrive before the run ends,
        # in which case it must be discarded as stale — so everything
        # except stale_results is pinned exactly.
        plan = FaultPlan(slow_at={1}, slow_seconds=3.0)
        fallbacks, fired = _run_with(plan, reference, fault_log,
                                     task_timeout=1.0)
        assert plan.injected == [(1, "slow")]
        assert fallbacks == 0
        fired.pop("stale_results", None)
        assert fired == {"retries": 1, "task_timeouts": 1}

    def test_queueing_is_not_charged_to_the_timeout(self, reference,
                                                    fault_log):
        # Four 1.2 s tasks on two warm workers: the last two wait 1.2 s
        # for a worker, which must not count against their 2 s deadline.
        plan = FaultPlan(slow_at={0, 1, 2, 3}, slow_seconds=1.2)
        with ParallelRootFinder(mu=MU, processes=2, task_timeout=2.0,
                                tracer=_tracer(fault_log)) as finder:
            finder.find_roots_scaled(BATCH[0])  # spawn the pool first
            finder.faults = plan
            got = finder.find_roots_many(BATCH)
            assert got == [ref.scaled for ref in reference]
            assert len(plan.injected) == 4
            assert _fired(finder) == {}

    def test_fault_free_plan_is_inert(self, reference, fault_log):
        plan = FaultPlan()
        fallbacks, fired = _run_with(plan, reference, fault_log)
        assert plan.injected == []
        assert fallbacks == 0
        assert fired == {}


class TestDegradationLadder:
    """Retries exhausted -> in-parent solve of that polynomial;
    sustained failure -> breaker trips and routes around the pool."""

    def test_no_retries_goes_straight_inline(self, reference, fault_log):
        plan = FaultPlan(poison_at={1})
        fallbacks, fired = _run_with(plan, reference, fault_log,
                                     retry=RetryPolicy(max_retries=0))
        assert fallbacks == 0
        assert fired == {"inline_tasks": 1, "worker_failures": 1}

    def test_sustained_poison_trips_breaker(self, reference, fault_log):
        # Every pool submission is poisoned: after failure_threshold
        # consecutive failures the breaker opens and the remaining
        # polynomials are solved in the parent.  The answers are still
        # exact and the broken-pool fallback is never taken.
        plan = FaultPlan(poison_at=frozenset(range(10_000)))
        breaker = CircuitBreaker(failure_threshold=3, cooldown_seconds=60.0)
        # A backoff far longer than a poisoned attempt lets all four
        # first attempts fail before any retry is due.
        retry = RetryPolicy(backoff_base=0.5, backoff_max=0.5)
        fallbacks, fired = _run_with(plan, reference, fault_log,
                                     breaker=breaker, retry=retry)
        # The four first attempts fail and open the breaker (threshold
        # 3); it refuses every retry, so each polynomial is scheduled
        # for one retry and then solved in-parent.
        assert fallbacks == 0
        assert fired == {"breaker_open": 1, "worker_failures": 4,
                         "retries": 4, "inline_tasks": 4}

    def test_breaker_recovers_through_half_open(self, reference, fault_log):
        # threshold 1 + zero cool-down: the single poisoned task opens
        # the breaker, the very next dispatch half-opens it as the
        # probe, and the probe's success closes it again — the full
        # state cycle, deterministically.
        plan = FaultPlan(poison_at={1})
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=0.0)
        fallbacks, fired = _run_with(plan, reference, fault_log,
                                     breaker=breaker)
        assert fallbacks == 0
        assert fired == {"breaker_open": 1, "breaker_half_open": 1,
                         "breaker_close": 1, "retries": 1,
                         "worker_failures": 1}
        assert breaker.state == "closed"

    def test_finder_stays_usable_after_faults(self, reference, fault_log):
        plan = FaultPlan(poison_at={0}, kill_at={3})
        with ParallelRootFinder(mu=MU, processes=2, task_timeout=2.0,
                                faults=plan,
                                tracer=_tracer(fault_log)) as finder:
            expected = [ref.scaled for ref in reference]
            assert finder.find_roots_many(BATCH) == expected
            finder.faults = None  # second call: healthy pool, no faults
            before = _fired(finder)
            assert finder.find_roots_many(BATCH) == expected
            assert finder.fallback_count == 0
            assert _fired(finder) == before  # clean second call


class TestFaultPlan:
    def test_overlapping_indices_rejected(self):
        with pytest.raises(ValueError, match="conflicting faults"):
            FaultPlan(poison_at={1}, kill_at={1})
        with pytest.raises(ValueError, match="conflicting faults"):
            FaultPlan(slow_at={2}, stall_at={2})

    def test_intercept_pass_through(self):
        plan = FaultPlan(poison_at={3})
        fn, payload = plan.intercept(0, poison_worker, "payload", None)
        assert (fn, payload) == (poison_worker, "payload")
        assert plan.injected == []

    def test_poison_worker_raises(self):
        with pytest.raises(InjectedFault):
            poison_worker(("anything",))

    def test_stall_worker_raises_after_sleep(self):
        from repro.verify.faults import stall_worker

        with pytest.raises(InjectedFault):
            stall_worker((0.0,))

    def test_slow_worker_returns_real_answer(self):
        from repro.verify.faults import slow_worker

        assert slow_worker((0.0, len, "abc")) == 3
