"""Executor throughput: persistent warm pool vs. the per-call-Pool baseline.

The pre-tentpole executor spawned a fresh ``spawn`` pool inside every
``find_roots_scaled`` call, so service-style workloads (many
polynomials, one process) paid interpreter-boot latency per call.  The
persistent executor amortizes one pool across the batch and submits
the whole batch at once, one polynomial per task; this bench
quantifies the per-call dispatch overhead both ways.

The cold baseline is emulated faithfully: a fresh
:class:`~repro.sched.executor.ParallelRootFinder` (hence a fresh pool)
per call, closed right after — exactly one pool lifetime per
polynomial, like the old ``with mp.Pool(...)`` body.
"""

import time

import pytest

from repro.bench.report import format_series, save_result
from repro.core.rootfinder import RealRootFinder
from repro.poly.dense import IntPoly
from repro.sched.executor import ParallelRootFinder

MU = 16
PROCESSES = 2

#: Multi-level interleaving trees (degrees 4-7).
WORKLOAD_ROOTS = [
    [-9, -4, -1, 2, 5, 11],
    [-12, -6, 0, 3, 8],
    [-15, -7, -2, 1, 6, 10, 14],
    [-8, -3, 4, 13],
]


def _workload() -> list[IntPoly]:
    return [IntPoly.from_roots(r) for r in WORKLOAD_ROOTS] * 2


@pytest.mark.slow
def test_throughput_persistent_pool_beats_per_call_pool():
    polys = _workload()
    expected = [RealRootFinder(mu_bits=MU).find_roots(p).scaled
                for p in polys]

    # Cold baseline: one pool lifetime per call.
    t0 = time.perf_counter()
    cold_results = []
    for p in polys:
        with ParallelRootFinder(mu=MU, processes=PROCESSES) as f:
            cold_results.append(f.find_roots_scaled(p))
    cold = time.perf_counter() - t0

    # Warm path: one pool for the whole batch; spawn happens outside
    # the timed region (a service pays it once at startup).
    with ParallelRootFinder(mu=MU, processes=PROCESSES) as f:
        f.find_roots_scaled(polys[0])
        t0 = time.perf_counter()
        warm_results = f.find_roots_many(polys)
        warm = time.perf_counter() - t0
        assert f.fallback_count == 0

    assert cold_results == expected
    assert warm_results == expected

    n = len(polys)
    rows = [[n, cold, cold / n, warm, warm / n, cold / warm]]
    text = format_series(
        "Executor throughput: per-call Pool baseline vs persistent pool "
        f"(mu={MU} bits, {PROCESSES} processes)",
        "calls",
        ["cold_total_s", "cold_per_call_s", "warm_total_s",
         "warm_per_call_s", "speedup"],
        rows,
    )
    print("\n" + text)
    save_result("executor_throughput", text)

    # The acceptance claim: per-call dispatch overhead shrinks once the
    # pool persists (pool spawn alone costs ~hundreds of ms per call).
    assert warm / n < cold / n, (
        f"warm per-call {warm / n:.3f}s not below cold {cold / n:.3f}s"
    )
