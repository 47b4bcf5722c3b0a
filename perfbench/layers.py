"""Traced passes: time and count each layer through its public calls.

Three passes over the same jobs, all in this process:

* :func:`layer_pass` — for each job, ``RealRootFinder.find_roots``
  once, then the same solve rebuilt from the layers' own entry points
  with a timer around each: ``compute_remainder_sequence`` (remainder),
  ``InterleavingTree.compute_polynomials(check=True)`` (tree), and
  ``IntervalProblemSolver.solve_all`` per tree node in postorder
  (interval, covering the sieve, bisection, Newton and Horner calls).
  Both answers must equal the reference.
* :func:`counted_pass` — ``RealRootFinder(counter=CostCounter())``:
  bit operations by phase prefix and the ``IntervalStats`` counts.
* :func:`pool_pass` — ``ParallelRootFinder(processes=2)
  .find_roots_scaled`` with a warm pool, against the in-process time.
"""

from __future__ import annotations

import time

from repro import CostCounter, IntPoly, RealRootFinder
from repro.core import (
    IntervalProblemSolver,
    InterleavingTree,
    NotSquareFreeError,
    compute_remainder_sequence,
)
from repro.core.interval import solve_linear_scaled
from repro.core.rootfinder import merge_sorted
from repro.core.tasks import build_interval_plan
from repro.poly.roots_bounds import root_bound_bits


def _layered_solve(p: IntPoly, mu: int, ms: dict) -> tuple[list[int], object]:
    """``find_roots`` on a square-free ``p``, layer by layer."""
    t0 = time.perf_counter()
    seq = compute_remainder_sequence(p)
    t1 = time.perf_counter()
    tree = InterleavingTree(seq)
    tree.compute_polynomials(check=True)
    t2 = time.perf_counter()
    r_bits = root_bound_bits(p)
    for node in tree.nodes_postorder():
        if node.is_empty:
            node.roots_scaled = []
        elif node.degree == 1:
            node.roots_scaled = [solve_linear_scaled(node.poly, mu)]
        else:
            inter = merge_sorted(node.left.roots_scaled or [],
                                 node.right.roots_scaled or [])
            node.roots_scaled = IntervalProblemSolver(
                node.poly, mu, r_bits).solve_all(inter)
    t3 = time.perf_counter()
    ms["remainder"] += (t1 - t0) * 1e3
    ms["tree"] += (t2 - t1) * 1e3
    ms["interval"] += (t3 - t2) * 1e3
    return tree.root.roots_scaled, tree


def layer_pass(jobs: list[dict], gate) -> dict:
    """Per-layer wall times over the square-free jobs, plus executor
    task counts.  Both answers of every job go through ``gate``."""
    ms = {"remainder": 0.0, "tree": 0.0, "interval": 0.0, "find_roots": 0.0}
    plain_wall = layered_wall = 0.0
    tasks = skipped = 0
    for job in jobs:
        p = IntPoly(job["coeffs"])
        if p.leading_coefficient < 0:
            p = -p
        mu = job["bits"]
        t0 = time.perf_counter()
        plain = RealRootFinder(mu_bits=mu).find_roots(p).scaled
        t1 = time.perf_counter()
        try:
            layered, tree = _layered_solve(p, mu, ms)
        except NotSquareFreeError:
            skipped += 1
            continue
        t2 = time.perf_counter()
        if not (gate.check(job, [str(s) for s in plain])
                and gate.check(job, [str(s) for s in layered])):
            raise AssertionError(gate.wrong[-1])
        ms["find_roots"] += (t1 - t0) * 1e3
        plain_wall += t1 - t0
        layered_wall += t2 - t1
        tasks += sum(2 * n.degree + 1 for n in build_interval_plan(tree)
                     if n.degree >= 2)
    layers = ms["remainder"] + ms["tree"] + ms["interval"]
    return {
        "remainder.ms": ms["remainder"],
        "tree.ms": ms["tree"],
        "interval.ms": ms["interval"],
        "rootfinder.glue_ms": ms["find_roots"] - layers,
        "layers.coverage": layers / ms["find_roots"],
        "trace.overhead_share": (layered_wall - plain_wall) / plain_wall,
        "executor.tasks": tasks,
        "_skipped": skipped,
    }


def counted_pass(jobs: list[dict]) -> dict:
    """Bit operations by phase and interval-phase counts (exact)."""
    bit_ops = {"remainder": 0, "tree": 0, "interval": 0}
    counts = {"horner_evals": 0, "preinterval_evals": 0, "sieve_evals": 0,
              "bisection_evals": 0, "newton_iters": 0}
    for job in jobs:
        counter = CostCounter()
        result = RealRootFinder(mu_bits=job["bits"], counter=counter
                                ).find_roots(IntPoly(job["coeffs"]))
        for phase in bit_ops:
            bit_ops[phase] += counter.phase_stats(phase).total_bit_cost
        st = result.stats
        counts["horner_evals"] += st.evaluations
        counts["preinterval_evals"] += st.preinterval_evals
        counts["sieve_evals"] += st.sieve_evals
        counts["bisection_evals"] += st.bisection_evals
        counts["newton_iters"] += st.newton_iters
    out = {f"{k}.bit_ops": v for k, v in bit_ops.items()}
    out.update({f"interval.{k}": v for k, v in counts.items()})
    return out


def pool_pass(jobs: list[dict], gate) -> dict:
    """Pool wall vs. in-process wall on the jobs the pool solves;
    failures are counted per degree, wrong answers raise."""
    from repro.sched import ParallelRootFinder

    pool_s = inproc_s = 0.0
    failed: dict[int, int] = {}
    finder = ParallelRootFinder(mu=16, processes=2)
    try:
        finder.find_roots_scaled(IntPoly([-6, -1, 1]))  # spawn the pool
        for job in jobs:
            p = IntPoly(job["coeffs"])
            finder.mu = job["bits"]
            t0 = time.perf_counter()
            try:
                got = finder.find_roots_scaled(p)
            except Exception:  # the executor's failure modes vary
                failed[p.degree] = failed.get(p.degree, 0) + 1
                continue
            t1 = time.perf_counter()
            if not gate.check(job, [str(s) for s in got]):
                raise AssertionError(gate.wrong[-1])
            RealRootFinder(mu_bits=job["bits"]).find_roots(p)
            pool_s += t1 - t0
            inproc_s += time.perf_counter() - t1
        m = finder.metrics
        return {
            "executor.pool_ratio": pool_s / inproc_s if inproc_s else 0.0,
            "executor.failed_polys": sum(failed.values()),
            "executor.retries": m.counter("executor.retries").value,
            "executor.fallbacks": m.counter("executor.fallbacks").value,
            "executor.inline_tasks": m.counter("executor.inline_tasks").value,
            "_failed_by_degree": failed,
        }
    finally:
        finder.close()
