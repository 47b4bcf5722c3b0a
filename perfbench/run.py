"""perfbench: the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every answer is certified
or compared byte for byte with a certified one.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it starts with ``perfbench-record`` and carries the
full record (input fingerprint, sample counts, failures by degree,
exact counts) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import inputs  # noqa: E402
from procs import adopt_orphans, reap_children  # noqa: E402
from stats import TooFewSamples, calib_ms, median, percentile  # noqa: E402

E2E_UNITS = {
    "polys_per_s": "1/s",
    "latency_ms.p50": "ms",
    "ok_share": "share",
    "cpu_ms_per_poly": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "remainder.ms": "ms", "remainder.bit_ops": "count",
    "tree.ms": "ms", "tree.bit_ops": "count",
    "interval.ms": "ms", "interval.bit_ops": "count",
    "interval.horner_evals": "count", "interval.preinterval_evals": "count",
    "interval.sieve_evals": "count", "interval.bisection_evals": "count",
    "interval.newton_iters": "count",
    "rootfinder.glue_ms": "ms", "layers.coverage": "share",
    "trace.overhead_share": "share",
    "executor.pool_ratio": "ratio", "executor.tasks": "count",
    "executor.failed_polys": "count", "executor.retries": "count",
    "executor.fallbacks": "count", "executor.inline_tasks": "count",
    "serve.validate_ms.p50": "ms", "serve.serialize_ms.p50": "ms",
    "serve.write_ms.p50": "ms", "serve.transport_ms.p50": "ms",
    "serve.queue_wait_ms.p50": "ms", "serve.queue_wait_ms.p90": "ms",
    "serve.solve_ms.p50": "ms", "serve.solve_ms.p90": "ms",
    "serve.unstaged_ms.p50": "ms", "serve.cache_lookup_ms.p50": "ms",
    "serve.errors": "count", "cache.disk_bytes": "bytes",
    "journal.bytes_per_req": "bytes", "access_log.bytes_per_req": "bytes",
    "host.calib_ms": "ms",
}

#: Counts that repeat exactly between runs of one seed on one commit.
COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items()
                      if u == "count" and k != "serve.errors")

#: Per-layer metrics that only a serve workload measures.
SERVE_LAYER = tuple(k for k in LAYER_UNITS
                    if k.startswith(("serve.", "cache.", "journal.",
                                     "access_log.")))

WORKLOADS = {
    "charpoly_lowmu": {"degrees": range(40, 71, 5), "digits": 4},
    "charpoly_highmu": {"degrees": range(10, 41, 5), "digits": 32},
    "serve_paper": {},
}

#: serve_paper answers at least this many requests, so that a p90 has
#: ten samples beyond it.
MIN_SAMPLES = 100
#: Library workloads time every input at least this often (a p90 of
#: the 21 paper inputs needs five passes).
MIN_PASSES = 5
#: The vCPUs a library run alternates its passes and start-ups over.
CPUS = sorted(os.sched_getaffinity(0))
#: serve_paper: rounds of 61 requests generated ahead of the timed loop.
PAPER_ROUNDS = 15


class InvalidRun(RuntimeError):
    """The run cannot be scored (count or generator mismatch)."""


# -- library workloads --------------------------------------------------------

def _spawn_lib(bits: int, cpu: int) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "lib_runner.py"), str(bits)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        text=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("library runner failed to start")
    return proc, time.perf_counter() - t0


def _setup_probe(bits: int, cpu: int) -> float:
    """Start-up time of one more fresh runner, which then exits."""
    proc, dt = _spawn_lib(bits, cpu)
    try:
        proc.communicate("exit\n", timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return dt


def _read_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"library runner exited {proc.wait()}")
    return json.loads(line)


def run_lib(jobs: list[dict], seconds: float, gate) -> dict:
    """Whole passes of ``RealRootFinder.find_roots`` in a fresh child.

    An input's latency is its mean over the passes.  The host's speed
    switches between two levels for seconds at a time; the median of
    single solves jumps with the share of solves at each level, while
    each input's mean moves smoothly with it.  A fresh runner's start-up
    is timed after every pass, so ``setup_s`` samples the whole run too.
    The vCPUs do not switch levels together, and a lone process stays on
    one of them, so passes and start-ups take turns on each vCPU.
    """
    bits = jobs[0]["bits"]
    proc, setup = _spawn_lib(bits, CPUS[0])
    setups, passes, wall = [setup], [], 0.0
    try:
        proc.stdin.write(json.dumps(
            {"jobs": [{"coeffs": j["coeffs"]} for j in jobs]}) + "\n")
        while wall < seconds or len(passes) < MIN_PASSES:
            cpu = CPUS[len(passes) % len(CPUS)]
            os.sched_setaffinity(proc.pid, {cpu})
            t0 = time.perf_counter()
            proc.stdin.write("pass\n")
            proc.stdin.flush()
            passes.append(_read_line(proc))
            wall += time.perf_counter() - t0
            setups.append(_setup_probe(bits, cpu))
        proc.stdin.write("exit\n")
        proc.stdin.flush()
        peak_rss_mb = _read_line(proc)["peak_rss_mb"]
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    done = jobs * len(passes)
    answers = [a for p in passes for a in p["answers"]]
    ok = [gate.check(j, a) for j, a in zip(done, answers)]
    per_input = [sum(p["latency_ms"][i] for p in passes) / len(passes)
                 for i in range(len(jobs))]
    raw = [ms for p in passes for ms in p["latency_ms"]]
    cpu_ms = sum(ms for p in passes for ms in p["cpu_ms"])
    return {
        "jobs": done, "ok": ok,
        "polys_per_s": sum(ok) / wall,
        "latency_ms": per_input,
        "cpu_ms_per_poly": cpu_ms / max(sum(ok), 1),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setups),
        "record": {"passes": len(passes), "setups": len(setups),
                   "latency_ms.p90": percentile(raw, 0.9)},
    }


# -- serve workloads ----------------------------------------------------------

def _answer_ok(gate, job, resp) -> bool:
    return resp.get("status") == "ok" and gate.check(job, resp["scaled"])


def run_serve_paper(rounds: list[list[dict]], seconds: float, tmp: str,
                    gate) -> dict:
    """One closed-loop client, whole rounds until ``seconds`` have passed
    and ``MIN_SAMPLES`` requests are answered.  A fresh daemon's start-up
    is timed after every round, so ``setup_s`` samples the whole run."""
    from procs import CpuMeter, peak_rss_mb
    from serve_client import Daemon

    daemon = Daemon(ROOT, os.path.join(tmp, "daemon"))
    setups = [daemon.setup_s]
    jobs, latency, responses, wall = [], [], [], 0.0
    try:
        meter = CpuMeter(daemon.proc.pid)
        meter.start()
        for r, round_ in enumerate(rounds):
            t_round = time.perf_counter()
            for job in round_:
                rid = len(jobs)
                t0 = daemon.send({"id": rid, "coeffs": job["coeffs"],
                                  "bits": job["bits"]})
                t1, resp = daemon.wait(rid)
                jobs.append(job)
                latency.append((t1 - t0) * 1e3)
                responses.append(resp)
            wall += time.perf_counter() - t_round
            probe = Daemon(ROOT, os.path.join(tmp, f"probe{r}"))
            setups.append(probe.setup_s)
            probe.close()
            if wall >= seconds and len(jobs) >= MIN_SAMPLES:
                break
        cpu_s, pids = meter.stop()
        rss = peak_rss_mb(pids)
        snapshot = daemon.metrics()
    finally:
        daemon.close()
    ok = [_answer_ok(gate, j, r) for j, r in zip(jobs, responses)]
    return {
        "jobs": jobs, "ok": ok, "responses": responses, "daemon": daemon,
        "snapshot": snapshot,
        "polys_per_s": sum(ok) / wall,
        "latency_ms": latency,
        "cpu_ms_per_poly": cpu_s * 1e3 / max(sum(ok), 1),
        "peak_rss_mb": rss,
        "setup_s": median(setups),
        "rtt_ms": dict(enumerate(latency)),
        "record": {"setups": len(setups),
                   "latency_ms.p90": percentile(latency, 0.9)},
    }


def check_serve_counts(run: dict) -> dict:
    """Every request is distinct, so the cache never hits, and the
    journal holds an accept and a completion per accepted request."""
    accepted = 1 + sum(r.get("status") != "overloaded"  # + the warm-up
                       for r in run["responses"])
    hits = run["snapshot"]["metrics"].get("cache.hits", {}).get("value", 0)
    with open(run["daemon"].journal, encoding="utf-8") as fh:
        records = sum(1 for line in fh if line.strip())
    if hits or records != 2 * accepted:
        raise InvalidRun(
            f"count mismatch: cache hits {hits} (expected 0), "
            f"journal records {records} (expected {2 * accepted})")
    return {"cache.hits": hits, "journal.records": records}


def serve_layers(run: dict) -> tuple[dict, list[str]]:
    """Per-stage times from the daemon's own access log and counters."""
    from repro.serve.reqtrace import read_access_log

    daemon = run["daemon"]
    recs = [r for r in read_access_log(daemon.access_log)
            if r.get("id") != "warmup"]
    stages = [{s["name"]: s["wall_ns"] / 1e6 for s in r["stages"]}
              for r in recs]
    total = {r["id"]: r["total_ns"] / 1e6 for r in recs}

    def p(name, q):
        return percentile([s[name] for s in stages if name in s], q)

    timed = {
        "serve.validate_ms.p50": lambda: p("validate", 0.5),
        "serve.serialize_ms.p50": lambda: p("serialize", 0.5),
        "serve.write_ms.p50": lambda: p("write", 0.5),
        "serve.transport_ms.p50": lambda: percentile(
            [run["rtt_ms"][i] - t for i, t in total.items()], 0.5),
        "serve.queue_wait_ms.p50": lambda: p("queue_wait", 0.5),
        "serve.queue_wait_ms.p90": lambda: p("queue_wait", 0.9),
        "serve.solve_ms.p50": lambda: p("solve", 0.5),
        "serve.solve_ms.p90": lambda: p("solve", 0.9),
        "serve.unstaged_ms.p50": lambda: percentile(
            [r["total_ns"] / 1e6 - sum(s.values())
             for r, s in zip(recs, stages)], 0.5),
        "serve.cache_lookup_ms.p50": lambda: p("cache_lookup", 0.5),
    }
    values, unmeasured = {}, []
    for name, fn in timed.items():
        try:
            values[name] = fn()
        except TooFewSamples:
            values[name] = 0.0
            unmeasured.append(name)
    n_all = len(run["responses"]) + 1  # + the warm-up request
    values.update({
        "serve.errors": run["snapshot"]["metrics"].get(
            "server.errors", {}).get("value", 0),
        "cache.disk_bytes": _tree_bytes(daemon.cache_dir),
        "journal.bytes_per_req": os.path.getsize(daemon.journal) / n_all,
        "access_log.bytes_per_req":
            os.path.getsize(daemon.access_log) / n_all,
    })
    return values, unmeasured


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# -- one run ------------------------------------------------------------------

def build_jobs(workload: str, seed: int):
    """The workload's inputs: a flat job list (serve_paper: rounds)."""
    if workload.startswith("charpoly"):
        w = WORKLOADS[workload]
        return inputs.charpoly_jobs(w["degrees"], w["digits"], seed)
    return inputs.serve_paper_rounds(seed, PAPER_ROUNDS)


def check_generator(jobs: list[dict]) -> None:
    """The benchmark's charpolys equal ``repro.charpoly``'s, checked by
    the library's own generator on every ``(degree, matrix seed)``."""
    from repro.bench.workloads import square_free_characteristic_input

    for n, mseed in sorted({(j["degree"], j["mseed"]) for j in jobs}):
        lib = square_free_characteristic_input(n, mseed).poly.coeffs
        if list(lib) != list(inputs.paper_charpoly(n, mseed)):
            raise InvalidRun(f"generated charpoly (n={n}, seed {mseed}) "
                             "differs from repro.charpoly's")


def _by_degree(jobs, ok) -> dict:
    out: dict[str, int] = {}
    for j, good in zip(jobs, ok):
        if not good:
            out[str(j["degree"])] = out.get(str(j["degree"]), 0) + 1
    return out


def timed_metrics(run: dict) -> dict:
    return {
        "polys_per_s": run["polys_per_s"],
        "latency_ms.p50": percentile(run["latency_ms"], 0.5),
        "ok_share": sum(run["ok"]) / len(run["ok"]),
        "cpu_ms_per_poly": run["cpu_ms_per_poly"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": run["setup_s"],
    }


def traced_metrics(jobs: list[dict], run: dict | None, gate,
                   record: dict) -> dict:
    from layers import counted_pass, layer_pass, pool_pass

    traced = layer_pass(jobs, gate)
    traced.update(counted_pass(jobs))
    traced.update(pool_pass(jobs, gate))
    record["pool_failures_by_degree"] = traced.pop("_failed_by_degree")
    record["skipped_not_square_free"] = traced.pop("_skipped")
    record["traced_jobs"] = len(jobs)
    if run is None:
        unmeasured = list(SERVE_LAYER)
        traced.update(dict.fromkeys(SERVE_LAYER, 0.0))
    else:
        serve, unmeasured = serve_layers(run)
        traced.update(serve)
    record["unmeasured"] = unmeasured
    return traced


def measure(args) -> tuple[dict, dict]:
    from verify import Gate

    gate = Gate()
    built = build_jobs(args.workload, args.seed)
    flat = ([j for r in built for j in r] if args.workload == "serve_paper"
            else built)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "fingerprint": inputs.fingerprint(flat), "unmeasured": []}
    calib = [calib_ms()]
    tmp = os.path.join(ROOT, ".perfbench_tmp",
                       f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run, trace_jobs = None, flat
        if args.workload == "serve_paper":
            run = run_serve_paper(built, args.seconds, tmp, gate)
            record["daemon_counts"] = check_serve_counts(run)
            trace_jobs = sorted((j for j in built[0] if j["degree"] % 5 == 0),
                                key=lambda j: j["degree"])
        elif not args.trace:
            run = run_lib(flat, args.seconds, gate)
        if args.trace:
            # Every degree the workload generates, one matrix seed each
            # on serve_paper (its first round).
            check_generator(built[0] if args.workload == "serve_paper"
                            else flat)
            metrics = traced_metrics(trace_jobs, run, gate, record)
            attempted = 3 * len(trace_jobs)
            failed = metrics["executor.failed_polys"]
            record["counts"] = {k: metrics[k] for k in COUNT_METRICS}
        else:
            metrics = timed_metrics(run)
            attempted = len(run["ok"])
            failed = attempted - sum(run["ok"])
            record["samples"] = len(run["latency_ms"])
            record.update(run["record"])
            record["failures_by_degree"] = _by_degree(run["jobs"], run["ok"])
            # Journal size follows the rounds a run completes, so only
            # the cache hits are a count across runs.
            record["counts"] = {k: v for k, v in
                                record.get("daemon_counts", {}).items()
                                if k == "cache.hits"}
        calib.append(calib_ms())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(os.path.dirname(tmp)) and not os.listdir(
                os.path.dirname(tmp)):
            os.rmdir(os.path.dirname(tmp))
    if args.trace:
        metrics["host.calib_ms"] = median(calib)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {k: metrics[k] for k in units}
    record.update({"host.calib_ms": calib, "wrong_answers": gate.wrong,
                   "certified": len(gate.reference), "metrics": metrics})
    result = {
        "correct": not gate.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return record, result


def _stop_resource_tracker() -> None:
    """Stop and reap the resource tracker that the traced run's process
    pool starts; left alone, it outlives this process for a moment."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        gc.collect()  # release the pool's semaphores first
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so daemons stop and scratch files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    adopt_orphans()
    try:
        record, result = measure(args)
    except (InvalidRun, TooFewSamples) as e:
        print(f"perfbench: invalid run: {e}", file=sys.stderr)
        return 3
    finally:
        _stop_resource_tracker()
        reap_children()
    for name, m in result["metrics"].items():
        note = " (not measured here)" if name in record["unmeasured"] else ""
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"fingerprint {record['fingerprint']}  attempted "
          f"{result['attempted']}  failed {result['failed']}  wrong "
          f"{len(record['wrong_answers'])}")
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
