"""Library-workload child: one fresh process per set-up measurement.

Run as ``python3 perfbench/lib_runner.py MU_BITS`` with the repository's
``src`` on ``PYTHONPATH``.  It imports the library, builds a
``RealRootFinder``, solves one warm-up polynomial and prints ``ready``.
Then it reads commands, one per line:

* ``{"jobs": [{"coeffs": [...]}, ...]}`` — the polynomials to solve;
* ``pass`` — solve each of them once, in order, and print one JSON line
  with every solve's wall and CPU time in ms and its answer;
* ``exit`` (or end of input) — print the peak RSS in MB and stop.

The peak is this process's own ``VmHWM``: ``ru_maxrss`` would also count
the parent's pages the process held before it exec'd Python.
"""

from __future__ import annotations

import json
import os
import sys
import time

from procs import peak_rss_mb


def main() -> int:
    from repro import IntPoly, RealRootFinder

    finder = RealRootFinder(mu_bits=int(sys.argv[1]))
    finder.find_roots(IntPoly([-6, -1, 1]))
    print("ready", flush=True)

    polys: list[IntPoly] = []
    for line in sys.stdin:
        line = line.strip()
        if line == "exit":
            break
        if line != "pass":
            polys = [IntPoly(j["coeffs"]) for j in json.loads(line)["jobs"]]
            continue
        latency, cpu, answers = [], [], []
        for p in polys:
            c0, t0 = time.process_time(), time.perf_counter()
            result = finder.find_roots(p)
            latency.append((time.perf_counter() - t0) * 1e3)
            cpu.append((time.process_time() - c0) * 1e3)
            answers.append([str(s) for s in result.scaled])
        print(json.dumps({"latency_ms": latency, "cpu_ms": cpu,
                          "answers": answers}), flush=True)
    print(json.dumps({"peak_rss_mb": peak_rss_mb([os.getpid()])}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
