"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.log NEW.log

Each file holds the stdout of any number of ``run.py`` invocations; the
``perfbench-record`` lines are read from it.  The comparison refuses
(exit 2) when one workload and seed was run on different inputs in the
two sets (the input fingerprints differ) or, for traced runs, when a
count metric differs: counts repeat exactly on the same inputs.  For
every end-to-end metric it prints both medians, the change, the
quartile spread of each set and the bound from ``BENCHMARK.json``, and
exits 1 when a median got worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def read_records(path: str) -> list[dict]:
    prefix = "perfbench-record "
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line[len(prefix):]) for line in fh
                if line.startswith(prefix)]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (read_records(p) for p in argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    problems = []
    by_run = {}
    for r in base:
        by_run[(r["workload"], r["seed"], r["trace"])] = r
    for r in new:
        old = by_run.get((r["workload"], r["seed"], r["trace"]))
        if old is None:
            continue
        if old["fingerprint"] != r["fingerprint"]:
            problems.append(f"{r['workload']} seed {r['seed']}: input "
                            "fingerprints differ; the runs are not comparable")
        elif old["counts"] != r["counts"]:
            problems.append(f"{r['workload']} seed {r['seed']}: counts "
                            f"differ: {old['counts']} vs {r['counts']}")
    if problems:
        print("\n".join(problems))
        return 2

    worse = 0
    workloads = sorted({r["workload"] for r in base + new if not r["trace"]})
    for wl in workloads:
        print(wl)
        for name, m in spec.items():
            a = [r["metrics"][name] for r in base
                 if r["workload"] == wl and not r["trace"]]
            b = [r["metrics"][name] for r in new
                 if r["workload"] == wl and not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            regress = -change if m["better"] == "higher" else change
            flag = "WORSE" if regress > m["bound"] else ""
            worse += bool(flag)
            print(f"  {name:18s} {ma:12.5g} -> {mb:12.5g} {change:+8.2%}  "
                  f"spread {spread(a):.3f}/{spread(b):.3f}  "
                  f"bound {m['bound']:.2f} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
