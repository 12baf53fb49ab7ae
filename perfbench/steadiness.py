#!/usr/bin/env python3
"""Steadiness mode: two interleaved sets of runs of the same checkout.

    python3 perfbench/steadiness.py --runs 10

Each round runs every workload of ``BENCHMARK.json`` once for set A and
once for set B, each run with its own seed (``SEED_BASE`` plus the run's
index), alternating which set goes first.  For every
end-to-end metric and workload it prints each set's median, quartiles
and range, the quartile spread as a share of the median, and whether
the two sets agree within the bounds of ``BENCHMARK.json``:

* each set's spread (``statistics.quantiles(n=4)``: Q3 - Q1 over the
  median) is within the bound, except for ``setup_s``;
* neither set's median is worse than the other's by more than the bound;
* the share of failed ops is the same in both sets.

The bounds in ``BENCHMARK.json`` are set from this output.  It exits 1
when a run fails or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 1000


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 (quartiles need two values)")
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[tuple[str, str], list[dict]] = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for workload in workloads:
            for label in ("AB" if i % 2 == 0 else "BA"):
                seed = SEED_BASE + 2 * i + (label == "B")
                result = one_run(workload, seed, spec["run_seconds"])
                runs[workload, label].append(result)
                print(f"# round {i + 1}/{args.runs} {workload} set {label} seed {seed}: "
                      f"{result['elapsed_s']:.1f} s", file=sys.stderr, flush=True)

    ok = True
    print(f"{args.runs} runs per set, --seconds {spec['run_seconds']}")
    for workload in workloads:
        a_runs, b_runs = runs[workload, "A"], runs[workload, "B"]
        elapsed = [r["elapsed_s"] for r in a_runs + b_runs]
        print(f"\n{workload}: run wall time median {statistics.median(elapsed):.1f} s, "
              f"max {max(elapsed):.1f} s")
        shares = {s: {r["failed"] / r["attempted"] for r in runs[workload, s]} for s in "AB"}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"  failed-op shares differ: {shares}")
        print(f"  {'metric':<17} {'bound':>5} {'set':>3} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'min':>10} {'max':>10} {'spread':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = {s: summary([r["metrics"][name]["value"] for r in runs[workload, s]])
                    for s in "AB"}
            pooled = summary([r["metrics"][name]["value"] for r in a_runs + b_runs])
            drift = max(worse_by(sets["A"]["median"], sets["B"]["median"], metric["better"]),
                        worse_by(sets["B"]["median"], sets["A"]["median"], metric["better"]))
            spread_ok = name == "setup_s" or all(st["spread"] <= bound for st in sets.values())
            agree = spread_ok and drift <= bound
            ok &= agree
            for s, st in sets.items():
                verdict = (f"{'agree' if agree else 'DISAGREE'}: medians {drift:+.1%}, "
                           f"pooled spread {pooled['spread']:.1%}") if s == "A" else ""
                print(f"  {name if s == 'A' else '':<17} {bound if s == 'A' else '':>5} {s:>3} "
                      f"{st['median']:>10.4f} {st['q1']:>10.4f} {st['q3']:>10.4f} "
                      f"{st['min']:>10.4f} {st['max']:>10.4f} {st['spread']:>7.1%}  {verdict}")
    print("\nsets agree within the bounds" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
