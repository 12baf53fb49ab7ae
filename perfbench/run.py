#!/usr/bin/env python3
"""One benchmark for the paper's model as users run it.

    python3 perfbench/run.py --workload serve-256 --seed 1 --seconds 30 --trace 0

Workloads: ``serve-256`` (``POST /v1/classify`` on ``python -m repro
serve``) and ``stream-1024`` (``/v1/stream`` sessions on the same
server).  Run it from the root of a checkout; it builds nothing and
imports the program from ``src/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.
Lines before it start with ``#`` and are diagnostics.  A failed
correctness or isolation check exits 1 without a result line.
"""

import sys

sys.dont_write_bytecode = True  # a run must leave the checkout untouched

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    CheckFailure,
    Run,
    Workspace,
    note,
    reference_kernel_ms,
)

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "serve-256": "wl_serve",
    "stream-1024": "wl_stream",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def report(spec: dict, workload, outcome, trace: bool) -> dict:
    """The result line's ``metrics`` for this mode, plus a readable table."""
    metrics = {}
    if not trace:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metrics[name] = {"value": outcome.e2e[name], "unit": metric["unit"]}
            note(f"{name:<18} {outcome.e2e[name]:>12.4f} {metric['unit']:<5} "
                 f"n={outcome.samples[name]}")
        return metrics
    note("end-to-end figures of this traced run: " + ", ".join(
        f"{name}={value:.4f} (n={outcome.samples[name]})"
        for name, value in outcome.e2e.items()
    ))
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in outcome.layers:
            value = outcome.layers[name]
        elif name in workload.ENTERS:
            note(f"{name:<34} absent (its probe failed)")
            continue
        else:
            value = 0.0  # this workload never enters the layer
        metrics[name] = {"value": value, "unit": metric["unit"]}
        note(f"{name:<34} {value:>14.4f} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # Children exec'd from here inherit SIGINT as default, not ignored,
    # so the server's clean SIGINT shutdown works under any launcher.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    workload = importlib.import_module(WORKLOADS[args.workload])

    host_before = reference_kernel_ms()
    workspace = Workspace(ROOT)
    try:
        with workspace:
            outcome = workload.run(
                Run(ROOT, workspace.path, args.seed, args.seconds, bool(args.trace))
            )
        changed = workspace.changed_files()
        if changed:
            raise CheckFailure(f"the run changed files of the checkout: {changed[:10]}")
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    note(f"host reference kernel: {host_before:.2f} ms before, "
         f"{reference_kernel_ms():.2f} ms after")

    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": report(spec, workload, outcome, bool(args.trace)),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
