"""Shared plumbing: run isolation, probes, /proc readers and statistics.

Nothing here imports the program under test at module level, so the
benchmark can report a missing or broken checkout as a plain error.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import tempfile
import time
from pathlib import Path

#: Prefix of each run's scratch directory, created at the checkout root
#: and removed when the run ends (listed in the root ``.gitignore``).
SCRATCH_PREFIX = ".perfbench-run-"

#: Directories under the checkout root the isolation check never walks:
#: version control, the build directory a driver may set, and the runs'
#: own scratch directories (matched by prefix).
_UNWATCHED = {".git", ".bench_build"}


class CheckFailure(Exception):
    """A correctness or isolation check failed; the run is not valid."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def note(message: str) -> None:
    """A diagnostic line on stdout (never the last line of a run)."""
    print(f"# {message}", flush=True)


# -- run isolation -------------------------------------------------------------


def _snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """``{relative path: (size, mtime_ns)}`` of every file under ``root``."""
    files: dict[str, tuple[int, int]] = {}
    for directory, subdirs, names in os.walk(root):
        if Path(directory) == root:
            subdirs[:] = [
                d for d in subdirs
                if d not in _UNWATCHED and not d.startswith(SCRATCH_PREFIX)
            ]
        for name in names:
            path = Path(directory) / name
            try:
                stat = path.lstat()
            except FileNotFoundError:
                continue
            files[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return files


class Workspace:
    """A fresh scratch directory for one run, plus the check that the run
    added or changed no file of the checkout outside it.

    The model stores, the ledgers they write, the server's working
    directory and its logs all live in :attr:`path`.
    """

    def __init__(self, root: Path):
        self.root = root
        self.path: Path | None = None
        self._before: dict[str, tuple[int, int]] = {}

    def __enter__(self) -> "Workspace":
        self._before = _snapshot(self.root)
        self.path = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=self.root))
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def changed_files(self) -> list[str]:
        """Checkout files added, changed or removed since the run began."""
        after = _snapshot(self.root)
        keys = set(self._before) | set(after)
        return sorted(k for k in keys if self._before.get(k) != after.get(k))


# -- probes into the program ---------------------------------------------------


def probe(dotted: str):
    """The public object ``module.attr`` names, or ``None`` when it no
    longer exists (a traced metric that needs it is then absent)."""
    module_name, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


# -- /proc readers -------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # After the command name: state is field 3, utime 14, stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# -- host-speed diagnostic -----------------------------------------------------


def reference_kernel_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python + numpy kernel (not program code).

    Printed before and after every run as a host-speed diagnostic: when
    it moves, the host moved, whatever the benchmark's figures say.
    """
    import numpy as np

    values = np.sin(np.arange(200_000, dtype=np.float64))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        np.sort(values)
        times.append(time.perf_counter() - start)
    return 1e3 * sorted(times)[repeats // 2]


# -- statistics ----------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples) -> float:
    return percentile(samples, 50.0)


def mean(samples) -> float:
    samples = list(samples)
    return sum(samples) / len(samples)


#: Consecutive blocks of completions the throughput is the median over.
THROUGHPUT_BLOCKS = 10


def block_throughput(done: list[float], start: float) -> float:
    """Ops per second of a timed phase: the median over
    ``THROUGHPUT_BLOCKS`` consecutive blocks of completions, so a short
    stall of the host moves one block instead of the whole figure."""
    done = sorted(done)
    per_block = len(done) // THROUGHPUT_BLOCKS
    rates, previous = [], start
    for block in range(THROUGHPUT_BLOCKS):
        end = done[(block + 1) * per_block - 1]
        rates.append(per_block / (end - previous))
        previous = end
    return median(rates)


class Timer:
    """Accumulates perf_counter durations of a named step."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.samples.append(time.perf_counter() - self._start)

    def mean_ms(self) -> float:
        return 1e3 * mean(self.samples)


# -- what a workload hands back ------------------------------------------------


SETUP_REPEATS = 3


class Run:
    """One benchmark run's parameters and scratch directory."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: int, trace: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace


class Outcome:
    """A workload's ops and figures; ``samples`` counts what each
    end-to-end figure was computed from."""

    def __init__(self, attempted: int, failed: int):
        self.attempted = attempted
        self.failed = failed
        self.e2e: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.layers: dict[str, float] = {}

    def set(self, name: str, value: float, samples: int) -> None:
        self.e2e[name] = float(value)
        self.samples[name] = samples

    def latencies(self, seconds: list[float]) -> None:
        ms = [1e3 * s for s in seconds]
        self.set("latency_p50_ms", percentile(ms, 50), len(ms))
        self.set("latency_p90_ms", percentile(ms, 90), len(ms))
