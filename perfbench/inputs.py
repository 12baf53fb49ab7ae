"""Seeded inputs and the model recipe every workload shares.

The inputs come from the archive's own class recipes for FordA
(``build_class_specs`` + ``generate_class_samples``); the model is the
paper's: MVG features in the Table 2 column G configuration feeding the
booster tuned over the light grid, fitted with a fixed ``random_state``
and without the on-disk feature cache.

Every part of the inputs draws from its own generator, seeded by
``(seed, part)``, so the make-up of one part never depends on the size
of another.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import heuristic_config
from repro.core.pipeline import MVGClassifier, default_param_grid
from repro.data.archive import ARCHIVE_METADATA, build_class_specs
from repro.data.generators import generate_class_samples

DATASET = "FordA"
CONFIG = heuristic_config("G")
FIT_RANDOM_STATE = 0

_PARTS = {"train": 1, "measured": 2, "warmup": 3, "hot": 4, "stream": 5, "sample": 6}


def part_rng(seed: int, part: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _PARTS[part], index])


def _specs():
    return build_class_specs(ARCHIVE_METADATA[DATASET])


def n_classes() -> int:
    return len(_specs())


def labelled_series(
    labels: np.ndarray, length: int, rng: np.random.Generator
) -> np.ndarray:
    """One generated series per label, in label order."""
    X = np.empty((labels.size, length))
    for label, spec in enumerate(_specs()):
        rows = np.flatnonzero(labels == label)
        if rows.size:
            X[rows] = generate_class_samples(spec, rows.size, length, rng)
    return X


def training_set(seed: int, per_class: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """A balanced, shuffled training set."""
    rng = part_rng(seed, "train")
    y = rng.permutation(np.repeat(np.arange(n_classes()), per_class))
    return labelled_series(y, length, rng), y


def random_series(
    seed: int, part: str, count: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` series of random classes (the labels come back too)."""
    rng = part_rng(seed, part)
    y = rng.integers(0, n_classes(), size=count)
    return labelled_series(y, length, rng), y


def stream_points(seed: int, session: int, n_points: int, segment: int) -> np.ndarray:
    """One session's point stream: generated series of ``segment`` points
    of random classes, end to end, cut to ``n_points``."""
    rng = part_rng(seed, "stream", session)
    n_segments = -(-n_points // segment)
    y = rng.integers(0, n_classes(), size=n_segments)
    return labelled_series(y, segment, rng).ravel()[:n_points].copy()


def sample_indices(seed: int, n: int, k: int) -> np.ndarray:
    """A seeded, sorted sample of ``k`` of the indices ``0..n-1``."""
    return np.sort(part_rng(seed, "sample").choice(n, size=min(k, n), replace=False))


def predict_in_workers(model: MVGClassifier, X: np.ndarray, workers: int = 2) -> np.ndarray:
    """``model.predict(X)`` with extraction fanned over ``workers``
    processes: correctness checks only, run after the timed phase."""
    saved = model.n_jobs
    model.n_jobs = workers
    try:
        return model.predict(X)
    finally:
        model.n_jobs = saved


def make_model() -> MVGClassifier:
    return MVGClassifier(
        config=CONFIG,
        param_grid=default_param_grid(),
        random_state=FIT_RANDOM_STATE,
        n_jobs=1,
        feature_cache=False,
    )
