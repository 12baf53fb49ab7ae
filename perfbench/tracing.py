"""Traced replays: per-layer timings from calls into public functions.

Each probe resolves the functions it times by name. When one of them no
longer exists, or no longer accepts the call, the metrics that need it
are left out (reported absent) and the run goes on.
"""

from __future__ import annotations

import time

from common import Timer, median, note, probe


class Absent(Exception):
    """A probed public function is gone or changed its interface."""


#: What a call into a probed function raises once its interface changed
#: (a renamed attribute, a new signature); the metrics it feeds are absent.
CHANGED = (AttributeError, TypeError)


def require(*dotted: str):
    found = [probe(name) for name in dotted]
    missing = [name for name, obj in zip(dotted, found) if obj is None]
    if missing:
        raise Absent(f"missing {', '.join(missing)}")
    return found if len(found) > 1 else found[0]


BATCH_PATH = (
    "core.features.extract_ms", "graph.build_ms", "graph.metrics_ms",
    "core.features.self_ms", "ml.predict_ms", "core.pipeline.predict_self_ms",
    "graph.edges",
)


def batch_path(model, series_list) -> dict[str, float]:
    """The offline classify path, one series at a time, layer by layer.

    All layers of one series are timed back to back, so the self times
    (differences of means) see the same host speed.
    """
    config = model.config
    try:
        extract = require("repro.core.features.extract_feature_vector")
    except Absent as exc:
        note(f"traced batch-path metrics absent: {exc}")
        return {}
    try:
        graph_steps = require(
            "repro.core.multiscale.multiscale_representation",
            "repro.core.features.graph_feature_dict",
        ) + [scale_builder()]
    except Absent as exc:
        note(f"traced graph metrics absent: {exc}")
        graph_steps = None
    t_extract, t_build, t_metrics, t_predict, t_proba = (Timer() for _ in range(5))
    edges = 0
    for series in series_list:
        try:
            with t_extract:
                vector, _ = extract(series, config)
            with t_predict:
                model.predict_proba_from_features(vector[None, :])
            with t_proba:
                model.predict_proba(series[None, :])
        except CHANGED as exc:
            note(f"traced batch-path metrics absent: {type(exc).__name__}: {exc}")
            return {}
        if graph_steps is not None:
            try:
                edges += _graph_layers(series, config, *graph_steps, t_build, t_metrics)
            except CHANGED as exc:
                note(f"traced graph metrics absent: {type(exc).__name__}: {exc}")
                graph_steps = None
    metrics = {
        "core.features.extract_ms": t_extract.mean_ms(),
        "ml.predict_ms": t_predict.mean_ms(),
        "core.pipeline.predict_self_ms": (
            t_proba.mean_ms() - t_extract.mean_ms() - t_predict.mean_ms()
        ),
    }
    if graph_steps is not None:
        metrics.update({
            "graph.build_ms": t_build.mean_ms(),
            "graph.metrics_ms": t_metrics.mean_ms(),
            "core.features.self_ms": (
                t_extract.mean_ms() - t_build.mean_ms() - t_metrics.mean_ms()
            ),
            "graph.edges": float(edges),
        })
    return metrics


def scale_builder():
    """``build(scaled_series, graph_types) -> [graph, ...]`` the way
    ``extract_feature_vector`` builds one scale: the fast builders from
    the length at which the program switches to them, the reference
    builders below it."""
    threshold = probe("repro.core.features._FAST_MIN_LENGTH")
    if not isinstance(threshold, int):
        raise Absent("missing repro.core.features._FAST_MIN_LENGTH")
    fast_both, fast_vg, fast_hvg, ref_vg, ref_hvg = require(
        "repro.graph.fast.visibility_graphs",
        "repro.graph.fast.fast_visibility_graph",
        "repro.graph.fast.fast_horizontal_visibility_graph",
        "repro.graph.visibility.visibility_graph",
        "repro.graph.visibility.horizontal_visibility_graph",
    )

    def build(scaled, graph_types):
        if scaled.size < threshold:
            builders = {"vg": ref_vg, "hvg": ref_hvg}
        elif tuple(graph_types) == ("vg", "hvg"):
            return list(fast_both(scaled))
        else:
            builders = {"vg": fast_vg, "hvg": fast_hvg}
        return [builders[kind](scaled) for kind in graph_types]

    return build


def _graph_layers(series, config, multiscale, feature_dict, build, t_build, t_metrics) -> int:
    """Time graph construction and graph metrics over every scale of
    ``series``; returns its VG + HVG edge count."""
    representation = multiscale(series, tau=config.tau)
    if config.scales == "uvg":
        representation = representation[:1]
    elif config.scales == "amvg":
        representation = representation[1:]
    kinds = config.graph_types()
    with t_build:
        graphs = [g for scaled in representation for g in build(scaled, kinds)]
    with t_metrics:
        for g in graphs:
            feature_dict(
                g,
                include_stats=config.include_stats,
                include_extended=config.include_extended,
            )
    return sum(g.n_edges for g in graphs)


SETUP = ("setup.extract_s", "setup.fit_s")


class SetupTrace:
    """Training-set extraction vs the rest of ``fit`` (tuning, boosting).

    Traced runs time one extraction of the training set right after each
    fit, outside the set-up timer, so each difference sees one host speed.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.fit_s: list[float] = []
        self.extract_s: list[float] = []

    def record(self, model, X_train, fit_seconds: float) -> None:
        self.fit_s.append(fit_seconds)
        if not self.enabled:
            return
        try:
            extractor_cls = require("repro.core.batch.BatchFeatureExtractor")
            extractor = extractor_cls(model.config, n_jobs=1, cache=False)
            start = time.perf_counter()
            extractor.transform(X_train)
        except (Absent, *CHANGED) as exc:
            note(f"traced setup metrics absent: {type(exc).__name__}: {exc}")
            self.enabled = False
            return
        self.extract_s.append(time.perf_counter() - start)

    def metrics(self) -> dict[str, float]:
        if not self.enabled:
            return {}
        return {
            "setup.extract_s": median(self.extract_s),
            "setup.fit_s": median([f - e for f, e in zip(self.fit_s, self.extract_s)]),
        }
