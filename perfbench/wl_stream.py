"""``stream-1024``: two ``/v1/stream`` sessions at window 1024, stride 8.

Same server as ``serve-256``, with the model fitted on length-1024
series.  Each session streams its own generated series; each 8-point
append returns exactly one label.  The graph layer runs incrementally
(edge deltas into the metric banks, k-core repaired per tick), the DRR
scheduler serves the sessions, and the engine's feature LRU is written
on every tick instead of read.
"""

from __future__ import annotations

import json

import numpy as np

import inputs
import tracing
from common import Outcome, Run, Timer, check, note, peak_rss_mb, process_cpu_seconds
from server import Client
from wl_serve import closed_loop, http_outcome, start_servers, stop_all

WINDOW = 1024
STRIDE = 8
TRAIN_PER_CLASS = 12
#: Labels per second of ``--seconds`` (a fixed count, see serve-256).
OPS_PER_SECOND = 36
SESSIONS = 2
#: Appends after the window fills that are not timed: until every PAA
#: phase slot exists, i.e. the largest PAA block (64 points, scale 6)
#: divided by the stride.
WARMUP_APPENDS = 64 // STRIDE
#: Ticks per session whose label is checked against a batch predict of
#: the window (and, traced, whose streamed vector is checked bit for bit).
CHECKED_TICKS = 4

STREAM_LAYERS = (
    "core.streaming.graph_ms", "core.streaming.metrics_ms", "serve.stream.classify_ms",
    "serve.stream.server_ms", "serve.stream.wait_ms", "core.streaming.features_ms",
    "core.streaming.full_builds", "serve.stream.ticks", "serve.stream.lru_hits",
    "serve.stream.backpressure", "serve.slab.bytes",
)
ENTERS = tracing.SETUP + ("ml.predict_ms",) + STREAM_LAYERS


def run(ctx: Run) -> Outcome:
    ticks = OPS_PER_SECOND * ctx.seconds // SESSIONS  # timed ticks per session
    n_points = WINDOW + STRIDE * (WARMUP_APPENDS + ticks)
    streams = [inputs.stream_points(ctx.seed, s, n_points, WINDOW) for s in range(SESSIONS)]
    X_train, y_train = inputs.training_set(ctx.seed, TRAIN_PER_CLASS, WINDOW)
    timed_from = WINDOW + STRIDE * WARMUP_APPENDS  # points sent before timing
    # Session s's timed appends, interleaved s, s + SESSIONS, ... as the
    # closed loop sends them.
    appends: list[tuple[int, np.ndarray]] = []
    for tick in range(ticks):
        for s in range(SESSIONS):
            start = timed_from + STRIDE * tick
            appends.append((s, streams[s][start:start + STRIDE]))

    servers, model, setup_s, setup_trace = start_servers(ctx, X_train, y_train)
    server = servers[-1]
    try:
        control = Client(server.port)
        sessions = []
        for s in range(SESSIONS):
            status, reply = control.post_json(
                "/v1/stream", {"op": "create", "window": WINDOW, "stride": STRIDE}
            )
            check(status == 200, f"stream create answered {status}: {reply}")
            sessions.append(reply["session"])
        for s, session in enumerate(sessions):
            warm = [streams[s][:WINDOW]] + [
                streams[s][WINDOW + STRIDE * k: WINDOW + STRIDE * (k + 1)]
                for k in range(WARMUP_APPENDS)
            ]
            for chunk in warm:
                status, reply = control.post_json(
                    "/v1/stream", {"op": "append", "session": session, "points": chunk.tolist()}
                )
                check(status == 200 and len(reply["results"]) == 1,
                      f"warm-up append answered {status}: {reply}")
        bodies = [
            json.dumps({"op": "append", "session": sessions[s], "points": chunk.tolist()}).encode()
            for s, chunk in appends
        ]
        before = server.scrape()
        cpu0 = process_cpu_seconds(server.pid)
        replies, start = closed_loop(server.port, bodies, "/v1/stream", SESSIONS)
        cpu = process_cpu_seconds(server.pid) - cpu0
        after = server.scrape()
        rss = peak_rss_mb(server.pid)
        for session in sessions:
            status, reply = control.post_json("/v1/stream", {"op": "close", "session": session})
            check(status == 200, f"stream close answered {status}: {reply}")
        closed = server.scrape()
        control.close()
    except BaseException:
        print(server.log_tail(), flush=True)
        raise
    finally:
        stop_all(servers)

    out = http_outcome(replies, start, setup_s, cpu, rss)
    n_ops = len(appends)

    labels = {}
    for i, (_, raw, _, _) in enumerate(replies):
        s, tick = i % SESSIONS, i // SESSIONS
        results = json.loads(raw)["results"]
        offset = timed_from + STRIDE * (tick + 1)
        check(
            len(results) == 1 and results[0]["offset"] == offset,
            f"session {s} append {tick}: expected one label at offset {offset}, "
            f"got {[r['offset'] for r in results]}",
        )
        labels[s, offset] = results[0]["label"]
    checked = sampled_windows(ctx.seed, streams, ticks, timed_from)
    expected = model.predict(np.stack([window for _, _, window in checked]))
    for (s, offset, _), want in zip(checked, expected):
        check(labels[s, offset] == want.item(),
              f"session {s} offset {offset}: streamed label {labels[s, offset]!r}, "
              f"batch predict {want!r}")
    stream_ticks = after.delta(before, "repro_serve_stream_ticks_total")
    check(stream_ticks == n_ops, f"the server counted {stream_ticks:.0f} ticks for {n_ops} labels")
    in_use = closed.value("repro_serve_slab_rows_in_use")
    check(in_use == 0, f"{in_use:.0f} slab rows still in use after the sessions closed")

    phase = {
        name: after.mean_delta_ms(before, "repro_serve_stream_phase_seconds", phase=name)
        for name in ("graph", "metrics", "classify")
    }
    server_ms = after.mean_delta_ms(before, "repro_serve_request_seconds", route="/v1/stream")
    out.layers.update({
        "core.streaming.graph_ms": phase["graph"],
        "core.streaming.metrics_ms": phase["metrics"],
        "serve.stream.classify_ms": phase["classify"],
        "serve.stream.server_ms": server_ms,
        "serve.stream.wait_ms": server_ms - sum(phase.values()),
        "serve.stream.ticks": stream_ticks,
        "serve.stream.lru_hits": after.delta(before, "repro_serve_feature_cache_hits_total"),
        "serve.stream.backpressure": after.delta(before, "repro_serve_stream_backpressure_total"),
        "serve.slab.bytes": after.value("repro_serve_slab_bytes"),
    })
    if ctx.trace:
        out.layers.update(replay_streams(model, streams, timed_from, checked))
        out.layers.update(setup_trace.metrics())
    return out


def sampled_windows(seed, streams, ticks, timed_from):
    """``[(session, offset, window)]`` for a seeded sample of timed ticks."""
    checked = []
    for s, stream in enumerate(streams):
        for tick in inputs.sample_indices(seed + s, ticks, CHECKED_TICKS):
            offset = timed_from + STRIDE * (int(tick) + 1)
            checked.append((s, offset, stream[offset - WINDOW:offset]))
    return checked


def replay_streams(model, streams, timed_from, checked) -> dict[str, float]:
    """``StreamingFeatureExtractor.features`` per tick on the same streams,
    in process; checked ticks must equal batch extraction bit for bit."""
    try:
        extractor_cls, extract = tracing.require(
            "repro.core.streaming.StreamingFeatureExtractor",
            "repro.core.features.extract_feature_vector",
        )
    except tracing.Absent as exc:
        note(f"traced stream metrics absent: {exc}")
        return {}
    try:
        return _replay_streams(extractor_cls, extract, model, streams, timed_from, checked)
    except tracing.CHANGED as exc:
        note(f"traced stream metrics absent: {type(exc).__name__}: {exc}")
        return {}


def _replay_streams(extractor_cls, extract, model, streams, timed_from, checked):
    wanted = {(s, offset) for s, offset, _ in checked}
    t_features, t_predict = Timer(), Timer()
    full_builds = 0
    for s, stream in enumerate(streams):
        # Every tick the server ran, in order, so the phase slots evolve
        # as they did there; only the timed ticks are measured.
        extractor = extractor_cls(WINDOW, model.config)
        extractor.push_many(stream[:WINDOW - STRIDE])
        builds_before = 0
        for offset in range(WINDOW, stream.size + 1, STRIDE):
            extractor.push_many(stream[offset - STRIDE:offset])
            if offset <= timed_from:
                extractor.features()
                builds_before = extractor.full_builds_
                continue
            with t_features:
                vector = extractor.features()
            with t_predict:
                model.predict_proba_from_features(vector[None, :])
            if (s, offset) in wanted:
                batch, _ = extract(stream[offset - WINDOW:offset], model.config)
                check(vector.tobytes() == batch.tobytes(),
                      f"session {s} offset {offset}: streamed features differ "
                      "from batch extraction")
        full_builds += extractor.full_builds_ - builds_before
    return {
        "core.streaming.features_ms": t_features.mean_ms(),
        "core.streaming.full_builds": float(full_builds),
        "ml.predict_ms": t_predict.mean_ms(),
    }
