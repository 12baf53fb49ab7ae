"""``serve-256``: ``POST /v1/classify`` on ``python -m repro serve``.

Every stage of a request runs: parse, micro-batcher queue, feature LRU
and coalescing, batch extraction, predict, serialize.  One keep-alive
client sends the request sequence in a closed loop; one request in
three repeats one of 32 hot series, the rest are unique length-256
series.  The traced replay walks the offline batch path (extraction,
graph builders, graph metrics, predict) over the same unique series.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict

import numpy as np

import inputs
import tracing
from common import (
    SETUP_REPEATS,
    CheckFailure,
    Outcome,
    Run,
    Timer,
    block_throughput,
    check,
    mean,
    median,
    note,
    peak_rss_mb,
    process_cpu_seconds,
)
from server import Client, Server

LENGTH = 256
TRAIN_PER_CLASS = 24
#: Requests per second of ``--seconds``: the op count is fixed by the
#: arguments alone, never by how fast the host happens to be.
OPS_PER_SECOND = 30
HOT_SET = 32
#: Request ``i`` repeats a hot series when ``i % HOT_EVERY == HOT_EVERY - 1``.
HOT_EVERY = 3
WARMUP_REQUESTS = 8
#: One closed-loop client.  Two clients fall into lockstep: the
#: micro-batcher pairs their requests, round trips split into one- and
#: two-extraction batches, and the median lands between the two modes,
#: where it moved by 28-40% (quartile spread over 10 runs) with no code
#: change.
CLIENTS = 1
MODEL = "forda"
#: The server's default ``--feature-cache-size``: the number of
#: extractions a run expects is counted through an LRU of this size.
SERVER_FEATURE_LRU = 1024
#: Unique series the traced replay walks layer by layer.
TRACE_SERIES = 96
#: Unique series whose fast and reference extractions must agree bit for bit.
BIT_CHECK_SERIES = 8
#: Served labels must beat always answering the majority class by this much.
ACCURACY_MARGIN = 0.25

SERVE_LAYERS = (
    "serve.http.server_ms", "serve.http.outside_ms", "serve.engine.classify_ms",
    "serve.queue_ms", "serve.batcher.batches", "serve.batcher.batch_size_mean",
    "serve.engine.extractions", "serve.engine.lru_hits", "serve.engine.coalesced",
    "serve.engine.lru_hit_ratio",
)
ENTERS = tracing.BATCH_PATH + tracing.SETUP + SERVE_LAYERS


class Plan:
    """The seeded request sequence: which series each request sends."""

    def __init__(self, seed: int, n_requests: int):
        is_hot = [i % HOT_EVERY == HOT_EVERY - 1 for i in range(n_requests)]
        n_unique = n_requests - sum(is_hot)
        unique, self.unique_labels = inputs.random_series(seed, "measured", n_unique, LENGTH)
        hot, _ = inputs.random_series(seed, "hot", HOT_SET, LENGTH)
        picks = inputs.part_rng(seed, "hot", 1).integers(0, HOT_SET, size=n_requests)
        self.warmup, _ = inputs.random_series(seed, "warmup", WARMUP_REQUESTS, LENGTH)
        self.series = np.empty((n_requests, LENGTH))
        # Row of `distinct` that request i sends: unique rows first, then
        # the hot series in order of first use.
        self.distinct_row = np.empty(n_requests, dtype=int)
        hot_rows: dict[int, int] = {}
        next_unique = 0
        for i in range(n_requests):
            if is_hot[i]:
                pick = int(picks[i])
                self.series[i] = hot[pick]
                self.distinct_row[i] = n_unique + hot_rows.setdefault(pick, len(hot_rows))
            else:
                self.series[i] = unique[next_unique]
                self.distinct_row[i] = next_unique
                next_unique += 1
        used_hot = sorted(hot_rows, key=hot_rows.get)
        self.unique = unique
        self.distinct = np.concatenate([unique, hot[used_hot]])
        self.extractions = lru_misses(
            [("warmup", k) for k in range(WARMUP_REQUESTS)],
            [("distinct", int(row)) for row in self.distinct_row],
            SERVER_FEATURE_LRU,
        )


def lru_misses(warm: list, keys: list, capacity: int) -> int:
    """Misses of a least-recently-used cache of ``capacity`` entries on
    ``keys``, after ``warm`` was looked up: the extractions a server
    with a feature LRU that size makes for one closed-loop client.  A
    long run's hot series can age out and be extracted again."""
    cache: OrderedDict = OrderedDict()
    misses = 0
    for counting, sequence in ((False, warm), (True, keys)):
        for key in sequence:
            if key in cache:
                cache.move_to_end(key)
                continue
            misses += counting
            cache[key] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return misses


def start_servers(ctx: Run, X_train, y_train):
    """Fit, save and start the server ``SETUP_REPEATS`` times; only the
    last server stays up.  Returns every server started (the last one
    live), the fitted model, the median set-up time and the set-up trace."""
    from repro.serve.store import ModelStore

    setup_s, setup_trace, servers = [], tracing.SetupTrace(ctx.trace), []
    try:
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            model = inputs.make_model().fit(X_train, y_train)
            fitted = time.perf_counter()
            store = ctx.work / f"store-{repeat}"
            ModelStore(store).save(model, MODEL)
            server = Server(ctx.root, store, ctx.work, tag=str(repeat))
            servers.append(server)
            server.wait_ready()
            setup_s.append(time.perf_counter() - start)
            setup_trace.record(model, X_train, fitted - start)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
    except BaseException:
        stop_all(servers)
        raise
    return servers, model, median(setup_s), setup_trace


def stop_all(servers) -> None:
    """Stop every server; the first failure is raised after all tried."""
    failure = None
    for server in servers:
        try:
            server.stop()
        except CheckFailure as exc:
            failure = failure or exc
    if failure is not None:
        raise failure


def closed_loop(port: int, bodies: list[bytes], path: str, clients: int):
    """Send ``bodies`` from ``clients`` keep-alive connections, each
    waiting for its reply before its next request; client ``k`` sends
    bodies ``k, k + clients, ...``.  Returns ``[(status, raw, rtt, done)]``
    (``done``: perf_counter at the reply) and the perf_counter of the
    first send."""
    replies: list = [None] * len(bodies)
    connections = [Client(port) for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def drive(k: int) -> None:
        barrier.wait()
        for i in range(k, len(bodies), clients):
            start = time.perf_counter()
            status, raw = connections[k].request("POST", path, bodies[i])
            done = time.perf_counter()
            replies[i] = (status, raw, done - start, done)

    threads = [threading.Thread(target=drive, args=(k,)) for k in range(clients)]
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
    finally:
        for connection in connections:
            connection.close()
    if any(reply is None for reply in replies):
        raise RuntimeError("a client thread died before its last reply")
    return replies, start


def http_outcome(replies, start: float, setup_s: float, cpu: float, rss: float) -> Outcome:
    """The end-to-end figures of a closed-loop timed phase."""
    n_ops = len(replies)
    failed = sum(status != 200 for status, _, _, _ in replies)
    check(failed == 0, f"{failed} of {n_ops} replies were not 200")
    out = Outcome(attempted=n_ops, failed=failed)
    out.set("setup_s", setup_s, SETUP_REPEATS)
    out.set("throughput_per_s", block_throughput([r[3] for r in replies], start), n_ops)
    out.latencies([rtt for _, _, rtt, _ in replies])
    out.set("cpu_ms_per_op", 1e3 * cpu / n_ops, n_ops)
    out.set("rss_mb", rss, 1)
    return out


def check_fast_equals_reference(config, series_list) -> None:
    """The fast graph builders against the reference ones, bit for bit."""
    from repro.core.features import extract_feature_vector

    for series in series_list:
        fast, fast_names = extract_feature_vector(series, config)
        slow, slow_names = extract_feature_vector(series, config, fast=False)
        check(
            fast_names == slow_names and fast.tobytes() == slow.tobytes(),
            "fast extraction differs from the reference builders",
        )


def run(ctx: Run) -> Outcome:
    n_requests = OPS_PER_SECOND * ctx.seconds
    plan = Plan(ctx.seed, n_requests)
    X_train, y_train = inputs.training_set(ctx.seed, TRAIN_PER_CLASS, LENGTH)
    bodies = [json.dumps({"series": s.tolist()}).encode() for s in plan.series]
    warm = [json.dumps({"series": s.tolist()}).encode() for s in plan.warmup]

    servers, model, setup_s, setup_trace = start_servers(ctx, X_train, y_train)
    server = servers[-1]
    try:
        closed_loop(server.port, warm, "/v1/classify", CLIENTS)
        before = server.scrape()
        cpu0 = process_cpu_seconds(server.pid)
        replies, start = closed_loop(server.port, bodies, "/v1/classify", CLIENTS)
        cpu = process_cpu_seconds(server.pid) - cpu0
        after = server.scrape()
        rss = peak_rss_mb(server.pid)
    except BaseException:
        print(server.log_tail(), flush=True)
        raise
    finally:
        stop_all(servers)
    out = http_outcome(replies, start, setup_s, cpu, rss)

    expected = inputs.predict_in_workers(model, plan.distinct)
    served = [json.loads(raw) for _, raw, _, _ in replies]
    for i, reply in enumerate(served):
        want = expected[plan.distinct_row[i]]
        check(reply["label"] == want.item(), f"request {i}: served label "
              f"{reply['label']!r}, in-process predict {want!r}")
        check(abs(sum(reply["scores"].values()) - 1.0) <= 1e-9,
              f"request {i}: class scores sum to {sum(reply['scores'].values())!r}")
    unique = plan.distinct_row < len(plan.unique)
    correct = [reply["label"] == plan.unique_labels[row]
               for reply, row, is_unique in zip(served, plan.distinct_row, unique) if is_unique]
    accuracy = mean(correct)
    majority = float(np.bincount(plan.unique_labels).max() / plan.unique_labels.size)
    check(accuracy >= majority + ACCURACY_MARGIN,
          f"accuracy {accuracy:.3f} on the unique series does not beat the "
          f"majority rate {majority:.3f} by {ACCURACY_MARGIN}")
    sample = inputs.sample_indices(ctx.seed, len(plan.unique), BIT_CHECK_SERIES)
    check_fast_equals_reference(model.config, plan.unique[sample])

    hits = after.delta(before, "repro_serve_feature_cache_hits_total")
    misses = after.delta(before, "repro_serve_feature_cache_misses_total")
    check(
        misses == plan.extractions,
        f"the server extracted {misses:.0f} series; {len(plan.distinct)} distinct "
        f"ones through its {SERVER_FEATURE_LRU}-entry LRU need {plan.extractions}",
    )

    server_ms = after.mean_delta_ms(before, "repro_serve_request_seconds", route="/v1/classify")
    batches = after.delta(before, "repro_serve_batches_dispatched_total")
    out.layers.update({
        "serve.http.server_ms": server_ms,
        "serve.http.outside_ms": 1e3 * mean(rtt for _, _, rtt, _ in replies) - server_ms,
        "serve.batcher.batches": batches,
        "serve.batcher.batch_size_mean": (
            after.delta(before, "repro_serve_batch_size_sum")
            / after.delta(before, "repro_serve_batch_size_count")
        ),
        "serve.engine.extractions": misses,
        "serve.engine.lru_hits": hits,
        "serve.engine.coalesced": after.delta(before, "repro_serve_requests_coalesced_total"),
        "serve.engine.lru_hit_ratio": hits / (hits + misses),
    })
    if ctx.trace:
        classify_ms = replay_engine(model, plan)
        if classify_ms is not None:
            out.layers["serve.engine.classify_ms"] = classify_ms
            out.layers["serve.queue_ms"] = server_ms - classify_ms
        out.layers.update(tracing.batch_path(model, plan.unique[:TRACE_SERIES]))
        out.layers.update(setup_trace.metrics())
    return out


def replay_engine(model, plan: Plan) -> float | None:
    """Mean ``InferenceEngine.classify`` ms over the request sequence,
    replayed in process after the same warm-up."""
    try:
        engine_cls = tracing.require("repro.serve.engine.InferenceEngine")
    except tracing.Absent as exc:
        note(f"serve.engine.classify_ms absent: {exc}")
        return None
    timer = Timer()
    try:
        with engine_cls(model, name=MODEL, feature_cache_size=SERVER_FEATURE_LRU) as engine:
            for series in plan.warmup:
                engine.classify(series)
            for series in plan.series:
                with timer:
                    engine.classify(series)
    except tracing.CHANGED as exc:
        note(f"serve.engine.classify_ms absent: {type(exc).__name__}: {exc}")
        return None
    return timer.mean_ms()
