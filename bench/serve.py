"""``serve_direct`` and ``serve_swap``: in-process ``recommend``.

``serve_direct`` — one closed-loop client on
``FlightRecommender.recommend``.  The fused kernel does most of the work
and there is no wire and no table building, so kernel, batch-assembly,
top-k and pipeline changes show here and nowhere else.

``serve_swap`` — the same recommender and stream, read beside a writer
thread that, on a fixed 200 ms schedule, publishes a weight snapshot,
lets a ``SnapshotFollower`` hot-swap it into the serving session, and
ingests 20 RTFS events.  Work moved into table building, a longer
exclusive section or slower ingest shows here while ``serve_direct``
stays flat.
"""

from __future__ import annotations

import gc
import pathlib
import shutil
import threading
import time

import numpy as np

from repro.data.schema import BookingEvent
from repro.data.synthetic import DecisionPoint
from repro.guard import Priority
from repro.obs import use_tracer
from repro.obs.registry import MetricsRegistry, use_registry
from repro.online import SnapshotFollower, SnapshotStore

from . import check
from .measure import (
    closed_loop, end_to_end_metrics, per_round, timed, well_formed,
)
from .streams import (
    STREAM, feature_events, perturbed_states, request_stream,
)
from .trace import SpanRecorder
from .world import FULL, TOP_K, Scale, build_recommender

__all__ = ["run_direct", "run_swap", "trace_direct", "trace_swap"]

SWAP_PERIOD_S = 0.2
EVENTS_PER_TICK = 20
PERTURBATIONS = 4
TRACER_PAIRS = 4


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _first_reply(seed: int, scale: Scale):
    """From nothing to the first successful (undegraded, full-length)
    reply: dataset generation, model construction and the first
    request's HSGC table build included."""
    recommender = build_recommender(seed, scale)
    points = recommender.dataset.source.test_points
    (user_id, day), = request_stream(points, seed, "setup", 1)
    response = recommender.recommend(user_id, day, k=TOP_K)
    if response.degraded or len(response) != TOP_K:
        raise RuntimeError(f"first request failed: {response}")
    return recommender


def _set_up(seed: int, scale: Scale):
    """Set up ``setup_repeats`` times; keep the last recommender."""
    setups_s = []
    recommender = None
    for _ in range(scale.setup_repeats):
        recommender = None
        gc.collect()
        recommender, elapsed = timed(lambda: _first_reply(seed, scale))
        setups_s.append(elapsed)
    return recommender, setups_s


def _client(recommender):
    def send(request):
        return recommender.recommend(request[0], request[1], k=TOP_K)

    def accept(request, response):
        return not response.degraded and well_formed(
            [flight.score for flight in response.flights], TOP_K
        )

    return send, accept


def _streams(recommender, seed: int, scale: Scale):
    points = recommender.dataset.source.test_points
    return {
        salt: request_stream(points, seed, salt, length)
        for salt, length in (
            ("warmup", scale.warmup_direct),
            ("measured", scale.stream_length),
            ("check", scale.check_sample),
        )
    }


def _result(loop, problems, metrics, extras) -> dict:
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "problems": problems,
        "extras": {
            "stream": STREAM,
            "clients": 1,
            "measured_operations": loop.succeeded,
            **extras,
        },
    }


def _end_to_end(loop, problems, setups_s, extras) -> dict:
    return _result(
        loop, problems, end_to_end_metrics(loop, setups_s),
        {"setup_samples_s": setups_s, "per_round": per_round(loop),
         **extras},
    )


# ----------------------------------------------------------------------
# serve_direct
# ----------------------------------------------------------------------
def run_direct(seed: int, seconds: float, scale: Scale = FULL) -> dict:
    with use_registry(MetricsRegistry()):
        recommender, setups_s = _set_up(seed, scale)
        streams = _streams(recommender, seed, scale)
        send, accept = _client(recommender)
        for request in streams["warmup"]:
            send(request)
        loop = closed_loop(
            [(send, accept, streams["measured"])], seconds
        )
        problems = check.check_recommender(
            recommender, streams["check"], TOP_K
        )
    return _end_to_end(loop, problems, setups_s, {})


def _ranking(flights):
    return [(flight.pair, flight.score) for flight in flights]


def _trace_stages(span, recommender, user_id: int, day: int):
    """``recommend``'s stages one by one, through each layer's public
    function; returns (candidates, ranking)."""
    with span("guard.admit"):
        permit = recommender.guard.admit(priority=Priority.INTERACTIVE)
    try:
        with span("features.user_history"):
            history = recommender.features.user_history(user_id, day)
        with span("recall.candidate_pairs"):
            candidates = recommender.recall.candidate_pairs(history)
        with span("ranking.rank"):
            ranked = recommender.ranking.rank(
                history, candidates, day=day, k=TOP_K
            )
    finally:
        permit.release()
    return candidates, _ranking(ranked)


def _trace_rank_inside(span, recommender, user_id: int, day: int):
    """The inside of ``RankingService.rank``: batch, table lookup, fused
    kernel (features and recall run untimed to feed it)."""
    ranking = recommender.ranking
    history = recommender.features.user_history(user_id, day)
    candidates = recommender.recall.candidate_pairs(history)
    point = DecisionPoint(history=history, target=candidates[0], day=day)
    with span("dataset.batch_for_candidates"):
        batch = recommender.dataset.batch_for_candidates(point, candidates)
    with span("session.tables"):
        tables = ranking.session.tables()
    with span("fused.score_pairs"):
        scores = ranking.model.score_pairs(batch, tables=tables)
    order = np.argsort(-scores, kind="mergesort")[:TOP_K]
    return candidates, [(candidates[i], float(scores[i])) for i in order]


def _replay(recorder: SpanRecorder, recommender, request, request_id: int):
    """Trace one request in one of three ways, by turns: the real call
    in one span, its stages one by one, or the inside of the rank stage.

    A request is traced one way only, while it is still new to the
    recommender: whichever call comes first fills the per-key caches
    (encoded point, x_st rows) and would make the others look cheaper
    than they are.  The turns draw from one stream, so their means are
    comparable.  The staged ways then repeat the request through the
    real call, untimed, and must agree with it.

    Returns (agreed, encoded point was cached, candidates) — the last
    two ``None`` on the real call's turn.
    """
    user_id, day = request
    dataset = recommender.dataset
    turn = request_id % 3
    if turn == 0:
        with recorder.span("platform.recommend", request_id):
            response = recommender.recommend(user_id, day, k=TOP_K)
        return not response.degraded, None, None
    encoded_before = dataset.encoded_points + dataset.encoded_evictions
    staged = _trace_stages if turn == 1 else _trace_rank_inside
    with recorder.span("staged", request_id):
        candidates, ranked = staged(recorder.span, recommender, user_id, day)
    encode_hit = (
        dataset.encoded_points + dataset.encoded_evictions == encoded_before
    )
    response = recommender.recommend(user_id, day, k=TOP_K)
    agreed = not response.degraded and ranked == _ranking(response.flights)
    return agreed, encode_hit, len(candidates)


def trace_direct(seed: int, seconds: float, recorder: SpanRecorder,
                 scale: Scale = FULL) -> dict:
    """Per-layer numbers for ``serve_direct``.

    Half the time goes to plain calls against the same calls under the
    program's own ``obs.Tracer`` (the throughput lost is the tracing
    overhead), half to the staged replay that feeds the waterfall.
    """
    with use_registry(MetricsRegistry()):
        recommender, _ = _set_up(seed, scale)
        streams = _streams(recommender, seed, scale)
        send, accept = _client(recommender)
        for request in streams["warmup"]:
            send(request)
        # Tracer off/on in alternating short rounds, each on requests not
        # seen before, so neither drift in the machine's speed nor warm
        # caches favour a side.
        requests = streams["measured"]
        half = len(requests) // 2
        width = half // (2 * TRACER_PAIRS)
        span_s = seconds / (4 * TRACER_PAIRS)
        overheads = []
        for pair in range(TRACER_PAIRS):
            first = 2 * pair * width
            plain = closed_loop(
                [(send, accept, requests[first:first + width])],
                span_s, rounds=1,
            )
            with use_tracer():
                traced = closed_loop(
                    [(send, accept, requests[first + width:first + 2 * width])],
                    span_s, rounds=1,
                )
            overheads.append(
                (plain.rates[0] - traced.rates[0]) / plain.rates[0] * 100.0
            )
        requests = requests[half:]

        session = recommender.ranking.session
        hits, misses = session.hits, session.misses
        attempted = failed = staged = encode_hits = candidates = 0
        deadline = time.perf_counter() + seconds / 2
        while time.perf_counter() < deadline:
            agreed, encode_hit, count = _replay(
                recorder, recommender, requests[attempted % len(requests)],
                attempted,
            )
            attempted += 1
            failed += not agreed
            if count is not None:
                staged += 1
                encode_hits += encode_hit
                candidates += count
        lookups = (session.hits - hits) + (session.misses - misses)

    mean = recorder.mean_ms
    stages = sum(mean(name) for name in (
        "guard.admit", "features.user_history",
        "recall.candidate_pairs", "ranking.rank",
    ))
    rows = candidates / staged
    metrics = {
        "guard.admit_ms": (mean("guard.admit"), "ms"),
        "features.user_history_ms": (mean("features.user_history"), "ms"),
        "recall.candidate_pairs_ms": (mean("recall.candidate_pairs"), "ms"),
        "recall.candidates_per_request": (rows, "count"),
        "dataset.batch_for_candidates_ms":
            (mean("dataset.batch_for_candidates"), "ms"),
        "dataset.encode_hit_share": (encode_hits / staged, "share"),
        "session.tables_ms": (mean("session.tables"), "ms"),
        "session.hit_share": ((session.hits - hits) / lookups, "share"),
        "fused.score_pairs_ms": (mean("fused.score_pairs"), "ms"),
        "fused.rows_per_call": (rows, "count"),
        "fused.us_per_row": (mean("fused.score_pairs") * 1000.0 / rows, "us"),
        "ranking.rank_ms": (mean("ranking.rank"), "ms"),
        "ranking.topk_self_ms": (
            mean("ranking.rank") - mean("dataset.batch_for_candidates")
            - mean("fused.score_pairs"), "ms"),
        "platform.recommend_ms": (mean("platform.recommend"), "ms"),
        "platform.self_ms": (mean("platform.recommend") - stages, "ms"),
        "obs.tracer_overhead_pct": (float(np.median(overheads)), "%"),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [f"{failed} staged replays disagreed with the real call"]
        if failed else [],
        "extras": {
            "stream": STREAM,
            "replayed_requests": attempted,
            # what the harness itself adds around the staged calls
            "staged_harness_self_ms": recorder.mean_self_ms("staged"),
        },
    }


# ----------------------------------------------------------------------
# serve_swap
# ----------------------------------------------------------------------
class _Writer(threading.Thread):
    """Publish -> follow -> hot-swap -> ingest, every ``SWAP_PERIOD_S``.

    The schedule is fixed (tick ``n`` is due at ``start + n * period``);
    a tick that overruns is followed immediately by the next, and
    ``late_ticks`` says how often that happened.
    """

    def __init__(self, recommender, directory, seed: int,
                 recorder: SpanRecorder | None = None):
        super().__init__(name="bench-swap-writer", daemon=True)
        dataset = recommender.dataset
        model = recommender.ranking.model
        self.features = recommender.features
        self.store = SnapshotStore(directory)
        self.follower = SnapshotFollower(
            self.store, recommender.ranking.session, name="bench"
        )
        self.states = perturbed_states(model.state_dict(), seed, PERTURBATIONS)
        self.events = feature_events(
            dataset.source.test_points, dataset.num_cities, seed,
            EVENTS_PER_TICK * 64,
        )
        self.recorder = recorder
        self.ticks = 0
        self.late_ticks = 0
        self.versions: list[int] = []
        self.swap_intervals: list[tuple[float, float]] = []
        self.error: BaseException | None = None
        self._halt = threading.Event()

    @property
    def last_state(self) -> dict:
        return self.states[(self.ticks - 1) % len(self.states)]

    def _tick(self) -> None:
        state = self.states[self.ticks % len(self.states)]
        first = (self.ticks * EVENTS_PER_TICK) % len(self.events)
        events = self.events[first:first + EVENTS_PER_TICK]
        if self.recorder is None:
            self.store.publish(state)
            version = self.follower.poll()
            self._ingest(events)
        else:
            span = self.recorder.span
            with span("writer.tick", self.ticks):
                with span("snapshots.publish"):
                    self.store.publish(state)
                with span("snapshots.load"):     # probe: poll loads again
                    self.store.load()
                with span("follower.poll") as poll:
                    version = self.follower.poll()
                self.swap_intervals.append((poll.start_s, poll.end_s))
                with span("features.record_events"):
                    self._ingest(events)
        if version is None:
            raise RuntimeError("follower saw no new version after a publish")
        self.versions.append(version)
        self.ticks += 1

    def _ingest(self, events) -> None:
        for event in events:
            if isinstance(event, BookingEvent):
                self.features.record_booking(event)
            else:
                self.features.record_click(event)

    def run(self) -> None:
        due = time.perf_counter()
        try:
            while not self._halt.is_set():
                self._tick()
                due += SWAP_PERIOD_S
                wait = due - time.perf_counter()
                if wait > 0:
                    self._halt.wait(wait)
                else:
                    self.late_ticks += 1
                    due = time.perf_counter()
        except BaseException as exc:  # surfaced by stop(); never swallowed
            self.error = exc

    def stop(self) -> None:
        """Finish the tick in flight, end the thread, surface its error."""
        self._halt.set()
        if self.ident is not None:
            self.join(timeout=30.0)
        if self.is_alive():
            raise RuntimeError("swap writer did not stop")
        if self.error is not None:
            raise RuntimeError("swap writer failed") from self.error


def _swap_problems(writer: _Writer, recommender, requests) -> list[str]:
    """After the last publish: versions only ever rose, the model holds
    exactly the last published state, and what is served matches the
    Tensor-path reference under that state."""
    problems = []
    versions = writer.versions
    if any(b <= a for a, b in zip(versions, versions[1:])):
        problems.append(f"served versions not monotone: {versions}")
    if writer.follower.version != writer.store.current_version():
        problems.append("follower is behind the published pointer")
    live = recommender.ranking.model.state_dict()
    if not all(np.array_equal(live[k], v) for k, v in writer.last_state.items()):
        problems.append("model weights differ from the last published state")
    return problems + check.check_recommender(recommender, requests, TOP_K)


def _swap_run(seed: int, seconds: float, scale: Scale, out_dir,
              recorder: SpanRecorder | None):
    directory = pathlib.Path(out_dir) / f"snapshots-{seed}-{time.time_ns()}"
    with use_registry(MetricsRegistry()):
        recommender, setups_s = _set_up(seed, scale)
        streams = _streams(recommender, seed, scale)
        send, accept = _client(recommender)
        for request in streams["warmup"]:
            send(request)
        if recorder is not None:
            plain_send = send

            def send(request):
                with recorder.span("platform.recommend"):
                    return plain_send(request)

            for _ in range(5):
                with recorder.span("hsgc.table_build"):
                    recommender.ranking.model.embedding_tables()
        writer = _Writer(recommender, directory, seed, recorder)
        try:
            writer.start()
            try:
                loop = closed_loop(
                    [(send, accept, streams["measured"])], seconds
                )
            finally:
                writer.stop()
            problems = _swap_problems(writer, recommender, streams["check"])
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return loop, setups_s, writer, problems


def run_swap(seed: int, seconds: float, out_dir,
             scale: Scale = FULL) -> dict:
    loop, setups_s, writer, problems = _swap_run(
        seed, seconds, scale, out_dir, None
    )
    return _end_to_end(
        loop, problems, setups_s,
        {"swaps": writer.ticks, "late_ticks": writer.late_ticks},
    )


def trace_swap(seed: int, seconds: float, out_dir, recorder: SpanRecorder,
               scale: Scale = FULL) -> dict:
    loop, _, writer, problems = _swap_run(
        seed, seconds, scale, out_dir, recorder
    )
    follower = writer.follower
    # A read was blocked if its interval overlaps a swap's.
    reads = recorder.named("platform.recommend")
    starts = np.array([s for s, _ in writer.swap_intervals])
    ends = np.array([e for _, e in writer.swap_intervals])
    blocked = sum(
        bool(np.any((starts < read.end_s) & (ends > read.start_s)))
        for read in reads
    )
    mean = recorder.mean_ms
    metrics = {
        "platform.recommend_ms": (mean("platform.recommend"), "ms"),
        "hsgc.table_build_ms": (mean("hsgc.table_build"), "ms"),
        # median of the exclusive pauses ``InferenceSession.swap`` returns
        "session.swap_ms":
            (float(np.median(follower.pause_history_ms)), "ms"),
        "snapshots.publish_ms": (mean("snapshots.publish"), "ms"),
        "snapshots.load_ms": (mean("snapshots.load"), "ms"),
        "follower.update_lag_ms":
            (float(np.mean(follower.lag_history_ms)), "ms"),
        "features.record_event_us": (
            mean("features.record_events") * 1000.0 / EVENTS_PER_TICK, "us"),
        "session.reader_blocked_share": (blocked / len(reads), "share"),
        "online.swaps": (float(follower.swaps), "count"),
    }
    return _result(
        loop, problems, metrics,
        {"swaps": writer.ticks, "late_ticks": writer.late_ticks},
    )
