"""Point plans: the weight-free half of a request, remembered per point.

``ODDataset.plans`` keeps, per decision point ``(user, day, revision)``,
recall's candidate pairs and the side blocks (layouts, distinct x_st and
aux rows) batch assembly builds over them.  The *off* side of every
check here is the same model and dataset served by a recommender whose
recall remembers nothing (``recall.plans = None``): it never makes a
plan, so it never reads one.  Flights, hex scores, ``degraded`` and the
fallback reasons must be bit-identical, through ingests, evictions, a
hot swap and threads; the fault sites and ``recall.*`` counters still
fire once per request on a hit.

Everything drawn is derandomised, so a CI failure repeats locally.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from bench.streams import request_stream
from bench.world import build_dataset
from repro.core import ODNETConfig, build_odnet
from repro.data import DecisionPoint, ODDataset, ODPair
from repro.data.schema import BookingEvent, ClickEvent
from repro.obs.registry import MetricsRegistry, use_registry
from repro.resilience import FaultInjector, use_fault_injector
from repro.serving import FlightRecommender
from repro.serving.recall import CandidateRecall

from ..conftest import TINY_MODEL_CONFIG
from ..numerics import exact
from .test_hot_swap import _USER_PARAMS


def answer(response):
    return (
        [(f.pair.origin, f.pair.destination, exact(f.score))
         for f in response.flights],
        response.degraded,
        [str(event) for event in response.fallbacks],
    )


class Served:
    """One model and dataset behind two recommenders: ``memo`` fills and
    reads plans, ``plain`` has none."""

    def __init__(self, dataset, model):
        self.dataset = dataset
        self.model = model
        self.memo = FlightRecommender(model, dataset)
        self.plain = FlightRecommender(model, dataset)
        self.plain.recall.plans = None

    def check(self, user, day, k=10):
        got = answer(self.memo.recommend(user, day, k=k))
        assert got == answer(self.plain.recommend(user, day, k=k)), \
            (user, day)
        return got

    def ingest(self, event):
        for recommender in (self.memo, self.plain):
            if isinstance(event, BookingEvent):
                recommender.features.record_booking(event)
            else:
                recommender.features.record_click(event)


def tiny(source, cap=10_000):
    dataset = ODDataset(source, max_long=10, max_short=6,
                        max_cached_points=cap)
    return Served(dataset, build_odnet(dataset, TINY_MODEL_CONFIG))


@pytest.fixture
def served(fliggy_dataset):
    return tiny(fliggy_dataset)


def _points(served, count):
    return [(p.history.user_id, p.day)
            for p in served.dataset.source.test_points[:count]]


def test_bench_stream_hits_answer_as_misses(monkeypatch):
    """The bench's measured stream at seed 0, served twice: the first
    pass mixes misses with its own repeats, the second is all hits."""
    dataset = build_dataset(0, 3000, 200)
    served = Served(dataset, build_odnet(dataset, ODNETConfig(seed=0)))
    requests = request_stream(dataset.source.test_points, 0, "measured", 300)
    requests += [(10**9, 720), (-5, 720), (dataset.num_users + 3, 720)]
    first = [served.check(user, day) for user, day in requests]
    assembled = []
    real = CandidateRecall._assemble_pairs
    monkeypatch.setattr(
        CandidateRecall, "_assemble_pairs",
        lambda self, history: assembled.append(self) or real(self, history),
    )
    assert [served.check(user, day) for user, day in requests] == first
    # Only the cold starts (no RTFS day, so no plan) were recalled again.
    assert assembled.count(served.memo.recall) == 3
    assert all(plan.sides is not None
               for plan in served.dataset.plans._plans.values())


def test_ingests_mid_sequence_name_new_points(served):
    points = _points(served, 4)
    rng = np.random.default_rng(0)
    for step in range(40):
        user, day = points[step % len(points)]
        served.check(user, day)
        if step % 3 == 2:
            origin, destination = (int(c) for c in rng.integers(
                0, served.dataset.num_cities, 2))
            if step % 2:
                event = BookingEvent(user, origin, destination, day - 2, 1.0)
            else:
                event = ClickEvent(user, origin, destination, day - 1)
            served.ingest(event)
            # The ingest moved the user's history: a new point, a new plan.
            before = len(served.dataset.plans)
            served.check(user, day)
            assert len(served.dataset.plans) == before + 1


def test_evictions_keep_the_bound(fliggy_dataset):
    served = tiny(fliggy_dataset, cap=2)
    points = _points(served, 5)
    for _ in range(3):
        for user, day in points:
            served.check(user, day)
            served.check(user, day + 1)
            assert len(served.dataset.plans) <= 2


def test_hot_swap_between_repeats_is_never_served_stale(served):
    points = _points(served, 4)
    before = [served.check(user, day) for user, day in points]
    rng = np.random.default_rng(1)
    state = {name: value + rng.normal(0.0, 0.3, value.shape)
             if name in _USER_PARAMS or name.startswith("joint") else value
             for name, value in served.model.state_dict().items()}
    served.memo.ranking.session.swap(state)
    after = [served.check(user, day) for user, day in points]
    assert all(a[0] != b[0] for a, b in zip(after, before))


def test_fault_sites_and_counters_fire_on_a_hit(served):
    (user, day), = _points(served, 1)
    served.check(user, day)          # the miss that makes the plan
    with use_registry(MetricsRegistry()) as registry:
        hit = served.memo.recommend(user, day)
        assert registry.counter("recall.calls").value == 1
    assert not hit.degraded
    for site, stage in (("recall.candidates", "recall"),
                        ("rank.score", "rank")):
        injector = FaultInjector().add(site, error_rate=1.0)
        with use_fault_injector(injector):
            response = served.memo.recommend(user, day)
        assert injector.faults(site) >= 1, site
        assert response.degraded
        assert [str(event).split(":")[0] for event in response.fallbacks] \
            == [stage]


def test_nothing_a_plan_holds_is_writable(served):
    (user, day), = _points(served, 1)
    served.check(user, day)
    history = served.memo.features.user_history(user, day)
    candidates = served.memo.recall.candidate_pairs(history)
    plan = served.dataset.plans.get((user, day, history.revision))
    assert candidates.array is plan.pairs
    arrays = [plan.pairs, *(a for side in plan.sides.values() for a in side)]
    assert not any(array.flags.writeable for array in arrays)
    with pytest.raises(ValueError):
        candidates.array[0, 0] = 1


def _encoded_key(served, user, day):
    """The point's store key and encoding, as serving builds them."""
    history = served.memo.features.user_history(user, day)
    point = DecisionPoint(history=history, target=ODPair(0, 1), day=day)
    return ODDataset._key(point), served.dataset._encode_point(point)


def test_a_torn_gather_is_scored_but_not_planned(served, monkeypatch):
    """A put that lands in the point's row mid-gather: that batch is
    scored, but its side blocks are never remembered under the point."""
    (user, day), other = _points(served, 2)
    dataset = served.dataset
    served.plain.recommend(user, day)      # encoded, no plan yet
    victim, encoded = _encoded_key(served, user, day)
    intruder = _encoded_key(served, *other)[1]
    gather = dataset._assemble_batch

    def racing_gather(*args, **kwargs):
        out = gather(*args, **kwargs)
        dataset._store.put(victim, intruder, pinned=False)
        return out

    monkeypatch.setattr(dataset, "_assemble_batch", racing_gather)
    served.memo.recommend(user, day)
    monkeypatch.undo()
    assert dataset.plans.get(victim).sides is None
    dataset._store.put(victim, encoded, pinned=False)
    served.check(user, day)                # intact: planned, and right
    assert dataset.plans.get(victim).sides is not None
    served.check(user, day)


def test_a_row_reused_before_the_gather_is_not_planned(served, monkeypatch):
    """The point's row is evicted and taken by another point between the
    lookup and the gather: a whole gather, of the wrong point — scored
    once, never remembered under this one."""
    (user, day), (other_user, other_day) = _points(served, 2)
    dataset, store = served.dataset, served.dataset._store
    served.plain.recommend(user, day)
    victim, _ = _encoded_key(served, user, day)
    intruder = _encoded_key(served, other_user, other_day)[1]
    lookup, reused = store.row, []

    def evicting_row(key):
        row = lookup(key)
        if key == victim and row is not None and not reused:
            reused.append(row)
            del store._rows[key]           # evicted, its row freed...
            store._adhoc.pop(key, None)
            store._free.append(row)
            # ...and taken by another point's put, whole before the gather
            assert store.put((other_user, other_day, -1), intruder,
                             pinned=False) == row
        return row

    monkeypatch.setattr(store, "row", evicting_row)
    served.memo.recommend(user, day)
    monkeypatch.undo()
    assert reused
    assert dataset.plans.get(victim).sides is None
    served.check(user, day)                # re-encoded: planned, and right
    assert dataset.plans.get(victim).sides is not None
    served.check(user, day)


def test_threads_on_the_same_keys_agree(served):
    points = _points(served, 3)
    expected = {point: answer(served.plain.recommend(*point))
                for point in points}
    problems, lock = [], threading.Lock()

    def work():
        for _ in range(15):
            for point in points:
                got = answer(served.memo.recommend(*point))
                if got != expected[point]:
                    with lock:
                        problems.append(point)

    threads = [threading.Thread(target=work, daemon=True) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
