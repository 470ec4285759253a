"""The struct-of-arrays encoded-point store and its serving-time LRU bound.

``register_point`` used to grow the encode cache forever — an unbounded
memory leak under live traffic with unique ``(user, day)`` keys.  The
store now bounds *ad-hoc* (serving-time) rows with an LRU; offline
train/test rows are pinned and exempt because the training iterator
addresses them by row.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import ODDataset
from repro.data.dataset import _EncodedPoint, _EncodedStore
from repro.data.synthetic import DecisionPoint
from repro.obs.registry import MetricsRegistry, set_registry


CAP = 4


@pytest.fixture()
def capped_dataset(fliggy_dataset):
    return ODDataset(fliggy_dataset, max_long=10, max_short=6,
                     max_cached_points=CAP)


def _adhoc_point(dataset, index: int) -> DecisionPoint:
    """A decision point whose (user, day) key is not in the offline set."""
    base = dataset.source.test_points[index % len(dataset.source.test_points)]
    return DecisionPoint(
        history=base.history, target=base.target, day=10_000 + index
    )


class TestCapValidation:
    def test_zero_cap_rejected(self, fliggy_dataset):
        with pytest.raises(ValueError, match="max_adhoc"):
            ODDataset(fliggy_dataset, max_cached_points=0)

    def test_unbounded_cache_allowed(self, fliggy_dataset):
        dataset = ODDataset(fliggy_dataset, max_long=10, max_short=6,
                            max_cached_points=None)
        for i in range(8):
            dataset.register_point(_adhoc_point(dataset, i))
        assert dataset.encoded_evictions == 0


class TestLRUBound:
    def test_store_stops_growing_at_cap(self, capped_dataset):
        pinned = capped_dataset.encoded_points
        for i in range(3 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        assert capped_dataset.encoded_points == pinned + CAP
        assert capped_dataset.encoded_evictions == 2 * CAP

    def test_least_recently_used_is_evicted(self, capped_dataset):
        store = capped_dataset._store
        points = [_adhoc_point(capped_dataset, i) for i in range(CAP + 1)]
        for point in points[:CAP]:
            capped_dataset.register_point(point)
        # Touch the oldest so the second-oldest becomes the LRU victim.
        assert store.row(ODDataset._key(points[0])) is not None
        capped_dataset.register_point(points[CAP])
        assert store.row(ODDataset._key(points[0])) is not None
        assert store.row(ODDataset._key(points[1])) is None
        assert capped_dataset.encoded_evictions == 1

    def test_evicted_row_is_reused_not_regrown(self, capped_dataset):
        store = capped_dataset._store
        for i in range(CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        capacity_at_cap = store._capacity
        for i in range(CAP, 4 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        assert store._capacity == capacity_at_cap

    def test_re_register_after_eviction_round_trips(self, capped_dataset):
        point = _adhoc_point(capped_dataset, 0)
        first_row = capped_dataset.register_point(point)
        reference = capped_dataset._store.long_origins[first_row].copy()
        for i in range(1, 2 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        assert capped_dataset._store.row(ODDataset._key(point)) is None
        new_row = capped_dataset.register_point(point)
        np.testing.assert_array_equal(
            capped_dataset._store.long_origins[new_row], reference
        )


class TestPinnedRows:
    def test_offline_points_survive_adhoc_floods(self, capped_dataset):
        points = capped_dataset.source.train_points[:5]
        keys = [ODDataset._key(point) for point in points]
        rows_before = [capped_dataset._store.row(key) for key in keys]
        for i in range(5 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        assert [capped_dataset._store.row(key) for key in keys] == rows_before

    def test_training_batches_work_after_flood(self, capped_dataset):
        for i in range(5 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        batch = next(iter(capped_dataset.iter_batches(
            "train", batch_size=16, shuffle=False
        )))
        assert len(batch) == 16


class TestServingAfterEviction:
    def test_batch_for_requests_re_encodes_transparently(self, capped_dataset):
        from repro.data.schema import ODPair

        point = _adhoc_point(capped_dataset, 0)
        candidates = [ODPair(0, 1), ODPair(1, 2)]
        before = capped_dataset.batch_for_requests([(point, candidates)])
        for i in range(1, 2 * CAP):
            capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        assert capped_dataset._store.row(ODDataset._key(point)) is None
        after = capped_dataset.batch_for_requests([(point, candidates)])
        np.testing.assert_array_equal(before.long_origins, after.long_origins)
        np.testing.assert_array_equal(before.xst_o, after.xst_o)
        np.testing.assert_array_equal(
            before.pair_features, after.pair_features
        )


class TestObsCounter:
    def test_evictions_reported_to_registry(self, capped_dataset):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            for i in range(2 * CAP):
                capped_dataset.register_point(_adhoc_point(capped_dataset, i))
        finally:
            set_registry(previous)
        assert (
            registry.counter("dataset.encoded_evictions").value
            == capped_dataset.encoded_evictions
            == CAP
        )


class _Parker:
    """Parks one thread on its ``at``-th key hash until ``resume``.

    The dict and ``OrderedDict`` operations of ``put`` and ``row`` hash
    their key first, so a key that calls this from ``__hash__`` stops its
    thread between any two of the store's bookkeeping steps.
    """

    def __init__(self, at: int = 0):
        self.at = at
        self.thread = None
        self.calls = 0
        self.parked = threading.Event()   # parked, or finished unparked
        self.resume = threading.Event()

    def __call__(self) -> None:
        if threading.get_ident() != self.thread:
            return
        self.calls += 1
        if self.calls == self.at:
            self.parked.set()
            self.resume.wait(10.0)


class _Key(tuple):
    """A ``(group, index, revision)`` store key that hashes through a parker."""

    def __new__(cls, values, parker: _Parker):
        key = super().__new__(cls, values)
        key.parker = parker
        return key

    def __hash__(self):
        self.parker()
        return tuple.__hash__(self)

    @property
    def tag(self) -> int:
        return 100 * self[0] + self[1]


def _encoded(key: _Key) -> _EncodedPoint:
    """A point whose every field names its key."""
    def full(length):
        return np.full(length, key.tag, dtype=np.int64)

    return _EncodedPoint(
        long_origins=full(3), long_destinations=full(3),
        long_mask=np.ones(3, bool), long_days=full(3),
        short_origins=full(2), short_destinations=full(2),
        short_mask=np.ones(2, bool), current_city=key.tag,
    )


#: How long the main thread lets the second operation run while the first
#: is parked.  Unlocked, the second finishes well inside it; serialised,
#: it waits for the first whatever this is.
_GRACE_S = 0.05


class TestConcurrentPuts:
    """Two operations on an ad-hoc LRU at its cap, the first parked at a
    drawn point of its bookkeeping while the second runs.  Whatever the
    interleaving, nothing raises and the store stays one consistent map:
    at most ``max_adhoc`` ad-hoc keys, one row per key, every row holding
    its key's point, no row lost."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        cap=st.integers(1, 3),
        first=st.sampled_from(["put_new", "put_old", "touch"]),
        second=st.sampled_from(["put_new", "put_old", "touch", "pinned"]),
        at=st.integers(1, 5),
        picks=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    # A touch of the LRU key parked in ``move_to_end`` while a put evicts it.
    @example(cap=2, first="touch", second="put_new", at=3, picks=(0, 0))
    def test_put_at_the_cap_is_atomic(self, cap, first, second, at, picks):
        store = _EncodedStore(3, 2, max_adhoc=cap)
        parker = _Parker(at)
        pinned = [_Key((0, i, 0), parker) for i in range(2)]
        adhoc = [_Key((1, i, 0), parker) for i in range(cap)]
        for key in pinned:
            store.put(key, _encoded(key), pinned=True)
        for key in adhoc:
            store.put(key, _encoded(key), pinned=False)
        pinned_rows = {key: store.row(key) for key in pinned}
        errors = []

        def operation(kind, index, pick):
            if kind == "put_new":
                key = _Key((2, index, 0), parker)
                return lambda: store.put(key, _encoded(key), pinned=False)
            if kind == "put_old":
                key = adhoc[pick % cap]
                return lambda: store.put(key, _encoded(key), pinned=False)
            if kind == "touch":
                return lambda: store.row(adhoc[pick % cap])
            return lambda: store.row(pinned[pick % 2])

        def run(work, parks=False):
            if parks:
                parker.thread = threading.get_ident()
            try:
                work()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                if parks:
                    parker.parked.set()

        t1 = threading.Thread(
            target=run, args=(operation(first, 0, picks[0]), True), daemon=True
        )
        t2 = threading.Thread(
            target=run, args=(operation(second, 1, picks[1]),), daemon=True
        )
        t1.start()
        assert parker.parked.wait(10.0)
        t2.start()
        t2.join(_GRACE_S)
        parker.resume.set()
        t1.join(10.0)
        t2.join(10.0)
        assert not t1.is_alive() and not t2.is_alive()

        assert errors == []
        assert len(store._adhoc) <= cap
        rows = store._rows
        assert len(set(rows.values())) == len(rows)
        assert set(rows.values()).isdisjoint(store._free)
        assert set(rows.values()) | set(store._free) == set(range(store._size))
        for key, row in rows.items():
            assert store.current_city[row] == key.tag, key
            assert (store.long_origins[row] == key.tag).all(), key
            assert store.stamp[row] != 0
        for key, row in store._adhoc.items():
            assert rows[key] == row
        assert {key: store.row(key) for key in pinned} == pinned_rows


class TestLockScope:
    def test_pinned_lookup_takes_no_lock_ad_hoc_touch_does(self):
        class Refuse:
            def __enter__(self):
                raise AssertionError("took the store lock")

            def __exit__(self, *exc_info):
                return False

        store = _EncodedStore(3, 2, max_adhoc=2)
        parker = _Parker()   # never parks
        pinned, adhoc = _Key((0, 0, 0), parker), _Key((1, 0, 0), parker)
        store.put(pinned, _encoded(pinned), pinned=True)
        store.put(adhoc, _encoded(adhoc), pinned=False)
        store._lock = Refuse()
        assert store.row(pinned) == 0       # a training batch's lookup
        assert store.row(_Key((9, 9, 0), parker)) is None
        with pytest.raises(AssertionError, match="store lock"):
            store.row(adhoc)
        with pytest.raises(AssertionError, match="store lock"):
            store.put(pinned, _encoded(pinned), pinned=True)
