"""The struct-of-arrays encoded-point store and its serving-time LRU bound.

``register_point`` used to grow the encode cache forever — an unbounded
memory leak under live traffic with unique ``(user, day)`` keys.  The
store now bounds *ad-hoc* (serving-time) rows with an LRU; offline
train/test rows are pinned and exempt because the training iterator and
parameter server address them by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ODDataset
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
