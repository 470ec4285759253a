"""ODDataset batching, aux/pair features, and ranking-task construction."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.data import ODDataset, ODPair
from repro.data.dataset import AUX_DIM, FULL_XST_DIM, PAIR_DIM
from repro.data.temporal import XST_DIM

ROOT = pathlib.Path(__file__).resolve().parents[2]

_NARROW_WORLD_SCRIPT = """
import json
from repro.data import FliggyConfig, ODDataset, generate_fliggy_dataset
from repro.data.world import WorldConfig
dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
    num_users=20, world=WorldConfig(num_cities=4))))
print(json.dumps([len(set(task.candidates))
                  for task in dataset.ranking_tasks()]))
"""


class TestBatching:
    def test_batch_shapes(self, od_dataset):
        batch = next(od_dataset.iter_batches("train", batch_size=32))
        assert len(batch) == 32
        assert batch.long_origins.shape == (32, 10)
        assert batch.short_origins.shape == (32, 6)
        assert batch.xst_o.shape == (32, FULL_XST_DIM)
        assert batch.pair_features.shape == (32, PAIR_DIM)

    def test_batches_cover_all_samples(self, od_dataset):
        total = sum(
            len(b) for b in od_dataset.iter_batches("train", batch_size=128)
        )
        assert total == len(od_dataset.samples("train"))

    def test_shuffle_changes_order(self, od_dataset):
        b1 = next(od_dataset.iter_batches("train", 64,
                                          rng=np.random.default_rng(1)))
        b2 = next(od_dataset.iter_batches("train", 64,
                                          rng=np.random.default_rng(2)))
        assert not np.array_equal(b1.candidate_origin, b2.candidate_origin)

    def test_no_shuffle_is_deterministic(self, od_dataset):
        b1 = next(od_dataset.iter_batches("train", 64, shuffle=False))
        b2 = next(od_dataset.iter_batches("train", 64, shuffle=False))
        np.testing.assert_array_equal(b1.candidate_origin, b2.candidate_origin)

    def test_unknown_split_rejected(self, od_dataset):
        with pytest.raises(ValueError):
            list(od_dataset.iter_batches("validation"))

    def test_masks_align_with_history_length(self, od_dataset):
        batch = next(od_dataset.iter_batches("test", 64, shuffle=False))
        for i in range(len(batch)):
            point = od_dataset.source.point_for(
                int(batch.user_ids[i]), int(batch.day[i])
            )
            expected = min(len(point.history.bookings), od_dataset.max_long)
            assert batch.long_mask[i].sum() == expected

    def test_sequences_keep_most_recent(self, od_dataset):
        batch = next(od_dataset.iter_batches("test", 64, shuffle=False))
        for i in range(len(batch)):
            point = od_dataset.source.point_for(
                int(batch.user_ids[i]), int(batch.day[i])
            )
            bookings = point.history.bookings[-od_dataset.max_long:]
            valid = int(batch.long_mask[i].sum())
            assert batch.long_origins[i, :valid].tolist() == [
                b.origin for b in bookings
            ]


class TestAuxFeatures:
    def test_is_current_flag(self, od_dataset):
        batch = next(od_dataset.iter_batches("train", 256, shuffle=False))
        is_current = batch.xst_o[:, XST_DIM]
        expected = (batch.candidate_origin == batch.current_city).astype(float)
        np.testing.assert_allclose(is_current, expected)

    def test_long_match_counts(self, od_dataset):
        batch = next(od_dataset.iter_batches("train", 256, shuffle=False))
        for i in range(20):
            matches = (
                (batch.long_destinations[i] == batch.candidate_destination[i])
                & batch.long_mask[i]
            ).sum()
            assert batch.xst_d[i, XST_DIM + 1] == pytest.approx(
                np.log1p(matches)
            )

    def test_distance_feature(self, od_dataset):
        batch = next(od_dataset.iter_batches("train", 64, shuffle=False))
        expected = np.log1p(
            od_dataset.distance_km[batch.current_city, batch.candidate_origin]
        )
        np.testing.assert_allclose(batch.xst_o[:, XST_DIM + 4], expected)

    def test_aux_dim_consistency(self):
        assert FULL_XST_DIM == XST_DIM + AUX_DIM


class TestPairFeatures:
    def test_reverse_of_last_flag(self, od_dataset):
        point = od_dataset.source.test_points[0]
        last = point.history.bookings[-1]
        reverse = ODPair(last.destination, last.origin)
        batch = od_dataset.batch_for_candidates(point, [reverse, point.target])
        assert batch.pair_features[0, 5] == 1.0

    def test_route_popularity_normalised(self, od_dataset):
        pop = od_dataset.route_popularity
        assert pop.max() == pytest.approx(1.0)
        assert pop.min() >= 0.0

    def test_pair_distance(self, od_dataset):
        batch = next(od_dataset.iter_batches("train", 32, shuffle=False))
        expected = np.log1p(od_dataset.distance_km[
            batch.candidate_origin, batch.candidate_destination
        ])
        np.testing.assert_allclose(batch.pair_features[:, 0], expected)


class TestRankingTasks:
    def test_true_pair_present_once(self, od_dataset):
        tasks = od_dataset.ranking_tasks(
            num_candidates=12, rng=np.random.default_rng(0), max_tasks=30
        )
        for task in tasks:
            assert task.candidates[task.true_index] == task.point.target
            assert task.candidates.count(task.point.target) == 1

    def test_candidates_unique(self, od_dataset):
        tasks = od_dataset.ranking_tasks(
            num_candidates=12, rng=np.random.default_rng(0), max_tasks=30
        )
        for task in tasks:
            assert len(set(task.candidates)) == len(task.candidates)

    def test_max_tasks_subsamples(self, od_dataset):
        tasks = od_dataset.ranking_tasks(num_candidates=8, max_tasks=10)
        assert len(tasks) == 10

    def test_lbsn_mode_fixes_origin(self, lbsn_od_dataset):
        tasks = lbsn_od_dataset.ranking_tasks(
            num_candidates=10, rng=np.random.default_rng(0), max_tasks=20
        )
        for task in tasks:
            origins = {pair.origin for pair in task.candidates}
            assert origins == {task.point.target.origin}

    def test_a_world_narrower_than_the_width_returns(self):
        """Four cities hold at most 15 pairs besides the truth, so 29
        distinct distractors cannot exist; the default width must still
        return.  A fresh interpreter under a timeout turns a rejection
        loop that never ends into a failure instead of a hung suite."""
        result = subprocess.run(
            [sys.executable, "-c", _NARROW_WORLD_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            check=True, capture_output=True, text=True, timeout=60,
        )
        widths = json.loads(result.stdout.strip().splitlines()[-1])
        assert len(widths) == 20
        assert all(1 < width <= 16 for width in widths)

    def test_batch_for_candidates_labels(self, od_dataset):
        point = od_dataset.source.test_points[0]
        distractor = ODPair(
            (point.target.origin + 1) % od_dataset.num_cities,
            (point.target.destination + 1) % od_dataset.num_cities,
        )
        batch = od_dataset.batch_for_candidates(point, [point.target, distractor])
        assert batch.label_o.tolist() == [1.0, 0.0]
        assert batch.label_d.tolist() == [1.0, 0.0]

    def test_register_point_enables_adhoc_scoring(self, od_dataset):
        from repro.data.synthetic import DecisionPoint
        from repro.data.schema import UserHistory

        source_point = od_dataset.source.test_points[0]
        adhoc = DecisionPoint(
            history=UserHistory(
                user_id=source_point.history.user_id,
                current_city=source_point.history.current_city,
                bookings=list(source_point.history.bookings[:2]),
                clicks=[],
            ),
            target=source_point.target,
            day=source_point.day + 12345,
        )
        batch = od_dataset.batch_for_candidates(adhoc, [source_point.target])
        assert len(batch) == 1


class TestSampleDistractors:
    def test_distinct_and_never_the_target(self, od_dataset):
        point = od_dataset.source.test_points[0]
        pairs = od_dataset.sample_distractors(
            point.target, 20, np.random.default_rng(0)
        )
        assert len(pairs) == 20
        assert len(set(pairs)) == 20
        assert point.target not in pairs

    def test_draws_are_bounded(self, od_dataset, monkeypatch):
        target = od_dataset.source.test_points[0].target
        draws = []

        def same_pair(true, rng):
            draws.append(1)
            return ODPair(true.origin, (true.destination + 1)
                          % od_dataset.num_cities)

        monkeypatch.setattr(od_dataset, "_sample_distractor", same_pair)
        pairs = od_dataset.sample_distractors(
            target, 5, np.random.default_rng(0)
        )
        assert len(pairs) == 1
        assert len(draws) == 8 * (5 + 1)

    def test_zero_draws_nothing(self, od_dataset):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        target = od_dataset.source.test_points[0].target
        assert od_dataset.sample_distractors(target, 0, rng) == []
        assert rng.bit_generator.state == state
