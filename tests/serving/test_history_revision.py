"""A click must change the next score.

The encoded store used to be keyed ``(user, day)`` and a found row was
trusted without a look at the history: after ``record_click`` recall saw
the new click and the model still read the old sequences.  RTFS now
counts ingests per user, ``user_history`` stamps that revision on its
answer, and the revision is part of the ad-hoc key — so an ingest is a
new key for that user only, pinned rows are never rewritten, and the
superseded row ages out through the LRU.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_odnet
from repro.data import ODDataset
from repro.data.schema import BookingEvent, ClickEvent
from repro.data.synthetic import DecisionPoint
from repro.online import (
    IncrementalTrainer, OnlineTrainerConfig, SnapshotStore,
)
from repro.serving import FlightRecommender

from ..conftest import TINY_MODEL_CONFIG

USER = 3


@pytest.fixture()
def recommender(fliggy_dataset):
    dataset = ODDataset(fliggy_dataset, max_long=10, max_short=6,
                        max_cached_points=64)
    return FlightRecommender(build_odnet(dataset, TINY_MODEL_CONFIG), dataset)


def _day(recommender, user=USER):
    return next(point.day for point in recommender.dataset.source.test_points
                if point.history.user_id == user) + 1


def _batch(recommender, user, day):
    history = recommender.features.user_history(user, day)
    candidates = recommender.recall.candidate_pairs(history)
    point = DecisionPoint(history, candidates[0], day)
    return point, candidates, recommender.dataset.batch_for_candidates(
        point, candidates
    )


def _click(recommender, user, day, destinations=(7, 9)):
    current = recommender.features.user_history(user, day).current_city
    for destination in destinations:
        recommender.features.record_click(
            ClickEvent(user, current, destination, day - 1)
        )


class TestRevision:
    def test_offline_histories_carry_revision_zero(self, fliggy_dataset):
        assert all(
            point.history.revision == 0
            for point in fliggy_dataset.train_points
            + fliggy_dataset.test_points
        )

    def test_each_ingest_bumps_its_user_only(self, recommender):
        features, day = recommender.features, _day(recommender)
        assert features.user_history(USER, day).revision == 0
        _click(recommender, USER, day)
        features.record_booking(BookingEvent(USER, 1, 2, day - 3, 80.0))
        assert features.user_history(USER, day).revision == 3
        assert features.user_history(USER + 1, day).revision == 0


class TestAClickChangesTheNextScore:
    def test_the_model_reads_the_new_clicks(self, recommender):
        """Fails at the parent: the row under (user, day) kept
        ``short_mask.sum() == 0`` and the scores did not move."""
        day = _day(recommender)
        dataset, session = recommender.dataset, recommender.ranking.session
        before = recommender.recommend(USER, day, k=5)
        _, _, stale = _batch(recommender, USER, day)
        assert stale.short_mask[0].sum() == 0
        old_scores = session.score_pairs(stale)

        _click(recommender, USER, day)
        assert len(recommender.features.user_history(USER, day).clicks) == 2
        point, candidates, batch = _batch(recommender, USER, day)
        fresh = dataset._encode_point(point)
        assert fresh.short_mask.sum() == 2
        np.testing.assert_array_equal(batch.short_mask[0], fresh.short_mask)
        np.testing.assert_array_equal(
            batch.short_destinations[0], fresh.short_destinations
        )
        # the score equals a fresh encode's (another dataset, same source)
        clean = ODDataset(dataset.source, max_long=10, max_short=6)
        reference = clean.batch_for_candidates(point, candidates)
        state = session._lookup()
        new_scores = session.score_pairs(batch)
        np.testing.assert_array_equal(
            new_scores, state.score_pairs(reference, tables=state.tables)
        )
        # ... and differs from what the stale row gave the same pairs
        shared = [i for i, pair in enumerate(candidates)
                  if pair in {(o, d) for o, d in zip(
                      stale.candidate_origin, stale.candidate_destination)}]
        assert shared
        stale_by_pair = dict(zip(
            zip(stale.candidate_origin.tolist(),
                stale.candidate_destination.tolist()), old_scores))
        assert any(
            new_scores[i] != stale_by_pair[tuple(candidates[i])]
            for i in shared
        )
        after = recommender.recommend(USER, day, k=5)
        assert [(f.pair, f.score) for f in after.flights] != [
            (f.pair, f.score) for f in before.flights
        ]

    def test_the_memo_does_not_bring_the_old_point_back(self, recommender):
        day = _day(recommender)
        session = recommender.ranking.session
        recommender.recommend(USER, day, k=5)
        recommender.recommend(USER, day, k=5)
        assert session.point_memo["hits"] == 2
        _click(recommender, USER, day)
        _, _, batch = _batch(recommender, USER, day)
        state = session._lookup()
        np.testing.assert_array_equal(
            session.score_pairs(batch),
            state.score_pairs(batch, tables=state.tables),
        )
        assert session.point_memo["hits"] == 2   # a new point: both missed

    def test_untouched_users_keep_their_rows(self, recommender):
        dataset, day = recommender.dataset, _day(recommender)
        others = [u for u in range(10) if u != USER]
        for user in others + [USER]:
            recommender.recommend(user, day, k=5)
        encoded = dataset.encoded_points
        rows = {user: _batch(recommender, user, day)[2].point_keys
                for user in others}
        _click(recommender, USER, day)
        for user in others:
            recommender.recommend(user, day, k=5)
            now = _batch(recommender, user, day)[2].point_keys
            np.testing.assert_array_equal(now[0], rows[user][0])
            np.testing.assert_array_equal(now[1], rows[user][1])
        assert dataset.encoded_points == encoded
        recommender.recommend(USER, day, k=5)
        assert dataset.encoded_points == encoded + 1

    def test_pinned_rows_are_never_rewritten(self, recommender):
        dataset = recommender.dataset
        point = next(p for p in dataset.source.test_points
                     if p.history.user_id == USER)
        row = dataset._store.row(ODDataset._key(point))
        stamp = int(dataset._store.stamp[row])
        content = dataset._store.short_mask[row].copy()
        _click(recommender, USER, point.day)
        recommender.recommend(USER, point.day, k=5)
        assert dataset._store.row(ODDataset._key(point)) == row
        assert dataset._store.stamp[row] == stamp
        np.testing.assert_array_equal(dataset._store.short_mask[row], content)
        # the revised history got a row of its own, an ad-hoc one
        assert dataset._store.adhoc_points == 1

    def test_twenty_events_re_encode_only_their_users(self, recommender):
        """``serve_swap``'s tick: 20 events, then reads for everyone."""
        dataset, day = recommender.dataset, _day(recommender)
        users = list(range(40))
        for user in users:
            recommender.recommend(user, day, k=5)
        encoded = dataset.encoded_points + dataset.encoded_evictions
        touched = set()
        for i in range(20):
            user = (7 * i) % 12
            touched.add(user)
            recommender.features.record_click(
                ClickEvent(user, 1, 2 + i % 5, day - 1)
            )
        for user in users:
            recommender.recommend(user, day, k=5)
        assert (dataset.encoded_points + dataset.encoded_evictions
                == encoded + len(touched))

    def test_incremental_trainer_trains_on_the_new_history(
        self, recommender, monkeypatch, tmp_path
    ):
        model, dataset = recommender.ranking.model, recommender.dataset
        trainer = IncrementalTrainer(
            model, dataset, recommender.features, SnapshotStore(tmp_path),
            OnlineTrainerConfig(batch_events=1, negatives_per_event=3),
        )
        day = _day(recommender)
        seen = []
        loss = model.loss
        monkeypatch.setattr(
            model, "loss", lambda batch: seen.append(batch) or loss(batch)
        )
        for clicks in (0, 2):
            trainer._pending.append(BookingEvent(USER, 4, 5, day, 90.0))
            assert trainer.step() is not None
            assert seen[-1].short_mask[0].sum() == clicks
            _click(recommender, USER, day)
