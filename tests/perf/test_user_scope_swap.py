"""A ``user``-scope swap rebuilds only the touched users' rows.

``InferenceSession.swap(state, touched_users=ids)`` publishes a copy of
the published user tables with ``node_embeddings(users=ids)`` written in
and the published city tables by reference — but only after checking
that nothing else moved; every other case is the full rebuild.  These
tests hold the narrowed tables to the full rebuild (1e-12: the rows come
from a GEMM over ``len(ids)`` rows, not all of them), the old state to
immutability, each fallback to bit-equality with the full rebuild, and
the point of it all — the table build no longer scales with the user
count — to a ratio.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core import ODNETConfig, build_odnet
from repro.data import FliggyConfig, ODDataset, generate_fliggy_dataset
from repro.data.world import WorldConfig
from repro.perf import InferenceSession
from repro.tensor import as_array

from ..conftest import TINY_MODEL_CONFIG
from .test_hot_swap import _USER_PARAMS, probe  # noqa: F401

_IDS = [7, 3, 3, 40, 119]  # unsorted, one repeat


def _moved(state, ids=_IDS, seed=5):
    """``state`` with the user rows ``ids`` of both sides moved."""
    rng = np.random.default_rng(seed)
    state = {name: value.copy() for name, value in state.items()}
    for name in _USER_PARAMS:
        state[name][ids] += rng.normal(0.0, 0.5, (len(ids),
                                                  state[name].shape[1]))
    return state


def _arrays(tables):
    return {
        side: tuple(as_array(table) for table in tables[side])
        for side in ("o", "d")
    }


@pytest.fixture()
def session(od_dataset):
    session = InferenceSession(build_odnet(od_dataset, TINY_MODEL_CONFIG))
    session.swap(session.model.state_dict())
    return session


class TestNarrowedSwap:
    def test_tables_equal_the_full_rebuild(self, session, probe):
        model = session.model
        before = session._lookup()
        old_scores = before.score_pairs(probe)
        session.swap(_moved(model.state_dict()), touched_users=_IDS)

        after = session._lookup()
        assert after is not before and after.version == model.param_version
        rebuilt = _arrays(model.frozen_state().tables)
        for side in ("o", "d"):
            users, cities = after.tables[side]
            np.testing.assert_allclose(
                as_array(users), rebuilt[side][0], rtol=0, atol=1e-12
            )
            # Reused by reference, and still right: nothing it reads moved.
            assert cities is before.tables[side][1]
            np.testing.assert_array_equal(as_array(cities), rebuilt[side][1])
            # Untouched rows are the published ones, in a new array.
            untouched = np.setdiff1d(np.arange(len(rebuilt[side][0])), _IDS)
            old_users = as_array(before.tables[side][0])
            assert not np.shares_memory(as_array(users), old_users)
            np.testing.assert_array_equal(
                as_array(users)[untouched], old_users[untouched]
            )
            assert not np.array_equal(as_array(users)[_IDS], old_users[_IDS])
        assert session.misses == 0  # the swap published; no reader rebuilt

        # A reader still holding the old state scores the old version.
        np.testing.assert_array_equal(before.score_pairs(probe), old_scores)
        assert not np.array_equal(after.score_pairs(probe), old_scores)
        np.testing.assert_allclose(
            session.score_pairs(probe),
            model.score_pairs(probe, tables=model.embedding_tables()),
            rtol=0, atol=1e-12,
        )

    def test_narrowed_swaps_chain(self, session):
        """The second delta patches the first's patched table."""
        model = session.model
        session.swap(_moved(model.state_dict(), [1, 2]), touched_users=[1, 2])
        cities = session._lookup().tables["o"][1]
        session.swap(_moved(model.state_dict(), [2, 9], seed=6),
                     touched_users=[9, 2])
        state = session._lookup()
        assert state.tables["o"][1] is cities
        rebuilt = _arrays(model.embedding_tables())
        for side in ("o", "d"):
            np.testing.assert_allclose(
                as_array(state.tables[side][0]), rebuilt[side][0],
                rtol=0, atol=1e-12,
            )

    def test_no_touched_user_at_all(self, session):
        before = session._lookup()
        session.swap(session.model.state_dict(), touched_users=[])
        after = session._lookup()
        assert after.version == session.model.param_version
        for side in ("o", "d"):
            np.testing.assert_array_equal(
                as_array(after.tables[side][0]),
                as_array(before.tables[side][0]),
            )


class TestFallsBackToTheFullRebuild:
    """Verified, not trusted: anything but "fresh published state and
    only user rows moved" rebuilds everything — new city tables, and all
    tables bit-equal to ``embedding_tables()``."""

    def _assert_full_rebuild(self, session, before):
        after = session._lookup()
        rebuilt = _arrays(session.model.embedding_tables())
        for side in ("o", "d"):
            if before is not None:
                assert after.tables[side][1] is not before.tables[side][1]
            for got, expected in zip(_arrays(after.tables)[side],
                                     rebuilt[side]):
                np.testing.assert_array_equal(got, expected)

    def test_touched_users_none(self, session):
        before = session._lookup()
        session.swap(_moved(session.model.state_dict()))
        self._assert_full_rebuild(session, before)

    def test_published_state_invalidated(self, session):
        before = session._lookup()
        session.invalidate()
        session.swap(_moved(session.model.state_dict()), touched_users=_IDS)
        self._assert_full_rebuild(session, before)

    def test_nothing_published_yet(self, od_dataset):
        session = InferenceSession(build_odnet(od_dataset, TINY_MODEL_CONFIG))
        session.swap(_moved(session.model.state_dict()), touched_users=_IDS)
        self._assert_full_rebuild(session, None)

    def test_live_model_moved_since_the_publish(self, session):
        """A stale published state: its arrays are not what the model
        holds, so there is nothing to verify the delta against."""
        before = session._lookup()
        for param in session.model.parameters():
            param.data = param.data + 0.0
            param.bump_version()
        session.swap(_moved(session.model.state_dict()), touched_users=_IDS)
        self._assert_full_rebuild(session, before)

    def test_a_user_row_outside_the_touched_set_moved(self, session):
        """The publisher's ``touched_users`` is checked too: a delta that
        names too few users must not leave the others' rows stale."""
        before = session._lookup()
        state = _moved(session.model.state_dict(), _IDS + [11])
        session.swap(state, touched_users=_IDS)
        self._assert_full_rebuild(session, before)

    @pytest.mark.parametrize("also", [
        "origin_hsgc.city_embedding.weight",
        "dest_hsgc.step_layers.1.weight",
        "origin_hsgc.step_layers.0.bias",
        "origin_pec.positional",
        "theta_logit",
    ])
    def test_something_else_moved_too(self, session, also):
        before = session._lookup()
        state = _moved(session.model.state_dict())
        state[also].flat[0] += 0.25  # one scalar is enough
        session.swap(state, touched_users=_IDS)
        self._assert_full_rebuild(session, before)


class TestTableBuildDoesNotScaleWithTheGraph:
    def test_twenty_ids_of_a_thousand(self, monkeypatch):
        """Median of 5: building the tables of a 20-user delta takes
        under a fifth of building all 1 000 users' (a ratio on one box,
        not milliseconds)."""
        dataset = ODDataset(generate_fliggy_dataset(FliggyConfig(
            num_users=1000, world=WorldConfig(num_cities=60),
            train_points_per_user=1, seed=3,
        )))
        model = build_odnet(dataset, ODNETConfig(seed=0))
        session = InferenceSession(model)
        session.swap(model.state_dict())
        ids = list(range(0, 1000, 50))
        build, spent = model.embedding_tables, []

        def timed_build(users=None):
            start = time.perf_counter()
            try:
                return build(users)
            finally:
                spent.append((users is not None, time.perf_counter() - start))

        monkeypatch.setattr(model, "embedding_tables", timed_build)
        for round_ in range(5):
            session.swap(_moved(model.state_dict(), ids, seed=round_))
            session.swap(_moved(model.state_dict(), ids, seed=round_ + 9),
                         touched_users=ids)
        assert [narrow for narrow, _ in spent] == [False, True] * 5
        full = statistics.median(s for narrow, s in spent if not narrow)
        narrow = statistics.median(s for narrow, s in spent if narrow)
        assert narrow < full / 5, (narrow, full)
