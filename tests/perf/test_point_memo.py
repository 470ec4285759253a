"""PEC's per-point output, remembered on the published scoring state.

``FrozenScoringState.memo`` keeps ``(v_L, v_S)`` per aware side under
(encoded-store row, write stamp); a serving batch carries those keys and
``FrozenScoringState.score_pairs`` hands the memo to PEC with the batch
when — and only when — it scores from its own tables.  The *off* side of
every differential check here is therefore the call that exists anyway:
the same state scored with its tables passed explicitly.

Exactness: a single-point batch scores bit-identically with and without
the memo (the miss runs the same one-row call).  A multi-point batch
agrees at class B, not bitwise: the missed subset changes the row count of
the encoders' GEMMs, and BLAS does not round every row count alike.

Everything drawn is drawn under one fixed hypothesis profile
(derandomised, no deadline), so a CI failure repeats locally.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import build_odnet
from repro.core.fused import FrozenScoringState, PointMemo, fused_score_pairs
from repro.core.intent import IntentAwareODNET
from repro.core.mmoe import MMoEJointLearning
from repro.core.pec import PreferenceExtraction
from repro.data import ODDataset
from repro.data.schema import BookingEvent, ClickEvent, ODPair
from repro.data.synthetic import DecisionPoint
from repro.nn import Module
from repro.obs.registry import MetricsRegistry, use_registry
from repro.online import (
    IncrementalTrainer, OnlineTrainerConfig, SnapshotStore,
)
from repro.perf import InferenceSession
from repro.serving import FlightRecommender
from repro.serving.recall import CandidateRecall

from ..conftest import TINY_MODEL_CONFIG
from ..numerics import assert_class_a, assert_class_b
from .test_hot_swap import _USER_PARAMS

settings.register_profile(
    "point_memo", derandomize=True, deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)
PROFILE = settings.get_profile("point_memo")

CAP = 3           # ad-hoc rows: small enough that a handful of days evict
USERS = 3         # the users an interleaving draws from
ADHOC_DAY = 5000  # no offline point lives here or later


class World:
    """A recommender over its own capped dataset and untrained model."""

    def __init__(self, source, cap=CAP):
        self.dataset = ODDataset(source, max_long=10, max_short=6,
                                 max_cached_points=cap)
        self.model = build_odnet(self.dataset, TINY_MODEL_CONFIG)
        self.recommender = FlightRecommender(self.model, self.dataset)
        self.features = self.recommender.features
        self.session = self.recommender.ranking.session
        self.pinned = {
            point.history.user_id: point.day
            for point in source.test_points
        }

    def request(self, user, day):
        history = self.features.user_history(user, day)
        candidates = self.recommender.recall.candidate_pairs(history)
        return DecisionPoint(history, candidates[0], day), candidates

    def batch(self, *points):
        return self.dataset.batch_for_requests(
            [self.request(user, day) for user, day in points]
        )

    def moved(self, seed, users=None, extra=()):
        """The live state with user rows (all, or ``users``) moved, plus
        any parameter named in ``extra``."""
        rng = np.random.default_rng(seed)
        state = {k: v.copy() for k, v in self.model.state_dict().items()}
        rows = slice(None) if users is None else sorted(set(users))
        for name in _USER_PARAMS:
            block = state[name][rows]
            state[name][rows] = block + rng.normal(0.0, 0.3, block.shape)
        for name in extra:
            state[name] = state[name] + rng.normal(0.0, 0.3,
                                                   state[name].shape)
        return state


@pytest.fixture()
def world(fliggy_dataset):
    return World(fliggy_dataset)


@pytest.fixture(scope="module")
def source(fliggy_dataset):
    """The generated dataset behind a call: a drawn test that took it as
    an argument would have hypothesis print all of it on a failure."""
    return lambda: fliggy_dataset


def explicit(state, batch):
    """The memo's off switch: the same state, its tables passed in."""
    return state.score_pairs(batch, tables=state.tables)


def entries(state):
    return sum(len(side) for side in state.memo.values())


# ----------------------------------------------------------------------
# (a) one drawn interleaving, every score against the memo-less call
# ----------------------------------------------------------------------
#: (kind, a, b): most of the traffic reads; ``a`` picks the user (or the
#: seed of a swap), ``b`` the day, the city or the user a swap touches.
OPS = st.tuples(
    st.sampled_from(["score"] * 8 + ["click", "booking", "swap", "user_swap"]),
    st.integers(0, 99), st.integers(0, 29),
)


class TestInterleaving:
    @PROFILE
    @given(ops=st.lists(OPS, min_size=20, max_size=60))
    def test_memo_never_changes_a_single_point_score(self, source, ops):
        world = World(source())
        session = world.session
        for op, a, b in ops:
            user = a % USERS
            if op == "score":
                # 0: the user's pinned point; the rest are ad-hoc, and
                # USERS * CAP of those cycle through CAP rows.
                day = b % (CAP + 1)
                day = world.pinned[user] if day == 0 else ADHOC_DAY + day
                batch = world.batch((user, day))
                state = session._lookup()
                assert_class_a(
                    session.score_pairs(batch), explicit(state, batch)
                )
            elif op == "click":
                world.features.record_click(
                    ClickEvent(user, b, (b + 7) % 30, ADHOC_DAY - 1)
                )
            elif op == "booking":
                world.features.record_booking(
                    BookingEvent(user, b, (b + 3) % 30, ADHOC_DAY - 2, 100.0)
                )
            elif op == "swap":
                session.swap(world.moved(a))
            else:
                touched = [b % USERS]
                session.swap(world.moved(a, touched), touched_users=touched)
        offline = source().train_points + source().test_points
        assert world.dataset.encoded_points <= len(offline) + CAP

    def test_a_repeat_is_a_hit_and_the_interleaving_has_some(self, world):
        """The property above is not vacuous: repeats do hit."""
        batch = world.batch((1, ADHOC_DAY))
        world.session.score_pairs(batch)
        assert world.session.point_memo == {
            "hits": 0, "misses": 2, "entries": 2,
        }
        world.session.score_pairs(world.batch((1, ADHOC_DAY)))
        assert world.session.point_memo == {
            "hits": 2, "misses": 2, "entries": 2,
        }


# ----------------------------------------------------------------------
# (b) row re-use and the seqlock read
# ----------------------------------------------------------------------
class TestRowReuse:
    def test_a_reused_row_never_returns_the_old_points_vectors(self, world):
        session, store = world.session, world.dataset._store
        first = world.batch((0, ADHOC_DAY))
        row, stamp = (int(key[0]) for key in first.point_keys)
        session.score_pairs(first)
        days = range(ADHOC_DAY + 1, ADHOC_DAY + 1 + CAP)
        for day in days:   # CAP newer points: the first is evicted
            world.batch((1, day))
        assert store.row(ODDataset._key(world.request(0, ADHOC_DAY)[0])) \
            is None
        (batch,) = [
            batch for batch in (world.batch((1, day)) for day in days)
            if batch.point_keys[0][0] == row   # the row's new owner
        ]
        assert batch.point_keys[1][0] > stamp
        state = session._lookup()
        assert state.memo["o"][row][0] == stamp   # the old point, still there
        assert_class_a(
            session.score_pairs(batch), explicit(state, batch)
        )
        assert not np.array_equal(
            explicit(state, batch)[:3], explicit(state, first)[:3]
        )
        assert state.memo["o"][row][0] == batch.point_keys[1][0]

    def test_stamps_are_unique_across_stores(self, fliggy_dataset):
        one = ODDataset(fliggy_dataset, max_long=10, max_short=6)
        two = ODDataset(fliggy_dataset, max_long=10, max_short=6)
        size = len(one._store)
        stamps = np.concatenate(
            [one._store.stamp[:size], two._store.stamp[:size]]
        )
        assert stamps.min() > 0
        assert len(np.unique(stamps)) == 2 * size

    def test_two_datasets_through_one_state_do_not_collide(
        self, world, fliggy_dataset
    ):
        """Same row number, different store: the stamp tells them apart."""
        other = World(fliggy_dataset)
        mine = world.batch((2, ADHOC_DAY))
        theirs = other.dataset.batch_for_requests(
            [other.request(3, ADHOC_DAY + 1)]
        )
        assert mine.point_keys[0][0] == theirs.point_keys[0][0]
        state = world.session._lookup()
        state.score_pairs(mine)
        assert_class_a(
            state.score_pairs(theirs), explicit(state, theirs)
        )

    def test_a_put_between_the_stamp_reads_leaves_no_key(
        self, world, monkeypatch
    ):
        dataset = world.dataset
        victim, bystander = (0, ADHOC_DAY), (1, ADHOC_DAY)
        world.batch(victim, bystander)          # both encoded
        intruder = world.request(2, ADHOC_DAY + 1)[0]
        gather = dataset._assemble_batch

        def racing_gather(store_rows, *args, **kwargs):
            batch = gather(store_rows, *args, **kwargs)
            # Another thread's put lands in the victim's row mid-read.
            dataset._store.put(ODDataset._key(world.request(*victim)[0]),
                               dataset._encode_point(intruder), pinned=False)
            return batch

        monkeypatch.setattr(dataset, "_assemble_batch", racing_gather)
        batch = world.batch(victim, bystander)
        monkeypatch.undo()
        rows, stamps = batch.point_keys
        assert stamps[0] == 0 and stamps[1] > 0
        state = world.session._lookup()
        assert_class_b(state.score_pairs(batch), explicit(state, batch))
        for side in state.memo.values():   # scored, not remembered
            assert int(rows[0]) not in side and int(rows[1]) in side

    def test_a_stamp_reads_zero_during_the_write(self, world):
        store = world.dataset._store
        point = world.request(0, ADHOC_DAY)[0]
        row = world.dataset.register_point(point)
        old = int(store.stamp[row])
        encoded = world.dataset._encode_point(point)
        seen = []

        class Spy:   # reads the row's stamp each time put reads a field
            def __getattr__(self, name):
                seen.append(int(store.stamp[row]))
                return getattr(encoded, name)

        assert store.put(ODDataset._key(point), Spy(), pinned=False) == row
        assert len(seen) == 8 and set(seen) == {0}
        assert store.stamp[row] > old


# ----------------------------------------------------------------------
# (c) multi-point batches, part memoised
# ----------------------------------------------------------------------
class TestMultiPoint:
    def test_partly_memoised_batch_agrees_with_the_all_miss_call(
        self, fliggy_dataset
    ):
        world = World(fliggy_dataset, cap=32)
        session = world.session
        points = [(user, ADHOC_DAY + user % 3) for user in range(8)]
        for point in points[::2]:
            session.score_pairs(world.batch(point))
        assert session.point_memo["entries"] == 8
        batch = world.batch(*points)
        state = session._lookup()
        before = session.point_memo
        scores = session.score_pairs(batch)
        after = session.point_memo
        assert after["hits"] - before["hits"] == 8
        assert after["misses"] - before["misses"] == 8
        assert_class_b(scores, explicit(state, batch))
        # ... and all-hit: every point remembered by now.
        assert_class_b(session.score_pairs(batch), explicit(state, batch))
        assert session.point_memo["misses"] == after["misses"]

    def test_a_served_point_is_remembered_in_a_multi_point_batch(
        self, fliggy_dataset
    ):
        world = World(fliggy_dataset, cap=32)
        session = world.session
        requests = [(user, ADHOC_DAY) for user in range(6)]
        warm = world.recommender.recommend(2, ADHOC_DAY, k=5)
        batch = world.batch(*requests)
        state = session._lookup()
        before = session.point_memo
        scores = session.score_pairs(batch)
        after = session.point_memo
        # The served point's two aware sides hit; the other five miss.
        assert after["hits"] - before["hits"] == 2
        assert after["misses"] - before["misses"] == 10
        assert_class_b(scores, explicit(state, batch))
        # The served point's rows rank as recommend served them.
        rows = np.flatnonzero(batch.point_rows == 2)
        _, candidates = world.request(2, ADHOC_DAY)
        order = np.argsort(-scores[rows], kind="mergesort")[:5]
        assert [f.pair for f in warm.flights] == [
            candidates[i] for i in order
        ]
        assert_class_b([f.score for f in warm.flights], scores[rows][order])
        # ... and all-hit: every point remembered by now.
        assert_class_b(session.score_pairs(batch), scores)
        assert session.point_memo["misses"] == after["misses"]

    def test_single_point_is_bitwise(self, world):
        batch = world.batch((4, ADHOC_DAY))
        state = world.session._lookup()
        miss = world.session.score_pairs(batch)
        hit = world.session.score_pairs(batch)
        assert_class_a(miss, hit)
        assert_class_a(hit, explicit(state, batch))

    def test_a_point_with_no_candidates_has_no_row_and_no_key(self, world):
        point, candidates = world.request(0, ADHOC_DAY)
        other = world.request(1, ADHOC_DAY)
        batch = world.dataset.batch_for_requests(
            [(point, []), other]
        )
        assert len(batch.point_keys[0]) == len(batch.first_rows) == 1
        state = world.session._lookup()
        assert_class_a(
            state.score_pairs(batch), explicit(state, batch)
        )
        empty = world.dataset.batch_for_requests([(point, [])])
        assert len(empty.point_keys[0]) == 0


# ----------------------------------------------------------------------
# (d) what a swap keeps
# ----------------------------------------------------------------------
class TestSwap:
    def _warm(self, world):
        session = world.session
        session.swap(world.model.state_dict())   # a fresh published state
        batch = world.batch((0, ADHOC_DAY), (1, ADHOC_DAY))
        scores = session.score_pairs(batch)
        return session._lookup(), batch, scores

    def test_user_scope_swap_hands_the_memo_on(self, world):
        old, batch, scores = self._warm(world)
        world.session.swap(world.moved(1, [0]), touched_users=[0])
        new = world.session._lookup()
        assert new is not old and new.memo is old.memo
        assert entries(new) == 4
        before = world.session.point_memo["hits"]
        moved = world.session.score_pairs(batch)
        assert world.session.point_memo["hits"] - before == 4
        # the new user rows are what scored ...
        assert_class_b(moved, explicit(new, batch))
        user0 = batch.user_ids == 0
        assert not np.array_equal(moved[user0], scores[user0])
        assert_class_a(moved[~user0], scores[~user0])
        # ... and a reader still holding the old state scores the old one.
        assert_class_a(old.score_pairs(batch), scores)

    @pytest.mark.parametrize("how", [
        "full", "invalidate", "pec_weight", "city_row", "unverified",
    ])
    def test_everything_else_starts_empty(self, world, how):
        old, batch, scores = self._warm(world)
        session = world.session
        if how == "full":
            session.swap(world.moved(2))
        elif how == "invalidate":
            session.invalidate()
            # the stale state stays published for in-flight reads, with
            # its own memo (it still describes its own arrays)
            assert session._state.memo is old.memo
        elif how == "pec_weight":
            session.swap(
                world.moved(3, [0], extra=["origin_pec.positional"]),
                touched_users=[0],
            )
        elif how == "city_row":
            session.swap(
                world.moved(3, [0],
                            extra=["dest_hsgc.city_embedding.weight"]),
                touched_users=[0],
            )
        else:   # claims user 0, moves user 5 as well
            session.swap(world.moved(4, [0, 5]), touched_users=[0])
        new = session._lookup()
        assert new.memo is not old.memo and entries(new) == 0
        assert_class_b(session.score_pairs(batch), explicit(new, batch))
        assert entries(new) == 4
        # The reader holding the old state: the old version, bit for bit.
        assert_class_a(old.score_pairs(batch), scores)
        assert entries(old) == 4

    def test_a_rebuild_by_a_reader_starts_empty(self, world):
        old, batch, _ = self._warm(world)
        world.model.load_state_dict(world.moved(9))   # behind its back
        new_scores = world.session.score_pairs(batch)
        new = world.session._lookup()
        assert new is not old and new.memo is not old.memo
        assert_class_b(new_scores, explicit(new, batch))


# ----------------------------------------------------------------------
# (e) who never sees a memo
# ----------------------------------------------------------------------
@pytest.fixture()
def no_memo(monkeypatch):
    """Fail the test the moment PEC reads or writes a memo."""
    def consulted(*args, **kwargs):
        raise AssertionError("the memo was consulted")

    monkeypatch.setattr(PreferenceExtraction, "_remembered", consulted)


class TestBypass:
    def test_the_fixture_bites(self, world, no_memo):
        with pytest.raises(AssertionError, match="consulted"):
            world.session.score_pairs(world.batch((0, ADHOC_DAY)))

    def test_explicit_tables_and_the_live_model(self, world, no_memo):
        batch = world.batch((0, ADHOC_DAY), (1, ADHOC_DAY))
        model, state = world.model, world.session._lookup()
        tables = world.session.tables()
        state.score_pairs(batch, tables=tables)
        fused_score_pairs(state, batch, tables)
        fused_score_pairs(model, batch, tables)   # a throw-away state
        fused_score_pairs(model, batch)
        model.score_pairs(batch, tables=tables)
        model.score_pairs(batch)
        model.predict(batch)
        model.loss(batch)
        assert batch.point_memo is None   # the caller's batch is not touched
        assert world.session.point_memo["entries"] == 0

    def test_training_batches_carry_no_key(self, world, no_memo):
        batch = next(world.dataset.iter_batches("train", batch_size=8))
        assert batch.point_keys is None and batch.point_memo is None
        world.session.score_pairs(batch)   # own tables, nothing to key on

    def test_incremental_trainer_step(
        self, world, no_memo, monkeypatch, tmp_path
    ):
        trainer = IncrementalTrainer(
            world.model, world.dataset, world.features,
            SnapshotStore(tmp_path),
            OnlineTrainerConfig(batch_events=4, negatives_per_event=3),
        )
        seen = []
        loss = world.model.loss
        monkeypatch.setattr(
            world.model, "loss",
            lambda batch: seen.append(batch) or loss(batch),
        )
        trainer._pending.extend(
            BookingEvent(user, 1 + user, 2 + user, ADHOC_DAY, 100.0)
            for user in range(4)
        )
        assert trainer.step() is not None
        (batch,) = seen   # a batch_for_requests batch: keyed, yet no memo
        assert batch.point_keys is not None and batch.point_memo is None


class TestSubclass:
    def test_intent_variant_is_memoised_through_aware_block(
        self, fliggy_dataset
    ):
        dataset = ODDataset(fliggy_dataset, max_long=10, max_short=6)
        model = IntentAwareODNET(dataset, TINY_MODEL_CONFIG, num_intents=3)
        session = InferenceSession(model)
        point = fliggy_dataset.test_points[0]
        batch = dataset.batch_for_requests(
            [(point, [ODPair(1, 2), ODPair(2, 3), ODPair(1, 3)])]
        )
        first = session.score_pairs(batch)
        state = session._lookup()
        assert session.point_memo == {"hits": 0, "misses": 2, "entries": 2}
        assert_class_a(session.score_pairs(batch), first)
        assert session.point_memo["hits"] == 2
        assert_class_a(first, explicit(state, batch))


# ----------------------------------------------------------------------
# (f) not a response cache
# ----------------------------------------------------------------------
class TestNotAResponseCache:
    def test_the_head_and_recall_run_on_every_request(
        self, world, monkeypatch
    ):
        requests = [(user, ADHOC_DAY) for user in range(3)]
        first = [world.recommender.recommend(u, d, k=5) for u, d in requests]
        calls = {"head": 0, "recall": 0, "pec": 0}

        def counted(cls, name, key):
            real = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[key] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(MMoEJointLearning, "forward", "head")
        counted(CandidateRecall, "candidate_pairs", "recall")
        counted(PreferenceExtraction, "forward", "pec")
        replay = [world.recommender.recommend(u, d, k=5) for u, d in requests]
        assert calls == {"head": 3, "recall": 3, "pec": 0}   # all hits
        for a, b in zip(first, replay):
            assert [(f.pair, f.score) for f in a.flights] == [
                (f.pair, f.score) for f in b.flights
            ]


# ----------------------------------------------------------------------
# (g) threads
# ----------------------------------------------------------------------
def _hammer(workers, seconds=20.0):
    """Run ``workers`` (callables returning a list of problems) to the
    end on threads that switch often; returns every problem."""
    problems, lock = [], threading.Lock()

    def run(work):
        try:
            found = work()
        except Exception as exc:  # surfaced below, never swallowed
            found = [repr(exc)]
        with lock:
            problems.extend(found)

    threads = [threading.Thread(target=run, args=(w,), daemon=True)
               for w in workers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return problems


class TestThreads:
    def test_eight_threads_on_one_hot_point(self, world):
        batch = world.batch((0, ADHOC_DAY))
        state = world.session._lookup()
        expected = explicit(state, batch)

        def work():
            return [
                "score moved" for _ in range(150)
                if not np.array_equal(world.session.score_pairs(batch),
                                      expected)
            ]

        assert _hammer([work] * 8) == []
        memo = world.session.point_memo
        assert memo["entries"] == 2
        # counts are diagnostics: increments may be lost, never invented
        assert 0 < memo["hits"] + memo["misses"] <= 8 * 150 * 2

    def test_eight_threads_on_a_churning_store(self, world):
        """CAP rows, 4 x CAP points: every request may find its row taken
        over since.  Batches are assembled one at a time (the store's own
        put is not what is under test — it has no lock, at the parent
        either); scoring, where the memo lives, runs unserialised."""
        session = world.session
        state = session._lookup()
        points = [(user, ADHOC_DAY + day)
                  for user in range(4) for day in range(CAP)]
        expected = {
            point: explicit(state, world.batch(point)) for point in points
        }
        assembling = threading.Lock()

        def worker(offset):
            def work():
                problems = []
                for i in range(60):
                    point = points[(offset + 5 * i) % len(points)]
                    with assembling:
                        batch = world.batch(point)
                    if not np.array_equal(session.score_pairs(batch),
                                          expected[point]):
                        problems.append(f"{point}: score moved")
                return problems
            return work

        assert _hammer([worker(offset) for offset in range(8)]) == []
        assert world.dataset.encoded_evictions > 8
        assert session.point_memo["entries"] <= 2 * len(world.dataset._store)


# ----------------------------------------------------------------------
# (h) bounded by the store
# ----------------------------------------------------------------------
class TestBound:
    def test_one_entry_per_store_row_and_small(self, fliggy_dataset):
        world = World(fliggy_dataset, cap=CAP)
        session, dataset = world.session, world.dataset
        for point in fliggy_dataset.train_points + fliggy_dataset.test_points:
            session.score_pairs(dataset.batch_for_requests(
                [(point, [point.target, ODPair(0, 1)])]
            ))
        for user in range(4):
            for day in range(3 * CAP):   # churn the ad-hoc rows
                session.score_pairs(world.batch((user, ADHOC_DAY + day)))
        rows = len(dataset._store)
        assert rows == len(
            fliggy_dataset.train_points + fliggy_dataset.test_points
        ) + CAP
        state = session._lookup()
        for side in state.memo.values():
            assert isinstance(side, PointMemo) and len(side) == rows
        assert session.point_memo["entries"] == 2 * rows

        def nbytes(entry):
            stamp, both = entry
            held = both if both.base is None else both.base   # what it pins
            return (sys.getsizeof(entry) + sys.getsizeof(stamp)
                    + sys.getsizeof(both)   # an owner's includes its data
                    + (held is not both) * sys.getsizeof(held))

        per_entry = max(
            nbytes(entry) + sys.getsizeof(side) / len(side)
            for side in state.memo.values() for entry in side.values()
        )
        assert per_entry <= 1024, per_entry


# ----------------------------------------------------------------------
# (i) nothing a checkpoint or a view would show
# ----------------------------------------------------------------------
class TestNoNewState:
    def test_state_dict_and_frozen_view_are_untouched_by_scoring(self, world):
        from repro.core.fused import frozen_view

        def view_keys(value, prefix=""):
            """Attribute paths of a view, through its sub-module views."""
            keys = set()
            for name, child in vars(value).items():
                children = child if isinstance(child, list) else [child]
                keys.add(prefix + name)
                for index, each in enumerate(children):
                    if isinstance(each, Module):
                        keys |= view_keys(each, f"{prefix}{name}.{index}.")
            return keys

        names = sorted(world.model.state_dict())
        keys = view_keys(frozen_view(world.model))
        world.session.score_pairs(world.batch((0, ADHOC_DAY)))
        world.session.score_pairs(world.batch((0, ADHOC_DAY)))
        assert sorted(world.model.state_dict()) == names
        assert view_keys(frozen_view(world.model)) == keys
        assert view_keys(world.session._lookup().model) == keys
        assert not any("memo" in name for name in names)

    def test_states_compare_without_the_memo(self, world):
        state = world.session._lookup()
        twin = FrozenScoringState(
            state.model, state.theta, state.tables, state.version
        )
        assert twin == state and twin.memo is not state.memo
        assert "memo" not in repr(state)


# ----------------------------------------------------------------------
# Satellite: the counts are read off the request path
# ----------------------------------------------------------------------
class TestObservable:
    def test_published_when_the_registry_is_scraped(self, fliggy_dataset):
        with use_registry(MetricsRegistry()) as registry:
            world = World(fliggy_dataset)
            batch = world.batch((0, ADHOC_DAY))
            world.session.score_pairs(batch)
            world.session.score_pairs(batch)
            # nothing reached the registry on the request path ...
            assert not any(
                name == "perf.point_memo_hits"
                for _, name, _ in registry._instruments
            )
            # ... a scrape pulls the counts in
            gauges = {g.name: g.value for g in registry.gauges}
        assert gauges["perf.point_memo_hits"] == 2
        assert gauges["perf.point_memo_misses"] == 2
        assert gauges["perf.point_memo_entries"] == 2
        assert world.session.point_memo == {
            "hits": 2, "misses": 2, "entries": 2,
        }

    def test_the_registry_does_not_keep_a_session_alive(self, fliggy_dataset):
        import gc
        import weakref

        with use_registry(MetricsRegistry()) as registry:
            world = World(fliggy_dataset)
            alive = weakref.ref(world.session)
            del world
            gc.collect()
            assert alive() is None
            assert registry.gauges == []

    def test_a_session_with_nothing_published(self, od_dataset):
        session = InferenceSession(build_odnet(od_dataset, TINY_MODEL_CONFIG))
        assert session.point_memo == {"hits": 0, "misses": 0, "entries": 0}
