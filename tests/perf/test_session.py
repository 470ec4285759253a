"""InferenceSession: bit-identity, hit/miss accounting, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ODNETConfig, build_odnet
from repro.obs import use_observability
from repro.online import SnapshotStore
from repro.optim import Adam
from repro.perf import InferenceSession, supports_fast_path
from repro.serving import CandidateRecall
from repro.train import TrainConfig, Trainer

from ..conftest import TINY_MODEL_CONFIG
from ..numerics import assert_class_a, assert_class_b


@pytest.fixture()
def model(od_dataset):
    return build_odnet(od_dataset, TINY_MODEL_CONFIG)


@pytest.fixture()
def batch(od_dataset):
    recall = CandidateRecall(
        od_dataset.source.world, od_dataset.route_popularity
    )
    point = od_dataset.source.test_points[0]
    return od_dataset.batch_for_candidates(
        point, recall.candidate_pairs(point.history)
    )


class TestProtocol:
    def test_odnet_supports_fast_path(self, model):
        assert supports_fast_path(model)

    def test_freeze_returns_session(self, model):
        assert isinstance(model.freeze(), InferenceSession)

    def test_rejects_model_without_tables(self):
        with pytest.raises(TypeError, match="embedding_tables"):
            InferenceSession(object())


def _fresh_table_scores(model, batch):
    """Scores from all-users tables built right now — what a session
    that rebuilt must serve, bit for bit.  (``model.score_pairs(batch)``
    alone propagates the batch's users only: same rows at class B, not
    bitwise, because the GEMM row count differs.)"""
    return np.asarray(
        model.score_pairs(batch, tables=model.embedding_tables())
    )


class TestBitIdentity:
    def test_cached_scores_bit_identical(self, model, batch):
        fresh = _fresh_table_scores(model, batch)
        session = model.freeze()
        for _ in range(2):  # miss then hit — both must match exactly
            cached = np.asarray(session.score_pairs(batch))
            assert_class_a(fresh, cached)

    def test_trained_model_bit_identical(self, trained_odnet, batch):
        session = InferenceSession(trained_odnet)
        cached = np.asarray(session.score_pairs(batch))
        assert_class_a(
            _fresh_table_scores(trained_odnet, batch), cached
        )
        # On-demand rows of the batch's users: equal, not bit-equal.
        assert_class_b(np.asarray(trained_odnet.score_pairs(batch)), cached)


class TestAccounting:
    def test_hits_and_misses(self, model, batch):
        session = model.freeze()
        session.score_pairs(batch)
        session.score_pairs(batch)
        session.score_pairs(batch)
        assert (session.misses, session.hits) == (1, 2)

    def test_obs_counters(self, model, batch):
        with use_observability() as (registry, _tracer):
            session = model.freeze()
            session.score_pairs(batch)
            session.score_pairs(batch)
            assert registry.counter("perf.cache_misses").value == 1
            assert registry.counter("perf.cache_hits").value == 1

    def test_explicit_invalidate(self, model, batch):
        session = model.freeze()
        session.score_pairs(batch)
        session.invalidate()
        assert session.cached_version is None
        session.score_pairs(batch)
        assert session.misses == 2


class TestInvalidation:
    def test_optimizer_step_bumps_version(self, model, batch):
        session = model.freeze()
        before = np.asarray(session.score_pairs(batch))
        version = model.param_version

        optimizer = Adam(model.parameters(), lr=0.05)
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()

        assert model.param_version > version
        after = np.asarray(session.score_pairs(batch))
        assert session.misses == 2  # recomputed, not served stale
        assert not np.array_equal(before, after)
        assert_class_a(
            _fresh_table_scores(model, batch), after
        )

    def test_trainer_fit_invalidate(self, od_dataset, model, batch):
        session = model.freeze()
        session.score_pairs(batch)
        Trainer(TrainConfig(epochs=1, seed=0)).fit(model, od_dataset)
        after = np.asarray(session.score_pairs(batch))
        assert session.misses == 2
        assert_class_a(
            _fresh_table_scores(model, batch), after
        )

    def test_checkpoint_resume_invalidates(
        self, od_dataset, model, batch, tmp_path
    ):
        """Loading a snapshot must not serve embeddings of the old
        weights — the load_state_dict path bumps every parameter."""
        store = SnapshotStore(tmp_path)
        store.publish(model.state_dict())
        initial = _fresh_table_scores(model, batch)

        Trainer(TrainConfig(epochs=1, seed=0)).fit(model, od_dataset)
        session = model.freeze()
        trained = np.asarray(session.score_pairs(batch))
        assert not np.array_equal(initial, trained)

        model.load_state_dict(store.load().state)
        restored = np.asarray(session.score_pairs(batch))
        assert session.misses == 2
        assert_class_a(initial, restored)
