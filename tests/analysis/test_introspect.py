"""Model introspection utilities."""

import numpy as np
import pytest

from repro.analysis import (
    city_embedding_neighbors,
    hsgc_user_neighbor_attention,
    mmoe_gate_summary,
    pec_history_attention,
)
from repro.core import build_odnet
from repro.nn import QueryAttention
from tests.conftest import TINY_MODEL_CONFIG
from tests.numerics import assert_class_a


@pytest.fixture()
def batch(od_dataset):
    return next(od_dataset.iter_batches("test", 16, shuffle=False))


class TestPECAttention:
    def test_weights_are_masked_simplex(self, trained_odnet, batch):
        weights = pec_history_attention(trained_odnet, batch, side="d")
        assert weights.shape == (16, batch.long_mask.shape[1])
        assert np.all(weights >= 0)
        # Padded positions get zero weight; valid rows sum to one.
        assert np.all(weights[~batch.long_mask] == 0)
        has_history = batch.long_mask.any(axis=1)
        np.testing.assert_allclose(
            weights[has_history].sum(axis=1), 1.0, atol=1e-9
        )

    def test_side_validated(self, trained_odnet, batch):
        with pytest.raises(ValueError):
            pec_history_attention(trained_odnet, batch, side="x")

    def test_mode_restored(self, trained_odnet, batch):
        trained_odnet.train()
        pec_history_attention(trained_odnet, batch)
        assert trained_odnet.training

    def test_weights_are_those_the_forward_used(self, trained_odnet, batch,
                                                monkeypatch):
        seen = {}
        original = QueryAttention.attention_weights

        def recording(module, *args, **kwargs):
            weights = original(module, *args, **kwargs)
            seen[id(module)] = np.asarray(weights.data)
            return weights

        monkeypatch.setattr(QueryAttention, "attention_weights", recording)
        trained_odnet.predict(batch)
        for side, pec in (("o", trained_odnet.origin_pec),
                          ("d", trained_odnet.dest_pec)):
            assert_class_a(pec_history_attention(trained_odnet, batch, side),
                           seen[id(pec.history_attention)])


def _set_mode(model, training: bool) -> None:
    model.train() if training else model.eval()


def _all_introspections(model, batch):
    """Each helper that switches the model to eval mode, as a call."""
    table = model.origin_hsgc.neighbor_table
    user = int(np.argmax(table.user_mask.sum(axis=1)))
    return {
        "pec_history_attention": lambda: pec_history_attention(model, batch),
        "city_embedding_neighbors": lambda: city_embedding_neighbors(model, 0),
        "hsgc_user_neighbor_attention":
            lambda: hsgc_user_neighbor_attention(model, user),
    }


class TestModeIsRestored:
    """An introspection leaves the model in the mode it found it in:
    after a call, after a raising call and after an early return."""

    NAMES = ["pec_history_attention", "city_embedding_neighbors",
             "hsgc_user_neighbor_attention"]

    @pytest.mark.parametrize("training", [True, False],
                             ids=["train-in", "eval-in"])
    @pytest.mark.parametrize("name", NAMES)
    def test_mode_out_is_mode_in(self, trained_odnet, batch, name, training):
        _set_mode(trained_odnet, training)
        try:
            _all_introspections(trained_odnet, batch)[name]()
            assert trained_odnet.training is training
        finally:
            trained_odnet.train()

    @pytest.mark.parametrize("name", NAMES)
    def test_a_raising_call_restores_the_mode(self, trained_odnet, batch,
                                              name, monkeypatch):
        class Raising:
            def __call__(self, *args, **kwargs):
                raise RuntimeError("injected")

            __getitem__ = __call__

        for hsgc in (trained_odnet.origin_hsgc, trained_odnet.dest_hsgc):
            monkeypatch.setattr(hsgc, "node_embeddings", Raising())
        monkeypatch.setattr(trained_odnet.origin_hsgc.neighbor_table,
                            "user_neighbors", Raising())
        trained_odnet.train()
        with pytest.raises(RuntimeError, match="injected"):
            _all_introspections(trained_odnet, batch)[name]()
        assert trained_odnet.training

    @pytest.mark.parametrize("training", [True, False],
                             ids=["train-in", "eval-in"])
    def test_a_neighbourless_user_leaves_the_mode(self, trained_odnet,
                                                  training, monkeypatch):
        table = trained_odnet.origin_hsgc.neighbor_table
        mask = table.user_mask.copy()
        mask[0] = False
        monkeypatch.setattr(table, "user_mask", mask)
        _set_mode(trained_odnet, training)
        try:
            assert hsgc_user_neighbor_attention(trained_odnet, 0) == []
            assert trained_odnet.training is training
        finally:
            trained_odnet.train()


class TestGateSummary:
    def test_per_task_simplex(self, trained_odnet, batch):
        summary = mmoe_gate_summary(trained_odnet, batch)
        assert set(summary) == {"origin", "destination"}
        for usage in summary.values():
            assert usage.shape == (TINY_MODEL_CONFIG.num_experts,)
            assert usage.sum() == pytest.approx(1.0)


class TestCityNeighbors:
    def test_returns_k_sorted(self, trained_odnet):
        neighbors = city_embedding_neighbors(trained_odnet, city_id=0, k=4)
        assert len(neighbors) == 4
        sims = [s for _, s in neighbors]
        assert sims == sorted(sims, reverse=True)
        assert all(city != 0 for city, _ in neighbors)

    def test_similarity_bounded(self, trained_odnet):
        for _, similarity in city_embedding_neighbors(trained_odnet, 3, k=3):
            assert -1.0 - 1e-9 <= similarity <= 1.0 + 1e-9


class TestUserNeighborAttention:
    def test_weights_form_distribution(self, trained_odnet, od_dataset):
        # Find a user with at least one departure neighbour.
        table = trained_odnet.origin_hsgc.neighbor_table
        user = int(np.argmax(table.user_mask.sum(axis=1)))
        pairs = hsgc_user_neighbor_attention(trained_odnet, user, side="o")
        assert pairs
        total = sum(weight for _, weight in pairs)
        assert total == pytest.approx(1.0)

    def test_graphless_model_rejected(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG, "ODNET-G")
        with pytest.raises(ValueError):
            hsgc_user_neighbor_attention(model, 0)
