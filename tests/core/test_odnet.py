"""The full ODNET model: forward, loss (Eq. 8), serving score (Eq. 11)."""

import numpy as np
import pytest

from repro.core import ODNET, ODNETConfig, build_odnet
from repro.tensor import Tensor
from tests.conftest import TINY_MODEL_CONFIG


@pytest.fixture(scope="module")
def untrained(od_dataset):
    return build_odnet(od_dataset, TINY_MODEL_CONFIG)


@pytest.fixture()
def batch(od_dataset):
    return next(od_dataset.iter_batches("train", batch_size=16,
                                        shuffle=False))


class TestForward:
    def test_probabilities(self, untrained, batch):
        p_o, p_d = untrained(batch)
        assert p_o.shape == (16,)
        assert np.all((p_o.data > 0) & (p_o.data < 1))
        assert np.all((p_d.data > 0) & (p_d.data < 1))

    def test_predict_is_deterministic(self, untrained, batch):
        a = untrained.predict(batch)
        b = untrained.predict(batch)
        np.testing.assert_allclose(a[0], b[0])

    def test_predict_restores_training_mode(self, untrained, batch):
        untrained.train()
        untrained.predict(batch)
        assert untrained.training

    def test_loss_is_finite_scalar(self, untrained, batch):
        loss = untrained.loss(batch)
        assert loss.data.size == 1
        assert np.isfinite(loss.item())

    def test_loss_gradients_reach_everything(self, untrained, batch):
        untrained.zero_grad()
        untrained.loss(batch).backward()
        missing = [
            name for name, p in untrained.named_parameters() if p.grad is None
        ]
        assert not missing, missing


class TestTheta:
    def test_theta_starts_at_half(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        assert model.theta == pytest.approx(0.5)

    def test_theta_stays_in_unit_interval_after_training(self, trained_odnet):
        assert 0.0 < trained_odnet.theta < 1.0

    def test_score_pairs_is_eq11(self, trained_odnet, batch):
        p_o, p_d = trained_odnet.predict(batch)
        theta = trained_odnet.theta
        np.testing.assert_allclose(
            trained_odnet.score_pairs(batch), theta * p_o + (1 - theta) * p_d
        )

    @pytest.mark.parametrize(
        "wrap", [np.asarray, np.float64], ids=["0-d array", "numpy scalar"]
    )
    def test_serving_theta_is_the_training_sigmoid(self, od_dataset, wrap):
        """Eq. 11's theta and Eq. 8's are one formula: equal to the last
        bit, whichever type an optimizer step left in ``.data``."""
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        for logit in np.linspace(-3.0, 3.0, 101):
            model.theta_logit.data = wrap(logit)
            assert model.theta == float(model.theta_logit.sigmoid().data)

    def test_extreme_theta_logit_warns_nothing(self, od_dataset):
        import warnings

        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.theta_logit.data = np.asarray(-1000.0)
            assert 0.0 <= model.theta < 1e-200
            model.theta_logit.data = np.asarray(1000.0)
            assert model.theta == 1.0

    def test_theta_prior_pulls_to_center(self, od_dataset, batch):
        from dataclasses import replace

        strong = build_odnet(
            od_dataset, replace(TINY_MODEL_CONFIG, theta_prior=100.0)
        )
        strong.theta_logit.data = np.asarray(2.0)
        loss = strong.loss(batch)
        loss.backward()
        # The prior gradient must push theta back towards 0.5 (positive
        # gradient on the logit when theta > 0.5 and the prior dominates).
        assert strong.theta_logit.grad > 0


class TestVariant:
    def test_odnet_g_has_no_graph_layers(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG, "ODNET-G")
        assert model.name == "ODNET-G"
        assert model.origin_hsgc.depth == 0
        assert not model.origin_hsgc.step_layers

    def test_unknown_variant_rejected(self, od_dataset):
        with pytest.raises(ValueError):
            build_odnet(od_dataset, TINY_MODEL_CONFIG, "ODNET-X")

    def test_full_model_has_graph_layers(self, untrained):
        assert untrained.origin_hsgc.depth == TINY_MODEL_CONFIG.depth
        assert len(untrained.dest_hsgc.step_layers) == TINY_MODEL_CONFIG.depth


class TestTraining:
    def test_training_reduces_loss(self, od_dataset):
        from repro.train import TrainConfig, Trainer

        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        history = Trainer(TrainConfig(epochs=3, seed=0)).fit(model, od_dataset)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_trained_model_beats_chance_auc(self, trained_odnet, od_dataset):
        from repro.train import evaluate_auc

        metrics = evaluate_auc(trained_odnet, od_dataset)
        assert metrics["AUC-O"] > 0.7
        assert metrics["AUC-D"] > 0.6

    def test_gate_mixtures_shape(self, trained_odnet, batch):
        mixtures = trained_odnet.gate_mixtures(batch)
        assert mixtures.shape == (2, 16, TINY_MODEL_CONFIG.num_experts)
        np.testing.assert_allclose(mixtures.sum(axis=-1), 1.0)

    def test_pair_features_affect_scores(self, trained_odnet, od_dataset):
        """Zeroing the pair features changes the joint model's output —
        evidence the unity-of-O&D pathway is live."""
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        base = trained_odnet.score_pairs(batch)
        batch.pair_features = np.zeros_like(batch.pair_features)
        ablated = trained_odnet.score_pairs(batch)
        assert not np.allclose(base, ablated)
