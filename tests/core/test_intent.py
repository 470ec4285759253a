"""IntentAwareODNET — the future-work travel-intent extension."""

import numpy as np
import pytest

from repro.core import IntentAwareODNET
from tests.conftest import TINY_MODEL_CONFIG


@pytest.fixture(scope="module")
def intent_model(od_dataset):
    return IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG, num_intents=3)


class TestConstruction:
    def test_minimum_intents(self, od_dataset):
        with pytest.raises(ValueError):
            IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG, num_intents=1)

    def test_joint_input_extended(self, intent_model, od_dataset):
        from repro.core.pec import PreferenceExtraction
        from repro.data.dataset import PAIR_DIM

        query_dim = PreferenceExtraction.query_dim(
            TINY_MODEL_CONFIG.dim, od_dataset.xst_dim
        )
        expert = intent_model.joint.experts[0]
        assert expert.layers[0].in_features == 2 * query_dim + PAIR_DIM + 3


class TestForwardAndLoss:
    def test_forward_probabilities(self, intent_model, od_dataset):
        batch = next(od_dataset.iter_batches("train", 8, shuffle=False))
        p_o, p_d = intent_model(batch)
        assert np.all((p_o.data > 0) & (p_o.data < 1))
        assert np.all((p_d.data > 0) & (p_d.data < 1))

    def test_intent_distribution_is_simplex(self, intent_model, od_dataset):
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        intents = intent_model.intent_distribution(batch)
        assert intents.shape == (16, 3)
        np.testing.assert_allclose(intents.sum(axis=-1), 1.0)
        assert np.all(intents >= 0)

    def test_dominant_intent_ids(self, intent_model, od_dataset):
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        ids = intent_model.dominant_intent(batch)
        assert ids.shape == (16,)
        assert set(ids) <= {0, 1, 2}

    def test_score_pairs_serves_through_the_intent_head(
        self, intent_model, od_dataset
    ):
        """Serving runs the subclass's own ``_joint_query`` on a frozen
        view, so Eq. 11 scores equal the Tensor-path blend exactly."""
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        p_o, p_d = intent_model.predict(batch)
        theta = intent_model.theta
        scores = intent_model.score_pairs(batch)
        assert type(scores) is np.ndarray
        np.testing.assert_array_equal(
            scores, theta * p_o + (1.0 - theta) * p_d
        )
        np.testing.assert_array_equal(
            intent_model.freeze().score_pairs(batch), scores
        )

    def test_loss_includes_regularisers_and_backprops(self, od_dataset):
        model = IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG,
                                 num_intents=3)
        batch = next(od_dataset.iter_batches("train", 8, shuffle=False))
        model.zero_grad()
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        for name, param in model.intent_head.named_parameters():
            assert param.grad is not None, name

    def test_trains_end_to_end(self, od_dataset):
        from repro.train import TrainConfig, Trainer

        model = IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG,
                                 num_intents=3)
        history = Trainer(TrainConfig(epochs=2, seed=0)).fit(model, od_dataset)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_no_intent_collapse_after_training(self, od_dataset):
        """The diversity regulariser keeps more than one intent alive."""
        from repro.train import TrainConfig, Trainer

        model = IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG,
                                 num_intents=3, diversity_weight=0.1)
        Trainer(TrainConfig(epochs=2, seed=0)).fit(model, od_dataset)
        batch = next(od_dataset.iter_batches("test", 128, shuffle=False))
        marginal = model.intent_distribution(batch).mean(axis=0)
        assert marginal.max() < 0.99
