"""The full ODNET model: forward, loss (Eq. 8), serving score (Eq. 11)."""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.core import (
    ODNET, IntentAwareODNET, ODNETConfig, build_odnet, build_stl,
)
from repro.data import FliggyConfig, ODDataset, generate_fliggy_dataset
from repro.data.schema import ODPair
from repro.data.world import WorldConfig
from repro.online import SnapshotStore
from repro.tensor import Tensor, no_grad
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


# ----------------------------------------------------------------------
# The side layout: a request is scored on its distinct origins and
# destinations, and that is the same function of the batch
# ----------------------------------------------------------------------
def _pairs(origins, destinations):
    return [ODPair(o, d) for o in origins for d in destinations]


def _requests(od_dataset, layout):
    """``batch_for_requests`` input per layout of the differential tests."""
    a, b, c = od_dataset.source.test_points[:3]
    return {
        "one-candidate": [(a, [ODPair(3, 7)])],
        "one-shared-origin": [(a, _pairs([4], [1, 2, 3, 5, 6]))],
        "every-row-distinct": [(a, [ODPair(i, i + 9) for i in range(6)])],
        "cross-product": [(a, _pairs([1, 2, 3], [4, 5, 6, 7]))],
        "empty-request-in-the-middle": [
            (a, _pairs([1, 2], [3, 4, 5])), (b, []),
            (c, _pairs([2, 6, 8], [1, 3])),
        ],
    }[layout]


LAYOUTS = ["one-candidate", "one-shared-origin", "every-row-distinct",
           "cross-product", "empty-request-in-the-middle"]


def _without_layout(batch):
    """The same rows with every row its own point and side row: what a
    training batch looks like, and the pre-side-layout computation."""
    return dataclasses.replace(
        batch, side_layout=None, point_rows=None, first_rows=None
    )


MODELS = {
    "ODNET": lambda ds: build_odnet(ds, TINY_MODEL_CONFIG),
    "ODNET-Intent": lambda ds: IntentAwareODNET(ds, TINY_MODEL_CONFIG),
    "STL+G": lambda ds: build_stl(ds, TINY_MODEL_CONFIG, "STL+G"),
}


class TestSideLayout:
    def test_training_batches_carry_none(self, batch):
        assert batch.side_layout is None and batch.first_rows is None

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_indexes_distinct_side_rows(self, od_dataset, layout):
        batch = od_dataset.batch_for_requests(_requests(od_dataset, layout))
        for side, candidate in (("o", batch.candidate_origin),
                                ("d", batch.candidate_destination)):
            first, rows = batch.side_layout[side]
            keys = np.stack([batch.point_rows, candidate], axis=1)
            assert len(first) == len(np.unique(keys, axis=0))
            np.testing.assert_array_equal(keys[first][rows], keys)
            # ``first`` are first occurrences, as ``first_rows`` are.
            assert all(i == np.flatnonzero(rows == u)[0]
                       for u, i in enumerate(first))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", MODELS)
    def test_same_scores_and_gradients_as_row_by_row(self, od_dataset, name,
                                                     layout):
        model = MODELS[name](od_dataset)
        batch = od_dataset.batch_for_requests(_requests(od_dataset, layout))
        flat = _without_layout(batch)
        for field in ("xst_o", "xst_d", "pair_features"):
            assert getattr(batch, field).shape[0] == len(batch)

        got, expected = model.predict(batch), model.predict(flat)
        for g, e in zip(got, expected):
            assert g.shape == (len(batch),)
            np.testing.assert_allclose(g, e, rtol=0.0, atol=1e-12)

        def gradients(of):
            model.zero_grad()
            model.loss(of).backward()
            return {n: p.grad for n, p in model.named_parameters()}

        got, expected = gradients(batch), gradients(flat)
        for key in expected:
            assert (got[key] is None) == (expected[key] is None), key
            if expected[key] is not None:
                np.testing.assert_allclose(
                    got[key], expected[key], rtol=0.0, atol=1e-12,
                    err_msg=key,
                )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", ["ODNET", "ODNET-Intent"])
    def test_array_path_is_the_tensor_path(self, od_dataset, name, layout):
        model = MODELS[name](od_dataset)
        batch = od_dataset.batch_for_requests(_requests(od_dataset, layout))
        with model.eval_mode(), no_grad():
            p_o, p_d = model.forward(batch)
        theta = model.theta
        np.testing.assert_array_equal(
            model.score_pairs(batch),
            theta * p_o.data + (1.0 - theta) * p_d.data,
        )

    def test_intent_distribution_is_per_row(self, od_dataset):
        model = MODELS["ODNET-Intent"](od_dataset)
        batch = od_dataset.batch_for_requests(
            _requests(od_dataset, "cross-product")
        )
        np.testing.assert_allclose(
            model.intent_distribution(batch),
            model.intent_distribution(_without_layout(batch)),
            rtol=0.0, atol=1e-12,
        )
        assert model.gate_mixtures(batch).shape[1] == len(batch)


# ----------------------------------------------------------------------
# A table-less forward propagates the users it gathers, and nothing moves
# ----------------------------------------------------------------------
def _gradients(model):
    return {
        name: None if p.grad is None else np.array(p.grad)
        for name, p in model.named_parameters()
    }


def _num_users(model):
    return next(
        p for name, p in model.named_parameters()
        if name.endswith("user_embedding.weight")
    ).shape[0]


def _assert_one_tree(model, on_demand, full_tables, batch):
    """``on_demand()`` and ``full_tables()`` are the same loss on the
    same tape: the first through the model's own table-less forward, the
    second gathering from all-users tables built with the tape on."""
    results = []
    for loss_of in (on_demand, full_tables):
        model.zero_grad()
        loss = loss_of()
        loss.backward()
        results.append((loss.item(), _gradients(model)))
    (loss_a, grads_a), (loss_b, grads_b) = results
    assert loss_a == pytest.approx(loss_b, rel=0, abs=1e-12)
    assert grads_a.keys() == grads_b.keys()
    absent = np.setdiff1d(
        np.arange(_num_users(model)), np.unique(batch.user_ids)
    )
    assert absent.size, "the batch must leave some users out"
    for name, grad in grads_a.items():
        assert grad is not None and grads_b[name] is not None, name
        np.testing.assert_allclose(
            grad, grads_b[name], rtol=0, atol=1e-12, err_msg=name
        )
        if name.endswith("user_embedding.weight"):
            # Users the batch never gathers: exactly zero, both ways.
            np.testing.assert_array_equal(grad[absent], 0.0)
            np.testing.assert_array_equal(grads_b[name][absent], 0.0)
            assert np.abs(grad).sum() > 0


class TestRowsOnDemandIsTheFullTableTape:
    @pytest.mark.parametrize("name", ["ODNET", "ODNET-G", "ODNET-Intent"])
    def test_joint_models(self, od_dataset, batch, name, monkeypatch):
        if name == "ODNET-G":
            model = build_odnet(od_dataset, TINY_MODEL_CONFIG, "ODNET-G")
        else:
            model = MODELS[name](od_dataset)
        forward = model.forward

        def full_tables():
            tables = {
                "o": model.origin_hsgc.node_embeddings(),
                "d": model.dest_hsgc.node_embeddings(),
            }
            with monkeypatch.context() as patch:
                patch.setattr(
                    model, "forward", lambda b: forward(b, tables=tables)
                )
                return model.loss(batch)

        _assert_one_tree(model, lambda: model.loss(batch), full_tables, batch)

    @pytest.mark.parametrize("side", ["o", "d"])
    def test_single_task_tower(self, od_dataset, batch, side):
        from repro.tensor import functional as F

        stl = build_stl(od_dataset, TINY_MODEL_CONFIG, "STL+G")
        net = stl.origin_net if side == "o" else stl.dest_net

        def full_tables():
            users, cities = net.hsgc.node_embeddings()
            query, rows = net.pec.aware_block(users, cities, batch, side)
            assert rows is None  # a training batch: every row distinct
            labels = batch.label_o if side == "o" else batch.label_d
            return F.binary_cross_entropy(
                net.tower(query).squeeze(-1), labels
            )

        _assert_one_tree(net, lambda: net.loss(batch), full_tables, batch)

    def test_serving_batch_reads_the_compact_table(self, od_dataset):
        """Several users, repeated and out of order, with the segment
        layout: scores from on-demand rows equal the all-users tables'."""
        model = MODELS["ODNET"](od_dataset)
        c, b, a = od_dataset.source.test_points[:3]
        batch = od_dataset.batch_for_requests([
            (a, _pairs([1, 2], [3, 4, 5])), (b, _pairs([2, 6], [1, 3])),
            (c, [ODPair(4, 9)]), (a, [ODPair(7, 8)]),
        ])
        assert np.any(np.diff(batch.user_ids) < 0)
        assert len(np.unique(batch.user_ids)) == 3
        np.testing.assert_allclose(
            model.score_pairs(batch),
            model.score_pairs(batch, tables=model.embedding_tables()),
            rtol=0, atol=1e-12,
        )

    def test_by_distinct_user(self, batch):
        users, compact = batch.by_distinct_user()
        assert np.all(np.diff(users) > 0)
        np.testing.assert_array_equal(users[compact.user_ids], batch.user_ids)
        assert compact.long_origins is batch.long_origins


class TestFitLossesArePinned:
    """Per-epoch losses of ``Trainer.fit`` on the session dataset, pinned
    from the commit before rows-on-demand (with the sorted-patterns fix,
    without which the world depends on ``PYTHONHASHSEED``).  Not
    hex-identical by contract: the HSGC GEMMs now run over a batch's
    users, not all of them, and round differently — measured <= 1 ulp."""

    PINNED = {
        "ODNET": ["0x1.4d91462e6f00fp-1", "0x1.adcb264bce829p-2",
                  "0x1.2d21d289df7c2p-2"],
        "STL+G": ["0x1.40be0b54dbbe1p-1", "0x1.cfacd8e685c32p-2",
                  "0x1.72090cc635b71p-2"],
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_three_epochs(self, od_dataset, name):
        from repro.train import TrainConfig, Trainer

        history = Trainer(TrainConfig(epochs=3, seed=0)).fit(
            MODELS[name](od_dataset), od_dataset
        )
        np.testing.assert_allclose(
            history.epoch_losses,
            [float.fromhex(x) for x in self.PINNED[name]],
            rtol=1e-9, atol=0,
        )


# ----------------------------------------------------------------------
# What must not move: parameter names and shapes
# ----------------------------------------------------------------------
#: published by the commit before the block-input head (PR 15) from the
#: model `_fixture_model` builds; see the README next to it.
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "snapshot_pr15"


def _fixture_model():
    dataset = ODDataset(
        generate_fliggy_dataset(FliggyConfig(
            num_users=24, world=WorldConfig(num_cities=10),
            train_points_per_user=1, seed=1,
        )),
        max_long=6, max_short=4,
    )
    config = ODNETConfig(dim=8, num_heads=2, depth=1, expert_dim=8,
                         tower_hidden=4, seed=1)
    return dataset, build_odnet(dataset, config)


class TestPublishedSnapshotsStillLoad:
    def test_state_dict_keys_and_shapes_are_the_published_ones(self):
        _, model = _fixture_model()
        published = SnapshotStore(FIXTURE).load().state
        state = model.state_dict()
        assert set(state) == set(published)
        assert {k: v.shape for k, v in state.items()} == {
            k: v.shape for k, v in published.items()
        }

    def test_pre_pr_snapshot_loads_and_serves(self):
        dataset, model = _fixture_model()
        model.load_state_dict(SnapshotStore(FIXTURE).load().state)
        point = dataset.source.test_points[0]
        batch = dataset.batch_for_candidates(
            point, _pairs([0, 1, 2], [3, 4, 5, 6])
        )
        scores = model.freeze().score_pairs(batch)
        assert scores.shape == (12,) and np.isfinite(scores).all()
        np.testing.assert_allclose(
            scores, model.score_pairs(_without_layout(batch)),
            rtol=0.0, atol=1e-12,
        )


class TestRejectedSwap:
    def test_session_scores_the_old_state_without_a_rebuild(self):
        dataset, model = _fixture_model()
        session = model.freeze()
        point = dataset.source.test_points[0]
        batch = dataset.batch_for_candidates(
            point, _pairs([0, 1, 2], [3, 4, 5, 6])
        )
        before = session.score_pairs(batch)
        misses = session.misses
        # Every parameter moves, and the last one bound has the wrong
        # shape: a load that binds as it checks would leave the model
        # serving a blend of the two versions.
        state = {name: value + 0.5
                 for name, value in model.state_dict().items()}
        last = list(state)[-1]
        assert last == "joint.towers.1.layers.1.bias"
        state[last] = np.zeros(state[last].size + 1)
        with pytest.raises(ValueError, match="shape mismatch"):
            session.swap(state)
        after = session.score_pairs(batch)
        assert session.misses == misses
        assert after.tobytes() == before.tobytes()
