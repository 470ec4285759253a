"""The joint head's one stacked projection against the per-expert formula.

``MMoEJointLearning.forward`` projects q⊕ once through the row stack of
its experts' and gates' weights and runs the towers as batched matmuls.
The reference here is the formula that layout replaced, written out one
expert, gate and tower at a time over the same sub-modules (Eqs. 6-7 as
the paper states them).  The two round differently — a GEMM over a wider
weight — so they are held to each other at class B of the numerics
contract: the outputs and the gradient of every parameter, on the Tensor
path and on a frozen view's arrays.  Then: the inspection helpers read
the mixtures forward applies, and a serving state's capture follows the
weights it was taken from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_odnet
from repro.core.fused import frozen_view
from repro.core.intent import IntentAwareODNET
from repro.core.mmoe import MMoEJointLearning
from repro.data import ODPair
from repro.tensor import Tensor, as_array, functional as F, no_grad, stack

from ..conftest import TINY_MODEL_CONFIG
from ..numerics import assert_class_a, assert_class_b
from ..perf.test_hot_swap import _USER_PARAMS

WIDTHS = (5, 7, 3)          # q^O, q^D, pair
ROWS = 11


def reference(head, joint_query):
    """Eqs. 6-7 and the towers, one expert, gate and tower at a time."""
    outputs = stack([expert(joint_query) for expert in head.experts], axis=1)
    probabilities = []
    for gate, tower in zip(head.gates, head.towers):
        mixture = F.softmax(gate(joint_query), axis=-1)
        mixed = (F.expand_dims(mixture, 1) @ outputs).squeeze(1)
        probabilities.append(tower(mixed).squeeze(-1))
    return probabilities


def _head(num_experts, num_tasks, seed=0):
    """A head with every weight moved well off the init: at sigma 0.05
    the gates are near uniform and a wrong mixture barely shows."""
    rng = np.random.default_rng(seed)
    head = MMoEJointLearning(sum(WIDTHS), expert_dim=6, tower_hidden=4,
                             rng=rng, num_experts=num_experts,
                             num_tasks=num_tasks)
    for param in head.parameters():
        param.data = rng.normal(0.0, 0.6, param.data.shape)
    return head


def _query(kind, seed=1):
    """q⊕ as arrays: three column blocks over distinct side rows, or the
    one gathered matrix."""
    rng = np.random.default_rng(seed)
    rows_o = rng.integers(0, 3, ROWS)
    rows_d = rng.integers(0, 4, ROWS)
    q_o, q_d, pair = (rng.normal(size=(n, w))
                      for n, w in zip((3, 4, ROWS), WIDTHS))
    if kind == "blocks":
        return [(q_o, rows_o), (q_d, rows_d), (pair, None)]
    return np.concatenate([q_o[rows_o], q_d[rows_d], pair], axis=-1)


def _as_tensors(query):
    if isinstance(query, list):
        return [(_as_tensors(x), rows) for x, rows in query]
    return Tensor(query, requires_grad=True)


def _as_arrays(query):
    if isinstance(query, list):
        return [(_as_arrays(x), rows) for x, rows in query]
    return as_array(query)


def _leaves(query):
    if isinstance(query, list):
        return [leaf for x, _ in query for leaf in _leaves(x)]
    return [query]


def _run(head, query, forward):
    """Outputs and the gradient of every parameter and input of a
    task-weighted sum (unequal weights: a task routed to the wrong
    tower shows)."""
    head.zero_grad()
    inputs = _as_tensors(query)
    out = forward(head, inputs)
    sum(p.sum() * (task + 1.0) for task, p in enumerate(out)).backward()
    return ([p.data for p in out],
            {name: param.grad for name, param in head.named_parameters()},
            [x.grad for x in _leaves(inputs)])


SHAPES = [(e, t) for e in (1, 2, 3, 4) for t in (1, 2, 3)]


class TestStackedAgainstPerExpert:
    @pytest.mark.parametrize("kind", ["blocks", "single"])
    @pytest.mark.parametrize("num_experts, num_tasks", SHAPES)
    def test_tensor_path_values_and_every_gradient(
        self, num_experts, num_tasks, kind
    ):
        head = _head(num_experts, num_tasks)
        query = _query(kind)
        got = _run(head, query, lambda m, q: m(q))
        expected = _run(head, query, reference)
        assert len(got[0]) == num_tasks
        for g, e in zip(got[0], expected[0]):
            assert_class_b(g, e)
        assert got[1].keys() == expected[1].keys()
        for name, grad in expected[1].items():
            assert grad is not None and got[1][name] is not None, name
            assert_class_b(got[1][name], grad)
        for g, e in zip(got[2], expected[2]):
            assert_class_b(g, e)

    @pytest.mark.parametrize("kind", ["blocks", "single"])
    @pytest.mark.parametrize("num_experts, num_tasks", SHAPES)
    def test_frozen_array_path(self, num_experts, num_tasks, kind):
        view = frozen_view(_head(num_experts, num_tasks))
        query = _query(kind)
        got = view(query)
        assert all(type(p) is np.ndarray for p in got)
        for g, e in zip(got, reference(view, query)):
            assert_class_b(g, e)

    def test_parameters_keep_the_per_expert_layout(self):
        head = _head(3, 2)
        assert {name: param.shape for name, param
                in head.named_parameters()} == {
            **{f"experts.{i}.layers.0.weight": (6, sum(WIDTHS))
               for i in range(3)},
            **{f"experts.{i}.layers.0.bias": (6,) for i in range(3)},
            **{f"gates.{j}.weight": (3, sum(WIDTHS)) for j in range(2)},
            **{f"towers.{j}.layers.0.weight": (4, 6) for j in range(2)},
            **{f"towers.{j}.layers.0.bias": (4,) for j in range(2)},
            **{f"towers.{j}.layers.1.weight": (1, 4) for j in range(2)},
            **{f"towers.{j}.layers.1.bias": (1,) for j in range(2)},
        }

    def test_a_training_step_keeps_the_gates_bias_free(self):
        """After an optimizer step the stacked head still equals the
        per-expert formula, which has no gate bias to move."""
        from repro.optim import Adam

        head = _head(3, 2)
        query = _query("blocks")
        out = head(_as_tensors(query))
        (out[0].sum() - out[1].sum()).backward()
        Adam(head.parameters(), lr=0.1).step()
        with no_grad():
            for g, e in zip(head(query), reference(head, query)):
                assert_class_b(as_array(g), as_array(e))


@pytest.fixture(scope="module")
def intent_model(od_dataset):
    model = IntentAwareODNET(od_dataset, TINY_MODEL_CONFIG)
    for param in model.joint.parameters():
        param.data = param.data * 12.0
    return model


class TestIntentHead:
    """The intent model's head reads four blocks: q^O and q^D (each
    nested as PEC builds it), pair, and the intent distribution on
    q^D's rows."""

    def _blocks(self, model, od_dataset):
        point = od_dataset.source.test_points[0]
        batch = od_dataset.batch_for_candidates(
            point, [ODPair(o, d) for o in (0, 1, 2) for d in (3, 4, 5, 6)]
        )
        with no_grad():
            blocks = model._joint_query(batch, model.embedding_tables())
        assert len(blocks) == 4
        return _as_arrays(blocks)

    def test_tensor_path(self, intent_model, od_dataset):
        query = self._blocks(intent_model, od_dataset)
        head = intent_model.joint
        got = _run(head, query, lambda m, q: m(q))
        expected = _run(head, query, reference)
        for g, e in zip(got[0], expected[0]):
            assert_class_b(g, e)
        for name, grad in expected[1].items():
            assert_class_b(got[1][name], grad)
        for g, e in zip(got[2], expected[2]):
            assert_class_b(g, e)

    def test_frozen_array_path(self, intent_model, od_dataset):
        query = self._blocks(intent_model, od_dataset)
        view = frozen_view(intent_model.joint)
        for g, e in zip(view(query), reference(view, query)):
            assert_class_b(g, e)


# ----------------------------------------------------------------------
# One definition for inspection
# ----------------------------------------------------------------------
def _spy(monkeypatch):
    """Record the mixtures every forward of any head applies."""
    seen = []
    real = MMoEJointLearning._experts_and_mixtures

    def recording(self, *args):
        experts, mixtures = real(self, *args)
        seen.append(as_array(mixtures))
        return experts, mixtures

    monkeypatch.setattr(MMoEJointLearning, "_experts_and_mixtures",
                        recording)
    return seen


class TestGateMixtures:
    def test_module_helper_reads_the_forward_mixtures(self, monkeypatch):
        head = _head(3, 2)
        query = _query("blocks")
        seen = _spy(monkeypatch)
        with no_grad():
            head([(Tensor(x), rows) for x, rows in query])
        mixtures = head.gate_mixtures(query)
        assert mixtures.shape == (2, ROWS, 3)
        assert len(seen) == 2
        assert np.array_equal(mixtures, seen[0].transpose(1, 0, 2))

    def test_model_helper_reads_the_forward_mixtures(
        self, trained_odnet, od_dataset, monkeypatch
    ):
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        seen = _spy(monkeypatch)
        trained_odnet.predict(batch)              # Tensor path
        trained_odnet.score_pairs(batch)          # frozen-array path
        mixtures = trained_odnet.gate_mixtures(batch)
        for used in seen[:2]:
            assert np.array_equal(mixtures, used.transpose(1, 0, 2))


# ----------------------------------------------------------------------
# The capture follows the weights
# ----------------------------------------------------------------------
def _serving_batch(od_dataset):
    point = od_dataset.source.test_points[1]
    return od_dataset.batch_for_candidates(
        point, [ODPair(o, d) for o in (0, 2, 5) for d in (1, 3, 4, 7)]
    )


def _predicted(model, tables, batch):
    """Eq. 11 over ``ODNET.predict`` (the Tensor path) on ``tables``."""
    p_o, p_d = model.predict(batch, tables=tables)
    return model.theta * p_o + (1.0 - model.theta) * p_d


class TestCaptureFollowsWeights:
    def test_swap_moving_one_expert(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        session = model.freeze()
        batch = _serving_batch(od_dataset)
        before = session.score_pairs(batch)
        old = session._lookup().model.joint.stacked()
        state = model.state_dict()
        name = "joint.experts.1.layers.0.weight"
        state[name] = state[name] + np.random.default_rng(4).normal(
            0.0, 0.5, state[name].shape
        )
        session.swap(state)
        served = session.score_pairs(batch)
        assert session._lookup().model.joint.stacked()[0] is not old[0]
        assert not np.array_equal(served, before)
        assert_class_a(
            served, _predicted(model, model.embedding_tables(), batch)
        )

    def test_verified_user_scope_swap(self, od_dataset):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        session = model.freeze()
        batch = _serving_batch(od_dataset)
        session.score_pairs(batch)
        old = session._lookup()
        state = model.state_dict()
        users = sorted(set(batch.user_ids.tolist()))
        rng = np.random.default_rng(6)
        for name in _USER_PARAMS:
            state[name] = state[name].copy()
            state[name][users] += rng.normal(0.0, 0.5, (len(users),
                                                        state[name].shape[1]))
        session.swap(state, touched_users=users)
        new = session._lookup()
        # Narrowed: the city tables are the published ones by reference.
        assert new.tables["o"][1] is old.tables["o"][1]
        assert new.model.joint.stacked() is not old.model.joint.stacked()
        served = session.score_pairs(batch)
        assert not np.array_equal(served, old.score_pairs(batch))
        assert_class_a(served, _predicted(model, new.tables, batch))

    def test_requests_reuse_the_captured_arrays(self, od_dataset,
                                                monkeypatch):
        import repro.core.mmoe as mmoe

        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        session = model.freeze()
        batch = _serving_batch(od_dataset)
        first = session.score_pairs(batch)
        state = session._lookup()
        captured = state.model.joint.stacked()
        calls = []
        for name in ("concat", "stack"):
            real = getattr(mmoe, name)
            monkeypatch.setattr(
                mmoe, name,
                lambda *a, _real=real, **k: calls.append(a) or _real(*a, **k),
            )
        second = session.score_pairs(batch)
        third = session.score_pairs(batch)
        assert session._lookup() is state
        assert state.model.joint.stacked() is captured
        assert calls == []
        assert_class_a(second, first)
        assert_class_a(third, first)
