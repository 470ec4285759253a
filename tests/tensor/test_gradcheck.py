"""Gradient correctness against central finite differences.

Every differentiable primitive and the composite functions used by ODNET
are checked, including hypothesis-driven property tests on random shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, concat, functional as F, maximum, stack, where

from .gradcheck import assert_gradients_match


def _rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        assert_gradients_match(lambda a, b: a + b, _rand(3, 4), _rand(4))

    def test_sub(self):
        assert_gradients_match(lambda a, b: a - b, _rand(3), _rand(3))

    def test_mul_broadcast(self):
        assert_gradients_match(lambda a, b: a * b, _rand(2, 3), _rand(3))

    def test_div(self):
        b = np.abs(_rand(3)) + 1.0
        assert_gradients_match(lambda a, c: a / c, _rand(3), b)

    def test_pow(self):
        assert_gradients_match(lambda a: a ** 3, _rand(4))

    def test_neg(self):
        assert_gradients_match(lambda a: -a, _rand(4))

    def test_matmul(self):
        assert_gradients_match(lambda a, b: a @ b, _rand(3, 4), _rand(4, 2))

    def test_matmul_batched(self):
        assert_gradients_match(
            lambda a, b: a @ b, _rand(2, 3, 4), _rand(2, 4, 2)
        )

    def test_matmul_broadcast_batch(self):
        assert_gradients_match(lambda a, b: a @ b, _rand(2, 3, 4), _rand(4, 2))

    def test_exp_log(self):
        assert_gradients_match(lambda a: a.exp(), _rand(4))
        assert_gradients_match(lambda a: a.log(), np.abs(_rand(4)) + 0.5)

    def test_sqrt(self):
        assert_gradients_match(lambda a: a.sqrt(), np.abs(_rand(4)) + 0.5)

    def test_relu_sigmoid_tanh(self):
        assert_gradients_match(lambda a: a.relu(), _rand(5) + 0.01)
        assert_gradients_match(lambda a: a.sigmoid(), _rand(5))
        assert_gradients_match(lambda a: a.tanh(), _rand(5))

    def test_abs(self):
        assert_gradients_match(lambda a: a.abs(), _rand(5) + 0.01)

    def test_clip(self):
        assert_gradients_match(lambda a: a.clip(-0.5, 0.5), _rand(6) * 2)

    def test_sum_mean_axes(self):
        assert_gradients_match(lambda a: a.sum(axis=0), _rand(3, 4))
        assert_gradients_match(lambda a: a.mean(axis=1), _rand(3, 4))
        assert_gradients_match(
            lambda a: a.sum(axis=1, keepdims=True), _rand(3, 4)
        )

    def test_max(self):
        assert_gradients_match(lambda a: a.max(axis=1), _rand(3, 4))

    def test_reshape_transpose(self):
        assert_gradients_match(lambda a: a.reshape(6, 2), _rand(2, 3, 2))
        assert_gradients_match(lambda a: a.transpose(1, 0, 2), _rand(2, 3, 2))
        assert_gradients_match(lambda a: a.swapaxes(0, 1), _rand(2, 3))

    def test_getitem_and_take(self):
        idx = np.array([[0, 2], [1, 1]])
        assert_gradients_match(lambda a: a[idx], _rand(4, 3))
        assert_gradients_match(lambda a: a.take(idx), _rand(4, 3))

    @pytest.mark.parametrize(
        "index",
        [
            (slice(None), slice(1, 3)), slice(0, 2), 1, (..., 0),
            (slice(None), None, slice(None, None, 2)), (0, slice(1, None)),
        ],
        ids=["columns", "rows", "int", "ellipsis", "none+step", "int+slice"],
    )
    def test_getitem_basic_index_assigns(self, index):
        # Basic indices take the assignment backward (no position repeats).
        assert_gradients_match(lambda a: a[index], _rand(4, 3))

    def test_getitem_repeated_fancy_index_accumulates(self):
        a = Tensor(_rand(4, 3), requires_grad=True)
        a[np.array([1, 1, 1, 3])].sum().backward()
        np.testing.assert_array_equal(a.grad[:, 0], [0.0, 3.0, 0.0, 1.0])
        assert_gradients_match(
            lambda t: t[np.array([0, 0, 2]), 1:], _rand(4, 3)
        )

    def test_array_on_the_left_of_matmul(self):
        left = _rand(2, 3, seed=1)
        assert_gradients_match(lambda w: left @ w, _rand(3, 4))

    def test_softmax_log_softmax(self):
        assert_gradients_match(lambda a: a.softmax(axis=-1), _rand(3, 4))
        assert_gradients_match(lambda a: a.log_softmax(axis=-1), _rand(3, 4))

    def test_masked_fill(self):
        mask = np.array([True, False, True, False])
        assert_gradients_match(lambda a: a.masked_fill(mask, 0.0), _rand(4))

    def test_concat_stack(self):
        assert_gradients_match(
            lambda a, b: concat([a, b], axis=1), _rand(2, 3), _rand(2, 2)
        )
        assert_gradients_match(
            lambda a, b: stack([a, b], axis=0), _rand(3), _rand(3)
        )

    def test_where_maximum(self):
        cond = np.array([True, False, True])
        assert_gradients_match(
            lambda a, b: where(cond, a, b), _rand(3), _rand(3, seed=1)
        )
        assert_gradients_match(
            lambda a, b: maximum(a, b), _rand(3), _rand(3, seed=1)
        )

    def test_expand_squeeze(self):
        assert_gradients_match(lambda a: a.expand_dims(1), _rand(3, 2))
        assert_gradients_match(
            lambda a: a.expand_dims(0).squeeze(0), _rand(3, 2)
        )


class TestFunctionalGradients:
    def test_bce_on_probabilities(self):
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        assert_gradients_match(
            lambda a: F.binary_cross_entropy(a.sigmoid(), targets), _rand(4)
        )

    def test_bce_with_logits_matches_probability_form(self):
        logits = _rand(64)
        targets = (np.random.default_rng(3).random(64) > 0.5).astype(float)
        a = F.binary_cross_entropy(Tensor(logits).sigmoid(), targets)
        b = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        np.testing.assert_allclose(a.data, b.data, atol=1e-10)

    def test_bce_with_logits_gradients(self):
        targets = np.array([1.0, 0.0, 1.0])
        assert_gradients_match(
            lambda a: F.binary_cross_entropy_with_logits(a, targets), _rand(3)
        )

    def test_masked_softmax_gradients(self):
        mask = np.array([[True, True, False], [True, False, False]])
        assert_gradients_match(
            lambda a: F.masked_softmax(a, mask), _rand(2, 3)
        )

    def test_masked_softmax_zeroes_fully_masked_rows(self):
        scores = Tensor(_rand(2, 3))
        mask = np.array([[True, True, True], [False, False, False]])
        weights = F.masked_softmax(scores, mask)
        np.testing.assert_allclose(weights.data[1], np.zeros(3))
        np.testing.assert_allclose(weights.data[0].sum(), 1.0)

    def test_attention_gradients(self):
        assert_gradients_match(
            lambda q, k, v: F.scaled_dot_product_attention(q, k, v)[0],
            _rand(2, 3, 4), _rand(2, 5, 4, seed=1), _rand(2, 5, 4, seed=2),
        )

    def test_attention_with_mask_gradients(self):
        mask = np.ones((2, 1, 3, 5), dtype=bool)
        mask[0, 0, :, 3:] = False
        assert_gradients_match(
            lambda q, k, v: F.scaled_dot_product_attention(q, k, v, mask)[0],
            _rand(2, 3, 4), _rand(2, 5, 4, seed=1), _rand(2, 5, 4, seed=2),
        )

    def test_masked_mean_pool_gradients(self):
        mask = np.array([[True, True, False], [True, False, False]])
        assert_gradients_match(
            lambda x: F.masked_mean_pool(x, mask), _rand(2, 3, 4)
        )

    def test_masked_mean_pool_ignores_padding(self):
        x = np.ones((1, 3, 2))
        x[0, 2] = 100.0
        mask = np.array([[True, True, False]])
        out = F.masked_mean_pool(Tensor(x), mask)
        np.testing.assert_allclose(out.data, np.ones((1, 2)))

    def test_dropout_eval_is_identity(self):
        x = Tensor(_rand(5))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.25, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestPropertyBased:
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_softmax_gradient_random_shapes(self, rows, cols, seed):
        data = np.random.default_rng(seed).normal(size=(rows, cols))
        assert_gradients_match(lambda a: a.softmax(axis=-1), data)

    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matmul_gradient_random_shapes(self, n, m, k, seed):
        rng = np.random.default_rng(seed)
        assert_gradients_match(
            lambda a, b: a @ b, rng.normal(size=(n, m)), rng.normal(size=(m, k))
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_chain_rule_composition(self, seed):
        data = np.random.default_rng(seed).normal(size=(3, 3))
        assert_gradients_match(
            lambda a: ((a @ a).tanh() * a.sigmoid()).sum(axis=0), data
        )

    @given(seed=st.integers(0, 10_000), rate=st.floats(0.0, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_sigmoid_output_in_unit_interval(self, seed, rate):
        data = np.random.default_rng(seed).normal(size=10) * (1 + 10 * rate)
        out = Tensor(data).sigmoid().data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
