"""Gradient correctness against central finite differences.

Every differentiable primitive and the composite functions used by ODNET
are checked, including hypothesis-driven property tests on random shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Linear
from repro.tensor import (
    Tensor, concat, functional as F, maximum, split, stack, where,
)
from repro.tensor.core import softmax_array

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

    @staticmethod
    def _attention_matches_finite_differences(mask):
        upstream = _rand(3, 4, 4, seed=3)
        assert_gradients_match(
            lambda x, w_qkv, w_o: F.multi_head_attention(
                x, mask, w_qkv, w_o, heads=2) * upstream,
            _rand(3, 4, 4), _rand(4, 12, seed=1) * 0.5,
            _rand(4, 4, seed=2) * 0.5,
        )

    def test_attention_gradients(self):
        self._attention_matches_finite_differences(None)

    def test_attention_with_mask_gradients(self):
        # Rows of three valid positions, of two with holes, and of none.
        self._attention_matches_finite_differences(np.array([
            [True, True, True, False], [False, True, False, True],
            [False, False, False, False],
        ]))

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


def _read_only(array):
    array = np.array(array, dtype=np.float64)
    array.flags.writeable = False
    return array


def _grads(fn, *arrays, upstream=None, constant=()):
    """Gradients of ``fn`` at ``arrays`` (``None`` for the indices in
    ``constant``, which take no gradient) under ``upstream``."""
    tensors = [Tensor(a, requires_grad=i not in constant)
               for i, a in enumerate(arrays)]
    out = fn(*tensors)
    out.backward(np.ones(out.shape) if upstream is None else upstream)
    return [t.grad for t in tensors]


_BINARY = {
    "mul": lambda a, b: a * b,
    "matmul": lambda a, b: a @ b,
    "truediv": lambda a, b: a / b,
    "sub": lambda a, b: a - b,
    "where": lambda a, b: where(np.array([[True, False], [False, True]]), a, b),
    "maximum": lambda a, b: maximum(a, b),
    "concat": lambda a, b: concat([a, b], axis=0),
}


class TestConstantOperands:
    """A backward skips the gradient of an operand that takes none; the
    other operand's gradient is the same bits either way."""

    @pytest.mark.parametrize("op", sorted(_BINARY))
    @pytest.mark.parametrize("constant", [0, 1], ids=["left", "right"])
    def test_constant_on_either_side(self, op, constant):
        fn = _BINARY[op]
        a, b = _rand(2, 2, seed=1), np.abs(_rand(2, 2, seed=2)) + 0.5
        upstream = _rand(*fn(Tensor(a), Tensor(b)).shape, seed=3)
        skipped = _grads(fn, a, b, upstream=upstream, constant=(constant,))
        both = _grads(fn, a, b, upstream=upstream)
        assert skipped[constant] is None
        np.testing.assert_array_equal(skipped[1 - constant], both[1 - constant])
        arrays = [a, b]
        fixed = arrays[constant]
        assert_gradients_match(
            (lambda x: fn(Tensor(fixed), x)) if constant == 0
            else (lambda x: fn(x, Tensor(fixed))),
            arrays[1 - constant],
        )


_INDICES = {
    "repeated": np.array([3, 1, 3, 3, 0, 1]),
    "negative": np.array([-1, 2, -4, -1, 0]),
    "2d": np.array([[0, 4, 4], [2, -5, 1]]),
    "3d": np.random.default_rng(5).integers(-5, 5, size=(3, 4, 2)),
    "empty": np.zeros(0, dtype=np.int64),
}


class TestGatherBackward:
    """A row gather scatters back with one bincount: the bits of
    ``np.add.at`` (same additions, same order)."""

    @pytest.mark.parametrize("name", sorted(_INDICES))
    @pytest.mark.parametrize("width", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("gather", ["getitem", "take"])
    def test_bits_of_add_at(self, name, width, gather):
        index = _INDICES[name]
        table = _rand(5, *width)
        fn = ((lambda t: t[index]) if gather == "getitem"
              else (lambda t: t.take(index, axis=0)))
        upstream = _rand(*index.shape, *width, seed=9) * 1e3
        expected = np.zeros_like(table)
        np.add.at(expected, index, upstream)
        [grad] = _grads(fn, table, upstream=_read_only(upstream))
        np.testing.assert_array_equal(grad, expected)
        if index.size:
            assert_gradients_match(fn, table)

    def test_uncovered_index_forms_still_scatter_add(self):
        rows, cols = np.array([0, 2, 0]), np.array([1, 1, 1])
        assert_gradients_match(lambda t: t[rows, cols], _rand(3, 2))
        assert_gradients_match(lambda t: t[np.array([True, False, True])],
                               _rand(3, 2))
        assert_gradients_match(lambda t: t.take(rows, axis=1), _rand(2, 3))


class TestMaskedSoftmax:
    """One node with the arithmetic of fill → softmax → row zeroing."""

    @staticmethod
    def _chain(scores, mask, axis=-1):
        weights = scores.masked_fill(~mask, -1e30).softmax(axis=axis)
        valid = np.asarray(mask.any(axis=axis, keepdims=True), dtype=np.float64)
        return weights * Tensor(valid)

    @pytest.mark.parametrize("shape, mask_shape", [
        ((6, 5), (6, 5)),
        ((4, 2, 3, 7), (4, 1, 1, 7)),          # broadcast over heads/queries
        ((40, 2, 6, 6), (40, 1, 1, 6)),        # the column-loop max
        ((3, 5), (5,)),                        # one mask for every row
    ])
    def test_same_bits_as_the_chain(self, shape, mask_shape):
        rng = np.random.default_rng(11)
        mask = rng.random(mask_shape) < 0.6
        mask.reshape(-1, mask_shape[-1])[0] = False     # a fully-masked row
        scores, upstream = _rand(*shape), _rand(*shape, seed=4)
        fused = _grads(lambda s: F.masked_softmax(s, mask), scores,
                       upstream=_read_only(upstream))
        chain = _grads(lambda s: self._chain(s, mask), scores,
                       upstream=upstream)
        np.testing.assert_array_equal(fused[0], chain[0])
        out = F.masked_softmax(Tensor(scores), mask).data
        np.testing.assert_array_equal(out, self._chain(Tensor(scores), mask).data)
        np.testing.assert_array_equal(out, F.masked_softmax(scores, mask))

    def test_fully_masked_rows_take_no_gradient(self):
        mask = np.array([[True, False, True], [False, False, False]])
        assert_gradients_match(lambda a: F.masked_softmax(a, mask), _rand(2, 3))
        [grad] = _grads(lambda a: F.masked_softmax(a, mask), _rand(2, 3),
                        upstream=_rand(2, 3, seed=2))
        np.testing.assert_array_equal(grad[1], np.zeros(3))

    def test_broadcast_mask_gradients(self):
        mask = np.array([[True, True, False, True]])
        assert_gradients_match(
            lambda a: F.masked_softmax(a, mask[:, None, :]), _rand(2, 3, 4)
        )

    @pytest.mark.parametrize("shape", [(300, 3), (64, 4, 15, 15), (8, 16), (5,)])
    def test_softmax_max_is_bitwise_the_reduction(self, shape):
        x = _rand(*shape) * 30
        exp = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(
            softmax_array(x), exp / exp.sum(axis=-1, keepdims=True)
        )


class TestSplit:
    def test_gradients(self):
        assert_gradients_match(
            lambda t: concat([p * (i + 1.0) for i, p in
                              enumerate(split(t, [2, 1, 3]))], axis=0),
            _rand(6, 3),
        )

    def test_an_unused_piece_gets_zeros(self):
        [grad] = _grads(lambda t: split(t, [2, 3])[1] * 2.0, _rand(5, 2))
        np.testing.assert_array_equal(grad[:2], np.zeros((2, 2)))
        np.testing.assert_array_equal(grad[2:], np.full((3, 2), 2.0))

    def test_a_piece_with_several_consumers_and_a_second_backward(self):
        t = Tensor(_rand(4, 2), requires_grad=True)
        first, second = split(t, [1, 3])
        (first * 3.0 + first + second.sum(axis=0, keepdims=True)).sum().backward()
        expected = np.concatenate([np.full((1, 2), 4.0), np.ones((3, 2))])
        np.testing.assert_array_equal(t.grad, expected)
        t.grad = None
        (second * 2.0).sum().backward()         # first got nothing this time
        expected = np.concatenate([np.zeros((1, 2)), np.full((3, 2), 2.0)])
        np.testing.assert_array_equal(t.grad, expected)

    def test_arrays_and_one_size(self):
        array = _rand(4, 3)
        pieces = split(array, [1, 3])
        assert all(np.shares_memory(p, array) for p in pieces)
        t = Tensor(array, requires_grad=True)
        assert split(t, [4]) == [t]

    def test_block_linear_has_the_per_slice_bits(self, rng):
        """The block-input Linear through one split against slicing
        ``Wᵀ`` once per block (a zero array of the whole per slice)."""
        layer = Linear(7, 5, rng)
        blocks = [(Tensor(_rand(4, 3, seed=1), requires_grad=True), None),
                  (Tensor(_rand(2, 2, seed=2), requires_grad=True),
                   np.array([0, 1, 1, 0])),
                  (_rand(4, 2, seed=3), None)]
        upstream = _rand(4, 5, seed=4)
        layer(blocks).backward(upstream)
        fused = [layer.weight.grad, blocks[0][0].grad, blocks[1][0].grad]
        layer.zero_grad()
        for part, _ in blocks[:2]:
            part.grad = None
        weight, out, start = layer.weight.transpose(), None, 0
        for part, rows in blocks:
            stop = start + part.shape[-1]
            projected = part @ weight[start:stop]
            if out is None:
                projected = projected + layer.bias
            if rows is not None:
                projected = projected[rows]
            out = projected if out is None else out + projected
            start = stop
        out.backward(upstream)
        for got, want in zip(fused, [layer.weight.grad, blocks[0][0].grad,
                                     blocks[1][0].grad]):
            np.testing.assert_array_equal(got, want)


class TestAccumulation:
    """Three or more deposits into one gradient: the first is kept as it
    came and never written, the second is a new sum, later ones add in
    place into it."""

    def test_zero_d_with_many_consumers(self):
        t = Tensor(np.array(0.5), requires_grad=True)
        (t * 2.0 + t * 3.0 + t * 4.0 + t.sigmoid() + t).backward()
        sig = 1.0 / (1.0 + np.exp(-0.5))
        np.testing.assert_allclose(t.grad, 10.0 + sig * (1 - sig))
        assert_gradients_match(
            lambda a: a * a + a * 3.0 + (a * a).exp() + a, np.array(0.3)
        )

    def test_read_only_first_deposits_are_not_written(self):
        def fn(a):
            b = a * 1.0
            return (b.sum(axis=0).sum() + b.sum() + b.sum(axis=1).sum()
                    + (b * b).sum())
        assert_gradients_match(fn, _rand(3, 4))

    def test_upstream_shared_by_two_parents_is_not_written(self):
        upstream = _read_only(_rand(3, seed=1))
        x = Tensor(_rand(3), requires_grad=True)
        y = Tensor(_rand(3, seed=2), requires_grad=True)
        p, q = x * 1.0, y * 1.0
        n = p + q                   # deposits the same array into p and q
        (n + p + p * 2.0).backward(upstream)
        np.testing.assert_array_equal(y.grad, upstream)
        np.testing.assert_array_equal(x.grad, upstream + upstream
                                      + upstream * 2.0)
        m = x * 1.0
        ((m + m) + m).backward(upstream)        # root gradient kept as is
        assert not upstream.flags.writeable

    def test_sum_order_is_deposit_order(self):
        """((g1 + g2) + g3) + g4: the bits of fresh sums, in place."""
        gs = [_rand(50, seed=s) * 10 ** s for s in range(4)]
        x = Tensor(np.zeros(50), requires_grad=True)
        h = x * 1.0
        outs = [h * Tensor(np.ones(50)) for _ in gs]
        total = outs[0]
        for o in outs[1:]:
            total = concat([total, o], axis=0)
        total.backward(np.concatenate(gs))
        np.testing.assert_array_equal(x.grad, ((gs[0] + gs[1]) + gs[2]) + gs[3])


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
