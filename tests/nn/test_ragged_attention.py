"""Eq. 3's multi-head attention as one op over each row's valid positions.

``F.multi_head_attention`` packs the valid positions, projects them with
one GEMM, attends per length group and scatters back.  These tests hold
it to the composed formula it replaced — projections, head split,
``QKᵀ/√d_k``, a masked softmax over every padded key, the head merge and
``W_o``, kept below as the reference — at class B of ``tests/numerics.py``
on the outputs at valid positions and on the gradients of ``x`` and all
four weights; and its Tensor node to its array formula at class A.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fused import frozen_view
from repro.nn import MultiHeadAttention
from repro.tensor import Tensor, concat, functional as F, no_grad

from ..numerics import assert_class_a, assert_class_b

DIM = 8


def composed(x, mask, w_q, w_k, w_v, w_o, heads):
    """The reference: Eq. 3 as a chain of Tensor ops over every position,
    a padded key blocked by the masked softmax."""
    batch, length, dim = x.shape
    head_dim = dim // heads

    def split(t):
        return t.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)

    q, k, v = split(x @ w_q), split(x @ w_k), split(x @ w_v)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    if mask is None:
        weights = F.softmax(scores, axis=-1)
    else:
        weights = F.masked_softmax(scores, mask[:, None, None, :], axis=-1)
    context = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, length, dim)
    return context @ w_o


def _lengths_mask(lengths, width):
    return np.arange(width)[None, :] < np.asarray(lengths)[:, None]


def _holes_mask():
    return np.array([
        [True, False, True, False, True],
        [False, False, False, False, True],
        [True, True, False, True, False],
        [False, True, True, True, True],
    ])


CASES = {
    "batch-of-one": (1, 6, _lengths_mask([4], 6)),
    "one-length": (3, 5, _lengths_mask([3, 3, 3], 5)),
    "all-valid": (3, 4, np.ones((3, 4), dtype=bool)),
    "every-length": (6, 5, _lengths_mask([3, 0, 5, 1, 4, 2], 5)),
    "mask-none": (3, 4, None),
    "holes": (4, 5, _holes_mask()),
    "all-padding": (2, 3, np.zeros((2, 3), dtype=bool)),
}


def _inputs(case, seed=0):
    batch, length, mask = CASES[case]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, length, DIM))
    weights = [rng.normal(scale=0.5, size=(DIM, DIM)) for _ in range(4)]
    return x, mask, weights


def _valid(mask, shape):
    return np.ones(shape[:2], dtype=bool) if mask is None else mask


def _op(x, mask, w_q, w_k, w_v, w_o, heads):
    """The op as ``MultiHeadAttention`` calls it."""
    return F.multi_head_attention(x, mask, concat([w_q, w_k, w_v], axis=-1),
                                  w_o, heads)


def _array_op(x, mask, weights, heads):
    """The op on arrays: the frozen-view path."""
    return F.multi_head_attention(
        x, mask, np.concatenate(weights[:3], axis=1), weights[3], heads)


def _gradients(fn, x, mask, weights, heads, upstream):
    leaves = [Tensor(a, requires_grad=True) for a in [x, *weights]]
    out = fn(leaves[0], mask, *leaves[1:], heads)
    out.backward(upstream)
    return out.data, [leaf.grad for leaf in leaves]


HEADS = [1, 2, 4]


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("case", CASES)
class TestAgainstTheComposedFormula:
    def test_outputs_at_valid_positions(self, case, heads):
        x, mask, weights = _inputs(case)
        valid = _valid(mask, x.shape)
        got = _array_op(x, mask, weights, heads)
        with no_grad():
            expected = composed(Tensor(x), mask, *map(Tensor, weights),
                                heads).data
        assert_class_b(got[valid], expected[valid])

    def test_padded_positions_read_zero(self, case, heads):
        x, mask, weights = _inputs(case)
        got = _array_op(x, mask, weights, heads)
        assert (got[~_valid(mask, x.shape)] == 0.0).all()

    def test_gradients_of_x_and_all_four_weights(self, case, heads):
        x, mask, weights = _inputs(case)
        valid = _valid(mask, x.shape)
        # A padded query's output is read by nothing downstream, so it
        # takes no gradient; that is where the two formulas differ.
        upstream = np.random.default_rng(1).normal(size=x.shape)
        upstream *= valid[..., None]
        _, got = _gradients(_op, x, mask, weights, heads, upstream)
        _, expected = _gradients(composed, x, mask, weights, heads, upstream)
        for g, e in zip(got, expected):
            assert_class_b(g, e)

    def test_tensor_node_is_the_array_formula(self, case, heads):
        x, mask, weights = _inputs(case)
        array = _array_op(x, mask, weights, heads)
        taped, _ = _gradients(_op, x, mask, weights, heads, np.ones(x.shape))
        with no_grad():
            untaped = _op(Tensor(x), mask, *map(Tensor, weights), heads).data
        assert_class_a(taped, array)
        assert_class_a(untaped, array)

    def test_padded_inputs_do_not_move_valid_outputs(self, case, heads):
        x, mask, weights = _inputs(case)
        poisoned = x.copy()
        poisoned[~_valid(mask, x.shape)] = 1e3
        assert_class_a(_array_op(poisoned, mask, weights, heads),
                       _array_op(x, mask, weights, heads))


@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("case", CASES)
def test_frozen_view_is_the_module(case, heads):
    x, mask, _ = _inputs(case)
    mha = MultiHeadAttention(DIM, heads, np.random.default_rng(3))
    with no_grad():
        expected = mha(Tensor(x), mask=mask).data
    assert_class_a(frozen_view(mha)(x, mask=mask), expected)


def test_module_runs_the_op_on_its_own_weights():
    x, mask, _ = _inputs("every-length")
    mha = MultiHeadAttention(DIM, 2, np.random.default_rng(3))
    with no_grad():
        got = mha(Tensor(x), mask=mask).data
    weights = [p.data for p in (mha.w_q, mha.w_k, mha.w_v, mha.w_o)]
    valid = _valid(mask, x.shape)
    with no_grad():
        expected = composed(Tensor(x), mask, *map(Tensor, weights), 2).data
    assert_class_b(got[valid], expected[valid])
