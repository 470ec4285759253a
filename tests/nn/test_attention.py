"""Multi-head attention (Eq. 3) and the PEC query attention (Eqs. 4-5)."""

import numpy as np
import pytest

from repro.nn import MultiHeadAttention, QueryAttention
from repro.tensor import Tensor


class TestMultiHeadAttention:
    def test_dim_must_divide_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng)

    def test_output_shape(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        out = mha(Tensor(np.random.default_rng(0).normal(size=(3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_masked_positions_do_not_influence_output(self, rng):
        mha = MultiHeadAttention(8, 2, rng)
        base = np.random.default_rng(0).normal(size=(1, 4, 8))
        mask = np.array([[True, True, False, False]])
        out1 = mha(Tensor(base), mask=mask).data
        poisoned = base.copy()
        poisoned[0, 2:] = 1e3  # masked rows changed
        out2 = mha(Tensor(poisoned), mask=mask).data
        # Valid (query) rows must be unaffected by masked key content.
        np.testing.assert_allclose(out1[0, :2], out2[0, :2], atol=1e-8)

    def test_gradients_reach_all_projections(self, rng):
        mha = MultiHeadAttention(8, 4, rng)
        out = mha(Tensor(np.random.default_rng(0).normal(size=(2, 3, 8))))
        out.sum().backward()
        for param in mha.parameters():
            assert param.grad is not None


class TestQueryAttention:
    def test_output_shape(self, rng):
        qa = QueryAttention(8, rng)
        out = qa(
            Tensor(np.random.default_rng(0).normal(size=(3, 8))),
            Tensor(np.random.default_rng(1).normal(size=(3, 5, 8))),
        )
        assert out.shape == (3, 8)

    def test_fully_masked_rows_give_zero_vector(self, rng):
        qa = QueryAttention(4, rng)
        mask = np.array([[True, True], [False, False]])
        out = qa(
            Tensor(np.ones((2, 4))),
            Tensor(np.ones((2, 2, 4))),
            mask=mask,
        )
        np.testing.assert_allclose(out.data[1], np.zeros(4))

    def test_attention_weights_select_similar_key(self, rng):
        # With W* = I-ish learned weights the mechanism should strongly
        # prefer a key identical to the (projected) query over an
        # orthogonal one; check via a hand-set W*.
        qa = QueryAttention(2, rng)
        qa.w_star.data = np.eye(2) * 5.0
        query = Tensor(np.array([[1.0, 0.0]]))
        keys = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        out = qa(query, keys).data[0]
        assert out[0] > 0.9  # dominated by the aligned key
