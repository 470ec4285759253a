"""PEC — Eqs. 3-5 and the tower query assembly."""

import numpy as np
import pytest

from repro.core.pec import PreferenceExtraction
from repro.tensor import Tensor, concat


@pytest.fixture()
def pec(rng):
    return PreferenceExtraction(dim=8, num_heads=2, rng=rng)


def _sequences(rng, batch=3, long_len=6, short_len=4, dim=8):
    long_seq = Tensor(rng.normal(size=(batch, long_len, dim)))
    short_seq = Tensor(rng.normal(size=(batch, short_len, dim)))
    long_mask = np.ones((batch, long_len), dtype=bool)
    short_mask = np.ones((batch, short_len), dtype=bool)
    long_mask[1, 4:] = False
    short_mask[2, 2:] = False
    return long_seq, long_mask, short_seq, short_mask


class TestForward:
    def test_output_shapes(self, pec, rng):
        v_l, v_s = pec(*_sequences(rng))
        assert v_l.shape == (3, 8)
        assert v_s.shape == (3, 8)

    def test_gradients_flow(self, pec, rng):
        v_l, v_s = pec(*_sequences(rng))
        (v_l.sum() + v_s.sum()).backward()
        for name, param in pec.named_parameters():
            assert param.grad is not None, name

    def test_positional_embeddings_matter(self, pec, rng):
        """Swapping two long-term steps changes v_L (order-awareness)."""
        long_seq, long_mask, short_seq, short_mask = _sequences(rng)
        v1, _ = pec(long_seq, long_mask, short_seq, short_mask)
        swapped = long_seq.data.copy()
        swapped[:, [0, 3]] = swapped[:, [3, 0]]
        v2, _ = pec(Tensor(swapped), long_mask, short_seq, short_mask)
        assert not np.allclose(v1.data, v2.data)

    def test_masked_long_positions_ignored(self, pec, rng):
        long_seq, long_mask, short_seq, short_mask = _sequences(rng)
        v1, _ = pec(long_seq, long_mask, short_seq, short_mask)
        poisoned = long_seq.data.copy()
        poisoned[1, 4:] = 1e3  # masked positions of row 1
        v2, _ = pec(Tensor(poisoned), long_mask, short_seq, short_mask)
        np.testing.assert_allclose(v1.data[1], v2.data[1], atol=1e-8)

    def test_short_sequence_drives_attention(self, pec, rng):
        """Changing the short-term clicks changes which long-term bookings
        are attended (Eq. 4's query role).  W* is scaled up so the
        attention is sharp enough for the difference to be visible at
        freshly-initialised weights."""
        pec.history_attention.w_star.data = np.eye(8) * 10.0
        long_seq, long_mask, short_seq, short_mask = _sequences(rng)
        v1, _ = pec(long_seq, long_mask, short_seq, short_mask)
        other_short = Tensor(rng.normal(size=short_seq.shape) * 3)
        v2, _ = pec(long_seq, long_mask, other_short, short_mask)
        assert not np.allclose(v1.data, v2.data)


def _query(pec, v_l, v_s, user, current, cand, xst):
    """``q^X`` as the joint head reads it: both column groups."""
    return concat([pec.point_columns(v_l, v_s, user, current),
                   pec.candidate_columns(v_l, v_s, user, cand, xst)], axis=-1)


class TestBuildQuery:
    def test_query_dimension(self, pec, rng):
        batch, dim, xst_dim = 3, 8, 11
        parts = [Tensor(rng.normal(size=(batch, dim))) for _ in range(5)]
        xst = rng.normal(size=(batch, xst_dim))
        q = _query(pec, parts[0], parts[1], parts[2], parts[3], parts[4], xst)
        assert q.shape == (batch, PreferenceExtraction.query_dim(dim, xst_dim))

    def test_products_present(self, pec, rng):
        batch, dim = 2, 8
        v_l = Tensor(np.ones((batch, dim)) * 2)
        v_s = Tensor(np.ones((batch, dim)) * 3)
        user = Tensor(np.ones((batch, dim)) * 5)
        current = Tensor(np.zeros((batch, dim)))
        cand = Tensor(np.ones((batch, dim)) * 7)
        q = _query(pec, v_l, v_s, user, current, cand, np.zeros((batch, 1)))
        # layout: v_l, v_s, user, current, cand, v_l*c, v_s*c, user*c, xst
        np.testing.assert_allclose(q.data[:, 5 * dim:6 * dim], 14.0)
        np.testing.assert_allclose(q.data[:, 6 * dim:7 * dim], 21.0)
        np.testing.assert_allclose(q.data[:, 7 * dim:8 * dim], 35.0)
