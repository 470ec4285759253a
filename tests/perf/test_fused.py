"""Bit-exactness of the array scoring path.

``fused_score_pairs`` runs the modules' own ``forward`` on a frozen view
of the model (no Tensor graph, no autograd tape).  Fed the same HSGC
rows, the array path and the Tensor ``predict`` blend are *exactly*
equal — without tables both propagate the batch's users only, with
tables both gather from the same all-users tables.  A drifting mirror
would make cache warmup silently change ranking order; these tests pin
it.  All-users tables against on-demand rows is a separate, looser
case: see :class:`TestFrozenTables`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_odnet
from repro.core.fused import fused_score_pairs
from repro.tensor import no_grad

from tests.conftest import TINY_MODEL_CONFIG
from tests.numerics import assert_class_a, assert_class_b


def _tensor_blend(model, batch, tables=None):
    """The reference: Tensor-path Eq. 11 serving blend."""
    with model.eval_mode(), no_grad():
        p_o, p_d = model.forward(batch, tables=tables)
        theta = model.theta
        return theta * p_o.data + (1.0 - theta) * p_d.data


def _serving_batch(od_dataset):
    """A batch with the segment layout (point_rows / first_rows set)."""
    from repro.serving import CandidateRecall

    recall = CandidateRecall(
        od_dataset.source.world, od_dataset.route_popularity
    )
    encoded = []
    for point in od_dataset.source.test_points[:3]:
        candidates = recall.candidate_pairs(point.history)
        encoded.append((point, candidates))
    return od_dataset.batch_for_requests(encoded)


def _training_batch(od_dataset):
    """A batch without the segment layout (first_rows is None)."""
    return next(iter(od_dataset.iter_batches(
        "train", batch_size=32, shuffle=False
    )))


@pytest.fixture(scope="module")
def batches(od_dataset):
    return {
        "serving": _serving_batch(od_dataset),
        "training": _training_batch(od_dataset),
    }


class TestFusedMirrorsTensorPath:
    @pytest.mark.parametrize("layout", ["serving", "training"])
    def test_untrained_model_bit_exact(self, od_dataset, batches, layout):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        batch = batches[layout]
        assert_class_a(
            fused_score_pairs(model, batch), _tensor_blend(model, batch)
        )

    @pytest.mark.parametrize("layout", ["serving", "training"])
    def test_trained_model_bit_exact(self, trained_odnet, batches, layout):
        batch = batches[layout]
        assert_class_a(
            fused_score_pairs(trained_odnet, batch),
            _tensor_blend(trained_odnet, batch),
        )

    def test_no_graph_variant_bit_exact(self, od_dataset, batches):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG, variant="ODNET-G")
        batch = batches["serving"]
        assert_class_a(
            fused_score_pairs(model, batch), _tensor_blend(model, batch)
        )

    @pytest.mark.parametrize("layout", ["serving", "training"])
    def test_trained_model_bit_exact_on_full_tables(
        self, trained_odnet, batches, layout
    ):
        batch = batches[layout]
        tables = trained_odnet.embedding_tables()
        assert_class_a(
            fused_score_pairs(trained_odnet, batch, tables=tables),
            _tensor_blend(trained_odnet, batch, tables=tables),
        )


class TestFrozenTables:
    def test_explicit_tables_match_implicit(self, trained_odnet, batches):
        """Cached all-users tables vs rows propagated for the batch's
        users: the same Algorithm 1 on the same inputs, but a GEMM over a
        batch's user rows does not round like the same rows inside the
        all-users GEMM — class B, not bitwise."""
        tables = trained_odnet.embedding_tables()
        for batch in batches.values():
            assert_class_b(
                fused_score_pairs(trained_odnet, batch, tables=tables),
                fused_score_pairs(trained_odnet, batch),
            )

    def test_output_shape_and_dtype(self, trained_odnet, batches):
        scores = fused_score_pairs(trained_odnet, batches["serving"])
        assert scores.dtype == np.float64
        assert scores.shape == (len(batches["serving"]),)
