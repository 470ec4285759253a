"""One definition of Eqs. 3-11: a module's ``forward`` on plain arrays.

``frozen_view(module)`` is an instance of the module's own class whose
parameters are arrays, so serving runs the code that was trained.  These
tests hold each layer of the scoring path to exact equality between the
two ways of running that one ``forward`` — Tensors under ``no_grad``
against arrays through a view — on the inputs where a drift would hide:
ragged masks, an all-padding row, length-1 sequences, a single-row
batch, all-tie rows, saturating magnitudes, and both batch layouts.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import build_odnet
from repro.core.fused import frozen_view
from repro.core.mmoe import MMoEJointLearning
from repro.core.pec import PreferenceExtraction
from repro.nn import MLP, Linear, MultiHeadAttention, QueryAttention
from repro.optim import Adam
from repro.tensor import Tensor, functional as F, no_grad

from tests.conftest import TINY_MODEL_CONFIG

DIM, HEADS, XST = 8, 2, 3


def _rng():
    return np.random.default_rng(7)


def _wrap(value):
    # Float arrays are what a model wraps; masks and ids stay arrays.
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return Tensor(value)
    return value


def _assert_same(got, expected):
    if isinstance(expected, (tuple, list)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_same(g, e)
        return
    assert type(got) is np.ndarray and got.dtype == np.float64
    np.testing.assert_array_equal(got, expected.data)


def _check(module, *args, call=None, **kwargs):
    """``module`` on Tensors (no tape) vs its frozen view on arrays."""
    call = call or (lambda m, *a, **k: m(*a, **k))
    with no_grad():
        expected = call(
            module, *map(_wrap, args),
            **{name: _wrap(value) for name, value in kwargs.items()},
        )
    view = frozen_view(module)
    assert type(view) is type(module)
    _assert_same(call(view, *args, **kwargs), expected)


# ----------------------------------------------------------------------
# Adversarial inputs
# ----------------------------------------------------------------------
def _lengths_mask(lengths, width):
    return np.arange(width)[None, :] < np.asarray(lengths)[:, None]


def _sequence_cases():
    """``x (B, L, D), mask (B, L)`` per case."""
    rng = _rng()
    tie = np.broadcast_to(rng.normal(size=DIM), (3, 4, DIM)).copy()
    return {
        "ragged+all-padding-row": (
            rng.normal(size=(4, 5, DIM)), _lengths_mask([5, 3, 1, 0], 5)),
        "length-1": (
            rng.normal(size=(3, 1, DIM)), _lengths_mask([1, 1, 0], 1)),
        "single-row": (rng.normal(size=(1, 6, DIM)), _lengths_mask([4], 6)),
        "all-tie": (tie, _lengths_mask([4, 2, 4], 4)),
        "saturating": (
            rng.normal(size=(2, 3, DIM)) * 1e3, _lengths_mask([3, 2], 3)),
    }


def _row_cases(width):
    """``x (B, width)`` per case, as pytest params."""
    rng = _rng()
    cases = {
        "batch": rng.normal(size=(5, width)),
        "single-candidate": rng.normal(size=(1, width)),
        "all-tie": np.broadcast_to(rng.normal(size=width), (4, width)).copy(),
        "zeros": np.zeros((3, width)),
        "saturating": rng.normal(size=(4, width)) * 1e4,
    }
    return [pytest.param(x, id=name) for name, x in cases.items()]


SEQUENCES = _sequence_cases()


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class TestFeedForward:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("x", _row_cases(6))
    def test_linear(self, x, bias):
        _check(Linear(6, 4, _rng(), bias=bias), x)

    def test_linear_on_a_sequence(self):
        _check(Linear(DIM, 4, _rng()), SEQUENCES["saturating"][0])

    @pytest.mark.parametrize(
        "activation, final",
        [(F.relu, None), (F.relu, F.sigmoid), (F.tanh, F.relu),
         (F.sigmoid, F.tanh)],
    )
    @pytest.mark.parametrize("x", _row_cases(6))
    def test_mlp(self, x, activation, final):
        mlp = MLP(6, [5, 4], 2, _rng(), activation=activation,
                  final_activation=final)
        _check(mlp, x)

    @pytest.mark.parametrize("x", _row_cases(12))
    def test_mmoe(self, x):
        joint = MMoEJointLearning(12, expert_dim=6, tower_hidden=4,
                                  rng=_rng())
        _check(joint, x)


class TestAttention:
    @pytest.mark.parametrize("case", SEQUENCES)
    def test_multi_head_self_attention(self, case):
        x, mask = SEQUENCES[case]
        mha = MultiHeadAttention(DIM, HEADS, _rng())
        _check(mha, x, mask=mask)
        _check(mha, x)

    @pytest.mark.parametrize("case", SEQUENCES)
    def test_query_attention(self, case):
        keys, mask = SEQUENCES[case]
        attention = QueryAttention(DIM, _rng())
        query = _rng().normal(size=(keys.shape[0], DIM))
        _check(attention, query, keys, mask=mask)
        _check(attention, query, keys)
        _check(attention, query, keys, mask=mask,
               call=lambda m, *a, **k: m.attention_weights(*a, **k))

    @pytest.mark.parametrize("case", SEQUENCES)
    def test_preference_extraction(self, case):
        long_seq, long_mask = SEQUENCES[case]
        rng = _rng()
        batch = long_seq.shape[0]
        short_seq = rng.normal(size=(batch, 3, DIM))
        # Short windows: full, length-1, empty, by turns.
        short_mask = _lengths_mask([(3, 1, 0)[i % 3] for i in range(batch)], 3)
        pec = PreferenceExtraction(DIM, HEADS, rng)
        _check(pec, long_seq, long_mask, short_seq, short_mask)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6),
                        st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_preference_extraction_any_masks(self, shape, seed, data):
        batch, long_len, short_len = shape
        rng = np.random.default_rng(seed)
        long_mask = data.draw(hnp.arrays(np.bool_, (batch, long_len)))
        short_mask = data.draw(hnp.arrays(np.bool_, (batch, short_len)))
        pec = PreferenceExtraction(DIM, HEADS, rng)
        _check(
            pec, rng.normal(size=(batch, long_len, DIM)), long_mask,
            rng.normal(size=(batch, short_len, DIM)), short_mask,
        )


# ----------------------------------------------------------------------
# aware_query: both batch layouts
# ----------------------------------------------------------------------
def _aware_batch(first_rows, point_rows, rows, rng, users=6, cities=9):
    """The slice of an ``ODBatch`` that ``aware_query`` reads."""
    points = rows if first_rows is None else len(first_rows)
    per_point = {
        "user_ids": rng.integers(0, users, points),
        "current_city": rng.integers(0, cities, points),
        "long_ids": rng.integers(0, cities, (points, 5)),
        "short_ids": rng.integers(0, cities, (points, 3)),
        # Point 0 has no history at all; the rest are ragged.
        "long_mask": _lengths_mask([0, 5, 2, 1, 3, 4][:points], 5),
        "short_mask": _lengths_mask([0, 3, 1, 2, 3, 1][:points], 3),
    }
    expand = np.arange(rows) if point_rows is None else point_rows
    fields = {name: value[expand] for name, value in per_point.items()}
    long_ids, short_ids = fields.pop("long_ids"), fields.pop("short_ids")
    batch = types.SimpleNamespace(
        first_rows=first_rows, point_rows=point_rows, **fields
    )
    return batch, long_ids, short_ids


LAYOUTS = {
    # Three points with 3, 1 and 2 candidates: the encoders run per point.
    "segment": (np.array([0, 3, 4]), np.array([0, 0, 0, 1, 2, 2]), 6),
    # One candidate per point: the layout is present but saves nothing.
    "segment-no-sharing": (np.arange(4), np.arange(4), 4),
    "single-candidate": (np.array([0]), np.array([0]), 1),
    "training": (None, None, 5),
}


class TestAwareQuery:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("tie", [False, True], ids=["distinct", "all-tie"])
    def test_both_layouts(self, layout, tie):
        first_rows, point_rows, rows = LAYOUTS[layout]
        rng = _rng()
        batch, long_ids, short_ids = _aware_batch(
            first_rows, point_rows, rows, rng
        )
        users = rng.normal(size=(6, DIM))
        cities = rng.normal(size=(9, DIM))
        candidate = (
            np.full(rows, 4) if tie else rng.integers(0, 9, rows)
        )
        xst = (
            np.ones((rows, XST), dtype=np.float32) if tie
            else rng.normal(size=(rows, XST)).astype(np.float32)
        )
        pec = PreferenceExtraction(DIM, HEADS, rng)
        _check(
            pec, users, cities, batch, long_ids, short_ids, candidate, xst,
            call=lambda m, *a: m.aware_query(*a),
        )
        width = PreferenceExtraction.query_dim(DIM, XST)
        assert frozen_view(pec).aware_query(
            users, cities, batch, long_ids, short_ids, candidate, xst
        ).shape == (rows, width)


    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_side_layout_builds_the_distinct_rows_only(self, layout):
        """With the side's ``(first, rows)``, q^X is built on ``first``
        and ``q[rows]`` is the per-row query to the last bit."""
        first_rows, point_rows, rows = LAYOUTS[layout]
        rng = _rng()
        batch, long_ids, short_ids = _aware_batch(
            first_rows, point_rows, rows, rng
        )
        users = rng.normal(size=(6, DIM))
        cities = rng.normal(size=(9, DIM))
        # Two candidate cities per point at most: rows repeat.
        points = np.arange(rows) if point_rows is None else point_rows
        candidate = 2 + (np.arange(rows) % 2)
        _, first, inverse = np.unique(
            points * 9 + candidate, return_index=True, return_inverse=True
        )
        xst = rng.normal(size=(len(first), XST))[inverse]
        args = (users, cities, batch, long_ids, short_ids, candidate, xst)
        pec = PreferenceExtraction(DIM, HEADS, rng)
        _check(pec, *args, (first, inverse),
               call=lambda m, *a: m.aware_query(*a))
        view = frozen_view(pec)
        distinct = view.aware_query(*args, (first, inverse))
        assert distinct.shape[0] == len(first)
        np.testing.assert_array_equal(
            distinct[inverse], view.aware_query(*args)
        )


# ----------------------------------------------------------------------
# Block input: Linear(blocks) is Linear(concat(gathered blocks))
# ----------------------------------------------------------------------
def _block_layouts():
    """``rows_o, rows_d`` per case: the row maps of the two side blocks
    (``None``: the block has one row per output row already)."""
    multi = np.array([0, 0, 1, 1, 2, 3, 3])  # requests of 4, 0 and 3 rows
    return {
        "one-candidate": (np.array([0]), np.array([0])),
        "one-shared-origin": (np.zeros(5, dtype=np.int64), np.arange(5)),
        "every-row-distinct": (np.arange(4), np.arange(4)),
        "multi-request": (multi, np.array([0, 1, 0, 1, 2, 3, 4])),
        "training": (None, None),
        # Each side block nested as PEC builds it: two columns shared by
        # the rows of one point (two points here), the rest per row.
        "point-columns": (multi, np.array([0, 1, 0, 1, 2, 3, 4])),
    }


BLOCK_LAYOUTS = _block_layouts()
WIDTHS = (5, 4, 3)  # q^O, q^D, pair


def _blocks(layout, rng, wrap=lambda x: x):
    rows_o, rows_d = BLOCK_LAYOUTS[layout]
    size = 6 if rows_o is None else len(rows_o)

    def count(rows):
        return size if rows is None else int(rows.max()) + 1

    def side(rows, width):
        if layout != "point-columns":
            return wrap(rng.normal(size=(count(rows), width)))
        return [(wrap(rng.normal(size=(2, 2))), np.arange(count(rows)) % 2),
                (wrap(rng.normal(size=(count(rows), width - 2))), None)]

    return [
        (side(rows_o, WIDTHS[0]), rows_o),
        (side(rows_d, WIDTHS[1]), rows_d),
        (wrap(rng.normal(size=(size, WIDTHS[2]))), None),
    ]


def _leaves(blocks):
    """Every input array or Tensor of (nested) blocks."""
    return [leaf for x, _ in blocks
            for leaf in (_leaves(x) if isinstance(x, list) else [x])]


def _wrapped(blocks):
    """The blocks with every input a Tensor."""
    return [(_wrapped(x) if isinstance(x, list) else Tensor(x), rows)
            for x, rows in blocks]


def _gathered_concat(blocks):
    """What the blocks stand for, materialised (the pre-block-input path)."""
    from repro.tensor import concat

    def gathered(x, rows):
        x = _gathered_concat(x) if isinstance(x, list) else x
        return x if rows is None else x[rows]

    return concat([gathered(x, rows) for x, rows in blocks], axis=-1)


def _grads(module, blocks, run):
    """Output and every parameter / input gradient of ``sum(run(...))``."""
    module.zero_grad()
    out = run(module, blocks)
    out = out if isinstance(out, list) else [out]
    # Unequal weights: a gradient routed to the wrong task would show.
    sum(o.sum() * (i + 1.0) for i, o in enumerate(out)).backward()
    return (
        [o.data for o in out],
        [p.grad for p in module.parameters()]
        + [x.grad for x in _leaves(blocks)],
    )


BLOCK_MODULES = {
    "linear": lambda: Linear(sum(WIDTHS), 4, _rng()),
    "linear-no-bias": lambda: Linear(sum(WIDTHS), 4, _rng(), bias=False),
    "mlp": lambda: MLP(sum(WIDTHS), [5], 2, _rng(), final_activation=F.relu),
    "mmoe": lambda: MMoEJointLearning(sum(WIDTHS), expert_dim=6,
                                      tower_hidden=4, rng=_rng()),
}


class TestBlockInput:
    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    @pytest.mark.parametrize("name", BLOCK_MODULES)
    def test_equals_concat_in_value_and_every_gradient(self, name, layout):
        module = BLOCK_MODULES[name]()
        wrap = lambda x: Tensor(x, requires_grad=True)
        blocks = _blocks(layout, _rng(), wrap)
        got = _grads(module, blocks, lambda m, b: m(b))
        for x in _leaves(blocks):
            x.grad = None
        expected = _grads(module, blocks, lambda m, b: m(_gathered_concat(b)))
        for g, e in zip(got[0] + got[1], expected[0] + expected[1]):
            assert g is not None
            np.testing.assert_allclose(g, e, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
    @pytest.mark.parametrize("name", BLOCK_MODULES)
    def test_array_path_is_the_tensor_path(self, name, layout):
        module = BLOCK_MODULES[name]()
        blocks = _blocks(layout, _rng())
        with no_grad():
            expected = module(_wrapped(blocks))
        _assert_same(frozen_view(module)(blocks), expected)

    def test_an_array_block_beside_tensor_blocks(self):
        # pair_features reaches the head as a plain array in training too.
        linear = Linear(sum(WIDTHS), 4, _rng())
        (q_o, _), (q_d, _), (pair, _) = _blocks("training", _rng())
        mixed = linear([(Tensor(q_o), None), (Tensor(q_d), None), (pair, None)])
        np.testing.assert_array_equal(
            mixed.data,
            frozen_view(linear)([(q_o, None), (q_d, None), (pair, None)]),
        )

    def test_blocks_must_cover_the_input_width(self):
        linear = Linear(sum(WIDTHS), 4, _rng())
        with pytest.raises(ValueError, match="columns wide"):
            frozen_view(linear)(_blocks("training", _rng())[:2])


# ----------------------------------------------------------------------
# The array path never hands back a Tensor
# ----------------------------------------------------------------------
_X = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
_MASK = _lengths_mask([4, 2, 0], 4)

ARRAY_OPS = {
    "relu": lambda x: F.relu(x),
    "sigmoid": lambda x: F.sigmoid(x),
    "tanh": lambda x: F.tanh(x),
    "softmax": lambda x: F.softmax(x, axis=-1),
    "masked_softmax": lambda x: F.masked_softmax(x, _MASK),
    "expand_dims": lambda x: F.expand_dims(x, 1),
    "masked_mean_pool": lambda x: F.masked_mean_pool(
        F.expand_dims(x, -1), _MASK
    ),
    "attention": lambda x: F.multi_head_attention(
        x.reshape(3, 2, 2), _MASK[:, :2],
        np.linspace(-1.0, 1.0, 12).reshape(2, 6),
        np.linspace(1.0, -1.0, 4).reshape(2, 2), 2,
    ),
}


class TestNoSilentTensor:
    @pytest.mark.parametrize("name", ARRAY_OPS)
    def test_array_in_array_out_and_equal_to_the_tensor_op(self, name):
        op = ARRAY_OPS[name]
        got = op(_X)
        assert type(got) is np.ndarray and got.dtype == np.float64
        with no_grad():
            expected = op(Tensor(_X))
        assert isinstance(expected, Tensor)
        np.testing.assert_array_equal(got, expected.data)

    @pytest.mark.parametrize("name", ["relu", "sigmoid", "tanh"])
    def test_numpy_scalar_is_not_a_tensor_either(self, name):
        got = ARRAY_OPS[name](np.float64(-0.3))
        assert not isinstance(got, Tensor)
        assert float(got) == float(ARRAY_OPS[name](Tensor(-0.3)).data)

    def test_view_of_a_tanh_mlp_returns_float64_array(self):
        mlp = MLP(4, [3], 2, _rng(), activation=F.tanh)
        out = frozen_view(mlp)(_X)
        assert type(out) is np.ndarray and out.dtype == np.float64


# ----------------------------------------------------------------------
# A view is a capture: rebind-only mutation leaves it on the old weights
# ----------------------------------------------------------------------
class TestViewKeepsCapturedWeights:
    def test_module_view_after_an_optimizer_step(self):
        mlp = MLP(4, [3], 1, _rng(), final_activation=F.sigmoid)
        view = frozen_view(mlp)
        assert type(view) is MLP and type(view.layers[0]) is Linear
        held = mlp.layers[0].weight.data
        assert view.layers[0].weight is held
        before = view(_X)

        mlp(Tensor(_X)).sum().backward()
        Adam(mlp.parameters(), lr=0.1).step()

        assert mlp.layers[0].weight.data is not held
        np.testing.assert_array_equal(view(_X), before)
        assert not np.array_equal(frozen_view(mlp)(_X), before)

    @pytest.mark.parametrize("mutate", ["adam", "load_state_dict"])
    def test_frozen_state_scores_the_old_weights(self, od_dataset, mutate):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG)
        batch = next(od_dataset.iter_batches("train", 16, shuffle=False))
        state = model.frozen_state()
        assert type(state.model) is type(model)
        before = state.score_pairs(batch)
        np.testing.assert_array_equal(before, model.score_pairs(batch))

        if mutate == "adam":
            model.loss(batch).backward()
            Adam(model.parameters(), lr=0.05).step()
        else:
            model.load_state_dict({
                name: value + 0.05
                for name, value in model.state_dict().items()
            })

        np.testing.assert_array_equal(state.score_pairs(batch), before)
        assert not np.array_equal(model.score_pairs(batch), before)


# ----------------------------------------------------------------------
# Serving's HSGC tables: Algorithm 1 on a view of the components
# ----------------------------------------------------------------------
class TestEmbeddingTables:
    @pytest.mark.parametrize("variant", ["ODNET", "ODNET-G"])
    @pytest.mark.parametrize("users", [None, np.array([5, 0, 5, 17])],
                             ids=["all", "some"])
    def test_the_bits_of_the_tensor_propagation(self, od_dataset, variant,
                                                users):
        model = build_odnet(od_dataset, TINY_MODEL_CONFIG, variant=variant)
        tables = model.embedding_tables(users)
        with no_grad():
            expected = model._node_tables(users)
        params = {id(p) for p in model.parameters()}
        for side in ("o", "d"):
            for got, want in zip(tables[side], expected[side]):
                assert type(got) is Tensor and not got.requires_grad
                assert id(got) not in params     # a capture, not the weight
                np.testing.assert_array_equal(got.data, want.data)
