"""Fused frozen-table scoring kernel — the batch plane's model layer.

``fused_score_pairs`` computes ODNET's Eq. 11 serving score as one plain
numpy pass (gather → PEC → MMoE → sigmoid → blend) with **no Tensor
autograd graph**: inference needs no tape, and skipping node allocation,
backward-closure capture and tape bookkeeping roughly halves the cached
forward cost.

Bit-exactness contract
----------------------
Every helper here mirrors its autograd twin *op for op* — same numerical
forms (the stable sigmoid, the shift-by-max softmax, the ``-1e30``
masked fill, mean-pool as multiply-by-reciprocal), same reshape/
transpose orders, same reduction axes — so the kernel's output is
**bit-identical** to ``theta * p_o + (1 - theta) * p_d`` computed through
:meth:`repro.core.odnet.ODNET.predict`, and the cached path (tables from
:class:`repro.perf.InferenceSession`) is bit-identical to the uncached
one (fresh ``embedding_tables()``); both claims are regression-tested.
When the batch carries a segment layout the point-deduplication mirrors
:meth:`repro.core.pec.PreferenceExtraction.aware_query` exactly.

Weights view
------------
The kernel reads ``model.origin_pec`` / ``dest_pec`` / ``joint`` /
``theta`` and, below those, ``<parameter>.data``; ``model`` is the live
:class:`~repro.core.odnet.ODNET` or a :class:`FrozenScoringState` with
the same attributes over the arrays bound at capture time — one kernel,
two views.  Every sanctioned weight mutation (``Adam.step``,
``SGD.step``, ``Module.load_state_dict``, the PS write-back) *rebinds*
``param.data`` and never writes into the old array, so a capture is
immutable without a copy and scores as one version whatever the live
model does meanwhile.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np

from ..nn import Module, Parameter
from ..tensor import functional as F

__all__ = ["FrozenScoringState", "frozen_view", "fused_score_pairs"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Mirrors Tensor.sigmoid: one exp of a non-positive argument.
    exp_neg = np.exp(-np.abs(np.clip(x, -500, 500)))
    return np.where(x >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))


def _relu(x: np.ndarray) -> np.ndarray:
    # Mirrors Tensor.relu: multiply by the boolean mask.
    return x * (x > 0)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _masked_softmax(
    scores: np.ndarray, mask: np.ndarray, axis: int = -1
) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    filled = np.where(~mask, -1e30, scores)
    weights = _softmax(filled, axis=axis)
    any_valid = mask.any(axis=axis, keepdims=True)
    return weights * np.asarray(any_valid, dtype=np.float64)


def _masked_mean_pool(
    x: np.ndarray, mask: np.ndarray, axis: int = 1
) -> np.ndarray:
    mask = np.asarray(mask, dtype=np.float64)
    expanded = np.expand_dims(mask, -1)
    total = (x * expanded).sum(axis=axis)
    counts = np.maximum(expanded.sum(axis=axis), 1.0)
    return total * (1.0 / counts)


def _mha(mha, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Multi-head self-attention (repro.nn.MultiHeadAttention)."""
    batch, length, _ = x.shape
    heads, head_dim = mha.num_heads, mha.head_dim

    def split(projected: np.ndarray) -> np.ndarray:
        return projected.reshape(
            batch, length, heads, head_dim
        ).transpose(0, 2, 1, 3)

    q = split(x @ mha.w_q.data)
    k = split(x @ mha.w_k.data)
    v = split(x @ mha.w_v.data)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    attn_mask = np.asarray(mask, dtype=bool)[:, None, None, :]
    weights = _masked_softmax(scores, attn_mask, axis=-1)
    out = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, length, mha.dim)
    return out @ mha.w_o.data


def _query_attention(
    qattn, query: np.ndarray, keys: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """PEC dot-product attention (repro.nn.QueryAttention)."""
    projected = query @ qattn.w_star.data
    scores = (keys * np.expand_dims(projected, 1)).sum(axis=-1)
    weights = _masked_softmax(scores, mask, axis=-1)
    return (keys * np.expand_dims(weights, -1)).sum(axis=1)


def _pec(
    pec, long_seq: np.ndarray, long_mask: np.ndarray,
    short_seq: np.ndarray, short_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """PreferenceExtraction.forward: returns ``(v_L, v_S)``."""
    length = long_seq.shape[1]
    positioned = long_seq + pec.positional.data[:length]
    encoded_long = _mha(pec.long_encoder, positioned, long_mask)
    encoded_short = _mha(pec.short_encoder, short_seq, short_mask)
    v_s = _masked_mean_pool(encoded_short, short_mask, axis=1)
    v_l = _query_attention(pec.history_attention, v_s, encoded_long, long_mask)
    return v_l, v_s


def _linear(linear, x: np.ndarray) -> np.ndarray:
    out = x @ linear.weight.data.transpose()
    if linear.bias is not None:
        out = out + linear.bias.data
    return out


def _activate(activation, x: np.ndarray) -> np.ndarray:
    if activation is F.relu:
        return _relu(x)
    if activation is F.sigmoid:
        return _sigmoid(x)
    raise NotImplementedError(
        f"fused kernel has no mirror for activation {activation!r}"
    )


def _mlp(mlp, x: np.ndarray) -> np.ndarray:
    for layer in mlp.layers[:-1]:
        x = _activate(mlp.activation, _linear(layer, x))
    x = _linear(mlp.layers[-1], x)
    if mlp.final_activation is not None:
        x = _activate(mlp.final_activation, x)
    return x


def _mmoe(joint, joint_query: np.ndarray) -> list[np.ndarray]:
    """MMoEJointLearning.forward on raw arrays."""
    expert_outputs = np.stack(
        [_mlp(expert, joint_query) for expert in joint.experts], axis=1
    )
    probabilities = []
    for gate, tower in zip(joint.gates, joint.towers):
        mixture = _softmax(_linear(gate, joint_query), axis=-1)
        mixed = (expert_outputs * np.expand_dims(mixture, -1)).sum(axis=1)
        probabilities.append(np.squeeze(_mlp(tower, mixed), -1))
    return probabilities


def _aware_query(
    pec, users: np.ndarray, cities: np.ndarray, batch,
    long_ids: np.ndarray, short_ids: np.ndarray,
    candidate: np.ndarray, xst: np.ndarray,
) -> np.ndarray:
    """PreferenceExtraction.aware_query on raw arrays (same dedup rule)."""
    first, rows = batch.first_rows, batch.point_rows
    if first is not None and first.shape[0] < rows.shape[0]:
        v_l, v_s = _pec(
            pec, cities[long_ids[first]], batch.long_mask[first],
            cities[short_ids[first]], batch.short_mask[first],
        )
        v_l = v_l[rows]
        v_s = v_s[rows]
        user_emb = users[batch.user_ids[first]][rows]
        current_emb = cities[batch.current_city[first]][rows]
    else:
        v_l, v_s = _pec(
            pec, cities[long_ids], batch.long_mask,
            cities[short_ids], batch.short_mask,
        )
        user_emb = users[batch.user_ids]
        current_emb = cities[batch.current_city]
    candidate_emb = cities[candidate]
    return np.concatenate(
        [
            v_l,
            v_s,
            user_emb,
            current_emb,
            candidate_emb,
            v_l * candidate_emb,
            v_s * candidate_emb,
            user_emb * candidate_emb,
            np.asarray(xst, dtype=np.float64),
        ],
        axis=-1,
    )


def _table(value) -> np.ndarray:
    # An ndarray's .data attribute is a memoryview, not the array —
    # unwrap .data only for Tensor-like wrappers.
    if isinstance(value, np.ndarray):
        return value
    return value.data if hasattr(value, "data") else np.asarray(value)


def frozen_view(value):
    """``value`` with every Parameter below it replaced by a holder of
    the array bound to its ``.data`` now; other attributes pass through."""
    if isinstance(value, Parameter):
        return types.SimpleNamespace(data=value.data)
    if isinstance(value, Module):
        return types.SimpleNamespace(**{
            name: frozen_view(child) for name, child in vars(value).items()
            if name not in ("_parameters", "_modules")
        })
    if isinstance(value, (list, tuple)):
        return [frozen_view(child) for child in value]
    return value


@dataclasses.dataclass(frozen=True)
class FrozenScoringState:
    """All that Eq. 11 scoring reads, as bound at capture time
    (:meth:`repro.core.odnet.ODNET.frozen_state`): the weights views the
    kernel walks, the tables, and the ``param_version`` they belong to
    (``None``: unknown or invalidated).  A session publishes one of
    these by reference; a reader that picked it up scores from it alone.
    """

    origin_pec: types.SimpleNamespace
    dest_pec: types.SimpleNamespace
    joint: types.SimpleNamespace
    theta: float
    tables: dict | None = None
    version: int | None = None

    def score_pairs(self, batch, tables=None) -> np.ndarray:
        return fused_score_pairs(self, batch, tables or self.tables)


def fused_score_pairs(model, batch, tables=None) -> np.ndarray:
    """Eq. 11 serving scores for an ODNET-family model, pure numpy.

    ``model`` is the live model or a :class:`FrozenScoringState` of it
    (see *Weights view* above).  ``tables`` is the
    ``embedding_tables()`` result (Tensor or ndarray pairs per side);
    ``None`` recomputes them — which is the *only*
    difference between the cached and uncached serving paths, and the
    tables are deterministic in the weights, hence bit-identical scores.
    """
    if tables is None:
        tables = model.embedding_tables()
    users_o, cities_o = (_table(t) for t in tables["o"])
    users_d, cities_d = (_table(t) for t in tables["d"])
    q_o = _aware_query(
        model.origin_pec, users_o, cities_o, batch,
        batch.long_origins, batch.short_origins,
        batch.candidate_origin, batch.xst_o,
    )
    q_d = _aware_query(
        model.dest_pec, users_d, cities_d, batch,
        batch.long_destinations, batch.short_destinations,
        batch.candidate_destination, batch.xst_d,
    )
    joint_query = np.concatenate(
        [q_o, q_d, np.asarray(batch.pair_features, dtype=np.float64)],
        axis=-1,
    )
    p_o, p_d = _mmoe(model.joint, joint_query)
    theta = model.theta
    return theta * p_o + (1.0 - theta) * p_d
