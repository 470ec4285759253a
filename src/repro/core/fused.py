"""Frozen scoring state — the batch plane's model layer.

Serving computes ODNET's Eq. 11 score (gather → PEC → MMoE → sigmoid →
blend) with **no Tensor autograd graph**: inference needs no tape, and
skipping node allocation, backward-closure capture and tape bookkeeping
roughly halves the cached forward cost.

One definition
--------------
There is no second implementation of Eqs. 3–11 here.  The modules'
``forward`` methods are written against operators both a Tensor and an
``ndarray`` have, plus the :mod:`repro.tensor.functional` leaf ops that
answer an array with an array through the same formula the Tensor method
uses.  :func:`frozen_view` turns the model into an instance of its own
class whose parameters *are* arrays, and scoring is that instance's
``forward`` on array tables followed by the Eq. 11 blend.  So the served
score is **bit-identical** to ``theta * p_o + (1 - theta) * p_d``
computed through :meth:`repro.core.odnet.ODNET.predict` by construction
— point-deduplication of a segment layout and a subclass's own branch
wiring included.  The cached path (all users' tables from
:class:`repro.perf.InferenceSession`) agrees with the uncached one
(``embedding_tables(users)`` for the batch's users only) to 1e-12, not
bitwise: a GEMM over a batch's user rows does not round like the same
rows inside the all-users GEMM.  Both claims are regression-tested.

Weights view
------------
A view holds the arrays bound to each ``param.data`` when it was taken.
Every sanctioned weight mutation (``Adam.step``, ``SGD.step``,
``Module.load_state_dict``, the PS write-back) *rebinds* ``param.data``
and never writes into the old array, so a capture is immutable without
a copy and scores as one version whatever the live model does
meanwhile.  HSGC (Eqs. 1–2) does not run per request: the tables are
built once per version by the live model's ``embedding_tables()``,
which propagates on a view of the HSGC components the same way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..nn import Module, Parameter
from ..tensor import as_array

__all__ = ["FrozenScoringState", "PointMemo", "frozen_view",
           "fused_score_pairs"]


def frozen_view(value):
    """``value`` with every Parameter below it replaced by the array
    bound to its ``.data`` now: a Module comes back as an instance of its
    own class (same ``forward``, nothing registered to train, its
    :meth:`~repro.nn.Module.on_frozen_view` run once), other attributes
    pass through."""
    if isinstance(value, Parameter):
        return value.data
    if isinstance(value, Module):
        view = object.__new__(type(value))
        vars(view).update(
            (name, frozen_view(child)) for name, child in vars(value).items()
            if name not in ("_parameters", "_modules")
        )
        view.on_frozen_view()
        return view
    if isinstance(value, (list, tuple)):
        return [frozen_view(child) for child in value]
    return value


class PointMemo(dict):
    """One aware side's ``encoded-store row -> (stamp, [v_L, v_S])``: PEC's
    output for the point written there under that stamp.  One entry per
    row (the store's cap bounds it); ``get`` / set under the GIL on values
    never mutated, so no lock — a lost count costs a diagnostic only."""

    hits = misses = 0


@dataclasses.dataclass(frozen=True)
class FrozenScoringState:
    """All that Eq. 11 scoring reads, as bound at capture time
    (:meth:`repro.core.odnet.ODNET.frozen_state`): the model as a
    :func:`frozen_view`, theta, the tables, and the ``param_version``
    they belong to (``None``: unknown or invalidated).  A session
    publishes one of these by reference; a reader that picked it up
    scores from it alone.

    ``memo``: Eqs. 3-5 read a point's sequences, the city table and PEC's
    weights, not the candidates, so one state encodes a point once.  Born
    empty with the state and dead with it; consulted only when a keyed
    batch is scored from the state's own ``tables``.  Not a response
    cache: q^X, the joint head and the blend run on every call.  What
    reads no weights — candidates, side layouts, x_st — is remembered
    apart, per decision point (:class:`repro.data.dataset.PointPlans`).
    """

    model: Module
    theta: float
    tables: dict | None = None
    version: int | None = None
    memo: dict = dataclasses.field(
        default_factory=lambda: {"o": PointMemo(), "d": PointMemo()},
        compare=False, repr=False,
    )

    def score_pairs(self, batch, tables=None) -> np.ndarray:
        if tables is None:
            tables = self.tables
            if batch.point_keys is not None:
                batch = dataclasses.replace(batch, point_memo=self.memo)
        p_o, p_d = self.model.forward(batch, tables={
            side: tuple(as_array(table) for table in tables[side])
            for side in ("o", "d")
        })
        return self.theta * p_o + (1.0 - self.theta) * p_d


def fused_score_pairs(model, batch, tables=None) -> np.ndarray:
    """Eq. 11 serving scores for an ODNET-family model, no tape.

    ``model`` is the live model or a :class:`FrozenScoringState` of it.
    ``tables`` is the ``embedding_tables()`` result (Tensor or ndarray
    pairs per side); ``None`` propagates the batch's users only — which
    is the *only* difference between the cached and uncached serving
    paths (scores within 1e-12, see the module docstring).
    """
    if not isinstance(model, FrozenScoringState):
        if tables is None:
            users, batch = batch.by_distinct_user()
            tables = model.embedding_tables(users)
        model = FrozenScoringState(frozen_view(model), model.theta)
    return model.score_pairs(batch, tables)
