"""ODNET — the full Origin-Destination ranking network (Figure 3).

Two aware sides, each an HSGC + PEC pipeline, feed the MMoE joint-learning
head.  Training minimises the joint loss of Eq. 8 with a *learnable*
trade-off ``theta`` (parameterised through a sigmoid so it stays in
(0, 1)); serving scores candidate OD pairs with Eq. 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import ODBatch, ODDataset, PAIR_DIM
from ..graph import Metapath, NeighborTable, build_neighbor_table
from ..nn import Parameter
from ..tensor import Tensor, as_array, functional as F, no_grad
from .base import NeuralRanker
from .fused import FrozenScoringState, frozen_view, fused_score_pairs
from .hsgc import HSGComponent
from .mmoe import MMoEJointLearning
from .pec import PreferenceExtraction

__all__ = ["ODNETConfig", "ODNET", "build_odnet"]


@dataclass(frozen=True)
class ODNETConfig:
    """Hyper-parameters of ODNET.

    Paper settings: ``num_heads=4`` (Fig. 6(a) peak), ``depth=2`` (Fig. 6(b)
    knee), neighbour cap 5 (§V-A.5).  ``use_graph=False`` yields the
    ODNET-G variant of the ablation study.
    """

    dim: int = 32
    num_heads: int = 4
    depth: int = 2
    max_neighbors: int = 5
    expert_dim: int = 128
    tower_hidden: int = 64
    num_experts: int = 3
    use_graph: bool = True
    #: ablation switch: False removes the Eq. 2 inverse-distance weights
    #: from the city-branch attention (Eq. 1 degrades to plain dot-product)
    use_spatial_weights: bool = True
    #: strength of the centering prior on the learnable theta of Eq. 8.
    #: A plain learnable convex weight degenerates (it down-weights the
    #: harder task to zero); the quadratic prior keeps theta near 0.5
    #: unless the task losses genuinely diverge.
    theta_prior: float = 1.0
    seed: int = 0


class ODNET(NeuralRanker):
    """The full multi-task ODNET model."""

    name = "ODNET"

    def __init__(self, dataset: ODDataset, config: ODNETConfig | None = None):
        super().__init__()
        self.config = config or ODNETConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        origin_table: NeighborTable | None = None
        dest_table: NeighborTable | None = None
        spatial = None
        depth = cfg.depth if cfg.use_graph else 0
        if depth > 0:
            hsg = dataset.hsg
            origin_table = build_neighbor_table(
                hsg, Metapath.origin_aware(), cfg.max_neighbors
            )
            dest_table = build_neighbor_table(
                hsg, Metapath.destination_aware(), cfg.max_neighbors
            )
            spatial = hsg.spatial_weights if cfg.use_spatial_weights else None

        self.origin_hsgc = HSGComponent(
            dataset.num_users, dataset.num_cities, cfg.dim,
            origin_table, spatial, depth, rng,
        )
        self.dest_hsgc = HSGComponent(
            dataset.num_users, dataset.num_cities, cfg.dim,
            dest_table, spatial, depth, rng,
        )
        self.origin_pec = PreferenceExtraction(cfg.dim, cfg.num_heads, rng)
        self.dest_pec = PreferenceExtraction(cfg.dim, cfg.num_heads, rng)

        query_dim = PreferenceExtraction.query_dim(cfg.dim, dataset.xst_dim)
        # q⊕ additionally carries PAIR_DIM joint route/return statistics —
        # evidence only a joint architecture can use (see repro.data.dataset).
        self.joint = MMoEJointLearning(
            input_dim=2 * query_dim + PAIR_DIM,
            expert_dim=cfg.expert_dim,
            tower_hidden=cfg.tower_hidden,
            rng=rng,
            num_experts=cfg.num_experts,
        )
        # Eq. 8's learnable theta, kept in (0, 1) via sigmoid; initialised
        # at 0 so theta starts at 0.5 (tasks equally weighted).
        self.theta_logit = Parameter(np.zeros(()), name="theta_logit")

    # ------------------------------------------------------------------
    @property
    def theta(self) -> float:
        """Current value of the loss/serving trade-off theta."""
        return float(F.sigmoid(as_array(self.theta_logit)))

    def _node_tables(self, users=None) -> dict[str, tuple[Tensor, Tensor]]:
        """Algorithm 1 per aware side, for ``users`` (``None``: all)."""
        return {
            "o": self.origin_hsgc.node_embeddings(users),
            "d": self.dest_hsgc.node_embeddings(users),
        }

    def _joint_query(
        self,
        batch: ODBatch,
        tables: dict[str, tuple[Tensor, Tensor]] | None = None,
    ) -> list:
        """q⊕ = concat(q^O, q^D, pair) as its column blocks ``(q, rows)``
        (:meth:`PreferenceExtraction.aware_block`): the joint head
        projects each side on its distinct rows only.

        ``tables`` supplies precomputed node-embedding tables indexed by
        user id (the serving fast path); without it Algorithm 1 runs for
        exactly the users this batch gathers, in train and in eval.
        """
        if tables is None:
            users, batch = batch.by_distinct_user()
            tables = self._node_tables(users)
        return [
            self.origin_pec.aware_block(*tables["o"], batch, "o"),
            self.dest_pec.aware_block(*tables["d"], batch, "d"),
            (batch.pair_features, None),
        ]

    def forward(
        self,
        batch: ODBatch,
        tables: dict[str, tuple[Tensor, Tensor]] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Return (p^O, p^D) probability tensors for a batch."""
        p_o, p_d = self.joint(self._joint_query(batch, tables=tables))
        return p_o, p_d

    # ------------------------------------------------------------------
    def embedding_tables(
        self, users=None
    ) -> dict[str, tuple[Tensor, Tensor]]:
        """Materialise both HSGC propagations once (frozen-graph serving).

        Runs Algorithm 1 for the origin-aware and destination-aware
        components on a :func:`~repro.core.fused.frozen_view` of their
        weights — the same code on plain arrays, so no tape and no Tensor
        per op, and the same bits — and returns ``{"o": (users, cities),
        "d": (users, cities)}`` as Tensors: the tables :meth:`score_pairs`
        gathers from when passed back via ``tables``; ``users`` narrows
        the user tables to those ids' rows (``None``: all).  The tables
        hold the arrays bound now, so they stay valid until the next
        weight mutation (tracked by :attr:`Module.param_version`);
        :class:`repro.perf.InferenceSession` owns that invalidation.
        """
        components = frozen_view([self.origin_hsgc, self.dest_hsgc])
        return {
            side: tuple(Tensor(table) for table in hsgc.node_embeddings(users))
            for side, hsgc in zip(("o", "d"), components)
        }

    def frozen_state(
        self, version: int | None = None, users=None
    ) -> FrozenScoringState:
        """Capture what serving reads — this model as a
        :func:`~repro.core.fused.frozen_view` over the arrays bound right
        now, theta, plus freshly built tables (of ``users``; ``None``:
        all) — as one immutable object that stays valid while the live
        model trains or reloads (see :mod:`repro.core.fused`).
        ``version`` tags it with the caller's ``param_version`` reading."""
        return FrozenScoringState(
            frozen_view(self), self.theta, self.embedding_tables(users),
            version,
        )

    def freeze(self):
        """Return a :class:`repro.perf.InferenceSession` over this model."""
        from ..perf import InferenceSession  # local import avoids cycle

        return InferenceSession(self)

    # ------------------------------------------------------------------
    def loss(self, batch: ODBatch) -> Tensor:
        """Joint loss of Eq. 8: theta*L_O + (1-theta)*L_D (Eqs. 9-10)."""
        p_o, p_d = self.forward(batch)
        loss_o = F.binary_cross_entropy(p_o, batch.label_o)
        loss_d = F.binary_cross_entropy(p_d, batch.label_d)
        theta = self.theta_logit.sigmoid()
        joint = theta * loss_o + (1.0 - theta) * loss_d
        if self.config.theta_prior > 0:
            joint = joint + self.config.theta_prior * (theta - 0.5) ** 2
        return joint

    def score_pairs(
        self,
        batch: ODBatch,
        tables: dict[str, tuple[Tensor, Tensor]] | None = None,
    ) -> np.ndarray:
        """Serving score of Eq. 11: theta*p^O + (1-theta)*p^D.

        Both the cached and uncached paths run :meth:`forward` itself
        on a frozen view of this model (:mod:`repro.core.fused`): plain
        arrays in, plain arrays out, no autograd graph at serving time.
        With ``tables`` (from :meth:`embedding_tables`) the HSGC
        propagation is skipped too.  Without, it runs for the batch's
        users only, and the scores are bit-identical to the Eq. 11 blend
        of the Tensor :meth:`predict` — the same code computed both — and
        within 1e-12 of the cached ones (see :mod:`repro.core.fused`).
        """
        return fused_score_pairs(self, batch, tables=tables)

    # ------------------------------------------------------------------
    def gate_mixtures(self, batch: ODBatch) -> np.ndarray:
        """Inspection helper: MMoE gate mixtures for a batch (tasks, B, E)."""
        with self.eval_mode(), no_grad():
            return self.joint.gate_mixtures(self._joint_query(batch))


def build_odnet(
    dataset: ODDataset,
    config: ODNETConfig | None = None,
    variant: str = "ODNET",
) -> ODNET:
    """Factory for ODNET and its graph-less variant.

    ``variant='ODNET'`` builds the full model; ``variant='ODNET-G'`` removes
    the HSGC propagation (plain embedding tables), matching Section V-A.4.
    """
    config = config or ODNETConfig()
    if variant == "ODNET":
        model = ODNET(dataset, config)
    elif variant == "ODNET-G":
        from dataclasses import replace

        model = ODNET(dataset, replace(config, use_graph=False))
        model.name = "ODNET-G"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return model
