"""Single-task ODNET variants: STL+G and STL-G (Section V-A.4).

``STL+G`` keeps the HSGC and PEC of ODNET but learns O and D with two
*separate* single-task networks; the recommended OD pair combines their
independent scores.  ``STL-G`` additionally removes the HSGC (plain
embedding tables).  Comparing ODNET vs STL+G isolates the contribution of
the joint-learning component; STL+G vs STL-G isolates the HSGC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import ODBatch, ODDataset
from ..graph import Metapath, build_neighbor_table
from ..nn import MLP
from ..tensor import Tensor, functional as F
from .base import NeuralRanker
from .hsgc import HSGComponent
from .odnet import ODNETConfig
from .pec import PreferenceExtraction

__all__ = ["SingleTaskNetwork", "STLRanker", "build_stl"]


class SingleTaskNetwork(NeuralRanker):
    """One aware side of ODNET with a plain sigmoid tower (no MMoE).

    ``side='o'`` predicts origins from the departure metapath; ``side='d'``
    predicts destinations from the arrive metapath.
    """

    def __init__(
        self,
        dataset: ODDataset,
        side: str,
        config: ODNETConfig,
    ):
        super().__init__()
        if side not in ("o", "d"):
            raise ValueError(f"side must be 'o' or 'd', got {side!r}")
        self.side = side
        self.config = config
        rng = np.random.default_rng(config.seed + (0 if side == "o" else 1))

        table = None
        spatial = None
        depth = config.depth if config.use_graph else 0
        if depth > 0:
            hsg = dataset.hsg
            metapath = (
                Metapath.origin_aware() if side == "o"
                else Metapath.destination_aware()
            )
            table = build_neighbor_table(hsg, metapath, config.max_neighbors)
            spatial = (
                hsg.spatial_weights if config.use_spatial_weights else None
            )

        self.hsgc = HSGComponent(
            dataset.num_users, dataset.num_cities, config.dim,
            table, spatial, depth, rng,
        )
        self.pec = PreferenceExtraction(config.dim, config.num_heads, rng)
        query_dim = PreferenceExtraction.query_dim(config.dim, dataset.xst_dim)
        self.tower = MLP(
            query_dim, [config.tower_hidden], 1, rng,
            final_activation=F.sigmoid,
        )

    def probability(self, batch: ODBatch) -> Tensor:
        users, batch = batch.by_distinct_user()
        users, cities = self.hsgc.node_embeddings(users)
        query, rows = self.pec.aware_block(users, cities, batch, self.side)
        p = self.tower(query).squeeze(-1)
        return p if rows is None else p[rows]

    def forward(self, batch: ODBatch) -> tuple[Tensor, Tensor]:
        p = self.probability(batch)
        return p, p

    def loss(self, batch: ODBatch) -> Tensor:
        labels = batch.label_o if self.side == "o" else batch.label_d
        return F.binary_cross_entropy(self.probability(batch), labels)


class STLRanker(NeuralRanker):
    """A pair of single-task networks presented as one ranker.

    In OD mode both sides are trained and the pair score is the equal
    blend of the two independent probabilities (the paper's STL variants
    concatenate the separately-learned best O and best D; for candidate
    ranking this corresponds to an unweighted combination).  In LBSN mode
    (``dataset.od_mode=False``) only the destination side is trained.
    """

    def __init__(self, dataset: ODDataset, config: ODNETConfig,
                 name: str = "STL+G"):
        super().__init__()
        self.name = name
        self.config = config
        self._od_mode = dataset.od_mode
        self.dest_net = SingleTaskNetwork(dataset, "d", config)
        self.origin_net = (
            SingleTaskNetwork(dataset, "o", config) if self._od_mode else None
        )

    def forward(self, batch: ODBatch) -> tuple[Tensor, Tensor]:
        p_d = self.dest_net.probability(batch)
        if self.origin_net is None:
            return p_d, p_d
        return self.origin_net.probability(batch), p_d

    def loss(self, batch: ODBatch) -> Tensor:
        loss_d = F.binary_cross_entropy(
            self.dest_net.probability(batch), batch.label_d
        )
        if self.origin_net is None:
            return loss_d
        loss_o = F.binary_cross_entropy(
            self.origin_net.probability(batch), batch.label_o
        )
        # Single-task learning: independent losses, fixed equal weights.
        return 0.5 * loss_o + 0.5 * loss_d

    def score_pairs(self, batch: ODBatch) -> np.ndarray:
        p_o, p_d = self.predict(batch)
        if self.origin_net is None:
            return p_d
        return 0.5 * p_o + 0.5 * p_d


def build_stl(
    dataset: ODDataset,
    config: ODNETConfig | None = None,
    variant: str = "STL+G",
) -> STLRanker:
    """Factory for the STL variants of Section V-A.4."""
    from dataclasses import replace

    config = config or ODNETConfig()
    if variant == "STL+G":
        return STLRanker(dataset, replace(config, use_graph=True), name="STL+G")
    if variant == "STL-G":
        return STLRanker(dataset, replace(config, use_graph=False), name="STL-G")
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class _VariantDoc:
    """Documentation table of ODNET variants (Section V-A.4)."""

    name: str
    graph: bool
    joint: bool


VARIANTS = (
    _VariantDoc("ODNET", graph=True, joint=True),
    _VariantDoc("ODNET-G", graph=False, joint=True),
    _VariantDoc("STL+G", graph=True, joint=False),
    _VariantDoc("STL-G", graph=False, joint=False),
)
