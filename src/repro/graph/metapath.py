"""Metapaths and padded neighbour tables for vectorised HSGC propagation.

Definition 2 of the paper defines a metapath as an alternating user/city
path whose edges all share one type; rho_1 uses departure edges (the
origin-aware metapath) and rho_2 uses arrive edges (destination-aware).
Following the setting borrowed from Fan et al. (KDD 2019) in Section
V-A.5, the cardinality of a node's neighbourhood is capped at
``max_neighbors = 5``: we keep the most frequent interaction partners,
breaking ties by id for determinism.

:class:`NeighborTable` materialises the capped neighbourhoods as dense
``(num_nodes, max_neighbors)`` index arrays plus boolean masks so that
Algorithm 1 can run as a handful of numpy gathers instead of per-node
python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hsg import EdgeType, HeterogeneousSpatialGraph

__all__ = ["Metapath", "NeighborTable", "build_neighbor_table", "DEFAULT_MAX_NEIGHBORS"]

DEFAULT_MAX_NEIGHBORS = 5
#: users per dense block of the path-count GEMM.  One users x cities
#: matrix (4.8 MB at 3 000 x 200) left a serving worker's resident set
#: ~3 MB larger after it was freed; a block stays under 0.5 MB.
_USER_BLOCK = 256


@dataclass(frozen=True)
class Metapath:
    """A metapath rho identified by its single edge type (Definition 2)."""

    edge_type: EdgeType

    @property
    def name(self) -> str:
        return "rho_1" if self.edge_type is EdgeType.DEPARTURE else "rho_2"

    @classmethod
    def origin_aware(cls) -> "Metapath":
        """rho_1: user-city alternation over departure edges."""
        return cls(EdgeType.DEPARTURE)

    @classmethod
    def destination_aware(cls) -> "Metapath":
        """rho_2: user-city alternation over arrive edges."""
        return cls(EdgeType.ARRIVE)


@dataclass
class NeighborTable:
    """Dense capped neighbourhoods for every user and city node.

    Attributes
    ----------
    user_neighbors / user_mask:
        ``(num_users, max_neighbors)`` city indices and validity mask for
        the 1st-order metapath neighbour cities of each user.
    city_neighbors / city_mask:
        Same for city nodes (city -> user -> city metapath step).
    """

    metapath: Metapath
    user_neighbors: np.ndarray
    user_mask: np.ndarray
    city_neighbors: np.ndarray
    city_mask: np.ndarray

    @property
    def max_neighbors(self) -> int:
        return self.user_neighbors.shape[1]


def _top_neighbors(
    nodes: np.ndarray,
    cities: np.ndarray,
    counts: np.ndarray,
    num_nodes: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the ``cap`` most frequent of its ``(city, count > 0)``
    entries, ties broken by ascending id; padding indexes city 0 and is
    masked."""
    order = np.lexsort((cities, -counts, nodes))
    nodes, cities = nodes[order], cities[order]
    rank = np.arange(nodes.size) - np.searchsorted(nodes, nodes)
    kept = rank < cap
    neighbors = np.zeros((num_nodes, cap), dtype=np.int64)
    mask = np.zeros((num_nodes, cap), dtype=bool)
    neighbors[nodes[kept], rank[kept]] = cities[kept]
    mask[nodes[kept], rank[kept]] = True
    return neighbors, mask


def build_neighbor_table(
    graph: HeterogeneousSpatialGraph,
    metapath: Metapath,
    max_neighbors: int = DEFAULT_MAX_NEIGHBORS,
) -> NeighborTable:
    """Materialise capped 1st-order neighbour cities for all nodes.

    A user's neighbours are its interaction counts; a city's are the
    city -> user -> city path multiplicities, ``countsᵀ @ counts`` summed
    over blocks of users (exact: integer sums stay far below 2**53) with
    the city itself removed.  Padding entries index city 0 but are masked
    out, so downstream attention (Eq. 1) never reads them.
    """
    if max_neighbors <= 0:
        raise ValueError(f"max_neighbors must be positive, got {max_neighbors}")
    users, cities, counts = graph.interactions(metapath.edge_type)
    user_neighbors, user_mask = _top_neighbors(
        users, cities, counts, graph.num_users, max_neighbors
    )
    paths = np.zeros((graph.num_cities, graph.num_cities))
    starts = range(0, graph.num_users, _USER_BLOCK)
    bounds = np.searchsorted(users, [*starts, graph.num_users])
    for start, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
        block = np.zeros((_USER_BLOCK, graph.num_cities))
        block[users[lo:hi] - start, cities[lo:hi]] = counts[lo:hi]
        paths += block.T @ block
    np.fill_diagonal(paths, 0.0)
    sources, targets = np.nonzero(paths)
    city_neighbors, city_mask = _top_neighbors(
        sources, targets, paths[sources, targets], graph.num_cities,
        max_neighbors,
    )
    return NeighborTable(
        metapath=metapath,
        user_neighbors=user_neighbors,
        user_mask=user_mask,
        city_neighbors=city_neighbors,
        city_mask=city_mask,
    )
