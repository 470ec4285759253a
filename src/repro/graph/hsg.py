"""Heterogeneous Spatial Graph (Definition 1 of the paper).

``HSG(V, E, D)`` has two node types (``user``, ``city``), two edge types
(``departure``, ``arrive``) recording historical user-city interactions,
and a city-city distance matrix.  The graph is the substrate of the HSGC
component: metapath-based neighbour cities (Definition 3) drive the
exploration of preferable origins and destinations.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .distance import l2_distance_matrix, spatial_weights

__all__ = ["EdgeType", "NodeType", "HeterogeneousSpatialGraph"]


class NodeType(str, enum.Enum):
    """Node type mapping phi: V -> {user, city}."""

    USER = "user"
    CITY = "city"


class EdgeType(str, enum.Enum):
    """Edge type mapping psi: E -> {departure, arrive}.

    A ``departure`` edge connects a user to a city they departed from (an
    origin); an ``arrive`` edge connects a user to a city they arrived at
    (a destination).  Metapath rho_1 alternates user/city nodes via
    departure edges, rho_2 via arrive edges (Figure 2 of the paper).
    """

    DEPARTURE = "departure"
    ARRIVE = "arrive"


class HeterogeneousSpatialGraph:
    """The HSG: users, cities with coordinates, and typed interaction edges.

    Parameters
    ----------
    num_users:
        Number of user-type nodes (ids ``0..num_users-1``).
    city_coordinates:
        ``(num_cities, 2)`` array of (longitude, latitude) per city node.
    distance_matrix:
        Optional precomputed city-city distances; defaults to the L2 matrix
        of Definition 1.
    """

    def __init__(
        self,
        num_users: int,
        city_coordinates: np.ndarray,
        distance_matrix: np.ndarray | None = None,
    ):
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        self.num_users = int(num_users)
        self.city_coordinates = np.asarray(city_coordinates, dtype=np.float64)
        if self.city_coordinates.ndim != 2 or self.city_coordinates.shape[1] != 2:
            raise ValueError(
                f"city_coordinates must be (n, 2), got {self.city_coordinates.shape}"
            )
        self.num_cities = self.city_coordinates.shape[0]
        if distance_matrix is None:
            distance_matrix = l2_distance_matrix(self.city_coordinates)
        distance_matrix = np.asarray(distance_matrix, dtype=np.float64)
        if distance_matrix.shape != (self.num_cities, self.num_cities):
            raise ValueError(
                "distance_matrix shape must be "
                f"({self.num_cities}, {self.num_cities}), got {distance_matrix.shape}"
            )
        self.distance_matrix = distance_matrix
        self._spatial_weights: np.ndarray | None = None
        # Per edge type, per user, the cities interacted with (counts).
        # City -> user lookups scan it: nothing on a hot path needs them.
        self._user_cities: dict[EdgeType, list[Counter]] = {
            edge_type: [Counter() for _ in range(self.num_users)]
            for edge_type in EdgeType
        }
        self._num_edges: Counter = Counter()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(
        self, user: int, city: int, edge_type: EdgeType, weight: int = 1
    ) -> None:
        """Record ``weight`` interactions of ``user`` with ``city``."""
        self._check_user(user)
        self._check_city(city)
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        edge_type = EdgeType(edge_type)
        self._user_cities[edge_type][user][city] += weight
        self._num_edges[edge_type] += weight

    def add_edges(
        self, edges: Sequence[tuple[int, int]] | np.ndarray, edge_type: EdgeType
    ) -> None:
        """Bulk :meth:`add_edge` for ``(user, city)`` pairs, one
        interaction each.

        Every id is checked before any edge is added.  Each user's
        :meth:`user_cities` ends as one :meth:`add_edge` per pair leaves it,
        insertion order included.
        """
        edge_type = EdgeType(edge_type)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if not pairs.size:
            return
        for ids, check in ((pairs[:, 0], self._check_user),
                           (pairs[:, 1], self._check_city)):
            check(int(ids.min()))
            check(int(ids.max()))
        keys, first, counts = np.unique(
            pairs[:, 0] * self.num_cities + pairs[:, 1],
            return_index=True, return_counts=True,
        )
        order = np.argsort(first)
        rows = self._user_cities[edge_type]
        for key, count in zip(keys[order].tolist(), counts[order].tolist()):
            user, city = divmod(key, self.num_cities)
            rows[user][city] += count
        self._num_edges[edge_type] += len(pairs)

    @classmethod
    def from_events(
        cls,
        num_users: int,
        city_coordinates: np.ndarray,
        od_events: Iterable[tuple[int, int, int]],
        distance_matrix: np.ndarray | None = None,
    ) -> "HeterogeneousSpatialGraph":
        """Build an HSG from ``(user, origin_city, destination_city)`` events.

        Each event adds a ``departure`` edge to the origin and an ``arrive``
        edge to the destination, exactly the construction of Figure 2(a).
        """
        graph = cls(num_users, city_coordinates, distance_matrix)
        events = np.asarray(list(od_events), dtype=np.int64).reshape(-1, 3)
        graph.add_edges(events[:, [0, 1]], EdgeType.DEPARTURE)
        graph.add_edges(events[:, [0, 2]], EdgeType.ARRIVE)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def spatial_weights(self) -> np.ndarray:
        """Eq. 2 inverse-distance weights, computed lazily and cached."""
        if self._spatial_weights is None:
            self._spatial_weights = spatial_weights(self.distance_matrix)
        return self._spatial_weights

    def num_edges(self, edge_type: EdgeType | None = None) -> int:
        if edge_type is None:
            return sum(self._num_edges.values())
        return self._num_edges[EdgeType(edge_type)]

    def user_cities(self, user: int, edge_type: EdgeType) -> Counter:
        """Cities interacted with by ``user`` via ``edge_type`` (with counts)."""
        self._check_user(user)
        return self._user_cities[EdgeType(edge_type)][user]

    def city_users(self, city: int, edge_type: EdgeType) -> Counter:
        """Users who interacted with ``city`` via ``edge_type`` (with counts),
        by a scan over every user."""
        self._check_city(city)
        return Counter({
            user: cities[city]
            for user, cities in enumerate(self._user_cities[EdgeType(edge_type)])
            if city in cities
        })

    def interactions(
        self, edge_type: EdgeType
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, cities, counts)``: one entry per interacting (user,
        city) pair of ``edge_type``, users ascending — every
        :meth:`user_cities` as arrays."""
        rows = self._user_cities[EdgeType(edge_type)]
        sizes = [len(row) for row in rows]
        total = sum(sizes)
        users = np.repeat(np.arange(self.num_users), sizes)
        cities = np.fromiter(chain.from_iterable(rows), np.int64, total)
        counts = np.fromiter(
            chain.from_iterable(row.values() for row in rows), np.int64, total
        )
        return users, cities, counts

    def metapath_neighbor_cities(
        self, node_type: NodeType, node_id: int, edge_type: EdgeType
    ) -> Counter:
        """First-order metapath-based neighbour cities (Definition 3).

        For a *user* node these are the cities it directly interacted with
        via ``edge_type``.  For a *city* node, one metapath step goes
        city -> user -> city, so the neighbour cities are all other cities
        visited by users of this city — the construct that lets seaside
        cities discover each other in Figure 2(d).  Counts aggregate path
        multiplicities.
        """
        node_type = NodeType(node_type)
        edge_type = EdgeType(edge_type)
        if node_type is NodeType.USER:
            return Counter(self.user_cities(node_id, edge_type))
        neighbors: Counter = Counter()
        for user, user_weight in self.city_users(node_id, edge_type).items():
            for city, city_weight in self.user_cities(user, edge_type).items():
                if city != node_id:
                    neighbors[city] += user_weight * city_weight
        return neighbors

    def higher_order_neighbor_cities(
        self,
        node_type: NodeType,
        node_id: int,
        edge_type: EdgeType,
        order: int,
    ) -> Counter:
        """``order``-th step neighbour cities N^i_rho(v) of Definition 3."""
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        frontier = self.metapath_neighbor_cities(node_type, node_id, edge_type)
        for _ in range(order - 1):
            next_frontier: Counter = Counter()
            for city, weight in frontier.items():
                for nbr, nbr_weight in self.metapath_neighbor_cities(
                    NodeType.CITY, city, edge_type
                ).items():
                    next_frontier[nbr] += weight * nbr_weight
            frontier = next_frontier
        return frontier

    # ------------------------------------------------------------------
    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise IndexError(f"user id {user} out of range [0, {self.num_users})")

    def _check_city(self, city: int) -> None:
        if not 0 <= city < self.num_cities:
            raise IndexError(f"city id {city} out of range [0, {self.num_cities})")

    def __repr__(self) -> str:
        return (
            f"HeterogeneousSpatialGraph(users={self.num_users}, "
            f"cities={self.num_cities}, "
            f"departure_edges={self.num_edges(EdgeType.DEPARTURE)}, "
            f"arrive_edges={self.num_edges(EdgeType.ARRIVE)})"
        )
