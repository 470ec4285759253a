"""Metapaths and capped neighbour tables."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    EdgeType,
    HeterogeneousSpatialGraph,
    Metapath,
    NodeType,
    build_neighbor_table,
)


def _graph_with_fanout(num_users=6, num_cities=10, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.column_stack(
        [rng.uniform(0, 10, num_cities), rng.uniform(0, 10, num_cities)]
    )
    g = HeterogeneousSpatialGraph(num_users, coords)
    for user in range(num_users):
        for city in rng.choice(num_cities, size=4, replace=False):
            g.add_edge(user, int(city), EdgeType.DEPARTURE)
            g.add_edge(user, int(city), EdgeType.ARRIVE)
    return g


class TestMetapath:
    def test_factories(self):
        assert Metapath.origin_aware().edge_type is EdgeType.DEPARTURE
        assert Metapath.destination_aware().edge_type is EdgeType.ARRIVE

    def test_names(self):
        assert Metapath.origin_aware().name == "rho_1"
        assert Metapath.destination_aware().name == "rho_2"


class TestNeighborTable:
    def test_cap_respected(self):
        g = _graph_with_fanout()
        table = build_neighbor_table(g, Metapath.origin_aware(), max_neighbors=3)
        assert table.user_neighbors.shape == (6, 3)
        assert table.city_neighbors.shape == (10, 3)
        assert table.max_neighbors == 3

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            build_neighbor_table(
                _graph_with_fanout(), Metapath.origin_aware(), max_neighbors=0
            )

    def test_mask_marks_padding(self):
        g = _graph_with_fanout()
        table = build_neighbor_table(g, Metapath.origin_aware(), max_neighbors=8)
        # Each user has exactly 4 departure cities.
        assert (table.user_mask.sum(axis=1) == 4).all()

    def test_most_frequent_neighbors_kept(self):
        coords = np.zeros((4, 2))
        coords[:, 0] = np.arange(4)
        g = HeterogeneousSpatialGraph(1, coords)
        g.add_edge(0, 0, EdgeType.DEPARTURE, weight=5)
        g.add_edge(0, 1, EdgeType.DEPARTURE, weight=1)
        g.add_edge(0, 2, EdgeType.DEPARTURE, weight=3)
        table = build_neighbor_table(g, Metapath.origin_aware(), max_neighbors=2)
        assert table.user_neighbors[0].tolist() == [0, 2]

    def test_tie_break_by_ascending_id(self):
        coords = np.zeros((3, 2))
        coords[:, 0] = np.arange(3)
        g = HeterogeneousSpatialGraph(1, coords)
        g.add_edge(0, 2, EdgeType.DEPARTURE)
        g.add_edge(0, 1, EdgeType.DEPARTURE)
        table = build_neighbor_table(g, Metapath.origin_aware(), max_neighbors=1)
        assert table.user_neighbors[0, 0] == 1

    def test_indices_always_valid_city_ids(self):
        g = _graph_with_fanout(seed=5)
        table = build_neighbor_table(g, Metapath.destination_aware())
        assert table.user_neighbors.min() >= 0
        assert table.user_neighbors.max() < g.num_cities
        assert table.city_neighbors.max() < g.num_cities

    @given(
        edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8),
                                 st.integers(1, 4)), max_size=60),
        cap=st.integers(1, 11),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_tables_are_the_counter_reference(self, edges, cap):
        """Counts by array and paths by GEMM pick exactly the neighbours
        the per-node ``Counter``s rank by (-count, id), padding included."""
        coords = np.zeros((9, 2))
        coords[:, 0] = np.arange(9)
        g = HeterogeneousSpatialGraph(7, coords)
        for user, city, weight in edges:
            g.add_edge(user, city, EdgeType.DEPARTURE, weight=weight)
        table = build_neighbor_table(g, Metapath.origin_aware(), cap)
        for node_type, neighbors, mask in (
            (NodeType.USER, table.user_neighbors, table.user_mask),
            (NodeType.CITY, table.city_neighbors, table.city_mask),
        ):
            for node in range(neighbors.shape[0]):
                counter = g.metapath_neighbor_cities(
                    node_type, node, EdgeType.DEPARTURE)
                ranked = sorted(counter.items(), key=lambda c: (-c[1], c[0]))
                expected = [city for city, _ in ranked[:cap]]
                assert mask[node].tolist() == (
                    [True] * len(expected) + [False] * (cap - len(expected)))
                assert neighbors[node].tolist() == (
                    expected + [0] * (cap - len(expected)))

    @given(seed=st.integers(0, 200), cap=st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_property_masked_entries_only_padding(self, seed, cap):
        g = _graph_with_fanout(seed=seed)
        table = build_neighbor_table(g, Metapath.origin_aware(), cap)
        # Valid prefix then padding: mask must be monotonically decreasing.
        diffs = np.diff(table.user_mask.astype(int), axis=1)
        assert (diffs <= 0).all()
