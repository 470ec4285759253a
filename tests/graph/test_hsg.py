"""Heterogeneous Spatial Graph: construction, queries, metapath semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import EdgeType, HeterogeneousSpatialGraph, NodeType


def _small_graph():
    """Figure 2-style toy HSG: 3 users, 5 cities."""
    coords = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    )
    g = HeterogeneousSpatialGraph(num_users=3, city_coordinates=coords)
    # user0 departs from cities 0,1; arrives at 3
    g.add_edge(0, 0, EdgeType.DEPARTURE)
    g.add_edge(0, 1, EdgeType.DEPARTURE)
    g.add_edge(0, 3, EdgeType.ARRIVE)
    # user1 arrives at 3 and 4 (so 3 and 4 become metapath neighbours)
    g.add_edge(1, 3, EdgeType.ARRIVE)
    g.add_edge(1, 4, EdgeType.ARRIVE)
    # user2 departs twice from 0
    g.add_edge(2, 0, EdgeType.DEPARTURE, weight=2)
    return g


class TestConstruction:
    def test_validates_users(self):
        with pytest.raises(ValueError):
            HeterogeneousSpatialGraph(0, np.zeros((2, 2)))

    def test_validates_coordinates(self):
        with pytest.raises(ValueError):
            HeterogeneousSpatialGraph(1, np.zeros((2, 3)))

    def test_validates_distance_matrix_shape(self):
        with pytest.raises(ValueError):
            HeterogeneousSpatialGraph(
                1, np.zeros((3, 2)), distance_matrix=np.zeros((2, 2))
            )

    def test_edge_bounds_checked(self):
        g = _small_graph()
        with pytest.raises(IndexError):
            g.add_edge(5, 0, EdgeType.DEPARTURE)
        with pytest.raises(IndexError):
            g.add_edge(0, 99, EdgeType.ARRIVE)

    def test_edge_weight_positive(self):
        g = _small_graph()
        with pytest.raises(ValueError):
            g.add_edge(0, 0, EdgeType.DEPARTURE, weight=0)

    def test_edge_counts(self):
        g = _small_graph()
        assert g.num_edges(EdgeType.DEPARTURE) == 4  # weight 2 counts twice
        assert g.num_edges(EdgeType.ARRIVE) == 3
        assert g.num_edges() == 7

    def test_from_events(self):
        coords = np.zeros((3, 2))
        coords[:, 0] = [0, 1, 2]
        g = HeterogeneousSpatialGraph.from_events(
            2, coords, [(0, 0, 1), (1, 1, 2)]
        )
        assert g.num_edges(EdgeType.DEPARTURE) == 2
        assert g.num_edges(EdgeType.ARRIVE) == 2

    def test_repr_mentions_counts(self):
        assert "departure_edges=4" in repr(_small_graph())

    @given(edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)),
                          max_size=80))
    @settings(derandomize=True, deadline=None, max_examples=50)
    def test_bulk_edges_are_one_add_edge_each(self, edges):
        """Same counts, same totals, same insertion order of every
        user's Counter as one ``add_edge`` per pair."""
        coords = np.zeros((8, 2))
        coords[:, 0] = np.arange(8)
        bulk = HeterogeneousSpatialGraph(6, coords)
        bulk.add_edges(edges, EdgeType.ARRIVE)
        one_by_one = HeterogeneousSpatialGraph(6, coords)
        for user, city in edges:
            one_by_one.add_edge(user, city, EdgeType.ARRIVE)
        assert bulk.num_edges(EdgeType.ARRIVE) == len(edges)
        for user in range(6):
            assert (list(bulk.user_cities(user, EdgeType.ARRIVE).items())
                    == list(one_by_one.user_cities(user, EdgeType.ARRIVE).items()))
        for city in range(8):
            assert (bulk.city_users(city, EdgeType.ARRIVE)
                    == one_by_one.city_users(city, EdgeType.ARRIVE))

    def test_bulk_edges_check_every_id_first(self):
        g = _small_graph()
        with pytest.raises(IndexError):
            g.add_edges([(0, 2), (0, 99)], EdgeType.ARRIVE)
        with pytest.raises(IndexError):
            g.add_edges(np.array([[-1, 0]]), EdgeType.ARRIVE)
        assert g.num_edges(EdgeType.ARRIVE) == 3
        assert 2 not in g.user_cities(0, EdgeType.ARRIVE)


class TestQueries:
    def test_user_cities_with_counts(self):
        g = _small_graph()
        assert dict(g.user_cities(2, EdgeType.DEPARTURE)) == {0: 2}

    def test_city_users(self):
        g = _small_graph()
        assert set(g.city_users(3, EdgeType.ARRIVE)) == {0, 1}

    def test_user_metapath_neighbors_are_direct_cities(self):
        g = _small_graph()
        nbrs = g.metapath_neighbor_cities(NodeType.USER, 0, EdgeType.DEPARTURE)
        assert set(nbrs) == {0, 1}

    def test_city_metapath_neighbors_via_shared_users(self):
        # Figure 2(d): city 3's arrive-neighbours are other cities arrived
        # at by users of city 3 — i.e. city 4 via user1.
        g = _small_graph()
        nbrs = g.metapath_neighbor_cities(NodeType.CITY, 3, EdgeType.ARRIVE)
        assert set(nbrs) == {4}

    def test_city_neighbors_exclude_self(self):
        g = _small_graph()
        nbrs = g.metapath_neighbor_cities(NodeType.CITY, 0, EdgeType.DEPARTURE)
        assert 0 not in nbrs
        # city 1 reachable via user0 who departs from both 0 and 1
        assert 1 in nbrs

    def test_edge_types_are_isolated(self):
        g = _small_graph()
        nbrs = g.metapath_neighbor_cities(NodeType.USER, 0, EdgeType.ARRIVE)
        assert set(nbrs) == {3}  # departure edges invisible here

    def test_higher_order_neighbors(self):
        g = _small_graph()
        second = g.higher_order_neighbor_cities(
            NodeType.USER, 0, EdgeType.ARRIVE, order=2
        )
        # step1: {3}; step2: cities of users who arrive at 3, minus 3 -> {4}
        assert set(second) == {4}

    def test_higher_order_requires_positive(self):
        with pytest.raises(ValueError):
            _small_graph().higher_order_neighbor_cities(
                NodeType.USER, 0, EdgeType.ARRIVE, order=0
            )

    def test_spatial_weights_cached_and_row_stochastic(self):
        g = _small_graph()
        w1 = g.spatial_weights
        assert w1 is g.spatial_weights
        np.testing.assert_allclose(w1.sum(axis=1), 1.0)
