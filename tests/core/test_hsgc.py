"""HSGC — Algorithm 1 with Eq. 1 attention and Eq. 2 spatial weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hsgc import HSGComponent
from repro.graph import EdgeType, HeterogeneousSpatialGraph, Metapath, build_neighbor_table


@pytest.fixture()
def small_hsg():
    rng = np.random.default_rng(0)
    coords = np.column_stack([rng.uniform(0, 10, 8), rng.uniform(0, 10, 8)])
    g = HeterogeneousSpatialGraph(4, coords)
    for user in range(4):
        for city in rng.choice(8, size=3, replace=False):
            g.add_edge(user, int(city), EdgeType.DEPARTURE)
    return g


def _component(graph, depth, rng_seed=0):
    table = build_neighbor_table(graph, Metapath.origin_aware(), 5)
    return HSGComponent(
        num_users=graph.num_users,
        num_cities=graph.num_cities,
        dim=8,
        neighbor_table=table,
        spatial_weights=graph.spatial_weights,
        depth=depth,
        rng=np.random.default_rng(rng_seed),
    )


class TestConstruction:
    def test_negative_depth_rejected(self, small_hsg):
        with pytest.raises(ValueError):
            _component(small_hsg, depth=-1)

    def test_depth_positive_requires_table(self):
        with pytest.raises(ValueError):
            HSGComponent(2, 3, 4, None, None, depth=1,
                         rng=np.random.default_rng(0))

    def test_depth_zero_without_table_allowed(self):
        comp = HSGComponent(2, 3, 4, None, None, depth=0,
                            rng=np.random.default_rng(0))
        users, cities = comp.node_embeddings()
        assert users.shape == (2, 4)
        assert cities.shape == (3, 4)


class TestPropagation:
    def test_output_shapes(self, small_hsg):
        comp = _component(small_hsg, depth=2)
        users, cities = comp.node_embeddings()
        assert users.shape == (4, 8)
        assert cities.shape == (8, 8)

    def test_depth_zero_returns_base_tables(self, small_hsg):
        comp = _component(small_hsg, depth=0)
        users, cities = comp.node_embeddings()
        np.testing.assert_allclose(users.data, comp.user_embedding.weight.data)
        np.testing.assert_allclose(cities.data, comp.city_embedding.weight.data)

    def test_one_step_layer_per_depth(self, small_hsg):
        assert len(_component(small_hsg, depth=3).step_layers) == 3

    def test_propagation_changes_embeddings(self, small_hsg):
        comp = _component(small_hsg, depth=2)
        users, _ = comp.node_embeddings()
        assert not np.allclose(users.data, comp.user_embedding.weight.data)

    def test_outputs_nonnegative_after_relu(self, small_hsg):
        comp = _component(small_hsg, depth=1)
        users, cities = comp.node_embeddings()
        assert (users.data >= 0).all()
        assert (cities.data >= 0).all()

    def test_gradients_reach_base_embeddings_and_weights(self, small_hsg):
        comp = _component(small_hsg, depth=2)
        users, cities = comp.node_embeddings()
        (users.sum() + cities.sum()).backward()
        assert comp.user_embedding.weight.grad is not None
        assert comp.city_embedding.weight.grad is not None
        for layer in comp.step_layers:
            assert layer.weight.grad is not None

    def test_neighbor_influence(self, small_hsg):
        """Perturbing a neighbour city's base embedding changes the user's
        propagated embedding (message passing works)."""
        comp = _component(small_hsg, depth=1)
        table = comp.neighbor_table
        user = 0
        neighbor = int(table.user_neighbors[user, 0])
        before = comp.node_embeddings()[0].data[user].copy()
        comp.city_embedding.weight.data[neighbor] += 1.0
        after = comp.node_embeddings()[0].data[user]
        assert not np.allclose(before, after)

    def test_isolated_user_unaffected_by_neighbors(self):
        """A user with no edges aggregates a zero neighbourhood."""
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = HeterogeneousSpatialGraph(2, coords)
        g.add_edge(0, 0, EdgeType.DEPARTURE)  # user 1 isolated
        comp = _component(g, depth=1)
        table = comp.neighbor_table
        assert table.user_mask[1].sum() == 0
        users, _ = comp.node_embeddings()
        assert np.isfinite(users.data).all()

    def test_spatial_weights_gathered_per_neighbor(self, small_hsg):
        comp = _component(small_hsg, depth=1)
        table = comp.neighbor_table
        w = small_hsg.spatial_weights
        for city in range(small_hsg.num_cities):
            for j in range(table.max_neighbors):
                expected = w[city, table.city_neighbors[city, j]]
                assert comp._city_spatial[city, j] == pytest.approx(expected)


# ----------------------------------------------------------------------
# node_embeddings(users=ids): Algorithm 1 for the rows a caller reads
# ----------------------------------------------------------------------
_USERS, _CITIES = 6, 8


def _two_metapath_hsg():
    """Departure *and* arrive edges; user 5 has neither (an all-False
    mask row on both metapaths)."""
    rng = np.random.default_rng(3)
    coords = np.column_stack(
        [rng.uniform(0, 10, _CITIES), rng.uniform(0, 10, _CITIES)]
    )
    g = HeterogeneousSpatialGraph(_USERS, coords)
    for user in range(_USERS - 1):
        for city in rng.choice(_CITIES, size=3, replace=False):
            g.add_edge(user, int(city), EdgeType.DEPARTURE)
        for city in rng.choice(_CITIES, size=2, replace=False):
            g.add_edge(user, int(city), EdgeType.ARRIVE)
    return g


def _rows_component(metapath, depth, spatial):
    graph = _two_metapath_hsg()
    return HSGComponent(
        _USERS, _CITIES, 8,
        build_neighbor_table(graph, metapath, 5) if depth else None,
        graph.spatial_weights if spatial and depth else None,
        depth, np.random.default_rng(1),
    )


_VARIANTS = [
    (metapath, depth, spatial)
    for metapath in (Metapath.origin_aware(), Metapath.destination_aware())
    for depth in (0, 1, 2)       # depth 0 is the ODNET-G / STL-G table
    for spatial in (True, False)
]
_ISOLATED = _USERS - 1


class TestRowsOnDemand:
    """``node_embeddings(users=ids)`` is the all-users call restricted
    to ``ids``.  Repeated ids are *handled*, not rejected: the compact
    table repeats the row, and its gradients add up."""

    def _assert_rows_match(self, comp, ids):
        full_users, full_cities = comp.node_embeddings()
        users, cities = comp.node_embeddings(users=ids)
        ids = np.asarray(ids, dtype=np.intp)
        assert users.shape == (len(ids), comp.dim)
        np.testing.assert_allclose(
            users.data, full_users.data[ids], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(cities.data, full_cities.data)

    @pytest.mark.parametrize("metapath,depth,spatial", _VARIANTS)
    @pytest.mark.parametrize("ids", [
        [], [3], [_ISOLATED], [4, 1, 5, 0, 3, 2], [2, 2, 0, 2],
        np.array([1, 4]), (0, 5),
    ], ids=["empty", "one", "no-neighbours", "all-shuffled", "repeats",
            "array", "tuple"])
    def test_named_cases(self, metapath, depth, spatial, ids):
        self._assert_rows_match(_rows_component(metapath, depth, spatial), ids)

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.integers(0, _USERS - 1), max_size=2 * _USERS),
        variant=st.sampled_from(_VARIANTS),
    )
    def test_any_ids(self, ids, variant):
        self._assert_rows_match(_rows_component(*variant), ids)

    def test_none_is_every_user_in_order(self):
        comp = _rows_component(Metapath.origin_aware(), 2, True)
        assert not comp.neighbor_table.user_mask[_ISOLATED].any()
        everyone, _ = comp.node_embeddings(users=np.arange(_USERS))
        np.testing.assert_array_equal(
            everyone.data, comp.node_embeddings()[0].data
        )

    def test_untouched_user_rows_get_exactly_zero_gradient(self):
        comp = _rows_component(Metapath.origin_aware(), 2, True)
        users, cities = comp.node_embeddings(users=[4, 1])
        (users.sum() + cities.sum()).backward()
        grad = comp.user_embedding.weight.grad
        assert np.abs(grad[[1, 4]]).sum() > 0
        np.testing.assert_array_equal(grad[[0, 2, 3, 5]], 0.0)


class TestRowsOnDemandGradients:
    """Finite differences through the ``users=`` path, on a hand-made
    table where a neighbour city repeats inside one user's row (city 1,
    user 0) and across users (city 1 again for users 1 and 2; city 3 for
    0 and 3), with a repeated user id on top."""

    def _component(self):
        from repro.graph import NeighborTable

        table = NeighborTable(
            metapath=Metapath.origin_aware(),
            user_neighbors=np.array(
                [[1, 1, 3], [1, 2, 0], [4, 1, 0], [3, 0, 0], [0, 0, 0]]),
            user_mask=np.array(
                [[1, 1, 1], [1, 1, 0], [1, 1, 0], [1, 0, 0], [0, 0, 0]],
                dtype=bool),
            city_neighbors=np.array(
                [[1, 2, 2], [0, 3, 0], [4, 4, 1], [2, 0, 0], [3, 1, 0],
                 [0, 0, 0]]),
            city_mask=np.array(
                [[1, 1, 1], [1, 1, 0], [1, 1, 1], [1, 0, 0], [1, 1, 0],
                 [0, 0, 0]], dtype=bool),
        )
        rng = np.random.default_rng(5)
        spatial = rng.uniform(0.2, 1.0, (6, 6))
        comp = HSGComponent(5, 6, 4, table, spatial, 2,
                            np.random.default_rng(9))
        # Larger rows than the 0.01-gaussian init, so the ReLUs are not
        # all on one side and the attention is not uniform.
        for param in comp.parameters():
            param.data = rng.normal(0.0, 0.6, param.data.shape)
        return comp

    def test_matches_finite_differences(self):
        comp = self._component()
        ids = [2, 0, 2, 4, 3]
        rng = np.random.default_rng(11)
        w_users = rng.normal(size=(len(ids), 4))
        w_cities = rng.normal(size=(6, 4))

        def objective():
            users, cities = comp.node_embeddings(users=ids)
            return (users * w_users).sum() + (cities * w_cities).sum()

        comp.zero_grad()
        objective().backward()
        named = dict(comp.named_parameters())
        assert {"user_embedding.weight", "city_embedding.weight",
                "step_layers.0.weight", "step_layers.1.weight"} <= set(named)
        eps = 1e-6
        for name, param in named.items():
            numeric = np.zeros_like(param.data)
            flat, out = param.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                up = objective().item()
                flat[i] = keep - eps
                down = objective().item()
                flat[i] = keep
                out[i] = (up - down) / (2 * eps)
            np.testing.assert_allclose(
                param.grad, numeric, rtol=1e-5, atol=1e-7, err_msg=name
            )
        # User 1 was not asked for: no gradient reaches its row.
        np.testing.assert_array_equal(
            comp.user_embedding.weight.grad[1], 0.0
        )
