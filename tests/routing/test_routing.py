"""Tests for dual-cube shortest-path routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import route, route_length
from repro.routing.dualcube_routing import dimension_order_route
from repro.topology import DualCube
from repro.topology.metrics import bfs_distances


class TestRouteValidity:
    def test_exhaustive_small(self, dc):
        for u in dc.nodes():
            for v in dc.nodes():
                path = route(dc, u, v)  # validate=True checks hops + length
                assert path[0] == u and path[-1] == v

    def test_route_is_shortest_vs_bfs(self):
        dc = DualCube(3)
        dist = bfs_distances(dc, list(dc.nodes()))
        for u in dc.nodes():
            for v in dc.nodes():
                assert route_length(dc, u, v) == int(dist[u, v])

    def test_trivial_route(self):
        dc = DualCube(2)
        assert route(dc, 5, 5) == [5]
        assert route_length(dc, 5, 5) == 0

    def test_cross_edge_route(self):
        dc = DualCube(3)
        u = dc.compose(0, 2, 3)
        v = dc.cross_partner(u)
        assert route(dc, u, v) == [u, v]

    def test_intra_cluster_route_stays_in_cluster(self):
        dc = DualCube(3)
        u = dc.compose(0, 2, 0)
        v = dc.compose(0, 2, 3)
        path = route(dc, u, v)
        assert all(dc.cluster_key(w) == dc.cluster_key(u) for w in path)

    def test_same_class_route_uses_exactly_two_cross_edges(self):
        dc = DualCube(3)
        u = dc.compose(0, 0, 0)
        v = dc.compose(0, 3, 2)
        path = route(dc, u, v)
        crossings = sum(
            1
            for a, b in zip(path, path[1:])
            if dc.class_of(a) != dc.class_of(b)
        )
        assert crossings == 2

    def test_different_class_route_uses_one_cross_edge(self):
        dc = DualCube(3)
        u = dc.compose(0, 1, 2)
        v = dc.compose(1, 3, 0)
        path = route(dc, u, v)
        crossings = sum(
            1
            for a, b in zip(path, path[1:])
            if dc.class_of(a) != dc.class_of(b)
        )
        assert crossings == 1

    def test_node_validation(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            dimension_order_route(dc, 0, 99)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
    def test_random_pairs_n5(self, u, v):
        dc = DualCube(5)
        path = route(dc, u, v)
        assert len(path) - 1 == dc.distance(u, v)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**13 - 1), st.integers(0, 2**13 - 1))
    def test_random_pairs_n7(self, u, v):
        dc = DualCube(7)
        path = route(dc, u, v)
        assert len(path) - 1 == dc.distance(u, v)

    def test_d1_routes(self):
        dc = DualCube(1)
        assert route(dc, 0, 1) == [0, 1]
        assert route(dc, 1, 0) == [1, 0]


class TestRouteShape:
    def test_no_repeated_nodes(self):
        dc = DualCube(4)
        for u, v in [(0, 127), (5, 99), (64, 3), (100, 100)]:
            path = route(dc, u, v)
            assert len(set(path)) == len(path)

    def test_path_within_diameter(self):
        dc = DualCube(4)
        for u in range(0, dc.num_nodes, 13):
            for v in range(0, dc.num_nodes, 17):
                assert route_length(dc, u, v) <= dc.diameter()


def _reference_route(dc, u, v):
    """The per-bit dimension-order walk, spelled with the field accessors.

    The routing module computes the same walk with whole-field XOR
    arithmetic; this reference pins that the produced path is unchanged.
    """
    m = dc.cluster_dim

    def fix(path, lo):
        for i in range(m):
            if (path[-1] >> (lo + i)) & 1 != (v >> (lo + i)) & 1:
                path.append(path[-1] ^ (1 << (lo + i)))

    def node_lo(w):
        return 0 if dc.class_of(w) == 0 else m

    path = [u]
    fix(path, node_lo(u))
    if dc.class_of(u) != dc.class_of(v):
        path.append(dc.cross_partner(path[-1]))
        fix(path, node_lo(v))
    elif dc.cluster_id(u) != dc.cluster_id(v):
        path.append(dc.cross_partner(path[-1]))
        fix(path, node_lo(path[-1]))
        path.append(dc.cross_partner(path[-1]))
    return path


class TestPrimitiveContract:
    """The router and its node checks, exhaustively on D_1-D_4.

    ``has_edge`` and ``distance`` against ``neighbors`` and BFS live in
    ``tests/topology/test_dualcube.py``.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_route_matches_per_bit_reference(self, n):
        dc = DualCube(n)
        for u in dc.nodes():
            for v in dc.nodes():
                assert dimension_order_route(dc, u, v) == _reference_route(
                    dc, u, v
                ), (u, v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bad_nodes_raise_check_node_message(self, n):
        dc = DualCube(n)
        for bad in (-1, -dc.num_nodes, dc.num_nodes, dc.num_nodes + 5):
            with pytest.raises(ValueError) as expected:
                dc.check_node(bad)
            message = str(expected.value)
            for good in (0, dc.num_nodes - 1):
                for fn in (dc.has_edge, dc.distance, dimension_order_route):
                    args = (dc,) if fn is dimension_order_route else ()
                    for pair in ((bad, good), (good, bad)):
                        with pytest.raises(ValueError) as got:
                            fn(*args, *pair)
                        assert str(got.value) == message, (fn, pair)

    def test_numpy_integer_nodes(self):
        dc = DualCube(3)
        for u in (0, 5, 17, 31):
            for v in (0, 3, 18, 30):
                nu, nv = np.int64(u), np.int64(v)
                assert dc.distance(nu, nv) == dc.distance(u, v)
                assert route(dc, nu, nv) == route(dc, u, v)
