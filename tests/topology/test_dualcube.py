"""Tests for the dual-cube standard presentation (paper Section 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._bits import bit, hamming
from repro.topology import DualCube, Hypercube
from repro.topology.metrics import bfs_distances, diameter, edge_count


class TestShape:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_node_count_is_2_pow_2n_minus_1(self, n):
        assert DualCube(n).num_nodes == 2 ** (2 * n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_degree_is_n_everywhere(self, n):
        dc = DualCube(n)
        assert all(dc.degree(u) == n for u in dc.nodes())

    @pytest.mark.parametrize("n", range(1, 5))
    def test_structural_invariants(self, n):
        DualCube(n).validate()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_edge_count_closed_form(self, n):
        dc = DualCube(n)
        assert edge_count(dc) == dc.edge_count() == n * 2 ** (2 * n - 2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DualCube(0)

    def test_cluster_shape(self):
        dc = DualCube(3)
        assert dc.clusters_per_class == 4
        assert dc.nodes_per_cluster == 4
        assert dc.cluster_dim == 2

    def test_d1_is_k2(self):
        dc = DualCube(1)
        assert dc.num_nodes == 2
        assert dc.neighbors(0) == (1,)
        assert dc.neighbors(1) == (0,)

    def test_paper_degree_claim_vs_same_size_hypercube(self):
        # "the number of edges per node in dual-cube is about half of that
        # in the hypercube of the same size"
        for n in range(2, 7):
            dc = DualCube(n)
            q = Hypercube(2 * n - 1)
            assert dc.num_nodes == q.num_nodes
            assert dc.n == (q.q + 1) // 2


class TestAddressFields:
    def test_class_is_leftmost_bit(self, dc):
        for u in dc.nodes():
            assert dc.class_of(u) == bit(u, 2 * dc.n - 2)

    def test_compose_decompose_roundtrip(self, dc):
        for u in dc.nodes():
            assert (
                dc.compose(dc.class_of(u), dc.cluster_id(u), dc.node_id(u)) == u
            )

    def test_compose_validates(self):
        dc = DualCube(3)
        with pytest.raises(ValueError):
            dc.compose(2, 0, 0)
        with pytest.raises(ValueError):
            dc.compose(0, 4, 0)
        with pytest.raises(ValueError):
            dc.compose(0, 0, 4)

    def test_cluster_members_partition_nodes(self, dc):
        seen = set()
        for cls in (0, 1):
            for k in range(dc.clusters_per_class):
                members = dc.cluster_members(cls, k)
                assert len(members) == dc.nodes_per_cluster
                for u in members:
                    assert dc.cluster_key(u) == (cls, k)
                seen.update(members)
        assert seen == set(dc.nodes())

    def test_class0_node_ids_are_low_bits(self):
        dc = DualCube(3)
        u = dc.compose(0, 0b10, 0b01)
        assert u == 0b10_01
        assert dc.node_id(u) == 0b01
        assert dc.cluster_id(u) == 0b10

    def test_class1_fields_swap_roles(self):
        dc = DualCube(3)
        u = dc.compose(1, 0b10, 0b01)
        assert u == 0b1_01_10
        assert dc.node_id(u) == 0b01
        assert dc.cluster_id(u) == 0b10

    def test_vectorized_fields_match_scalar(self, dc):
        idx = dc.all_nodes_array()
        assert list(dc.class_of_v(idx)) == [dc.class_of(u) for u in dc.nodes()]
        assert list(dc.node_id_v(idx)) == [dc.node_id(u) for u in dc.nodes()]
        assert list(dc.cluster_id_v(idx)) == [
            dc.cluster_id(u) for u in dc.nodes()
        ]


class TestAdjacency:
    def test_cross_partner_flips_class_bit_only(self, dc):
        for u in dc.nodes():
            v = dc.cross_partner(u)
            assert u ^ v == 1 << (2 * dc.n - 2)
            assert dc.has_edge(u, v)

    def test_exactly_one_cross_edge_per_node(self, dc):
        for u in dc.nodes():
            crosses = [
                v for v in dc.neighbors(u) if dc.class_of(v) != dc.class_of(u)
            ]
            assert crosses == [dc.cross_partner(u)]

    def test_no_edges_between_same_class_clusters(self, dc):
        for u, v in dc.edges():
            if dc.class_of(u) == dc.class_of(v):
                assert dc.cluster_id(u) == dc.cluster_id(v)

    def test_clusters_are_hypercubes(self):
        dc = DualCube(3)
        m = dc.cluster_dim
        for cls in (0, 1):
            for k in range(dc.clusters_per_class):
                members = dc.cluster_members(cls, k)
                for a in range(len(members)):
                    for b in range(len(members)):
                        expect = hamming(a, b) == 1  # node-ID Hamming
                        assert dc.has_edge(members[a], members[b]) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_has_edge_matches_neighbors(self, n):
        dc = DualCube(n)
        for u in dc.nodes():
            nbrs = set(dc.neighbors(u))
            for v in dc.nodes():
                assert dc.has_edge(u, v) == (v in nbrs)

    def test_edge_definition_bit_conditions(self):
        # The three conditions of the formal definition, explicitly.
        dc = DualCube(3)
        n = 3
        for u in dc.nodes():
            for i in range(2 * n - 1):
                v = u ^ (1 << i)
                if i == 2 * n - 2:
                    expected = True
                elif i <= n - 2:
                    expected = bit(u, 2 * n - 2) == 0
                else:
                    expected = bit(u, 2 * n - 2) == 1
                assert dc.has_edge(u, v) == expected, (u, i)

    def test_intra_dimensions_and_local_map(self, dc):
        for u in dc.nodes():
            dims = list(dc.intra_dimensions(u))
            assert len(dims) == dc.cluster_dim
            for i in range(dc.cluster_dim):
                assert dc.local_to_global_dim(u, i) == dims[i]
            with pytest.raises(ValueError):
                dc.local_to_global_dim(u, dc.cluster_dim)

    def test_has_dimension_link(self, dc):
        for u in dc.nodes():
            for d in dc.dimensions():
                assert dc.has_dimension_link(u, d) == dc.has_edge(
                    u, u ^ (1 << d)
                )


class TestDistance:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distance_matches_bfs_exhaustive(self, n):
        dc = DualCube(n)
        dist = bfs_distances(dc, list(dc.nodes()))
        for u in dc.nodes():
            for v in dc.nodes():
                assert dc.distance(u, v) == int(dist[u, v]), (u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 511), st.integers(0, 511))
    def test_distance_symmetric_and_triangle_free_of_negatives(self, u, v):
        dc = DualCube(5)
        d = dc.distance(u, v)
        assert d == dc.distance(v, u)
        assert d >= hamming(u, v)
        assert d <= hamming(u, v) + 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diameter_is_2n(self, n):
        dc = DualCube(n)
        assert dc.diameter() == 2 * n
        assert diameter(dc) == 2 * n

    def test_d1_diameter(self):
        assert DualCube(1).diameter() == 1

    def test_diameter_is_hypercube_plus_one(self):
        # "The diameter of dual-cube is that of hypercube of the same size
        # plus one."
        for n in (2, 3):
            assert diameter(DualCube(n)) == Hypercube(2 * n - 1).diameter() + 1

    def test_same_class_different_cluster_pays_two(self):
        dc = DualCube(3)
        u = dc.compose(0, 0, 0)
        v = dc.compose(0, 1, 0)
        assert hamming(u, v) == 1
        assert dc.distance(u, v) == 3


class TestArithmeticQueries:
    """The columnar backend's address-arithmetic neighbor API must agree
    with the scalar topology methods it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cross_partner_v_matches_scalar(self, n):
        dc = DualCube(n)
        vec = dc.cross_partner_v()
        assert vec.dtype == np.int64
        for u in dc.nodes():
            assert vec[u] == dc.cross_partner(u)

    def test_cross_partner_v_accepts_explicit_subset(self):
        dc = DualCube(3)
        subset = np.array([0, 5, 17], dtype=np.int64)
        expected = [dc.cross_partner(int(u)) for u in subset]
        assert dc.cross_partner_v(subset).tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_intra_partner_v_matches_flip_of_global_dim(self, n):
        dc = DualCube(n)
        nodes = dc.all_nodes_array()
        for local_dim in range(n - 1):
            vec = dc.intra_partner_v(nodes, local_dim)
            for u in dc.nodes():
                g = dc.local_to_global_dim(u, local_dim)
                assert vec[u] == u ^ (1 << g)

    def test_intra_partner_v_rejects_out_of_range_dim(self):
        dc = DualCube(3)
        with pytest.raises(ValueError, match="local dimension"):
            dc.intra_partner_v(dc.all_nodes_array(), 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_local_round_bit_is_class_uniform(self, n):
        dc = DualCube(n)
        for u in dc.nodes():
            cls = dc.class_of(u)
            for local_dim in range(n - 1):
                assert (
                    dc.local_round_bit(cls, local_dim)
                    == dc.local_to_global_dim(u, local_dim)
                )

    def test_local_round_bit_validates_arguments(self):
        dc = DualCube(3)
        with pytest.raises(ValueError, match="class"):
            dc.local_round_bit(2, 0)
        with pytest.raises(ValueError, match="local dimension"):
            dc.local_round_bit(0, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_class_slices_partition_by_class(self, n):
        dc = DualCube(n)
        lo, hi = dc.class_slices()
        nodes = list(dc.nodes())
        assert nodes[lo] + nodes[hi] == nodes
        assert all(dc.class_of(u) == 0 for u in nodes[lo])
        assert all(dc.class_of(u) == 1 for u in nodes[hi])
