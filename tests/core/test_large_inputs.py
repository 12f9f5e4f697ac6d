"""Tests for the N > P extensions (paper future-work item 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    dual_prefix_comm_exact,
    dual_sort_comm_exact,
)
from repro.core.large_inputs import large_prefix, large_sort
from repro.core.ops import ADD, CONCAT, MAX
from repro.simulator import CostCounters
from repro.topology import DualCube, RecursiveDualCube


class TestLargePrefix:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_matches_cumsum(self, n, b, rng):
        dc = DualCube(n)
        vals = rng.integers(-50, 50, b * dc.num_nodes)
        assert list(large_prefix(dc, vals, ADD)) == list(np.cumsum(vals))

    def test_running_max(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 1000, 4 * 8)
        got = large_prefix(dc, vals, MAX)
        assert list(got) == list(np.maximum.accumulate(vals))

    def test_non_commutative(self, rng):
        dc = DualCube(2)
        vals = np.empty(3 * 8, dtype=object)
        vals[:] = [(int(x),) for x in rng.integers(0, 9, 24)]
        got = large_prefix(dc, vals, CONCAT)
        acc = ()
        for k, v in enumerate(vals):
            acc = acc + v
            assert got[k] == acc

    def test_object_payloads_preserved_without_coercion(self):
        """Pins the behaviour the removed ``astype(object)`` branch guarded:
        a copy of an object-dtype input is already object dtype, results
        stay tuples, and the caller's array is never mutated."""
        dc = DualCube(2)
        vals = np.empty(2 * 8, dtype=object)
        vals[:] = [(k,) for k in range(16)]
        before = list(vals)
        got = large_prefix(dc, vals, CONCAT)
        assert got.dtype == object
        assert got[-1] == tuple(range(16))
        assert all(isinstance(v, tuple) for v in got)
        assert list(vals) == before

    @pytest.mark.parametrize("b", [1, 4, 16])
    def test_network_steps_independent_of_block_size(self, b, rng):
        dc = DualCube(3)
        c = CostCounters(dc.num_nodes)
        large_prefix(dc, rng.integers(0, 10, b * 32), ADD, counters=c)
        assert c.comm_steps == dual_prefix_comm_exact(3)

    def test_local_work_scales_with_block(self, rng):
        dc = DualCube(2)
        c1 = CostCounters(8)
        large_prefix(dc, rng.integers(0, 10, 8 * 8), ADD, counters=c1)
        c2 = CostCounters(8)
        large_prefix(dc, rng.integers(0, 10, 2 * 8), ADD, counters=c2)
        assert c1.max_node_ops > c2.max_node_ops

    def test_b_equals_one_matches_plain(self, rng):
        from repro.core.dual_prefix import dual_prefix

        dc = DualCube(2)
        vals = rng.integers(0, 100, 8)
        assert list(large_prefix(dc, vals, ADD)) == list(
            dual_prefix(dc, vals, ADD)
        )

    def test_rejects_non_multiple(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            large_prefix(dc, np.arange(9), ADD)
        with pytest.raises(ValueError):
            large_prefix(dc, np.array([]), ADD)


class TestLargeSort:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_sorts(self, n, b, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 10_000, b * rdc.num_nodes)
        assert list(large_sort(rdc, keys)) == sorted(keys)

    def test_descending(self, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.integers(0, 100, 4 * 8)
        assert list(large_sort(rdc, keys, descending=True)) == sorted(
            keys, reverse=True
        )

    def test_duplicates_and_negatives(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.integers(-5, 5, 2 * 32)
        assert list(large_sort(rdc, keys)) == sorted(keys)

    def test_floats(self, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.normal(size=4 * 8)
        assert list(large_sort(rdc, keys)) == sorted(keys)

    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_network_steps_match_plain_sort(self, policy, rng):
        rdc = RecursiveDualCube(3)
        c = CostCounters(32)
        large_sort(rdc, rng.integers(0, 100, 8 * 32), counters=c, payload_policy=policy)
        assert c.comm_steps == dual_sort_comm_exact(3, payload_policy=policy)

    def test_payload_scales_with_block(self, rng):
        rdc = RecursiveDualCube(2)
        c1 = CostCounters(8)
        large_sort(rdc, rng.integers(0, 100, 8), counters=c1)
        c4 = CostCounters(8)
        large_sort(rdc, rng.integers(0, 100, 4 * 8), counters=c4)
        assert c4.payload_items == 4 * c1.payload_items
        assert c4.max_message_payload == 4 * c1.max_message_payload

    def test_rejects_object_keys(self):
        rdc = RecursiveDualCube(1)
        bad = np.empty(4, dtype=object)
        bad[:] = ["a", "b", "c", "d"]
        with pytest.raises(TypeError):
            large_sort(rdc, bad)

    def test_rejects_bad_shapes_and_policy(self, rng):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            large_sort(rdc, np.arange(9))
        with pytest.raises(ValueError):
            large_sort(rdc, np.arange(8), payload_policy="osmosis")

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=16, max_size=16))
    def test_property_blocked_sort_n1(self, keys):
        rdc = RecursiveDualCube(1)  # 2 nodes, blocks of 8
        assert list(large_sort(rdc, np.array(keys))) == sorted(keys)


class TestLargePrefixEngine:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_matches_cumsum(self, n, b, rng):
        from repro.core.large_inputs import large_prefix_engine

        dc = DualCube(n)
        vals = rng.integers(0, 100, b * dc.num_nodes)
        out, res = large_prefix_engine(dc, vals.astype(object), ADD)
        assert list(out) == list(np.cumsum(vals))
        assert res.comm_steps == dual_prefix_comm_exact(n)

    def test_parity_with_vectorized_counters(self, rng):
        from repro.core.large_inputs import large_prefix_engine

        dc = DualCube(2)
        vals = rng.integers(0, 100, 4 * 8)
        out, res = large_prefix_engine(dc, vals.astype(object), ADD)
        c = CostCounters(8)
        vec = large_prefix(dc, vals, ADD, counters=c)
        assert list(out) == list(vec)
        assert res.comm_steps == c.comm_steps
        assert res.comp_steps == c.comp_steps
        assert res.counters.messages == c.messages

    def test_non_commutative(self, rng):
        from repro.core.large_inputs import large_prefix_engine

        dc = DualCube(2)
        vals = np.empty(2 * 8, dtype=object)
        vals[:] = [(int(x),) for x in rng.integers(0, 9, 16)]
        out, _ = large_prefix_engine(dc, vals, CONCAT)
        acc = ()
        for k, v in enumerate(vals):
            acc = acc + v
            assert out[k] == acc


class TestBlockedValidationMessages:
    """Regression: the length error must interpolate len(arr), not arr.shape."""

    def test_non_multiple_message_shows_length(self):
        dc = DualCube(2)  # 8 nodes
        with pytest.raises(
            ValueError,
            match=r"input length 9 must be a positive multiple of the "
            r"network size 8",
        ):
            large_prefix(dc, np.arange(9), ADD)

    def test_empty_message_shows_length(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match=r"input length 0 must be"):
            large_prefix(dc, np.array([]), ADD)

    def test_multidimensional_input_names_shape(self):
        dc = DualCube(2)
        with pytest.raises(
            ValueError, match=r"expected a flat 1-D input, got shape \(2, 4\)"
        ):
            large_prefix(dc, np.zeros((2, 4)), ADD)


class TestLocalSortCost:
    """Regression: local-sort comp cost uses ceil(log2 B), not floor."""

    def test_ceil_log2_values(self):
        from repro.core.large_inputs import _local_sort_ops

        # b * ceil(log2 b), clamped to >= 1 comparison.
        assert _local_sort_ops(1) == 1
        assert _local_sort_ops(2) == 2
        assert _local_sort_ops(3) == 6  # floor would give 3
        assert _local_sort_ops(4) == 8
        assert _local_sort_ops(5) == 15  # floor would give 10
        assert _local_sort_ops(8) == 24

    def test_counters_pin_b3(self, rng):
        # n=2: 2n^2 - n = 6 merge-split rounds at 2B = 6 ops each, plus
        # the local sort's B * ceil(log2 B) = 6 (floor(log2 3) = 1 would
        # have charged only 3).
        rdc = RecursiveDualCube(2)
        keys = rng.permutation(3 * rdc.num_nodes)
        c = CostCounters(rdc.num_nodes)
        out = large_sort(rdc, keys, counters=c)
        assert list(out) == sorted(keys)
        assert c.max_node_ops == 6 + 6 * 6
        assert c.comp_steps == 1 + 6
