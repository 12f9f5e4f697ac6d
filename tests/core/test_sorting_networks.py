"""Tests for the comparator-network module (paper Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sorting_networks import (
    apply_network,
    bitonic_sort_network,
    comparator_count,
    is_dimension_exchange_network,
    network_depth,
    odd_even_merge_sort_network,
    verify_zero_one,
)


class TestBitonicNetwork:
    @pytest.mark.parametrize("w", [1, 2, 4, 8, 16])
    def test_zero_one_principle(self, w):
        assert verify_zero_one(bitonic_sort_network(w), w)

    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32])
    def test_depth_is_q_qplus1_over_2(self, w):
        q = w.bit_length() - 1
        assert network_depth(bitonic_sort_network(w)) == q * (q + 1) // 2

    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32])
    def test_comparator_count(self, w):
        q = w.bit_length() - 1
        assert comparator_count(bitonic_sort_network(w)) == (w // 2) * q * (q + 1) // 2

    def test_all_comparators_are_dimension_exchanges(self):
        for w in (2, 4, 8, 16, 32):
            assert is_dimension_exchange_network(bitonic_sort_network(w))

    def test_matches_hypercube_schedule_executor(self, rng):
        """Same algorithm, two formulations: comparator network vs the
        dimension-exchange schedule the dual-cube emulates."""
        from repro.core.bitonic import hypercube_bitonic_sort

        keys = rng.integers(0, 1000, 32)
        net = apply_network(keys, bitonic_sort_network(32))
        sched = hypercube_bitonic_sort(keys)
        assert list(net) == list(sched) == sorted(keys)


class TestOddEvenNetwork:
    @pytest.mark.parametrize("w", [1, 2, 4, 8, 16])
    def test_zero_one_principle(self, w):
        assert verify_zero_one(odd_even_merge_sort_network(w), w)

    @pytest.mark.parametrize("w", [4, 8, 16, 32, 64])
    def test_sorts_random_keys(self, w, rng):
        keys = rng.integers(-1000, 1000, w)
        assert list(apply_network(keys, odd_even_merge_sort_network(w))) == sorted(keys)

    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32])
    def test_same_depth_as_bitonic(self, w):
        assert network_depth(odd_even_merge_sort_network(w)) == network_depth(
            bitonic_sort_network(w)
        )

    @pytest.mark.parametrize("w", [4, 8, 16, 32])
    def test_fewer_comparators_than_bitonic(self, w):
        assert comparator_count(odd_even_merge_sort_network(w)) < comparator_count(
            bitonic_sort_network(w)
        )

    @pytest.mark.parametrize("w", [4, 8, 16, 32])
    def test_not_a_dimension_exchange_network(self, w):
        """Why the paper builds the dual-cube sort on bitonic instead."""
        assert not is_dimension_exchange_network(odd_even_merge_sort_network(w))


class TestApplyNetwork:
    def test_stage_index_reuse_rejected(self):
        with pytest.raises(ValueError):
            apply_network([3, 1, 2], [[(0, 1), (1, 2)]])

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            bitonic_sort_network(6)
        with pytest.raises(ValueError):
            odd_even_merge_sort_network(0)

    def test_input_not_mutated(self):
        keys = np.array([3, 1, 2, 0])
        apply_network(keys, bitonic_sort_network(4))
        assert list(keys) == [3, 1, 2, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=16, max_size=16))
    def test_property_both_networks_sort(self, keys):
        arr = np.array(keys)
        assert list(apply_network(arr, bitonic_sort_network(16))) == sorted(keys)
        assert list(apply_network(arr, odd_even_merge_sort_network(16))) == sorted(keys)


class TestScheduleToNetwork:
    """Exhaustive 0-1 certification of the paper's actual schedules."""

    def test_dual_sort_schedule_n2_certified(self):
        from repro.core.dual_sort import dual_sort_schedule
        from repro.core.sorting_networks import schedule_to_network

        net = schedule_to_network(dual_sort_schedule(2), 8)
        assert verify_zero_one(net, 8)

    def test_descending_schedule_reverses(self, rng):
        from repro.core.dual_sort import dual_sort_schedule
        from repro.core.sorting_networks import schedule_to_network

        net = schedule_to_network(dual_sort_schedule(2, descending=True), 8)
        out = apply_network(rng.permutation(8), net)
        assert list(out) == [7, 6, 5, 4, 3, 2, 1, 0]

    def test_bitonic_schedule_equals_bitonic_network(self):
        from repro.core.bitonic import bitonic_schedule
        from repro.core.sorting_networks import schedule_to_network

        for q in (1, 2, 3, 4):
            assert schedule_to_network(bitonic_schedule(q), 1 << q) == (
                bitonic_sort_network(1 << q)
            )

    def test_truncated_schedule_fails_certification(self):
        from repro.core.dual_sort import dual_sort_schedule
        from repro.core.sorting_networks import schedule_to_network

        broken = dual_sort_schedule(2)[:-1]
        assert not verify_zero_one(schedule_to_network(broken, 8), 8)

    def test_wrong_direction_fails_certification(self):
        from repro.core.dual_sort import ScheduleStep, dual_sort_schedule
        from repro.core.sorting_networks import schedule_to_network

        sched = dual_sort_schedule(2)
        # Flip the final step's direction.
        sched[-1] = ScheduleStep(sched[-1].dim, "const", 1)
        assert not verify_zero_one(schedule_to_network(sched, 8), 8)

    def test_hypercube_schedule_certified_width16(self):
        from repro.core.bitonic import bitonic_schedule
        from repro.core.sorting_networks import schedule_to_network

        assert verify_zero_one(schedule_to_network(bitonic_schedule(4), 16), 16)
