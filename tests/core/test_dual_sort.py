"""Tests for Algorithm 3 — D_sort — and Theorem 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    dual_sort_comm_exact,
    dual_sort_comp_exact,
    hypercube_bitonic_steps,
    theorem2_comm_bound,
    theorem2_comp_bound,
)
from repro.core.dual_sort import (
    ScheduleStep,
    dual_sort,
    dual_sort_engine,
    dual_sort_schedule,
    step_cycle_cost,
)
from repro.simulator import CostCounters, TraceRecorder
from repro.topology import RecursiveDualCube


class TestScheduleStructure:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_step_count_is_2nn_minus_n(self, n):
        assert len(dual_sort_schedule(n)) == 2 * n * n - n

    def test_base_case(self):
        sched = dual_sort_schedule(1)
        assert sched == [ScheduleStep(0, "const", 0, phase="base D_1")]
        assert dual_sort_schedule(1, descending=True)[0].dir_val == 1

    def test_recursion_layout_n2(self):
        sched = dual_sort_schedule(2)
        assert [s.dim for s in sched] == [0, 1, 0, 2, 1, 0]
        assert sched[0] == ScheduleStep(0, "bit", 1, phase="base D_1")
        assert all(s == ScheduleStep(s.dim, "bit", 2, phase="half-merge D_2") for s in sched[1:3])
        assert all(s == ScheduleStep(s.dim, "const", 0, phase="full-merge D_2") for s in sched[3:])

    def test_all_dims_in_range(self):
        for n in range(1, 6):
            sched = dual_sort_schedule(n)
            assert all(0 <= s.dim < 2 * n - 1 for s in sched)

    def test_final_merge_spans_all_dims_descending(self):
        for n in (2, 3, 4):
            sched = dual_sort_schedule(n)
            tail = sched[-(2 * n - 1):]
            assert [s.dim for s in tail] == list(range(2 * n - 2, -1, -1))
            assert all(s.dir_kind == "const" for s in tail)

    def test_direction_resolution(self):
        bit_step = ScheduleStep(0, "bit", 2)
        assert not bit_step.descending(0b011)
        assert bit_step.descending(0b100)
        const_step = ScheduleStep(0, "const", 1)
        assert const_step.descending(0) and const_step.descending(7)

    def test_descending_mask_matches_scalar(self):
        idx = np.arange(32)
        for step in dual_sort_schedule(3):
            mask = step.descending_mask(idx)
            assert list(mask) == [step.descending(int(u)) for u in idx]

    def test_bad_step_params_rejected(self):
        with pytest.raises(ValueError):
            ScheduleStep(0, "sideways", 0)
        with pytest.raises(ValueError):
            ScheduleStep(0, "const", 2)
        with pytest.raises(ValueError):
            dual_sort_schedule(0)

    def test_step_cycle_cost(self):
        rdc = RecursiveDualCube(3)
        assert step_cycle_cost(rdc, 0) == 1
        assert step_cycle_cost(rdc, 1) == 3
        assert step_cycle_cost(rdc, 1, "single") == 4


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vec_sorts_permutations(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        assert list(dual_sort(rdc, keys)) == list(range(rdc.num_nodes))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vec_sorts_duplicates(self, n, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 3, rdc.num_nodes)
        assert list(dual_sort(rdc, keys)) == sorted(keys)

    def test_vec_descending(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.integers(0, 100, 32)
        assert list(dual_sort(rdc, keys, descending=True)) == sorted(
            keys, reverse=True
        )

    @pytest.mark.parametrize("policy", ["packed", "single"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_engine_sorts(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = [int(k) for k in rng.integers(0, 1000, rdc.num_nodes)]
        out, _ = dual_sort_engine(rdc, keys, payload_policy=policy)
        assert out == sorted(keys)

    def test_engine_object_keys(self):
        rdc = RecursiveDualCube(2)
        keys = ["pear", "apple", "fig", "date", "plum", "kiwi", "lime", "yuzu"]
        out, _ = dual_sort_engine(rdc, keys)
        assert out == sorted(keys)

    def test_all_equal(self):
        rdc = RecursiveDualCube(2)
        assert list(dual_sort(rdc, np.full(8, 5))) == [5] * 8

    def test_already_sorted_and_reversed(self):
        rdc = RecursiveDualCube(3)
        assert list(dual_sort(rdc, np.arange(32))) == list(range(32))
        assert list(dual_sort(rdc, np.arange(31, -1, -1))) == list(range(32))

    def test_negative_and_float_keys(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.normal(size=32)
        out = dual_sort(rdc, keys)
        assert list(out) == sorted(keys)

    def test_shape_and_policy_validation(self, rng):
        rdc = RecursiveDualCube(2)
        with pytest.raises(ValueError):
            dual_sort(rdc, np.arange(7))
        with pytest.raises(ValueError):
            dual_sort(rdc, np.arange(8), payload_policy="gift-wrapped")
        with pytest.raises(ValueError):
            dual_sort(rdc, np.arange(8), backend="sundial")

    def test_backend_dispatch(self, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.integers(0, 50, 8)
        v = dual_sort(rdc, keys)
        e, _ = dual_sort(rdc, [int(k) for k in keys], backend="engine")
        assert list(v) == e


class TestTheorem2Costs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_engine_comm_steps(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = [int(k) for k in rng.integers(0, 100, rdc.num_nodes)]
        _, res = dual_sort_engine(rdc, keys, payload_policy=policy)
        assert res.comm_steps == dual_sort_comm_exact(n, payload_policy=policy)
        assert res.comp_steps == dual_sort_comp_exact(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_model_below_paper_bound(self, n):
        assert dual_sort_comm_exact(n) <= theorem2_comm_bound(n)
        assert dual_sort_comp_exact(n) <= theorem2_comp_bound(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vec_counters_match_formulas(self, n, rng):
        rdc = RecursiveDualCube(n)
        for policy in ("packed", "single"):
            c = CostCounters(rdc.num_nodes)
            dual_sort(
                rdc, rng.integers(0, 50, rdc.num_nodes), counters=c, payload_policy=policy
            )
            assert c.comm_steps == dual_sort_comm_exact(n, payload_policy=policy)
            assert c.comp_steps == dual_sort_comp_exact(n)

    def test_engine_and_vec_counters_fully_agree(self, rng):
        rdc = RecursiveDualCube(2)
        keys = [int(k) for k in rng.integers(0, 100, 8)]
        for policy in ("packed", "single"):
            _, res = dual_sort_engine(rdc, keys, payload_policy=policy)
            c = CostCounters(8)
            dual_sort(rdc, np.array(keys), counters=c, payload_policy=policy)
            assert c.comm_steps == res.comm_steps
            assert c.messages == res.counters.messages
            assert c.payload_items == res.counters.payload_items
            assert c.max_message_payload == res.counters.max_message_payload

    def test_packed_messages_carry_at_most_two_keys(self, rng):
        rdc = RecursiveDualCube(2)
        keys = [int(k) for k in rng.integers(0, 100, 8)]
        _, res = dual_sort_engine(rdc, keys, payload_policy="packed")
        assert res.counters.max_message_payload == 2
        _, res1 = dual_sort_engine(rdc, keys, payload_policy="single")
        assert res1.counters.max_message_payload == 1

    def test_comparisons_equal_hypercube_baseline(self):
        # The overhead is pure communication: comparison rounds match the
        # same-size hypercube exactly.
        for n in range(1, 7):
            assert dual_sort_comp_exact(n) == hypercube_bitonic_steps(2 * n - 1)

    def test_overhead_ratio_below_three(self):
        for n in range(1, 10):
            ratio = dual_sort_comm_exact(n) / hypercube_bitonic_steps(2 * n - 1)
            assert ratio < 3.0


class TestTraces:
    def test_trace_records_every_step(self, rng):
        rdc = RecursiveDualCube(2)
        trace = TraceRecorder()
        dual_sort(rdc, rng.integers(0, 50, 8), trace=trace)
        # input + one label per schedule step
        assert len(trace.labels()) == 1 + len(dual_sort_schedule(2))

    def test_phases_appear_in_labels(self, rng):
        rdc = RecursiveDualCube(3)
        trace = TraceRecorder()
        dual_sort(rdc, rng.integers(0, 50, 32), trace=trace)
        labels = " ".join(trace.labels())
        assert "base D_1" in labels
        assert "half-merge D_2" in labels
        assert "full-merge D_3" in labels


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-(10**6), 10**6), min_size=8, max_size=8))
    def test_sorts_any_input_n2(self, keys):
        rdc = RecursiveDualCube(2)
        assert list(dual_sort(rdc, np.array(keys))) == sorted(keys)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=32, max_size=32), st.booleans())
    def test_sorts_heavy_duplicates_n3(self, keys, descending):
        rdc = RecursiveDualCube(3)
        out = dual_sort(rdc, np.array(keys), descending=descending)
        assert list(out) == sorted(keys, reverse=descending)

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(list(range(32))))
    def test_zero_one_principle_spirit_n3(self, keys):
        rdc = RecursiveDualCube(3)
        assert list(dual_sort(rdc, np.array(keys))) == list(range(32))
