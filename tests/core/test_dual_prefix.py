"""Tests for Algorithm 2 — D_prefix — and Theorem 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import (
    dual_prefix_comm_exact,
    dual_prefix_comp_exact,
    theorem1_comm_bound,
    theorem1_comp_bound,
)
from repro.core.dual_prefix import dual_prefix, dual_prefix_engine
from repro.core.ops import ADD, CONCAT, MATMUL2, MAX
from repro.core.verify import check_prefix
from repro.simulator import CostCounters, TraceRecorder
from repro.topology import DualCube


def tuple_values(n, rng):
    out = np.empty(n, dtype=object)
    out[:] = [(int(x),) for x in rng.integers(0, 100, n)]
    return out


class TestCorrectness:
    def test_engine_inclusive_concat(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        pre, _ = dual_prefix_engine(dc, vals, CONCAT)
        check_prefix(list(vals), pre, CONCAT)

    def test_engine_diminished_concat(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        pre, _ = dual_prefix_engine(dc, vals, CONCAT, inclusive=False)
        check_prefix(list(vals), pre, CONCAT, inclusive=False)

    def test_engine_paper_literal_same_output(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        a, _ = dual_prefix_engine(dc, vals, CONCAT, paper_literal=False)
        b, _ = dual_prefix_engine(dc, vals, CONCAT, paper_literal=True)
        assert list(a) == list(b)

    def test_vectorized_add_matches_cumsum(self, dc, rng):
        vals = rng.integers(-100, 100, dc.num_nodes)
        assert list(dual_prefix(dc, vals, ADD)) == list(np.cumsum(vals))

    def test_vectorized_diminished(self, dc, rng):
        vals = rng.integers(0, 100, dc.num_nodes)
        got = dual_prefix(dc, vals, ADD, inclusive=False)
        assert list(got) == [0] + list(np.cumsum(vals[:-1]))

    def test_vectorized_matmul(self, rng):
        dc = DualCube(3)
        mats = np.empty(32, dtype=object)
        mats[:] = [
            tuple(int(x) for x in rng.integers(-2, 3, 4)) for _ in range(32)
        ]
        pre = dual_prefix(dc, mats, MATMUL2)
        check_prefix(list(mats), pre, MATMUL2)

    def test_running_max(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-1000, 1000, 32)
        got = dual_prefix(dc, vals, MAX)
        assert list(got) == list(np.maximum.accumulate(vals))

    def test_engine_vec_identical_results(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        a, _ = dual_prefix_engine(dc, vals, CONCAT)
        b = dual_prefix(dc, vals, CONCAT)
        assert list(a) == list(b)

    def test_shape_validation(self):
        dc = DualCube(2)
        with pytest.raises(ValueError):
            dual_prefix(dc, np.arange(5), ADD)

    def test_backend_dispatch(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 10, 8)
        v = dual_prefix(dc, vals, ADD)
        e, _ = dual_prefix(dc, vals.astype(object), ADD, backend="engine")
        assert list(v) == list(e)
        with pytest.raises(ValueError):
            dual_prefix(dc, vals, ADD, backend="quantum")


class TestTheorem1Costs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_engine_step_counts(self, n, paper_literal, rng):
        dc = DualCube(n)
        vals = tuple_values(dc.num_nodes, rng)
        _, res = dual_prefix_engine(dc, vals, CONCAT, paper_literal=paper_literal)
        assert res.comm_steps == dual_prefix_comm_exact(
            n, paper_literal=paper_literal
        )
        assert res.comp_steps == dual_prefix_comp_exact(n)
        # Theorem 1's "at most" bounds hold for both variants.
        assert res.comm_steps <= theorem1_comm_bound(n)
        assert res.comp_steps <= theorem1_comp_bound(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_vec_counters_equal_engine_formulas(self, n, paper_literal, rng):
        dc = DualCube(n)
        c = CostCounters(dc.num_nodes)
        dual_prefix(
            dc,
            rng.integers(0, 10, dc.num_nodes),
            ADD,
            paper_literal=paper_literal,
            counters=c,
        )
        assert c.comm_steps == dual_prefix_comm_exact(n, paper_literal=paper_literal)
        assert c.comp_steps == dual_prefix_comp_exact(n)

    def test_counters_fully_match_between_backends(self, dc, rng):
        vals = tuple_values(dc.num_nodes, rng)
        _, res = dual_prefix_engine(dc, vals, CONCAT)
        c = CostCounters(dc.num_nodes)
        dual_prefix(dc, vals, CONCAT, counters=c)
        assert c.comm_steps == res.comm_steps
        assert c.comp_steps == res.comp_steps
        assert c.messages == res.counters.messages

    def test_faster_than_nothing_but_close_to_hypercube(self):
        # Same-size hypercube needs 2n-1 steps; dual-cube needs 2n — the
        # paper's "almost as efficient as in hypercube".
        for n in range(1, 8):
            assert dual_prefix_comm_exact(n) == (2 * n - 1) + 1


class TestTraces:
    def test_trace_has_six_figure3_panels(self, rng):
        dc = DualCube(3)
        trace = TraceRecorder()
        dual_prefix(dc, np.arange(1, 33), ADD, trace=trace)
        labels = trace.labels()
        for tag in ("(a)", "(b)", "(c)", "(d)", "(e)", "(f)"):
            assert any(lbl.startswith(tag) for lbl in labels), tag

    def test_engine_trace_matches_vec_trace(self, rng):
        dc = DualCube(2)
        vals = tuple_values(8, rng)
        t1, t2 = TraceRecorder(), TraceRecorder()
        dual_prefix_engine(dc, vals, CONCAT, trace=t1)
        dual_prefix(dc, vals, CONCAT, trace=t2)
        for lbl in t2.labels():
            assert t1.snapshot(lbl, 8) == t2.snapshot(lbl, 8), lbl


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(-(10**9), 10**9), min_size=8, max_size=8),
        st.booleans(),
    )
    def test_prefix_sum_any_ints(self, vals, inclusive):
        dc = DualCube(2)
        got = dual_prefix(
            dc, np.array(vals, dtype=np.int64), ADD, inclusive=inclusive
        )
        check_prefix(vals, got, ADD, inclusive=inclusive)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.booleans())
    def test_all_sizes_all_variants_concat(self, n, inclusive, paper_literal):
        dc = DualCube(n)
        rng = np.random.default_rng(n)
        vals = tuple_values(dc.num_nodes, rng)
        got = dual_prefix(
            dc, vals, CONCAT, inclusive=inclusive, paper_literal=paper_literal
        )
        check_prefix(list(vals), got, CONCAT, inclusive=inclusive)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=32, max_size=32))
    def test_float_prefix_close_to_cumsum(self, vals):
        dc = DualCube(3)
        got = dual_prefix(dc, np.array(vals), ADD)
        # Tree order differs from serial order; allow float reassociation.
        np.testing.assert_allclose(got, np.cumsum(vals), rtol=1e-9, atol=1e-6)


class TestSuffixScan:
    def test_suffix_sum(self, rng):
        from repro.core.dual_prefix import dual_suffix_vec

        dc = DualCube(3)
        vals = rng.integers(-100, 100, 32)
        suf = dual_suffix_vec(dc, vals, ADD)
        assert list(suf) == list(np.cumsum(vals[::-1])[::-1])

    def test_suffix_non_commutative_order(self):
        from repro.core.dual_prefix import dual_suffix_vec

        dc = DualCube(2)
        vals = np.empty(8, dtype=object)
        vals[:] = [(k,) for k in range(8)]
        suf = dual_suffix_vec(dc, vals, CONCAT)
        for k in range(8):
            assert suf[k] == tuple(range(k, 8))

    def test_suffix_diminished(self, rng):
        from repro.core.dual_prefix import dual_suffix_vec

        dc = DualCube(2)
        vals = rng.integers(0, 50, 8)
        suf = dual_suffix_vec(dc, vals, ADD, inclusive=False)
        expect = list(np.cumsum(vals[::-1])[::-1])[1:] + [0]
        assert list(suf) == expect

    def test_suffix_costs_match_prefix(self, rng):
        from repro.core.dual_prefix import dual_suffix_vec

        dc = DualCube(3)
        c = CostCounters(32)
        dual_suffix_vec(dc, rng.integers(0, 9, 32), ADD, counters=c)
        assert c.comm_steps == 6

    def test_prefix_plus_suffix_identity(self, rng):
        """inclusive prefix[k] + diminished suffix[k+1...] == total."""
        from repro.core.dual_prefix import dual_suffix_vec

        dc = DualCube(3)
        vals = rng.integers(-50, 50, 32)
        pre = dual_prefix(dc, vals, ADD)
        suf = dual_suffix_vec(dc, vals, ADD, inclusive=False)
        assert all(p + s == vals.sum() for p, s in zip(pre, suf))
