"""Columnar backend: view primitives, differential parity vs the replay
backend and the engine (under both engine matchers), static-schedule step
parity, memory scaling, and the backend dispatchers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ADD,
    CONCAT,
    MATMUL2,
    dual_prefix,
    dual_sort,
    large_prefix,
    large_sort,
    sequential_prefix,
)
from repro.core.columnar import (
    dual_prefix_columnar,
    dual_sort_columnar,
    execute_schedule_columnar,
    large_prefix_columnar,
    large_sort_columnar,
)
from repro.core.dual_prefix import dual_prefix_engine, dual_prefix_program
from repro.core.replay import dual_prefix_replay
from repro.core.dual_sort import (
    dual_sort_engine,
    dual_sort_schedule,
    schedule_program,
)
from repro.obs.timeline import TimelineRecorder
from repro.simulator import (
    ColumnarState,
    CostCounters,
    bit_pair_views,
    dir_bit_views,
    swap_halves,
    use_matching,
)
from repro.topology import DualCube, RecursiveDualCube


def _obj(items):
    out = np.empty(len(items), dtype=object)
    out[:] = list(items)
    return out


class TestColumnarState:
    def test_columns_are_views(self):
        st_ = ColumnarState(8, [("t", np.int64), ("s", np.int64)])
        t = st_.column("t")
        t[:] = np.arange(8)
        assert np.array_equal(st_.column("t"), np.arange(8))
        assert st_.columns() == ("t", "s")
        assert st_.nbytes == 8 * 16

    def test_subarray_field(self):
        st_ = ColumnarState(4, [("block", np.int64, (3,))])
        assert st_.column("block").shape == (4, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ColumnarState(0, [("t", np.int64)])
        with pytest.raises(ValueError, match="at least one field"):
            ColumnarState(4, [])


class TestPairViews:
    @pytest.mark.parametrize("b", [0, 1, 2, 3])
    def test_matches_partner_indexing(self, b, rng):
        col = rng.integers(0, 100, 16)
        lo, hi = bit_pair_views(col, b)
        idx = np.arange(16)
        assert np.array_equal(lo.reshape(-1), col[idx[(idx >> b) & 1 == 0]])
        assert np.array_equal(hi.reshape(-1), col[idx[(idx >> b) & 1 == 1]])

    def test_views_write_through(self):
        col = np.zeros(8, dtype=np.int64)
        lo, hi = bit_pair_views(col, 1)
        hi[...] = 7
        assert np.array_equal(col, [0, 0, 7, 7, 0, 0, 7, 7])

    def test_object_column_and_half_slice(self):
        st_ = ColumnarState(8, [("t", object)])
        col = st_.column("t")
        col[:] = [(i,) for i in range(8)]
        lo, hi = bit_pair_views(col[4:], 0)
        lo[0, 0] = (99,)
        lo[1, 0] = (98,)
        assert col[4] == (99,) and col[6] == (98,)

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            bit_pair_views(np.zeros(8), 3)

    @pytest.mark.parametrize("dir_bit,dim", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_dir_bit_views_match_masks(self, dir_bit, dim, rng):
        col = rng.integers(0, 100, 16)
        asc_lo, asc_hi, desc_lo, desc_hi = dir_bit_views(col, dir_bit, dim)
        idx = np.arange(16)
        for view, want_dir, want_dim in (
            (asc_lo, 0, 0), (asc_hi, 0, 1), (desc_lo, 1, 0), (desc_hi, 1, 1)
        ):
            sel = ((idx >> dir_bit) & 1 == want_dir) & ((idx >> dim) & 1 == want_dim)
            assert sorted(view.reshape(-1)) == sorted(col[sel])

    def test_dir_bit_must_exceed_dim(self):
        with pytest.raises(ValueError, match="must exceed"):
            dir_bit_views(np.zeros(16), 1, 1)

    def test_swap_halves(self):
        src = np.arange(8)
        out = np.empty(8, dtype=src.dtype)
        swap_halves(src, out)
        assert np.array_equal(out, [4, 5, 6, 7, 0, 1, 2, 3])
        with pytest.raises(ValueError, match="shape mismatch"):
            swap_halves(src, np.empty(4, dtype=src.dtype))


@pytest.mark.parametrize("n", [2, 3, 4])
class TestPrefixDifferential:
    def test_vs_vectorized_all_variants(self, n, rng):
        dc = DualCube(n)
        for op, vals in (
            (ADD, rng.integers(0, 1000, dc.num_nodes)),
            (CONCAT, _obj([(int(x),) for x in rng.integers(0, 99, dc.num_nodes)])),
            (MATMUL2, _obj([
                tuple(int(v) for v in rng.integers(-2, 3, 4))
                for _ in range(dc.num_nodes)
            ])),
        ):
            for inclusive in (True, False):
                for paper_literal in (False, True):
                    cv = CostCounters(dc.num_nodes)
                    cc = CostCounters(dc.num_nodes)
                    a = dual_prefix(
                        dc, vals, op, backend="replay", inclusive=inclusive,
                        paper_literal=paper_literal, counters=cv,
                    )
                    b = dual_prefix_columnar(
                        dc, vals, op, inclusive=inclusive,
                        paper_literal=paper_literal, counters=cc,
                    )
                    assert list(a) == list(b)
                    assert cv.summary() == cc.summary()
                    assert np.array_equal(cv._comp_calls, cc._comp_calls)
                    assert np.array_equal(cv._comp_ops, cc._comp_ops)

    @pytest.mark.parametrize("matching", ["indexed", "legacy"])
    def test_vs_engine_both_matchers(self, n, matching, rng):
        dc = DualCube(n)
        vals = _obj([(int(x),) for x in rng.integers(0, 99, dc.num_nodes)])
        for inclusive in (True, False):
            cc = CostCounters(dc.num_nodes)
            got = dual_prefix_columnar(
                dc, vals, CONCAT, inclusive=inclusive, counters=cc
            )
            with use_matching(matching):
                want, res = dual_prefix_engine(
                    dc, vals, CONCAT, inclusive=inclusive
                )
            assert list(got) == list(want)
            e = res.counters
            assert cc.comm_steps == e.comm_steps
            assert cc.comp_steps == e.comp_steps
            assert cc.messages == e.messages
            assert cc.payload_items == e.payload_items
            assert cc.max_message_payload == e.max_message_payload


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("policy", ["packed", "single"])
class TestSortDifferential:
    def test_vs_vectorized(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 999, rdc.num_nodes)
        for descending in (False, True):
            cv = CostCounters(rdc.num_nodes)
            cc = CostCounters(rdc.num_nodes)
            a = dual_sort(
                rdc, keys, descending=descending, backend="replay",
                payload_policy=policy, counters=cv,
            )
            b = dual_sort_columnar(
                rdc, keys, descending=descending,
                payload_policy=policy, counters=cc,
            )
            assert np.array_equal(a, b)
            assert cv.summary() == cc.summary()

    @pytest.mark.parametrize("matching", ["indexed", "legacy"])
    def test_vs_engine_both_matchers(self, n, policy, matching, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.integers(0, 999, rdc.num_nodes)
        cc = CostCounters(rdc.num_nodes)
        got = dual_sort_columnar(rdc, keys, payload_policy=policy, counters=cc)
        with use_matching(matching):
            want, res = dual_sort_engine(
                rdc, [int(k) for k in keys], payload_policy=policy
            )
        assert list(got) == want
        e = res.counters
        assert cc.comm_steps == e.comm_steps
        assert cc.comp_steps == e.comp_steps
        assert cc.messages == e.messages
        assert cc.payload_items == e.payload_items


@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestStaticScheduleParity:
    """Columnar comm step counts equal the static analyzer's extraction."""

    def test_prefix_steps(self, n, rng):
        from repro.analysis.static.extract import extract_schedule

        dc = DualCube(n)
        vals = [int(v) for v in rng.integers(0, 100, dc.num_nodes)]
        c = CostCounters(dc.num_nodes)
        dual_prefix_columnar(dc, np.asarray(vals), ADD, counters=c)
        static = extract_schedule(dc, dual_prefix_program(dc, vals, ADD))
        assert c.comm_steps == static.steps

    def test_sort_steps(self, n, rng):
        from repro.analysis.static.extract import extract_schedule

        rdc = RecursiveDualCube(n)
        keys = [int(k) for k in rng.permutation(rdc.num_nodes)]
        c = CostCounters(rdc.num_nodes)
        dual_sort_columnar(rdc, np.asarray(keys), counters=c)
        static = extract_schedule(
            rdc, schedule_program(rdc, keys, dual_sort_schedule(rdc.n))
        )
        assert c.comm_steps == static.steps


class TestLargeVariants:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_large_prefix_parity(self, n, block, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 100, dc.num_nodes * block)
        cv, cc = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        a = large_prefix(dc, vals, ADD, counters=cv)
        b = large_prefix_columnar(dc, vals, ADD, counters=cc)
        assert np.array_equal(a, b)
        assert cv.summary() == cc.summary()

    def test_large_prefix_concat_objects(self, rng):
        dc = DualCube(2)
        vals = _obj([(i,) for i in range(dc.num_nodes * 3)])
        a = large_prefix(dc, vals, CONCAT)
        b = large_prefix_columnar(dc, vals, CONCAT)
        assert list(a) == list(b)
        assert b[-1] == tuple(range(dc.num_nodes * 3))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    @pytest.mark.parametrize("descending", [False, True])
    def test_large_sort_parity(self, n, block, descending, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * block)
        cv, cc = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        a = large_sort(rdc, keys, descending=descending, counters=cv)
        b = large_sort_columnar(rdc, keys, descending=descending, counters=cc)
        assert np.array_equal(a, b)
        assert cv.summary() == cc.summary()

    def test_large_sort_rejects_objects(self):
        rdc = RecursiveDualCube(2)
        keys = _obj([(i,) for i in range(rdc.num_nodes)])
        with pytest.raises(TypeError, match="numeric"):
            large_sort_columnar(rdc, keys)


class TestDispatchers:
    def test_prefix_backend_flag(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        assert np.array_equal(
            dual_prefix(dc, vals, ADD, backend="columnar"),
            dual_prefix(dc, vals, ADD),
        )

    def test_sort_backend_flag(self, rng):
        rdc = RecursiveDualCube(3)
        keys = rng.permutation(rdc.num_nodes)
        assert np.array_equal(
            dual_sort(rdc, keys, backend="columnar"), np.sort(keys)
        )

    def test_large_backend_flags(self, rng):
        dc, rdc = DualCube(2), RecursiveDualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes * 4)
        assert np.array_equal(
            large_prefix(dc, vals, ADD, backend="columnar"),
            large_prefix(dc, vals, ADD),
        )
        assert np.array_equal(
            large_sort(rdc, vals, backend="columnar"), np.sort(vals)
        )

    def test_unknown_backend_names_columnar(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="columnar"):
            dual_prefix(dc, np.zeros(dc.num_nodes), ADD, backend="nope")
        with pytest.raises(ValueError, match="columnar"):
            large_prefix(dc, np.zeros(dc.num_nodes), ADD, backend="nope")

    def test_class_bit_guard(self):
        class TopBitless(DualCube):
            @property
            def class_dimension(self):
                return 0

        with pytest.raises(ValueError, match="top address bit"):
            dual_prefix_columnar(TopBitless(2), np.zeros(8), ADD)

    def test_degenerate_schedule_step_rejected(self):
        from repro.core.dual_sort import ScheduleStep

        rdc = RecursiveDualCube(2)
        bad = [ScheduleStep(dim=1, dir_kind="bit", dir_val=1, phase="x")]
        with pytest.raises(ValueError, match="degenerate"):
            execute_schedule_columnar(rdc, np.zeros(rdc.num_nodes), bad)


@given(data=st.data(), n=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_property_prefix_matches_sequential_oracle(data, n):
    dc = DualCube(n)
    vals = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6),
                min_size=dc.num_nodes,
                max_size=dc.num_nodes,
            )
        )
    )
    got = dual_prefix_columnar(dc, vals, ADD)
    assert list(got) == sequential_prefix(list(vals), ADD)
    sorted_keys = dual_sort_columnar(RecursiveDualCube(n), vals)
    assert np.array_equal(sorted_keys, np.sort(vals))


class TestMemoryScaling:
    def test_prefix_memory_is_o_nodes(self):
        """Peak heap stays within a small constant times the node count."""
        dc = DualCube(8)  # 32768 nodes
        vals = np.arange(dc.num_nodes, dtype=np.int64)
        tracemalloc.start()
        try:
            dual_prefix_columnar(dc, vals, ADD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4 int64 state columns + arrangement permutation + output =
        # ~48 B/node; 200 B/node plus fixed slack leaves generous headroom
        # while still catching any O(nodes * rounds) or edge-list blowup.
        assert peak < 200 * dc.num_nodes + 4 * 1024 * 1024


class TestTimelineMirroring:
    def test_columnar_emits_same_step_records_as_vec(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        recs = []
        for fn in (dual_prefix_replay, dual_prefix_columnar):
            c = CostCounters(dc.num_nodes)
            tl = TimelineRecorder(num_nodes=dc.num_nodes)
            c.attach_timeline(tl)
            fn(dc, vals, ADD, counters=c)
            recs.append(tl.steps)
        assert recs[0] == recs[1]
        assert any(s.kind == "comm" for s in recs[1])
        assert any(s.kind == "comp" for s in recs[1])
