"""Engine/array-backend wiring of the timeline recorder.

The headline guarantee: a recorder attached to an engine run carries the
*same* per-cycle event set as the static analyzer's extracted schedule —
for both matchers and for the fast bookkeeping path (whose bulk flush
must preserve per-cycle resolution, not collapse to one end-of-run blob).
"""

import pytest

from repro.analysis.static.extract import extract_schedule
from repro.core.dual_prefix import (
    dual_prefix_engine,
    dual_prefix_program,
    dual_prefix,
)
from repro.core.dual_sort import (
    dual_sort_engine,
    dual_sort_schedule,
    schedule_program,
)
from repro.core.ops import ADD
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.simulator import (
    CostCounters,
    FaultPlan,
    SendRecv,
    run_spmd,
    use_matching,
    use_timeline,
)
from repro.topology import DualCube, Hypercube, RecursiveDualCube

MATCHERS = ["indexed", "legacy"]


def pairswap(ctx):
    got = yield SendRecv(ctx.rank ^ 1, ctx.rank)
    return got


def _timeline_key(t):
    return sorted((e.cycle, e.src, e.dst, e.size, e.kind) for e in t.events)


class TestEngineWiring:
    @pytest.mark.parametrize("matching", MATCHERS)
    def test_pairswap_records_one_cycle(self, matching):
        h = Hypercube(1)
        t = TimelineRecorder(num_nodes=2)
        run_spmd(h, pairswap, timeline=t, matching=matching)
        assert t.num_cycles == 1
        assert _timeline_key(t) == [
            (1, 0, 1, 1, "sendrecv"),
            (1, 1, 0, 1, "sendrecv"),
        ]

    def test_fast_path_flush_keeps_cycle_resolution(self):
        # Fault-free indexed runs take the fast bookkeeping path; the
        # recorder must still see every (cycle, src, dst) individually.
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_timeline(t):
            dual_prefix_engine(dc, vals, ADD)
        per_cycle = [a.messages for a in t.cycle_aggregates()]
        assert len(per_cycle) == t.num_cycles > 1
        assert sum(per_cycle) == len(t.events)
        # Not one blob: messages are spread over multiple cycles.
        assert sum(1 for m in per_cycle if m) > 1

    def test_matchers_and_fast_mode_record_identical_timelines(self):
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        keys = {}
        for matching in MATCHERS:
            for fast in (False, True):
                t = TimelineRecorder(num_nodes=dc.num_nodes)
                program = dual_prefix_program(dc, vals, ADD)
                run_spmd(dc, program, timeline=t, matching=matching, fast=fast)
                keys[(matching, fast)] = _timeline_key(t)
        first, *rest = keys.values()
        assert first and all(k == first for k in rest)

    def test_use_timeline_rejects_non_recorders(self):
        with pytest.raises(TypeError, match="record_message"):
            with use_timeline(object()):
                pass

    def test_use_timeline_reaches_nested_run_spmd(self):
        t = TimelineRecorder()
        with use_timeline(t):
            dual_prefix_engine(DualCube(2), list(range(8)), ADD)
        assert t.events  # the inner run_spmd picked up the ambient recorder


class TestFaultEvents:
    @pytest.mark.parametrize("matching", MATCHERS)
    def test_drop_recorded_with_endpoints(self, matching):
        h = Hypercube(1)
        plan = FaultPlan(drops={(0, 1, 1)})
        t = TimelineRecorder(num_nodes=2)
        run_spmd(h, pairswap, fault_plan=plan, timeline=t, matching=matching)
        drops = [f for f in t.faults if f.kind == "drop"]
        assert len(drops) == 1
        assert (drops[0].src, drops[0].dst) == (0, 1)
        assert drops[0].cycle >= 1

    @pytest.mark.parametrize("matching", MATCHERS)
    def test_crash_and_timeout_recorded(self, matching):
        h = Hypercube(1)
        plan = FaultPlan(node_crashes={1: 1}, timeout=3, on_timeout="cancel")
        t = TimelineRecorder(num_nodes=2)
        run_spmd(h, pairswap, fault_plan=plan, timeline=t, matching=matching)
        counts = t.fault_counts()
        assert counts["crash"] == 1
        assert counts["timeout"] >= 1
        crash = next(f for f in t.faults if f.kind == "crash")
        assert crash.rank == 1 and crash.cycle == 1

    @pytest.mark.parametrize("matching", MATCHERS)
    def test_downtime_leave_and_join_recorded(self, matching):
        h = Hypercube(1)
        plan = FaultPlan(downtimes=[(1, 1, 3)])
        t = TimelineRecorder(num_nodes=2)
        r = run_spmd(h, pairswap, fault_plan=plan, timeline=t,
                     matching=matching)
        assert r.returns == [1, 0]  # exchange completed after the rejoin
        leaves = [(f.cycle, f.rank) for f in t.faults if f.kind == "leave"]
        joins = [(f.cycle, f.rank) for f in t.faults if f.kind == "join"]
        assert leaves == [(1, 1)]
        assert joins == [(3, 1)]
        aggs = {a.cycle: a for a in t.cycle_aggregates()}
        assert aggs[1].leaves == 1 and aggs[3].joins == 1
        # leave/join count toward the per-cycle fault total.
        assert aggs[1].faults >= 1 and aggs[3].faults >= 1


class TestVectorizedWiring:
    def test_attach_timeline_mirrors_bulk_rounds(self):
        dc = DualCube(2)
        counters = CostCounters(dc.num_nodes)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        counters.attach_timeline(t)
        dual_prefix(dc, list(range(dc.num_nodes)), ADD, counters=counters)
        comm = [s for s in t.steps if s.kind == "comm"]
        comp = [s for s in t.steps if s.kind == "comp"]
        assert len(comm) == counters.comm_steps
        assert comp  # the t/s update rounds
        assert t.total_messages == counters.messages
        assert t.num_cycles == counters.comm_steps

    def test_attach_timeline_validates_and_detaches(self):
        c = CostCounters(2)
        with pytest.raises(TypeError, match="record_comm_step"):
            c.attach_timeline(object())
        t = TimelineRecorder()
        c.attach_timeline(t)
        c.attach_timeline(None)
        c.record_comm_step(2)
        assert t.steps == ()


class TestCrossValidation:
    """Timeline vs static extractor, event for event, D_2..D_4."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_prefix_timeline_matches_static_schedule(self, n):
        dc = DualCube(n)
        vals = list(range(dc.num_nodes))
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_timeline(t):
            dual_prefix_engine(dc, vals, ADD)
        static = extract_schedule(dc, dual_prefix_program(dc, vals, ADD))
        assert cross_validate_timeline(t, static) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sort_timeline_matches_static_schedule(self, n):
        rdc = RecursiveDualCube(n)
        keys = list(range(rdc.num_nodes))[::-1]
        t = TimelineRecorder(num_nodes=rdc.num_nodes)
        with use_timeline(t):
            dual_sort_engine(rdc, keys)
        static = extract_schedule(
            rdc, schedule_program(rdc, keys, dual_sort_schedule(rdc.n))
        )
        assert cross_validate_timeline(t, static) == []

    def test_legacy_matcher_also_matches_static_schedule(self):
        dc = DualCube(2)
        vals = list(range(dc.num_nodes))
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        with use_matching("legacy"), use_timeline(t):
            dual_prefix_engine(dc, vals, ADD)
        static = extract_schedule(dc, dual_prefix_program(dc, vals, ADD))
        assert cross_validate_timeline(t, static) == []
