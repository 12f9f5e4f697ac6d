"""The replay backend: compiled plans vs the extractor, byte-identical
differential parity against the default columnar backend (results, counters,
timelines), the per-cluster sharded prefix path, and the plan cache's
statistics/metrics surface."""

import numpy as np
import pytest

from repro.analysis.static import extract_schedule
from repro.analysis.static.compile import (
    VALIDATE_MAX_NODES,
    PlanError,
    compile_prefix_plan,
    compile_schedule_plan,
    plan_comm_schedule,
)
from repro.core import (
    ADD,
    CONCAT,
    MAX,
    clear_plan_cache,
    dual_prefix_replay,
    dual_prefix,
    dual_sort_replay,
    dual_sort,
    hypercube_bitonic_sort_replay,
    hypercube_bitonic_sort,
    large_prefix_replay,
    large_prefix,
    large_sort_replay,
    large_sort,
    plan_cache_stats,
    registry_from_plan_cache,
    sequential_prefix,
)
from repro.core.dual_prefix import dual_prefix_program
from repro.core.dual_sort import dual_sort_schedule, schedule_program
from repro.core.replay import get_prefix_plan, get_schedule_plan
from repro.obs import TimelineRecorder, cross_validate_timeline
from repro.simulator import CostCounters, run_spmd
from repro.topology import DualCube, RecursiveDualCube


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test sees an empty plan cache (and leaves none behind)."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _obj(items):
    out = np.empty(len(items), dtype=object)
    out[:] = list(items)
    return out


class TestCompiledPlans:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_prefix_plan_validates_against_extractor(self, n, paper_literal):
        dc = DualCube(n)
        plan = compile_prefix_plan(dc, paper_literal=paper_literal)
        assert plan.validated is (dc.num_nodes <= VALIDATE_MAX_NODES)
        assert plan.comm_steps == 2 * n + (1 if paper_literal else 0)
        sched = plan_comm_schedule(plan, dc)
        extracted = extract_schedule(
            dc,
            dual_prefix_program(
                dc, _obj(range(dc.num_nodes)), ADD,
                paper_literal=paper_literal,
            ),
        )
        assert sched.steps == extracted.steps
        assert sched.comp_steps == extracted.comp_steps
        key = lambda s: sorted(
            (e.step, e.src, e.dst, e.kind, e.size) for e in s.events
        )
        assert key(sched) == key(extracted)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_sort_plan_schedule_matches_extractor(self, n, policy):
        rdc = RecursiveDualCube(n)
        schedule = dual_sort_schedule(rdc.n)
        plan = compile_schedule_plan(rdc, schedule, kind="dual_sort")
        assert plan.validated
        sched = plan_comm_schedule(plan, rdc, payload_policy=policy)
        extracted = extract_schedule(
            rdc,
            schedule_program(
                rdc, list(range(rdc.num_nodes)), list(schedule),
                payload_policy=policy,
            ),
        )
        assert sched.steps == extracted.steps
        key = lambda s: sorted(
            (e.step, e.src, e.dst, e.kind, e.size) for e in s.events
        )
        assert key(sched) == key(extracted)

    def test_engine_timeline_matches_plan_schedule(self):
        # The compiled plan's predicted CommSchedule is exactly what a
        # recorded engine run produces, cycle for cycle.
        dc = DualCube(3)
        plan = compile_prefix_plan(dc)
        t = TimelineRecorder(num_nodes=dc.num_nodes)
        run_spmd(
            dc,
            dual_prefix_program(dc, _obj(range(dc.num_nodes)), ADD),
            timeline=t,
        )
        assert cross_validate_timeline(t, plan_comm_schedule(plan, dc)) == []

    def test_engine_timeline_matches_sort_plan_schedule(self):
        rdc = RecursiveDualCube(2)
        schedule = dual_sort_schedule(rdc.n)
        plan = compile_schedule_plan(rdc, schedule, kind="dual_sort")
        t = TimelineRecorder(num_nodes=rdc.num_nodes)
        run_spmd(
            rdc,
            schedule_program(
                rdc, list(range(rdc.num_nodes)), list(schedule)
            ),
            timeline=t,
        )
        assert cross_validate_timeline(t, plan_comm_schedule(plan, rdc)) == []

    def test_validate_false_skips_extraction(self):
        dc = DualCube(2)
        assert compile_prefix_plan(dc, validate=False).validated is False
        plan = compile_schedule_plan(
            RecursiveDualCube(2), dual_sort_schedule(2), kind="dual_sort",
            validate=False,
        )
        assert plan.validated is False

    def test_doctored_plan_fails_validation(self):
        # A plan claiming the paper-literal extra cross step predicts
        # one more communication step than the non-literal program runs.
        from dataclasses import replace

        from repro.analysis.static.compile import _check_against_extraction

        dc = DualCube(2)
        plan = compile_prefix_plan(dc)
        doctored = replace(plan, paper_literal=True,
                           comm_steps=plan.comm_steps + 1)
        with pytest.raises(PlanError, match="step count"):
            _check_against_extraction(
                doctored, dc,
                dual_prefix_program(dc, _obj(range(dc.num_nodes)), ADD),
            )

    def test_plan_comm_schedule_rejects_other_types(self):
        with pytest.raises(TypeError,
                           match="expected PrefixPlan or SchedulePlan"):
            plan_comm_schedule(object(), DualCube(2))


class TestDualPrefixReplay:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_vectorized(self, n, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_vec, c_rep = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        vec = dual_prefix(dc, vals, ADD, counters=c_vec)
        rep = dual_prefix_replay(dc, vals, ADD, counters=c_rep)
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    @pytest.mark.parametrize("inclusive", [True, False])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_variants_match(self, inclusive, paper_literal, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_vec, c_rep = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        vec = dual_prefix(
            dc, vals, ADD, inclusive=inclusive, paper_literal=paper_literal,
            counters=c_vec,
        )
        rep = dual_prefix_replay(
            dc, vals, ADD, inclusive=inclusive, paper_literal=paper_literal,
            counters=c_rep,
        )
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    def test_non_commutative_object_op(self):
        # CONCAT catches any operand-order or dtype slip in the replayed
        # rounds (it is non-commutative and object-dtype).
        dc = DualCube(2)
        vals = _obj([(k,) for k in range(dc.num_nodes)])
        out = dual_prefix_replay(dc, vals, CONCAT)
        assert list(out) == sequential_prefix(list(vals), CONCAT)

    def test_other_ufunc_op(self, rng):
        dc = DualCube(3)
        vals = rng.integers(-500, 500, dc.num_nodes)
        rep = dual_prefix_replay(dc, vals, MAX)
        assert rep.tolist() == np.maximum.accumulate(vals).tolist()

    def test_shape_check(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="expected 8 values"):
            dual_prefix_replay(dc, np.arange(7), ADD)

    def test_timeline_mirrors_vectorized(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 100, dc.num_nodes)
        recs = []
        for fn in (dual_prefix, dual_prefix_replay):
            c = CostCounters(dc.num_nodes)
            tl = TimelineRecorder(num_nodes=dc.num_nodes)
            c.attach_timeline(tl)
            fn(dc, vals, ADD, counters=c)
            recs.append(tl.steps)
        assert recs[0] == recs[1]


class TestShardedReplay:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_matches_unsharded(self, n, shards, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes)
        c_vec, c_sh = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        vec = dual_prefix(dc, vals, ADD, counters=c_vec)
        out = dual_prefix_replay(
            dc, vals, ADD, counters=c_sh, shards=shards
        )
        assert out.tolist() == vec.tolist()
        # The cost ledger is data-independent: sharding must not change it.
        assert c_sh.summary() == c_vec.summary()

    def test_exclusive_scan_sharded(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes)
        out = dual_prefix_replay(
            dc, vals, ADD, inclusive=False, shards=2
        )
        vec = dual_prefix(dc, vals, ADD, inclusive=False)
        assert out.tolist() == vec.tolist()

    def test_shards_one_is_the_plain_path(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        out = dual_prefix_replay(dc, vals, ADD, shards=1)
        assert out.tolist() == np.cumsum(vals).tolist()

    def test_shards_validated(self):
        dc = DualCube(2)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            dual_prefix_replay(dc, np.arange(dc.num_nodes), ADD, shards=0)

    def test_requires_ufunc_op(self):
        dc = DualCube(2)
        vals = _obj(["a"] * dc.num_nodes)
        with pytest.raises(
            ValueError, match="requires an operation with a numpy ufunc"
        ):
            dual_prefix_replay(dc, vals, CONCAT, shards=2)

    def test_requires_numeric_dtype(self):
        dc = DualCube(2)
        vals = _obj(range(dc.num_nodes))
        with pytest.raises(ValueError, match="numeric values only"):
            dual_prefix_replay(dc, vals, ADD, shards=2)


class TestScheduleReplay:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_dual_sort_matches_vectorized(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes)
        c_vec, c_rep = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        vec = dual_sort(rdc, keys, payload_policy=policy, counters=c_vec)
        rep = dual_sort_replay(
            rdc, keys, payload_policy=policy, counters=c_rep
        )
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    @pytest.mark.parametrize("descending", [False, True])
    def test_descending_and_duplicates(self, descending, rng):
        rdc = RecursiveDualCube(2)
        keys = rng.integers(0, 4, rdc.num_nodes)
        rep = dual_sort_replay(rdc, keys, descending=descending)
        assert rep.tolist() == sorted(keys.tolist(), reverse=descending)

    def test_object_keys_fall_back(self):
        rdc = RecursiveDualCube(2)
        keys = _obj(list(reversed(range(rdc.num_nodes))))
        c_vec, c_rep = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        vec = dual_sort(rdc, keys, counters=c_vec)
        rep = dual_sort_replay(rdc, keys, counters=c_rep)
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_bitonic_matches_vectorized(self, q, rng):
        keys = rng.permutation(2**q)
        c_vec, c_rep = CostCounters(len(keys)), CostCounters(len(keys))
        vec = hypercube_bitonic_sort(keys, counters=c_vec)
        rep = hypercube_bitonic_sort_replay(keys, counters=c_rep)
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    def test_bitonic_power_of_two_check(self):
        with pytest.raises(
            ValueError, match="key count must be a power of two, got 6"
        ):
            hypercube_bitonic_sort_replay(np.arange(6))


class TestLargeInputReplay:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("b", [1, 4])
    def test_large_prefix_matches_vectorized(self, n, b, rng):
        dc = DualCube(n)
        vals = rng.integers(0, 1000, dc.num_nodes * b)
        c_vec, c_rep = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        vec = large_prefix(dc, vals, ADD, counters=c_vec)
        rep = large_prefix_replay(dc, vals, ADD, counters=c_rep)
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    def test_large_prefix_sharded_network_phase(self, rng):
        dc = DualCube(3)
        vals = rng.integers(0, 1000, dc.num_nodes * 4)
        c_vec, c_rep = CostCounters(dc.num_nodes), CostCounters(dc.num_nodes)
        vec = large_prefix(dc, vals, ADD, counters=c_vec)
        rep = large_prefix_replay(
            dc, vals, ADD, counters=c_rep, shards=2
        )
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("policy", ["packed", "single"])
    def test_large_sort_matches_vectorized(self, n, policy, rng):
        rdc = RecursiveDualCube(n)
        keys = rng.permutation(rdc.num_nodes * 4)
        c_vec, c_rep = CostCounters(rdc.num_nodes), CostCounters(rdc.num_nodes)
        vec = large_sort(rdc, keys, payload_policy=policy, counters=c_vec)
        rep = large_sort_replay(
            rdc, keys, payload_policy=policy, counters=c_rep
        )
        assert rep.tolist() == vec.tolist()
        assert c_rep.summary() == c_vec.summary()

    def test_large_sort_profiler_spans(self, rng):
        from repro.obs.profile import PhaseProfiler

        rdc = RecursiveDualCube(2)
        keys = rng.permutation(rdc.num_nodes * 2)
        prof = PhaseProfiler()
        large_sort_replay(rdc, keys, profiler=prof)
        totals = prof.totals()
        assert "local-sort" in totals
        assert len(totals) > 1  # plus the schedule's recursion segments

    def test_large_sort_object_keys_rejected(self):
        rdc = RecursiveDualCube(2)
        keys = _obj(range(rdc.num_nodes * 2))
        with pytest.raises(TypeError, match="numeric keys only"):
            large_sort_replay(rdc, keys)


class TestPlanCache:
    def test_hits_and_misses(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        assert plan_cache_stats() == {
            "hits": 0, "misses": 0, "compile_seconds": 0.0,
            "validated": 0, "size": 0,
        }
        dual_prefix_replay(dc, vals, ADD)
        s1 = plan_cache_stats()
        assert (s1["hits"], s1["misses"], s1["size"]) == (0, 1, 1)
        assert s1["validated"] == 1
        assert s1["compile_seconds"] > 0
        dual_prefix_replay(dc, vals, ADD)
        s2 = plan_cache_stats()
        assert (s2["hits"], s2["misses"], s2["size"]) == (1, 1, 1)
        # compile time is only spent on misses.
        assert s2["compile_seconds"] == s1["compile_seconds"]

    def test_distinct_keys_compile_separately(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        dual_prefix_replay(dc, vals, ADD)
        dual_prefix_replay(dc, vals, ADD, paper_literal=True)
        dual_prefix_replay(DualCube(3), np.arange(32), ADD)
        assert plan_cache_stats()["size"] == 3

    def test_payload_policy_shares_one_plan(self, rng):
        # The plan content is policy-independent (the policy only changes
        # runtime counter charging), so both policies hit one cache entry.
        rdc = RecursiveDualCube(2)
        keys = rng.permutation(rdc.num_nodes)
        dual_sort_replay(rdc, keys, payload_policy="packed")
        dual_sort_replay(rdc, keys, payload_policy="single")
        s = plan_cache_stats()
        assert (s["hits"], s["misses"]) == (1, 1)

    def test_clear_resets(self, rng):
        dc = DualCube(2)
        dual_prefix_replay(dc, np.arange(dc.num_nodes), ADD)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "hits": 0, "misses": 0, "compile_seconds": 0.0,
            "validated": 0, "size": 0,
        }

    def test_factory_only_called_on_miss(self):
        rdc = RecursiveDualCube(2)
        calls = []

        def factory():
            calls.append(1)
            return dual_sort_schedule(rdc.n)

        get_schedule_plan(rdc, factory, kind="dual_sort")
        get_schedule_plan(rdc, factory, kind="dual_sort")
        assert len(calls) == 1

    def test_get_prefix_plan_is_cached(self):
        dc = DualCube(2)
        assert get_prefix_plan(dc) is get_prefix_plan(dc)

    def test_metrics_export(self, rng):
        dc = DualCube(2)
        vals = rng.integers(0, 100, dc.num_nodes)
        dual_prefix_replay(dc, vals, ADD)
        dual_prefix_replay(dc, vals, ADD)
        reg = registry_from_plan_cache()
        text = reg.to_prometheus()
        assert "repro_replay_plan_cache_hits_total 1" in text
        assert "repro_replay_plan_cache_misses_total 1" in text
        assert "repro_replay_plan_cache_validated_total 1" in text
        assert "repro_replay_plan_cache_size 1" in text
        assert "repro_replay_plan_compile_seconds" in text

    def test_metrics_accept_existing_registry_and_labels(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        out = registry_from_plan_cache(
            registry=reg, labels={"suite": "unit"}
        )
        assert out is reg
        assert 'suite="unit"' in reg.to_prometheus()
