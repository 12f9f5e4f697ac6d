"""Cross-validation against :func:`run_traffic`, plus serving-core units.

The batch router and the queueing simulator are two views of the same
routed traffic.  A *closed-batch* serving run — every request at t=0,
unbounded queues, no deadlines — must serve exactly the hop crossings
``run_traffic`` counts: identical per-link load Counter (compared via
its derived aggregates: sum, max, mean, support) and identical
``path_hops``, with or without a fault plan.  That equality is what
licenses reading E18's serving numbers alongside E11's batch numbers.
The route-once suite pins that routing each pair once per run, asking
the fault plan only where its answer can vary, and memoizing campaign
verdicts leave every result unchanged; the event-loop suite pins the
queueing paths (backpressure, deadlines, service delays, timeline events)
and the integer-pair suite checks that NumPy node IDs serve identically.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from repro.obs.timeline import TimelineRecorder
from repro.routing import route
from repro.simulator import FaultPlan
from repro.simulator.campaign import SLO, _Evaluator, run_campaign
from repro.simulator.serving import (
    ServingConfig,
    bfs_router,
    find_saturation,
    onoff_arrivals,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
    trace_arrivals,
)
from repro.simulator.traffic import (
    hypercube_dimension_order_path,
    run_traffic,
)
from repro.topology import DualCube, Hypercube, Metacube, RecursiveDualCube


def _closed_batch(topo, router, pairs, *, plan=None):
    arrivals = np.zeros(len(pairs))
    return run_serving(topo, router, arrivals, pairs, fault_plan=plan)


class TestClosedBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_reproduces_run_traffic_exactly(self, seed):
        dc = DualCube(2)
        router = lambda u, v: route(dc, u, v)
        pairs = open_loop_pairs(dc, 200, seed=seed)

        batch = run_traffic(dc, router, pairs)
        served = _closed_batch(dc, router, pairs)

        assert served.path_hops == batch.path_hops
        assert served.hops_served == batch.total_hops
        # The load Counter, compared through every aggregate run_traffic
        # derives from it.
        loads = served.link_loads
        assert sum(loads.values()) == batch.total_hops
        assert max(loads.values()) == batch.max_link_load
        assert len(loads) == batch.loaded_links
        assert float(np.mean(list(loads.values()))) == pytest.approx(
            batch.mean_link_load
        )
        # Closed batch with infinite queues: everything completes.
        assert served.completions == len(pairs)
        assert served.drops == served.deadline_misses == served.in_flight == 0

    def test_fault_plan_reproduces_bit_for_bit_on_single_link(self):
        """Both engines key the drop schedule by a global attempt counter.
        On a single link, crossings happen in the same sequential order in
        both, so one plan yields the identical retransmission schedule."""
        cube = Hypercube(1)
        pairs = [(0, 1)] * 120
        plan = FaultPlan(drop_rate=0.1, seed=13, max_retries=100)

        batch = run_traffic(
            cube, hypercube_dimension_order_path, pairs, fault_plan=plan
        )
        served = _closed_batch(
            cube, hypercube_dimension_order_path, pairs, plan=plan
        )

        assert batch.retransmissions > 0
        assert served.retransmissions == batch.retransmissions
        assert served.hops_served == batch.total_hops
        assert served.path_hops == batch.path_hops
        assert served.link_loads == {(0, 1): batch.total_hops}

    def test_fault_plan_accounting_identities_multihop(self):
        """Across a multi-link topology the two engines interleave
        crossings differently, so retransmission *schedules* diverge —
        but the serving-side accounting identities must still hold."""
        cube = Hypercube(3)
        pairs = open_loop_pairs(cube, 150, seed=5)
        plan = FaultPlan(drop_rate=0.1, seed=13, max_retries=100)

        served = _closed_batch(
            cube, hypercube_dimension_order_path, pairs, plan=plan
        )
        assert served.retransmissions > 0
        assert served.hops_served == served.path_hops + served.retransmissions
        assert sum(served.link_loads.values()) == served.hops_served
        assert served.conservation_ok()

    def test_bfs_router_agrees_with_closed_form_lengths(self):
        """The generic BFS fallback routes shortest paths, so the serving
        hop totals match the closed-form dual-cube router's."""
        dc = DualCube(2)
        pairs = open_loop_pairs(dc, 100, seed=3)
        closed = _closed_batch(dc, lambda u, v: route(dc, u, v), pairs)
        generic = _closed_batch(dc, bfs_router(dc), pairs)
        assert generic.path_hops == closed.path_hops


class TestServingCore:
    def test_capacity_zero_drops_everything_queued(self):
        """capacity=0: only the in-service slot exists; a second
        simultaneous request on the same link is dropped on arrival."""
        cube = Hypercube(1)
        pairs = [(0, 1), (0, 1)]
        cfg = ServingConfig(queue_capacity=0)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.0, 0.0], pairs, config=cfg
        )
        assert stats.completions == 1
        assert stats.drops == 1
        assert stats.conservation_ok()

    def test_deadline_miss_is_not_goodput(self):
        cube = Hypercube(1)
        pairs = [(0, 1)] * 4
        cfg = ServingConfig(deadline=2.5)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.0] * 4, pairs, config=cfg
        )
        # Service completions at t=1,2,3,4: two in deadline, two late.
        assert stats.completions == 2
        assert stats.deadline_misses == 2
        assert stats.goodput == pytest.approx(2 / 4.0)
        assert stats.finished == 4

    def test_self_pair_completes_instantly(self):
        cube = Hypercube(2)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [1.0], [(2, 2)]
        )
        assert stats.completions == 1
        assert stats.hops_served == 0
        assert stats.max_sojourn == 0.0

    def test_horizon_truncates_arrivals(self):
        cube = Hypercube(1)
        cfg = ServingConfig(horizon=2.0)
        stats = run_serving(
            cube,
            hypercube_dimension_order_path,
            [0.0, 1.0, 5.0],
            [(0, 1)] * 3,
            config=cfg,
        )
        assert stats.arrivals == 2
        assert stats.elapsed == 2.0

    def test_block_with_finite_capacity_requires_horizon(self):
        cfg = ServingConfig(queue_capacity=1, policy="block")
        with pytest.raises(ValueError, match="horizon"):
            run_serving(
                Hypercube(1), hypercube_dimension_order_path, [0.0], [(0, 1)],
                config=cfg,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            run_serving(
                Hypercube(1), hypercube_dimension_order_path, [0.0, 1.0],
                [(0, 1)],
            )

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            trace_arrivals([1.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            trace_arrivals([0.0, float("nan")])
        with pytest.raises(ValueError, match="1-D"):
            trace_arrivals([[0.0], [1.0]])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="service_time"):
            ServingConfig(service_time=0)
        with pytest.raises(ValueError, match="policy"):
            ServingConfig(policy="shed")
        with pytest.raises(ValueError, match="queue_capacity"):
            ServingConfig(queue_capacity=-1)
        with pytest.raises(ValueError, match="deadline"):
            ServingConfig(deadline=0.0)

    def test_onoff_long_run_rate(self):
        times = onoff_arrivals(2.0, 20_000, seed=9)
        assert len(times) / times[-1] == pytest.approx(2.0, rel=0.1)
        assert (np.diff(times) >= 0).all()

    def test_row_shape(self):
        stats = _closed_batch(
            Hypercube(1), hypercube_dimension_order_path, [(0, 1)]
        )
        row = stats.row()
        assert row[0] == "Q_1"
        assert len(row) == 10


class TestFindSaturation:
    def test_validation(self):
        cube = Hypercube(1)
        router = hypercube_dimension_order_path
        with pytest.raises(ValueError, match="requests"):
            find_saturation(cube, router, requests=10)
        with pytest.raises(ValueError, match="max_requests"):
            find_saturation(cube, router, requests=200, max_requests=100)
        with pytest.raises(ValueError, match="rel_tol"):
            find_saturation(cube, router, rel_tol=1.5)

    def test_single_link_knee_is_deterministic_and_sane(self):
        """Q_1 is two M/D/1 queues; the per-node knee sits below the
        service rate (1.0) and the sweep reproduces itself exactly."""
        cube = Hypercube(1)
        kw = dict(requests=100, max_requests=600, window=60.0, seed=4)
        a = find_saturation(cube, hypercube_dimension_order_path, **kw)
        b = find_saturation(cube, hypercube_dimension_order_path, **kw)
        assert a == b
        assert 0.0 < a.rate < 1.0
        assert a.rate <= a.diverged_rate
        assert (a.diverged_rate - a.rate) <= 0.05 * a.diverged_rate
        # The probe log is the audit trail: monotone bracket endpoints.
        assert a.probes[0][0] == 0.01

    @pytest.mark.serving_slow
    def test_e18_dualcube_vs_hypercube_vs_metacube(self):
        """Acceptance sweep (excluded from tier-1; select with
        -m serving_slow): D_3 vs the same-size hypercube Q_5 vs MC(2,1).
        The hypercube's extra links buy a higher per-node knee; the
        metacube's sparser wiring a lower one."""
        dc = DualCube(3)
        q = Hypercube(5)
        mc = Metacube(2, 1)
        r_dc = find_saturation(dc, lambda u, v: route(dc, u, v), seed=0)
        r_q = find_saturation(q, hypercube_dimension_order_path, seed=0)
        r_mc = find_saturation(mc, bfs_router(mc), seed=0)
        assert r_q.rate > r_dc.rate > r_mc.rate
        # Seed-stability: the published E18 numbers reproduce.
        again = find_saturation(dc, lambda u, v: route(dc, u, v), seed=0)
        assert again == r_dc


class TestServingMembershipFaults:
    """Downtime/crash membership threaded into the live queues."""

    def test_down_source_refused_at_admission(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(0, 1, 3)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.5], [(0, 1)],
            fault_plan=plan,
        )
        # cycle_of(0.5) = 1 is inside [1, 3): refused on arrival.
        assert stats.drops == 1
        assert stats.completions == 0
        assert stats.conservation_ok()

    def test_source_up_again_after_interval_admits(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(0, 1, 3)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [3.5], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.drops == 0
        assert stats.completions == 1

    def test_down_endpoint_blocks_crossing_until_rejoin(self):
        # Source is healthy; the destination is offline when service
        # would complete, so the crossing retransmits in place and only
        # lands after the rejoin.
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(1, 1, 4)])
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.25], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.completions == 1
        assert stats.retransmissions >= 1
        assert stats.max_sojourn > 1.0  # waited out the outage
        assert stats.conservation_ok()

    def test_down_endpoint_exhausts_retries_into_drop(self):
        cube = Hypercube(1)
        plan = FaultPlan(downtimes=[(1, 1, 100)], max_retries=3)
        stats = run_serving(
            cube, hypercube_dimension_order_path, [0.25], [(0, 1)],
            fault_plan=plan,
        )
        assert stats.completions == 0
        assert stats.drops == 1
        # Every lost attempt counts, including the one that exhausts the
        # budget: max_retries in-place retransmissions + the final loss.
        assert stats.retransmissions == 4
        assert stats.conservation_ok()

    def test_drop_only_plans_unaffected_by_membership_hooks(self):
        # The membership checks consult the same attempt counter stream:
        # a plan with no structural faults reproduces the pre-membership
        # results bit for bit.
        dc = DualCube(2)
        arrivals = np.sort(np.abs(np.sin(np.arange(1, 41)))) * 10.0
        pairs = open_loop_pairs(dc, 40, seed=9)
        plan = lambda: FaultPlan(drop_rate=0.1, seed=5, max_retries=50)
        a = run_serving(dc, lambda u, v: route(dc, u, v), arrivals, pairs,
                        fault_plan=plan())
        b = run_serving(dc, lambda u, v: route(dc, u, v), arrivals, pairs,
                        fault_plan=plan())
        assert repr(a) == repr(b)


class TestRouteOnce:
    """Routing once per pair and memoized verdicts change no result."""

    def test_router_called_once_per_distinct_pair_per_run(self):
        dc = DualCube(3)
        distinct = open_loop_pairs(dc, 60, seed=4)
        pairs = distinct * 3
        arrivals = np.arange(len(pairs), dtype=np.float64) * 0.1
        calls = Counter()

        def counting(u, v):
            calls[(u, v)] += 1
            return route(dc, u, v)

        first = run_serving(dc, counting, arrivals, pairs)
        assert calls == Counter(set(distinct))
        second = run_serving(dc, counting, arrivals, pairs)
        assert calls == Counter({p: 2 for p in set(distinct)})
        assert repr(first) == repr(second)
        assert first.arrivals == len(pairs)

    # sha256 of repr(ServingStats), recorded before run_serving hoisted
    # its structural fault queries out of the event loop: asking the plan
    # only about ranks it can take down (and links only when one of those
    # is an endpoint or the plan cuts links) must not move a single field.
    _PINNED = {
        "none": "212f475468a2c323433fdcf6dcfe08d280d68c46e32e0017d38103135c43b9de",
        "crash": "4b538f90f5ba9410063d197665721e89e41f3a81455cfddb9763f67b9148187d",
        "cut": "6b4465f014b26dfdf2a46b676b4f1a649468cd49f3aeb26278e848cb0f08926c",
        "down": "09139116a6ed2e551ff840f78a67061310433b3a31dda955cac98ba5f89e50ff",
        "all": "f4e0e0e3e319c82c1725506df71372f0c1911ba4a633390c5e33b2166d8c76df",
    }

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_fault_plans_reproduce_pinned_stats(self, name):
        dc = DualCube(3)
        arrivals = poisson_arrivals(8.0, 320, 5)
        pairs = open_loop_pairs(dc, 320, 5)
        pairs = pairs[:160] + pairs[:160]
        config = ServingConfig(
            queue_capacity=4,
            horizon=float(np.ceil(arrivals[-1]) + 10),
            checkpoint_every=5.0,
        )
        edge = (0, 1)
        assert dc.has_edge(*edge)
        plan = {
            "none": None,
            "crash": FaultPlan(node_crashes={5: 10}),
            "cut": FaultPlan(link_cuts={edge: 8}),
            "down": FaultPlan(downtimes=[(3, 5, 20)]),
            "all": FaultPlan(
                node_crashes={5: 10}, link_cuts={edge: 8},
                downtimes=[(3, 5, 20)], drop_rate=0.05, seed=3,
            ),
        }[name]
        stats = run_serving(
            dc, lambda u, v: route(dc, u, v), arrivals, pairs,
            config=config, fault_plan=plan,
        )
        assert stats.conservation_ok()
        digest = hashlib.sha256(repr(stats).encode()).hexdigest()
        assert digest == self._PINNED[name]

    def test_campaign_memo_counts_hits_and_judges_each_probe_once(
        self, monkeypatch
    ):
        judged = []
        judge = _Evaluator._judge

        def counting(self, slo, elements):
            judged.append((slo, elements))
            return judge(self, slo, elements)

        monkeypatch.setattr(_Evaluator, "_judge", counting)
        result = run_campaign(2, seed=0)
        assert len(judged) == len(set(judged))
        # Memo hits still count: 46 requests for a verdict, 31 distinct.
        assert (result.evaluations, len(judged)) == (46, 31)

        ev = _Evaluator(
            DualCube(2), seed=0, requests_per_node=20, correctness_timeout=5
        )
        slo = SLO("availability", "availability", 0.8)
        probe = (("node", 1), ("node", 2))
        first = ev.violated(slo, probe)
        assert ev.violated(slo, probe) == first
        assert ev.evaluations == 2
        assert first == judge(ev, slo, probe)

    def test_campaign_routes_each_distinct_pair_once(self, monkeypatch):
        from repro.routing import dualcube_routing

        calls = Counter()
        real = dualcube_routing.route

        def counting(dc, u, v):
            calls[(u, v)] += 1
            return real(dc, u, v)

        monkeypatch.setattr(dualcube_routing, "route", counting)
        ev = _Evaluator(
            DualCube(2), seed=0, requests_per_node=20, correctness_timeout=5
        )
        assert calls == Counter(set(ev.pairs))
        ev.violated(SLO("p99", "p99", 1.0), (("down", (1, ev.w0, ev.w1)),))
        assert calls == Counter(set(ev.pairs))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _serve_dc(dc, arrivals, pairs, **kw):
    return run_serving(dc, lambda u, v: route(dc, u, v), arrivals, pairs, **kw)


class TestEventLoopPinned:
    """The event-loop paths the route-once digests above do not reach.

    Every digest below was computed at the commit that preceded the
    flat-event-loop rewrite of :func:`run_serving`, before any source edit,
    so each pins that the rewrite moved no field of any result.
    """

    _PINNED = {
        "block": "e9a8eb2728b621ac78898434e9be18523a4d7a6233c1481d67384cfb45894325",
        "deadline": "48540bac24942dee8c66761de67a0955514528448e7ade6b796fe376be6020b2",
        "delay": "7f5ac2321d18e6fd5817444035e20479c1de6ae6787b0dfd9a1607cc3a66feec",
        "d5-drop": "5caec653a10466addf953d4fe7d7761e372af60219410a77bde7374a2861d2e0",
        "timeline": "a18a58745a26d7048747f6776affaa24ab3b54ad8056769cef18b946bfe138be",
    }

    def test_block_policy_with_capacity_and_horizon(self):
        # Overloaded single-slot buffers: injections wait at the source
        # (_RETRY_INJECT) and hand-offs hold their upstream server.
        dc = DualCube(3)
        arrivals = poisson_arrivals(24.0, 400, 11)
        pairs = open_loop_pairs(dc, 400, 11)
        config = ServingConfig(
            queue_capacity=1, policy="block",
            horizon=float(np.ceil(arrivals[-1]) + 10),
        )
        stats = _serve_dc(dc, arrivals, pairs, config=config)
        assert stats.blocked_retries > 0 and stats.in_flight > 0
        assert stats.conservation_ok()
        assert _digest(stats) == self._PINNED["block"]

    def test_deadlines_miss(self):
        dc = DualCube(3)
        arrivals = poisson_arrivals(16.0, 400, 12)
        pairs = open_loop_pairs(dc, 400, 12)
        stats = _serve_dc(
            dc, arrivals, pairs, config=ServingConfig(deadline=4.0)
        )
        assert stats.deadline_misses > 0 and stats.completions > 0
        assert _digest(stats) == self._PINNED["deadline"]

    def test_delay_plan_stretches_service(self):
        dc = DualCube(3)
        arrivals = poisson_arrivals(16.0, 400, 12)
        pairs = open_loop_pairs(dc, 400, 12)
        config = ServingConfig(queue_capacity=4)
        plan = FaultPlan(delay_rate=0.2, max_delay=3, seed=7)
        stats = _serve_dc(dc, arrivals, pairs, config=config, fault_plan=plan)
        plain = _serve_dc(dc, arrivals, pairs, config=config)
        assert stats.p99 > plain.p99
        assert _digest(stats) == self._PINNED["delay"]

    def test_d5_drop_policy_shaped_like_serve_d6(self):
        # Poisson arrivals at 0.6 requests per node per service time,
        # uniform self-excluding pairs, capacity 8, 50 time units of slack.
        dc = DualCube(5)
        rng = np.random.default_rng(3)
        nodes, num = dc.num_nodes, 1500
        arrivals = np.cumsum(rng.exponential(1.0 / (0.6 * nodes), size=num))
        src = rng.integers(0, nodes, size=num)
        dst = (src + rng.integers(1, nodes, size=num)) % nodes
        pairs = list(zip(src.tolist(), dst.tolist()))
        config = ServingConfig(
            queue_capacity=8, policy="drop",
            horizon=float(math.ceil(arrivals[-1]) + 50),
        )
        stats = _serve_dc(dc, arrivals, pairs, config=config)
        assert stats.arrivals == num and stats.conservation_ok()
        assert _digest(stats) == self._PINNED["d5-drop"]

    def test_timeline_event_stream(self):
        dc = DualCube(3)
        arrivals = poisson_arrivals(16.0, 300, 13)
        pairs = open_loop_pairs(dc, 300, 13)
        recorder = TimelineRecorder(dc.num_nodes)
        _serve_dc(
            dc, arrivals, pairs,
            config=ServingConfig(queue_capacity=2, deadline=5.0),
            fault_plan=FaultPlan(drop_rate=0.05, seed=3),
            timeline=recorder,
        )
        counts = recorder.fault_counts()
        assert counts["drop"] > 0 and counts["timeout"] > 0
        stream = (recorder.events, recorder.faults, recorder.num_cycles)
        assert _digest(stream) == self._PINNED["timeline"]


class TestIntegerPairs:
    """Pairs given as an ``(N, 2)`` integer array serve like int tuples."""

    _TOPOLOGIES = {
        "D_3": lambda: DualCube(3),
        "RD_3": lambda: RecursiveDualCube(3),
        "MC(1,2)": lambda: Metacube(1, 2),
    }

    @pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
    def test_has_edge_accepts_numpy_integers(self, name):
        topo = self._TOPOLOGIES[name]()
        for u in range(0, topo.num_nodes, 3):
            for v in topo.neighbors(u) + (u, (u + 5) % topo.num_nodes):
                expected = topo.has_edge(u, v)
                for cast in (np.int64, np.int32, np.uint16):
                    assert topo.has_edge(cast(u), cast(v)) == expected

    @pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
    def test_ndarray_pairs_match_tuple_pairs(self, name):
        topo = self._TOPOLOGIES[name]()
        if name == "D_3":
            router = lambda u, v: route(topo, u, v)
        else:
            router = bfs_router(topo)
        pairs = open_loop_pairs(topo, 120, seed=2)
        array = np.array(pairs, dtype=np.int64)
        arrivals = poisson_arrivals(4.0, len(pairs), 2)
        config = ServingConfig(queue_capacity=3, deadline=6.0)
        as_tuples = run_serving(topo, router, arrivals, pairs, config=config)
        as_array = run_serving(topo, router, arrivals, array, config=config)
        assert repr(as_array) == repr(as_tuples)
        assert run_traffic(topo, router, array) == run_traffic(
            topo, router, pairs
        )

    def test_float_node_ids_raise_type_error(self):
        dc = DualCube(2)
        router = lambda u, v: route(dc, u, v)
        with pytest.raises(TypeError):
            run_serving(dc, router, [0.0], [(0.0, 1)])
        with pytest.raises(TypeError):
            run_traffic(dc, router, np.array([[0.0, 1.0]]))
