"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each layer of ``repro`` from the
outside (attribute replacement on modules and classes); nothing in the
library is edited.  Each wrapped call is timed; calls at layer boundaries
are also kept as spans ``(name, op_id, parent_index, start, end)`` in
memory, while hot leaf calls (``has_edge``, ``FaultPlan.down`` ...) are
only aggregated, so a run with millions of them stays small.

Self time of a call is its duration minus the time of the wrapped calls
it made.  Wrappers record only inside :meth:`Tracer.recording`, so input
generation and correctness checks done by the benchmark stay out of the
books.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np

CORE_ENTRIES = ("dual_prefix", "dual_sort", "large_prefix", "large_sort")
STATIC_FUNCS = ("analyze_fault_impact", "extract_schedule", "structural_node_cut")

# Which wrapper must fire on which workload: the layers each workload is
# meant to exercise.  A wrapper that stops firing (say, after a rename in
# the library) fails the traced run instead of leaving a layer at zero.
EXPECTED = {
    "bulk-d10": ("topology.build", *(f"core.{e}" for e in CORE_ENTRIES)),
    "paper-small": (
        "topology.build", *(f"core.{e}" for e in CORE_ENTRIES),
        "engine.run", "topology.has_edge", "topology.check_node",
    ),
    "serve-d6": (
        "topology.build", "serving.run_serving", "routing.route",
        "topology.has_edge", "topology.check_node",
    ),
    "campaign-d3": (
        "topology.build", "campaign.run_campaign", "campaign.plan_from_elements",
        "serving.run_serving", "routing.route", "topology.has_edge",
        "topology.check_node", "faults.down", "faults.link_up", "engine.run",
        "run_faulty", *(f"static.{f}" for f in STATIC_FUNCS),
    ),
}

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    *(
        m
        for e in CORE_ENTRIES
        for m in (
            (f"core.{e}.calls", "count", "lower"),
            (f"core.{e}.self_s", "s", "lower"),
        )
    ),
    ("core.comm_rounds", "count", "lower"),
    ("core.comb_ops", "count", "lower"),
    ("core.payload_items", "count", "lower"),
    ("core.bytes_moved_computed", "bytes", "lower"),
    ("core.us_per_round", "us", "lower"),
    ("core.ns_per_payload_item", "ns", "lower"),
    ("core.replay.plan_cache.hits", "count", "higher"),
    ("core.replay.plan_cache.misses", "count", "lower"),
    ("core.replay.plan_cache.size", "count", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.has_edge.calls", "count", "lower"),
    ("topology.has_edge.self_s", "s", "lower"),
    ("topology.check_node.calls", "count", "lower"),
    ("routing.route.calls", "count", "lower"),
    ("routing.route.self_s", "s", "lower"),
    ("routing.route_calls_per_distinct_pair", "ratio", "lower"),
    ("serving.run_serving.calls", "count", "lower"),
    ("serving.run_serving.self_s", "s", "lower"),
    ("serving.hops_served", "count", "higher"),
    ("serving.retransmissions", "count", "lower"),
    ("serving.drops", "count", "lower"),
    ("serving.us_per_hop", "us", "lower"),
    ("faults.down.calls", "count", "lower"),
    ("faults.link_up.calls", "count", "lower"),
    ("faults.self_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.cycles", "count", "lower"),
    ("engine.messages", "count", "lower"),
    ("engine.us_per_cycle", "us", "lower"),
    ("run_faulty.calls", "count", "lower"),
    ("run_faulty.self_s", "s", "lower"),
    ("campaign.evaluations", "count", "lower"),
    ("campaign.distinct_probe_ratio", "ratio", "higher"),
    ("campaign.self_s", "s", "lower"),
    *(
        m
        for f in STATIC_FUNCS
        for m in (
            (f"static.{f}.calls", "count", "lower"),
            (f"static.{f}.self_s", "s", "lower"),
        )
    ),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the layer functions of ``repro`` and books their time and counts.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  A wrapper target that no longer exists
    raises ``AttributeError`` on entry.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.route_pairs: set = set()
        self.probe_keys: set = set()
        self.op_wall_s = 0.0
        self.counted_core_s = 0.0  # core calls that took injected counters
        self._stack: list[list] = []
        self._op = None
        self._patches: list[tuple] = []

    # -- recording window --------------------------------------------------

    @contextmanager
    def recording(self, op_id):
        """Record the wrapped calls made inside the block under ``op_id``."""
        self._op = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_wall_s += time.perf_counter() - t0
            self._op = None

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, *, self_key: str | None = None,
               span: bool = True, timed: bool = True, when=None,
               before=None, after=None):
        """Wrap ``owner.attr``; inside a recording window its calls are
        booked under ``name`` (those for which ``when(args, kwargs)`` is
        true, if ``when`` is given)."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self_key = self_key or name
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if not timed:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer._op is not None:
                    tracer.calls[name] += 1
                    if before is not None:
                        before(args, kwargs)
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer._op is None or (
                        when is not None and not when(args, kwargs)):
                    return original(*args, **kwargs)
                state = before(args, kwargs) if before is not None else None
                # frame = [child seconds, index of the nearest span]
                enclosing = stack[-1][1] if stack else None
                idx = enclosing
                if span:
                    idx = len(tracer.spans)
                    tracer.spans.append([name, tracer._op, enclosing, 0.0, 0.0])
                frame = [0.0, idx]
                stack.append(frame)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    if stack:
                        stack[-1][0] += dur
                    tracer.self_s[self_key] += dur - frame[0]
                    tracer.calls[name] += 1
                    if span:
                        tracer.spans[idx][3:] = (t0, t1)
                if after is not None:
                    after(state, result, dur)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def __enter__(self):
        # import_module, not ``import a.b as c``: packages re-export
        # functions under their submodules' names (repro.core.run_faulty).
        repro = import_module("repro")
        static = import_module("repro.analysis.static")
        static_faults = import_module("repro.analysis.static.faults")
        run_faulty_mod = import_module("repro.core.run_faulty")
        routing = import_module("repro.routing")
        dc_routing = import_module("repro.routing.dualcube_routing")
        campaign = import_module("repro.simulator.campaign")
        serving = import_module("repro.simulator.serving")
        from repro.core.backends import backend_spec
        from repro.simulator.engine import Engine
        from repro.simulator.faults import FaultPlan
        from repro.topology.base import Topology

        try:
            for cls in (repro.DualCube, repro.RecursiveDualCube):
                self._patch(cls, "__init__", "topology.build")
                self._patch(cls, "has_edge", "topology.has_edge", span=False)
            self._patch(Topology, "check_node", "topology.check_node",
                        timed=False)

            # Only default-backend calls are booked under core.*; the
            # engine-backend calls of paper-small are left to engine.*.
            for entry in CORE_ENTRIES:
                fn = getattr(repro, entry)
                default = inspect.signature(fn).parameters["backend"].default
                self._patch(repro, entry, f"core.{entry}",
                            when=self._on_backend(default),
                            before=self._core_before(entry, default, backend_spec),
                            after=self._core_after)

            for owner in (repro, routing, dc_routing):
                self._patch(owner, "route", "routing.route",
                            before=self._route_before)

            self._patch(Engine, "run", "engine.run", self_key="engine",
                        after=self._engine_after)
            self._patch(run_faulty_mod, "run_faulty", "run_faulty")

            for owner in (serving, campaign):
                self._patch(owner, "run_serving", "serving.run_serving",
                            after=self._serving_after)
            self._patch(FaultPlan, "down", "faults.down", self_key="faults",
                        span=False)
            self._patch(FaultPlan, "link_up", "faults.link_up",
                        self_key="faults", span=False)

            self._patch(campaign, "run_campaign", "campaign.run_campaign",
                        self_key="campaign", after=self._campaign_after)
            self._patch(campaign, "plan_from_elements",
                        "campaign.plan_from_elements", timed=False,
                        before=self._probe_before)

            for func in ("analyze_fault_impact", "extract_schedule"):
                self._patch(static, func, f"static.{func}")
            self._patch(static_faults, "structural_node_cut",
                        "static.structural_node_cut")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    # -- hooks -------------------------------------------------------------

    @staticmethod
    def _on_backend(backend):
        return lambda args, kwargs: kwargs.get("backend", backend) == backend

    def _core_before(self, entry, default_backend, backend_spec):
        from repro.simulator import CostCounters

        def before(args, kwargs):
            backend = kwargs.get("backend", default_backend)
            if (kwargs.get("counters") is None
                    and "counters" in backend_spec(entry, backend).features):
                kwargs["counters"] = CostCounters(args[0].num_nodes)
                return kwargs["counters"], args[1]
            return None

        return before

    def _core_after(self, state, result, dur):
        if state is None:
            return
        counters, values = state
        self.counted_core_s += dur
        self.counts["core.comm_rounds"] += counters.comm_steps
        self.counts["core.comb_ops"] += counters.total_ops
        self.counts["core.payload_items"] += counters.payload_items
        self.counts["core.bytes_moved_computed"] += (
            counters.payload_items * np.asarray(values).itemsize
        )

    def _route_before(self, args, kwargs):
        dc, u, v = args[:3]
        self.route_pairs.add((dc.num_nodes, u, v))

    def _engine_after(self, state, result, dur):
        self.counts["engine.cycles"] += result.counters.cycles
        self.counts["engine.messages"] += result.counters.messages

    def _serving_after(self, state, stats, dur):
        self.counts["serving.hops_served"] += stats.hops_served
        self.counts["serving.retransmissions"] += stats.retransmissions
        self.counts["serving.drops"] += stats.drops

    def _campaign_after(self, state, result, dur):
        self.counts["campaign.evaluations"] += result.evaluations

    def _probe_before(self, args, kwargs):
        dc, elements = args[:2]
        self.probe_keys.add(
            (dc.num_nodes, tuple(elements), tuple(sorted(kwargs.items())))
        )

    # -- results -----------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Wrappers expected on ``workload`` that never fired."""
        return [w for w in EXPECTED[workload] if not self.calls[w]]

    def top_level_s(self) -> float:
        """Time covered by spans that no other span encloses."""
        return sum(s[4] - s[3] for s in self.spans if s[2] is None)

    def metrics(self, *, untraced_wall_s: float) -> dict:
        """Every per-layer metric (zero where the layer did no work)."""
        from repro.core.replay import plan_cache_stats

        c, s, k = self.calls, self.self_s, self.counts
        out: dict = {}
        for e in CORE_ENTRIES:
            out[f"core.{e}.calls"] = c[f"core.{e}"]
            out[f"core.{e}.self_s"] = s[f"core.{e}"]
        for key in ("core.comm_rounds", "core.comb_ops", "core.payload_items",
                    "core.bytes_moved_computed"):
            out[key] = k[key]
        # alpha and beta as plain ratios: all counted time per round, and
        # all counted time per payload item.
        out["core.us_per_round"] = 1e6 * _ratio(
            self.counted_core_s, k["core.comm_rounds"])
        out["core.ns_per_payload_item"] = 1e9 * _ratio(
            self.counted_core_s, k["core.payload_items"])
        cache = plan_cache_stats()
        for key in ("hits", "misses", "size"):
            out[f"core.replay.plan_cache.{key}"] = cache[key]
        out["topology.build_s"] = s["topology.build"]
        out["topology.has_edge.calls"] = c["topology.has_edge"]
        out["topology.has_edge.self_s"] = s["topology.has_edge"]
        out["topology.check_node.calls"] = c["topology.check_node"]
        out["routing.route.calls"] = c["routing.route"]
        out["routing.route.self_s"] = s["routing.route"]
        out["routing.route_calls_per_distinct_pair"] = _ratio(
            c["routing.route"], len(self.route_pairs))
        out["serving.run_serving.calls"] = c["serving.run_serving"]
        out["serving.run_serving.self_s"] = s["serving.run_serving"]
        for key in ("hops_served", "retransmissions", "drops"):
            out[f"serving.{key}"] = k[f"serving.{key}"]
        out["serving.us_per_hop"] = 1e6 * _ratio(
            s["serving.run_serving"], k["serving.hops_served"])
        out["faults.down.calls"] = c["faults.down"]
        out["faults.link_up.calls"] = c["faults.link_up"]
        out["faults.self_s"] = s["faults"]
        out["engine.runs"] = c["engine.run"]
        out["engine.self_s"] = s["engine"]
        out["engine.cycles"] = k["engine.cycles"]
        out["engine.messages"] = k["engine.messages"]
        out["engine.us_per_cycle"] = 1e6 * _ratio(s["engine"], k["engine.cycles"])
        out["run_faulty.calls"] = c["run_faulty"]
        out["run_faulty.self_s"] = s["run_faulty"]
        out["campaign.evaluations"] = k["campaign.evaluations"]
        out["campaign.distinct_probe_ratio"] = _ratio(
            len(self.probe_keys), c["campaign.plan_from_elements"])
        out["campaign.self_s"] = s["campaign"]
        for f in STATIC_FUNCS:
            out[f"static.{f}.calls"] = c[f"static.{f}"]
            out[f"static.{f}.self_s"] = s[f"static.{f}"]
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = self.op_wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.unattributed_s"] = self.op_wall_s - self.top_level_s()
        out["trace.overhead_s"] = self.op_wall_s - untraced_wall_s
        return out
