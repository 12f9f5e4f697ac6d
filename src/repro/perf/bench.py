"""Timed benchmark suite behind the ``repro bench`` CLI subcommand.

Every benchmark runs the real algorithm with a fresh
:class:`~repro.simulator.counters.CostCounters` ledger and reports both
the measured step/message costs (deterministic — they double as a
correctness fingerprint) and the best-of-``repeats`` wallclock.  Records
go into a flat JSON document written at the repo root by default
(``BENCH_core.json``; ``BENCH_smoke.json`` for ``--smoke`` runs) so perf
history can be diffed and regression-checked with ``--compare``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.profile import PhaseProfiler

from repro.core.backends import backend_spec
from repro.core.dual_prefix import dual_prefix, dual_prefix_engine
from repro.core.dual_sort import dual_sort, dual_sort_engine
from repro.core.large_inputs import large_prefix, large_sort
from repro.core.ops import ADD
from repro.core.run_faulty import run_faulty
from repro.routing.dualcube_routing import route
from repro.simulator import CostCounters, FaultPlan
from repro.simulator.serving import (
    ServingConfig,
    onoff_arrivals,
    open_loop_pairs,
    poisson_arrivals,
    run_serving,
)
from repro.simulator.traffic import random_pairs, run_traffic
from repro.topology.dualcube import DualCube
from repro.topology.faults import FaultSet
from repro.topology.recursive import RecursiveDualCube

__all__ = [
    "BenchRecord",
    "BenchRegression",
    "run_bench",
    "run_bench_columnar",
    "run_bench_replay",
    "run_bench_serving",
    "run_bench_campaign",
    "merge_bench",
    "write_bench",
    "load_bench",
    "compare_bench",
    "compare_bench_detailed",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 3

# Schemas this loader still understands.  Version 2 added the per-record
# ``phases`` dict (wallclock split per algorithm phase); version 3 added
# ``peak_mem_mb`` (tracemalloc peak, columnar records only).  Older files
# simply lack the fields, and ``compare_bench`` only reads the exact-cost
# fields, so old baselines keep regression-checking new runs.
_SUPPORTED_SCHEMAS = (1, 2, 3)

# Backends whose records carry the tracemalloc peak-memory column: the
# ones making a memory claim (columnar's O(nodes) state, replay's
# compiled-plan buffers).
_PEAK_MEM_BACKENDS = frozenset({"columnar", "replay"})

# Cost fields that must reproduce exactly between runs (they are
# deterministic functions of the algorithm, not the machine).  The fault
# counters are deterministic too — seeded drop schedules are pure hashes —
# so their drift is a regression exactly like cost drift.
_EXACT_FIELDS = (
    "comm_steps",
    "comp_steps",
    "messages",
    "payload_items",
    "max_message_payload",
    "messages_dropped",
    "retries",
    "timeouts",
)


@dataclass(frozen=True)
class BenchRecord:
    """One (benchmark, backend, n) measurement."""

    bench: str
    backend: str
    n: int
    num_nodes: int
    wall_s: float
    comm_steps: int
    comp_steps: int
    messages: int
    payload_items: int
    max_message_payload: int
    messages_dropped: int = 0
    retries: int = 0
    timeouts: int = 0
    # Wallclock seconds per algorithm phase (schema v2; empty when the
    # benchmark has no phase instrumentation).  Not regression-checked:
    # timings are machine-dependent, unlike the exact cost fields.
    phases: dict = field(default_factory=dict)
    # Peak Python-heap allocation during one run, in MiB (schema v3;
    # tracemalloc, recorded for columnar records only — it is the O(nodes)
    # memory claim made observable).  Not regression-checked.
    peak_mem_mb: float = 0.0

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.bench, self.backend, self.n)


def _time_best(fn: Callable[[], CostCounters], repeats: int) -> tuple[float, CostCounters]:
    """Best-of-``repeats`` wallclock; counters from the final run."""
    best = float("inf")
    counters: CostCounters | None = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        counters = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    if counters is None:
        raise ValueError("benchmark produced no run; repeats must be >= 1")
    return best, counters


def _from_counters(
    bench: str,
    backend: str,
    n: int,
    num_nodes: int,
    wall: float,
    c: CostCounters,
    phases: dict | None = None,
    peak_mem_mb: float = 0.0,
) -> BenchRecord:
    s = c.summary()
    return BenchRecord(
        bench=bench,
        backend=backend,
        n=n,
        num_nodes=num_nodes,
        wall_s=wall,
        comm_steps=s["comm_steps"],
        comp_steps=s["comp_steps"],
        messages=s["messages"],
        payload_items=s["payload_items"],
        max_message_payload=s["max_message_payload"],
        messages_dropped=s["messages_dropped"],
        retries=s["retries"],
        timeouts=s["timeouts"],
        phases=dict(phases or {}),
        peak_mem_mb=peak_mem_mb,
    )


def _peak_mem_mb(fn: Callable[[], object]) -> float:
    """Peak Python-heap MiB over one call of ``fn`` (tracemalloc).

    Run separately from the timed repeats — tracing slows allocation, so
    folding it into the wallclock loop would taint the timings.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def _bench_dual_prefix(
    n: int, backend: str, rng, repeats: int, shards: int | None = None
) -> BenchRecord:
    dc = DualCube(n)
    vals = rng.integers(0, 1000, dc.num_nodes)

    def run() -> CostCounters:
        counters = CostCounters(dc.num_nodes)
        dual_prefix(
            dc, vals, ADD, backend=backend, counters=counters, shards=shards
        )
        return counters

    def run_engine() -> CostCounters:
        _, result = dual_prefix_engine(dc, vals, ADD)
        return result.counters

    run = {"engine": run_engine}.get(backend, run)
    wall, counters = _time_best(run, repeats)
    peak = _peak_mem_mb(run) if backend in _PEAK_MEM_BACKENDS else 0.0
    # A sharded replay run gets its own backend label so the record keys
    # (and regression baselines) stay distinct from the in-process row.
    label = f"{backend}-sharded" if shards else backend
    return _from_counters(
        "dual_prefix", label, n, dc.num_nodes, wall, counters,
        peak_mem_mb=peak,
    )


def _bench_dual_sort(n: int, backend: str, rng, repeats: int) -> BenchRecord:
    rdc = RecursiveDualCube(n)
    keys = rng.permutation(rdc.num_nodes)

    # Backends with per-step profiler spans fill the record's ``phases``.
    profiled = "profiler" in backend_spec("dual_sort", backend).features
    phase_box: dict = {}

    def run() -> CostCounters:
        counters = CostCounters(rdc.num_nodes)
        prof = PhaseProfiler() if profiled else None
        dual_sort(
            rdc, keys, backend=backend, counters=counters, profiler=prof
        )
        if prof is not None:
            phase_box.update(prof.totals())
        return counters

    def run_engine() -> CostCounters:
        _, result = dual_sort_engine(rdc, keys)
        return result.counters

    run = {"engine": run_engine}.get(backend, run)
    wall, counters = _time_best(run, repeats)
    peak = _peak_mem_mb(run) if backend in _PEAK_MEM_BACKENDS else 0.0
    return _from_counters(
        "dual_sort", backend, n, rdc.num_nodes, wall, counters, phase_box,
        peak_mem_mb=peak,
    )


def _bench_large_prefix(
    n: int, block: int, rng, repeats: int, backend: str
) -> BenchRecord:
    dc = DualCube(n)
    vals = rng.integers(0, 1000, dc.num_nodes * block)

    phase_box: dict = {}

    def run() -> CostCounters:
        counters = CostCounters(dc.num_nodes)
        prof = PhaseProfiler()
        large_prefix(
            dc, vals, ADD, backend=backend, counters=counters, profiler=prof
        )
        phase_box.update(prof.totals())
        return counters

    wall, counters = _time_best(run, repeats)
    peak = _peak_mem_mb(run) if backend in _PEAK_MEM_BACKENDS else 0.0
    return _from_counters(
        f"large_prefix_b{block}", backend, n, dc.num_nodes, wall, counters,
        phase_box, peak_mem_mb=peak,
    )


def _bench_large_sort(
    n: int, block: int, rng, repeats: int, backend: str
) -> BenchRecord:
    rdc = RecursiveDualCube(n)
    keys = rng.permutation(rdc.num_nodes * block)

    phase_box: dict = {}

    def run() -> CostCounters:
        counters = CostCounters(rdc.num_nodes)
        prof = PhaseProfiler()
        large_sort(
            rdc, keys, backend=backend, counters=counters, profiler=prof
        )
        phase_box.update(prof.totals())
        return counters

    wall, counters = _time_best(run, repeats)
    peak = _peak_mem_mb(run) if backend in _PEAK_MEM_BACKENDS else 0.0
    return _from_counters(
        f"large_sort_b{block}", backend, n, rdc.num_nodes, wall, counters,
        phase_box, peak_mem_mb=peak,
    )


# The fault scenario family (``repro bench --faults``): dual_prefix and
# dual_sort under one node fault, one link fault (degraded mode over the
# healthy subgraph), and a seeded 5%-drop plan with retry.  All three are
# deterministic, so their counters regression-check like any other record.
_FAULT_DROP_PLAN = dict(drop_rate=0.05, seed=7, max_retries=200)


def _fault_scenarios(topo):
    v = topo.neighbors(2)[0]
    return (
        ("degraded-node", FaultSet(nodes=[1]), None, "degraded"),
        ("degraded-link", FaultSet(links=[(2, v)]), None, "degraded"),
        ("retry-drop", None, FaultPlan(**_FAULT_DROP_PLAN), "retry"),
    )


def _bench_faulty(kind: str, n: int, rng, repeats: int) -> list[BenchRecord]:
    if kind == "prefix":
        topo = DualCube(n)
        data = rng.integers(0, 1000, topo.num_nodes).tolist()
    else:
        topo = RecursiveDualCube(n)
        data = rng.permutation(topo.num_nodes).tolist()
    records = []
    for backend, faults, plan, mode in _fault_scenarios(topo):

        def run(faults=faults, plan=plan, mode=mode) -> CostCounters:
            res = run_faulty(
                kind, topo, data, faults=faults, plan=plan, mode=mode
            )
            return res.result.counters

        wall, counters = _time_best(run, repeats)
        records.append(
            _from_counters(
                f"fault_{kind}", backend, n, topo.num_nodes, wall, counters
            )
        )
    return records


def _bench_traffic(n: int, pairs_per_node: int, rng, repeats: int) -> BenchRecord:
    dc = DualCube(n)
    pairs = random_pairs(dc.num_nodes, pairs_per_node * dc.num_nodes, rng)

    stats_box = {}

    def run() -> CostCounters:
        stats_box["stats"] = run_traffic(dc, lambda u, v: route(dc, u, v), pairs)
        # Traffic has no lockstep ledger; express its volume in the same
        # schema: one message per hop, single-key payloads.
        counters = CostCounters(dc.num_nodes)
        counters.messages = stats_box["stats"].total_hops
        counters.payload_items = stats_box["stats"].total_hops
        counters.max_message_payload = 1 if pairs else 0
        return counters

    wall, counters = _time_best(run, repeats)
    return _from_counters("run_traffic", "router", n, dc.num_nodes, wall, counters)


def _bench_fault_traffic(n: int, pairs_per_node: int, rng, repeats: int) -> BenchRecord:
    """Random traffic under the seeded drop plan (the E11 fault row).

    The counter mapping keeps both hop ledgers visible: ``messages`` is
    physical link crossings (``total_hops``, attempts included),
    ``payload_items`` is logical hops (``path_hops``), and ``retries`` is
    the retransmission count — so ``messages - payload_items == retries``
    reproduces exactly run over run.
    """
    dc = DualCube(n)
    pairs = random_pairs(dc.num_nodes, pairs_per_node * dc.num_nodes, rng)
    plan = FaultPlan(**_FAULT_DROP_PLAN)

    def run() -> CostCounters:
        stats = run_traffic(
            dc, lambda u, v: route(dc, u, v), pairs, fault_plan=plan
        )
        counters = CostCounters(dc.num_nodes)
        counters.messages = stats.total_hops
        counters.payload_items = stats.path_hops
        counters.max_message_payload = 1 if pairs else 0
        counters.retries = stats.retransmissions
        counters.messages_dropped = stats.retransmissions
        return counters

    wall, counters = _time_best(run, repeats)
    return _from_counters("fault_traffic", "router", n, dc.num_nodes, wall, counters)


# The serving scenario family (``repro bench --backend serving``).  Every
# scenario is a fixed seeded workload, so its ServingStats — and therefore
# the counter mapping below — reproduce exactly and regression-check like
# any other record:
#
#   messages         = hops_served       (physical crossings, retransmits in)
#   payload_items    = path_hops         (logical crossings)
#   retries          = retransmissions + blocked backpressure re-offers
#   messages_dropped = fault-plan losses + queue/retry-limit request drops
#   timeouts         = deadline misses
_SERVE_RATE = 0.3  # per-node Poisson rate: ~27% of the D_3 saturation knee
_SERVE_DROP_PLAN = dict(drop_rate=0.05, seed=7, max_retries=200)


def _serving_counters(num_nodes: int, stats) -> CostCounters:
    counters = CostCounters(num_nodes)
    counters.messages = stats.hops_served
    counters.payload_items = stats.path_hops
    counters.max_message_payload = 1 if stats.arrivals else 0
    counters.retries = stats.retransmissions + stats.blocked_retries
    counters.messages_dropped = stats.retransmissions + stats.drops
    counters.timeouts = stats.deadline_misses
    return counters


def _bench_serving(
    bench: str,
    n: int,
    requests: int,
    seed: int,
    repeats: int,
    *,
    arrival: str = "poisson",
    rate_scale: float = 1.0,
    config: ServingConfig | None = None,
    plan: FaultPlan | None = None,
) -> BenchRecord:
    dc = DualCube(n)
    rate = _SERVE_RATE * rate_scale * dc.num_nodes
    if arrival == "poisson":
        arrivals = poisson_arrivals(rate, requests, seed)
    else:
        arrivals = onoff_arrivals(rate, requests, seed)
    pairs = open_loop_pairs(dc, requests, seed)

    def run() -> CostCounters:
        stats = run_serving(
            dc,
            lambda u, v: route(dc, u, v),
            arrivals,
            pairs,
            config=config,
            fault_plan=plan,
        )
        return _serving_counters(dc.num_nodes, stats)

    wall, counters = _time_best(run, repeats)
    return _from_counters(bench, "serving", n, dc.num_nodes, wall, counters)


def run_bench_serving(
    *,
    max_n: int = 4,
    repeats: int = 3,
    smoke: bool = False,
    seed: int = 0,
    requests_per_node: int = 20,
) -> dict:
    """Run the serving suite and return the JSON-ready payload.

    Sweeps an open-loop Poisson workload at a fixed sub-saturation
    per-node rate over D_2..D_``max_n``, plus three fixed-size scenario
    rows: bursty on/off arrivals, a finite-capacity run with deadlines
    (drops and misses exercised), and the seeded 5%-drop fault plan
    disturbing the live queues (retransmissions exercised).  ``smoke``
    caps the sweep at n = 2 with one repeat — the CI wiring check behind
    ``make bench-serving-smoke``.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if smoke:
        max_n = 2
        repeats = 1

    records: list[BenchRecord] = []
    for n in range(2, max_n + 1):
        requests = requests_per_node * DualCube(n).num_nodes
        records.append(
            _bench_serving("serve_poisson", n, requests, seed + n, repeats)
        )

    # Scenario rows at one fixed size.  Bursty carries a deadline (the
    # bursts make the tail miss it), and the capacity row runs overloaded
    # with a one-slot buffer, so each row's counter fingerprint actually
    # exercises its machinery — misses, drops — rather than reproducing
    # the poisson row's hop totals.
    sn = min(3, max_n)
    requests = requests_per_node * DualCube(sn).num_nodes
    records.append(
        _bench_serving(
            "serve_bursty", sn, requests, seed + sn, repeats,
            arrival="bursty",
            config=ServingConfig(deadline=15.0),
        )
    )
    records.append(
        _bench_serving(
            "serve_capacity", sn, requests, seed + sn, repeats,
            rate_scale=6.0,
            config=ServingConfig(queue_capacity=1, deadline=12.0),
        )
    )
    records.append(
        _bench_serving(
            "serve_fault", sn, requests, seed + sn, repeats,
            plan=FaultPlan(**_SERVE_DROP_PLAN),
        )
    )

    return {
        "schema": SCHEMA_VERSION,
        "suite": "serving",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }


def _campaign_counters(num_nodes: int, result) -> CostCounters:
    # The campaign's fingerprint lives in the exact-cost fields: probe
    # evaluations, violation count and minimal-set sizes, and triage class
    # totals are all pure functions of (topology, seed), so baseline drift
    # means the search or the simulators underneath it changed behaviour.
    counters = CostCounters(num_nodes)
    counters.messages = result.evaluations
    counters.payload_items = sum(v.size for v in result.violations)
    counters.max_message_payload = max(
        (v.size for v in result.violations), default=0
    )
    counters.timeouts = len(result.violations)
    counters.retries = sum(len(v.triage.classes) for v in result.violations)
    counters.messages_dropped = len(result.cross_checks)
    return counters


def _bench_campaign(
    n: int, seed: int, repeats: int, *, trials: int = 4
) -> BenchRecord:
    from repro.simulator.campaign import run_campaign

    dc = DualCube(n)

    def run() -> CostCounters:
        result = run_campaign(dc, seed=seed, trials=trials)
        return _campaign_counters(dc.num_nodes, result)

    wall, counters = _time_best(run, repeats)
    return _from_counters(
        "fault_campaign", "campaign", n, dc.num_nodes, wall, counters
    )


def run_bench_campaign(
    *,
    max_n: int = 3,
    repeats: int = 2,
    smoke: bool = False,
    seed: int = 0,
    trials: int = 4,
) -> dict:
    """Run the fault-campaign suite and return the JSON-ready payload.

    Sweeps the randomized SLO fault campaign over D_2..D_``max_n``.  Each
    record's cost columns encode the campaign fingerprint — evaluations as
    ``messages``, violation count as ``timeouts``, summed and peak minimal
    fault-set sizes as ``payload_items`` / ``max_message_payload``, triage
    class totals as ``retries`` — so the regression gate catches any change
    to probe generation, SLO evaluation, greedy shrinking, or the engines
    the campaign drives.  ``smoke`` caps the sweep at n = 2 with one repeat
    — the CI wiring check behind ``make bench-campaign-smoke``.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if smoke:
        max_n = 2
        repeats = 1

    records = [
        _bench_campaign(n, seed + n, repeats, trials=trials)
        for n in range(2, max_n + 1)
    ]

    return {
        "schema": SCHEMA_VERSION,
        "suite": "campaign",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }


def run_bench(
    *,
    max_n: int = 5,
    repeats: int = 3,
    smoke: bool = False,
    seed: int = 0,
    block: int = 8,
    pairs_per_node: int = 4,
    faults_only: bool = False,
) -> dict:
    """Run the core suite and return the JSON-ready payload.

    ``smoke`` caps the sweep at n=3 with a single repeat — a wiring check
    cheap enough for CI, not a measurement.  ``faults_only`` runs just the
    fault scenario family (``repro bench --faults``).
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if smoke:
        max_n = min(max_n, 3)
        repeats = 1

    records: list[BenchRecord] = []
    if not faults_only:
        for n in range(2, max_n + 1):
            rng = np.random.default_rng(seed + n)
            records.append(_bench_dual_prefix(n, "engine", rng, repeats))
            records.append(_bench_dual_sort(n, "engine", rng, repeats))
            records.append(_bench_traffic(n, pairs_per_node, rng, repeats))

    # Fault scenarios run at one fixed size (the paper's n=3, or n=2 when
    # the sweep is capped lower) so the record set is stable across max_n.
    fn = min(3, max_n)
    rng = np.random.default_rng(seed + fn)
    records.extend(_bench_faulty("prefix", fn, rng, repeats))
    records.extend(_bench_faulty("sort", fn, rng, repeats))
    records.append(_bench_fault_traffic(fn, pairs_per_node, rng, repeats))

    return {
        "schema": SCHEMA_VERSION,
        "suite": "faults" if faults_only else "core",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }


def run_bench_columnar(
    *,
    max_n: int = 11,
    repeats: int = 1,
    smoke: bool = False,
    seed: int = 0,
    block: int = 8,
) -> dict:
    """Run the columnar-backend suite and return the JSON-ready payload.

    The sweep covers dual_prefix and dual_sort for n = 2..``max_n``
    (default 11 — D_11 is 2^21 nodes, seconds per run on the columnar
    backend) plus the blocked large-input variants up to n = 9, where the
    N = 8 * 2^17 input keeps the large benches in the same seconds range.
    ``smoke`` runs only n = min(9, max_n), single repeat — the CI wiring
    check behind ``make bench-columnar-smoke``.  Every record carries the
    tracemalloc ``peak_mem_mb`` so the O(nodes) memory claim is visible in
    the table.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if smoke:
        sizes: tuple[int, ...] = (min(9, max_n),)
        repeats = 1
    else:
        sizes = tuple(range(2, max_n + 1))

    records: list[BenchRecord] = []
    for n in sizes:
        rng = np.random.default_rng(seed + n)
        records.append(_bench_dual_prefix(n, "columnar", rng, repeats))
        records.append(_bench_dual_sort(n, "columnar", rng, repeats))
        if not smoke and n <= 9:
            records.append(
                _bench_large_prefix(n, block, rng, repeats, "columnar")
            )
            records.append(
                _bench_large_sort(n, block, rng, repeats, "columnar")
            )

    return {
        "schema": SCHEMA_VERSION,
        "suite": "columnar",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }


def run_bench_replay(
    *,
    max_n: int = 5,
    repeats: int = 3,
    smoke: bool = False,
    seed: int = 0,
    block: int = 8,
    shards: int = 4,
) -> dict:
    """Run the replay-backend suite and return the JSON-ready payload.

    Sweeps the four algorithm benches on the compiled-plan replay backend
    for n = 2..``max_n``.  Because ``_time_best`` reuses one closure across
    repeats, the first repeat pays plan compilation and the rest hit the
    plan cache — exactly the repeat-run scenario replay optimizes, and the
    regime where it beats the columnar rows at small n.  One extra
    sharded dual_prefix row (backend ``replay-sharded``, ``shards``
    workers) runs at n = 9 on a full sweep so the multiprocessing path is
    exercised at D_9 scale; ``smoke`` caps the sweep at n = 3, single
    repeat, and runs the sharded row at the cap instead (the CI wiring
    check behind ``make bench-replay-smoke``).
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    if smoke:
        max_n = min(max_n, 3)
        repeats = 1

    records: list[BenchRecord] = []
    for n in range(2, max_n + 1):
        rng = np.random.default_rng(seed + n)
        records.append(_bench_dual_prefix(n, "replay", rng, repeats))
        records.append(_bench_dual_sort(n, "replay", rng, repeats))
        records.append(_bench_large_prefix(n, block, rng, repeats, "replay"))
        records.append(_bench_large_sort(n, block, rng, repeats, "replay"))

    sharded_n = max_n if smoke else 9
    rng = np.random.default_rng(seed + sharded_n)
    records.append(
        _bench_dual_prefix(sharded_n, "replay", rng, repeats, shards=shards)
    )

    return {
        "schema": SCHEMA_VERSION,
        "suite": "replay",
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }


def merge_bench(base: dict, new: dict) -> dict:
    """Merge two bench payloads into one document.

    Metadata (schema, timestamps, suite) comes from ``new``; records merge
    by (bench, backend, n) key with ``new`` winning collisions, output
    sorted by key so the merged file is deterministic.  This is how
    columnar sweeps land next to the core suite's rows in one
    ``BENCH_core.json`` instead of clobbering them.
    """
    by_key = {
        (r["bench"], r["backend"], r["n"]): r
        for payload in (base, new)
        for r in payload["records"]
    }
    merged = dict(new)
    merged["records"] = [by_key[k] for k in sorted(by_key)]
    return merged


def write_bench(payload: dict, path: str | Path) -> Path:
    """Write a bench payload as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict:
    """Load a bench payload, checking the schema version."""
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema not in _SUPPORTED_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected one of {_SUPPORTED_SCHEMAS})"
        )
    return payload


@dataclass(frozen=True)
class BenchRegression:
    """One regression vs a baseline, naming exactly what moved.

    ``field`` is the offending counter name (one of the exact-cost
    fields), ``"wall_s"`` for a wallclock regression, or ``"record"``
    when the whole record disappeared; ``baseline``/``current`` carry the
    two values so callers can report the delta without re-parsing the
    message.  ``str()`` renders the human-readable line ``repro bench
    --compare`` prints.
    """

    bench: str
    backend: str
    n: int
    field: str
    baseline: object
    current: object
    message: str

    def __str__(self) -> str:
        return self.message


def compare_bench_detailed(
    current: dict, previous: dict, *, wall_factor: float = 1.5
) -> list[BenchRegression]:
    """Regression-check ``current`` against ``previous``, structured.

    Returns one :class:`BenchRegression` per problem (empty = clean):

    * any cost-counter field differing on a shared (bench, backend, n)
      key — these are deterministic, so a difference is a semantic change;
    * wallclock more than ``wall_factor`` times the previous value;
    * records present previously but missing now (dropped coverage).

    Records that are new in ``current`` are fine (coverage grew).
    """
    if wall_factor <= 0:
        raise ValueError(f"wall_factor must be positive, got {wall_factor}")
    cur = {(r["bench"], r["backend"], r["n"]): r for r in current["records"]}
    prev = {(r["bench"], r["backend"], r["n"]): r for r in previous["records"]}

    problems: list[BenchRegression] = []
    for key in sorted(prev):
        bench, backend, n = key
        label = f"{bench}/{backend} n={n}"
        if key not in cur:
            problems.append(
                BenchRegression(
                    bench, backend, n, "record", prev[key], None,
                    f"{label}: record disappeared from current run",
                )
            )
            continue
        c, p = cur[key], prev[key]
        for name in _EXACT_FIELDS:
            # .get: bench files written before the fault counters existed
            # lack the new fields; treat absent as 0 rather than KeyError.
            cv, pv = c.get(name, 0), p.get(name, 0)
            if cv != pv:
                problems.append(
                    BenchRegression(
                        bench, backend, n, name, pv, cv,
                        f"{label}: {name} changed {pv} -> {cv} "
                        f"(cost counters must reproduce exactly)",
                    )
                )
        if p["wall_s"] > 0 and c["wall_s"] > p["wall_s"] * wall_factor:
            problems.append(
                BenchRegression(
                    bench, backend, n, "wall_s", p["wall_s"], c["wall_s"],
                    f"{label}: wallclock regressed "
                    f"{p['wall_s']:.6f}s -> {c['wall_s']:.6f}s "
                    f"(> {wall_factor:.2f}x)",
                )
            )
    return problems


def compare_bench(
    current: dict, previous: dict, *, wall_factor: float = 1.5
) -> list[str]:
    """Regression-check ``current`` against ``previous``.

    The human-readable view of :func:`compare_bench_detailed` — one
    rendered line per regression, empty list when clean.
    """
    return [
        str(r)
        for r in compare_bench_detailed(
            current, previous, wall_factor=wall_factor
        )
    ]
