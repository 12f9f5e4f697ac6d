"""Open-loop traffic serving: a discrete-event queueing simulator.

:func:`run_traffic` answers "what do these routes cost in aggregate" —
every pair is routed instantaneously, so it can say nothing about
*latency under load*.  This module is the serving-side counterpart: an
event-driven simulation of sustained, bursty traffic over the same
topologies and routers, with the queueing structure production capacity
planning cares about (see ``docs/model.md``, "Serving semantics"):

* **open-loop arrivals** — requests arrive on a schedule that does not
  react to the system (:func:`poisson_arrivals`,
  :func:`deterministic_arrivals`, :func:`onoff_arrivals`, or a replayed
  :func:`trace_arrivals` array), each carrying a random or supplied
  (src, dst) pair routed by the usual pluggable router;
* **per-link FIFO queues** — every *directed* link is a single server
  with deterministic service time and a finite (or infinite) waiting
  buffer; a hop is one service completion;
* **overload policies** — a message reaching a full buffer is either
  dropped (``policy="drop"``) or held where it is with backpressure
  (``policy="block"``: the upstream server stays occupied and re-offers
  the message every service time; at injection the request waits at the
  source NIC);
* **deadlines** — a request finishing after ``arrival + deadline`` counts
  as a deadline miss, not goodput;
* **fault integration** — a :class:`~repro.simulator.faults.FaultPlan`
  disturbs the live queues: its seeded drop schedule forces
  retransmissions of individual hop crossings (bounded by
  ``max_retries``) and its delay schedule stretches service times, with
  cycle keys taken from the integer simulation clock.

Everything is deterministic: identical inputs (arrival array, pairs,
config, plan) reproduce the identical :class:`ServingStats` — event ties
are broken by an explicit sequence number, never by hash order — so the
stats object doubles as a regression fingerprint.

The load-sweep driver :func:`find_saturation` bisects offered load to
the knee where p99 sojourn time diverges, turning the paper's E11
random-traffic experiment into a capacity-planning tool (experiment E18
compares the dual-cube's knee against the hypercube's and metacube's).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from operator import index
from typing import Callable, Sequence

import numpy as np

from repro.simulator.faults import FaultPlan
from repro.simulator.traffic import _validated_path, random_pairs
from repro.topology.base import Topology

__all__ = [
    "ServingConfig",
    "ServingStats",
    "Checkpoint",
    "LinkOccupancy",
    "SaturationResult",
    "deterministic_arrivals",
    "poisson_arrivals",
    "onoff_arrivals",
    "trace_arrivals",
    "open_loop_pairs",
    "bfs_router",
    "run_serving",
    "find_saturation",
    "registry_from_serving",
]

Router = Callable[[int, int], Sequence[int]]


# --------------------------------------------------------------------------
# Arrival processes.  Each returns a sorted float64 array of arrival times
# starting at t >= 0; all randomness flows through an explicit seed, so a
# given (process, rate, num, seed) is one reproducible workload.
# --------------------------------------------------------------------------


def _check_rate_num(rate: float, num: int) -> None:
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if num < 0:
        raise ValueError(f"request count must be non-negative, got {num}")


def deterministic_arrivals(rate: float, num: int) -> np.ndarray:
    """``num`` arrivals at exact spacing ``1/rate`` (the D/·/1 workload)."""
    _check_rate_num(rate, num)
    return np.arange(num, dtype=np.float64) / rate


def poisson_arrivals(rate: float, num: int, seed: int = 0) -> np.ndarray:
    """``num`` arrivals of a Poisson process of intensity ``rate``."""
    _check_rate_num(rate, num)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, num)
    return np.cumsum(gaps)


def onoff_arrivals(
    rate: float,
    num: int,
    seed: int = 0,
    *,
    burst_factor: float = 4.0,
    on_mean: float = 10.0,
    off_mean: float = 30.0,
) -> np.ndarray:
    """Bursty on/off arrivals with long-run intensity ``rate``.

    Alternates exponentially-distributed ON and OFF phases (means
    ``on_mean``/``off_mean`` time units); during ON phases arrivals are
    Poisson at ``burst_factor`` times the rate a steady process would
    need, so the long-run average matches ``rate`` while the instantaneous
    load arrives in bursts — the workload that separates mean latency
    from tail latency.
    """
    _check_rate_num(rate, num)
    if burst_factor <= 1.0:
        raise ValueError(f"burst_factor must be > 1, got {burst_factor}")
    if on_mean <= 0 or off_mean <= 0:
        raise ValueError(
            f"phase means must be positive, got on={on_mean} off={off_mean}"
        )
    # Long-run arrival intensity is on_rate * on_mean / (on_mean + off_mean);
    # solve for the ON-phase rate that makes it equal `rate`.
    duty = on_mean / (on_mean + off_mean)
    on_rate = min(rate * burst_factor, rate / duty)
    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    while len(times) < num:
        on_len = rng.exponential(on_mean)
        end = t + on_len
        while len(times) < num:
            t += rng.exponential(1.0 / on_rate)
            if t > end:
                t = end
                break
            times.append(t)
        t += rng.exponential(off_mean)
    return np.asarray(times[:num], dtype=np.float64)


def trace_arrivals(times: Sequence[float]) -> np.ndarray:
    """Validate and normalize a replayable arrival-time trace.

    The trace must be non-negative and non-decreasing (simultaneous
    arrivals are allowed; their relative order in the array is the order
    they are offered to the network, though aggregate counters do not
    depend on it — see ``tests/simulator/test_serving_properties.py``).
    """
    arr = np.asarray(times, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"arrival trace must be 1-D, got shape {arr.shape}")
    if arr.size and (not np.isfinite(arr).all() or arr[0] < 0):
        raise ValueError("arrival trace must be finite and non-negative")
    if arr.size and (np.diff(arr) < 0).any():
        raise ValueError("arrival trace must be non-decreasing")
    return arr


def open_loop_pairs(
    topo: Topology, num: int, seed: int = 0
) -> list[tuple[int, int]]:
    """``num`` uniform self-excluding (src, dst) pairs for a workload."""
    rng = np.random.default_rng(seed)
    return random_pairs(topo.num_nodes, num, rng)


def bfs_router(topo: Topology) -> Router:
    """Shortest-path router for any :class:`Topology` (per-source BFS).

    Predecessor trees are memoized per source, so routing a batch costs
    one BFS per distinct source — the fallback for comparison topologies
    (e.g. the metacube) that ship no closed-form router.
    """
    trees: dict[int, list[int]] = {}

    def _route(u: int, v: int) -> list[int]:
        topo.check_node(u)
        topo.check_node(v)
        if u == v:
            return [u]
        prev = trees.get(u)
        if prev is None:
            prev = [-1] * topo.num_nodes
            prev[u] = u
            queue = deque([u])
            while queue:
                w = queue.popleft()
                for x in topo.neighbors(w):
                    if prev[x] < 0:
                        prev[x] = w
                        queue.append(x)
            trees[u] = prev
        if prev[v] < 0:
            raise ValueError(f"{topo.name}: no path {u} -> {v}")
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    _route.__name__ = f"bfs_router({topo.name})"
    return _route


# --------------------------------------------------------------------------
# Configuration and results.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    ``service_time`` is the deterministic time a link spends per message
    (one hop).  ``queue_capacity`` bounds the *waiting* buffer of each
    directed link (the in-service slot is separate); ``None`` means
    unbounded.  ``policy`` selects what happens at a full buffer:
    ``"drop"`` discards the request, ``"block"`` applies backpressure
    (the message holds its upstream server and re-offers itself every
    service time; a blocked injection waits at the source).  ``deadline``
    is the per-request sojourn budget (``None`` = no deadlines).
    ``horizon`` stops the simulation clock: arrivals and service beyond
    it never happen and unfinished requests count as in-flight —
    required for ``policy="block"`` with finite capacity, where cyclic
    backpressure can otherwise hold messages forever.
    """

    service_time: float = 1.0
    queue_capacity: int | None = None
    policy: str = "drop"
    deadline: float | None = None
    horizon: float | None = None
    checkpoint_every: float | None = None

    def __post_init__(self):
        if self.service_time <= 0:
            raise ValueError(
                f"service_time must be positive, got {self.service_time}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0 or None, got {self.queue_capacity}"
            )
        if self.policy not in ("drop", "block"):
            raise ValueError(
                f"policy must be 'drop' or 'block', got {self.policy!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """Counter snapshot at one simulated instant.

    The conservation law ``arrivals == completions + drops +
    deadline_misses + in_flight`` holds at every checkpoint by
    construction; the property suite asserts it anyway, because that is
    exactly the invariant a bookkeeping bug would break.
    """

    time: float
    arrivals: int
    completions: int
    drops: int
    deadline_misses: int
    in_flight: int


@dataclass(frozen=True)
class LinkOccupancy:
    """Queueing behaviour of one directed link over the run.

    ``utilization`` is busy time over elapsed time; ``mean_queue`` is the
    time-averaged waiting-buffer length (in-service slot excluded);
    ``served`` counts service completions (retransmitted attempts
    included).
    """

    utilization: float
    mean_queue: float
    max_queue: int
    served: int


@dataclass(frozen=True)
class ServingStats:
    """Aggregate results of one open-loop serving run.

    Latency percentiles are nearest-rank over the sojourn times of every
    *finished* request (completions and deadline misses; dropped requests
    have no sojourn).  With fewer than 1000 finished requests ``p999``
    equals the maximum — at small n the extreme tail is the sample
    maximum, not an interpolated fiction (see ``docs/model.md``).

    ``goodput`` counts only in-deadline completions per unit time.
    ``link_loads`` aggregates service attempts per *undirected* link in
    :func:`run_traffic`'s key convention, so a closed-batch run is
    directly comparable to the batch router (the cross-validation test
    pins them equal); ``occupancy`` keeps the *directed* per-queue view.
    """

    topology: str
    policy: str
    arrivals: int
    completions: int
    drops: int
    deadline_misses: int
    in_flight: int
    elapsed: float
    p50: float
    p99: float
    p999: float
    mean_sojourn: float
    max_sojourn: float
    goodput: float
    hops_served: int
    path_hops: int
    retransmissions: int
    blocked_retries: int
    link_loads: dict = field(default_factory=dict)
    occupancy: dict = field(default_factory=dict)
    checkpoints: tuple = ()

    @property
    def finished(self) -> int:
        """Requests that traversed their full path (on time or late)."""
        return self.completions + self.deadline_misses

    @property
    def utilization(self) -> float:
        """Mean utilization over the links that carried any traffic."""
        busy = [o.utilization for o in self.occupancy.values() if o.served]
        return float(np.mean(busy)) if busy else 0.0

    def conservation_ok(self) -> bool:
        """The end-of-run conservation law (and at every checkpoint)."""
        checks = [
            (self.arrivals, self.completions, self.drops,
             self.deadline_misses, self.in_flight)
        ] + [
            (c.arrivals, c.completions, c.drops, c.deadline_misses, c.in_flight)
            for c in self.checkpoints
        ]
        return all(a == c + d + m + f for a, c, d, m, f in checks)

    def row(self) -> tuple:
        """Tuple for table rendering."""
        return (
            self.topology,
            self.arrivals,
            self.completions,
            self.drops,
            self.deadline_misses,
            round(self.p50, 3),
            round(self.p99, 3),
            round(self.p999, 3),
            round(self.goodput, 4),
            round(self.utilization, 3),
        )


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not len(sorted_vals):
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return float(sorted_vals[rank - 1])


# --------------------------------------------------------------------------
# The discrete-event core.
# --------------------------------------------------------------------------

# Event kinds, ordered deliberately: at one instant, departures run
# before arrivals (a slot freed at time t is available to a time-t
# arrival), and retries after fresh arrivals.  The int is the heap
# tie-break after time; `seq` below breaks remaining ties by creation
# order, so the schedule is a pure function of the inputs.
_DEPART = 0
_ARRIVE = 1
_RETRY_INJECT = 2


class _Request:
    __slots__ = ("t_arrive", "src", "path", "hop", "tries", "crossed", "deadline")

    def __init__(self, t_arrive, src, path, deadline):
        self.t_arrive = t_arrive
        self.src = src
        self.path = path
        self.hop = 0          # index into path: current link is path[hop]->path[hop+1]
        self.tries = 0        # fault-drop retransmissions of the current hop
        self.crossed = False  # current hop already counted as a crossing
        self.deadline = deadline


class _LinkQ:
    """One directed link: a single deterministic server plus FIFO buffer."""

    __slots__ = (
        "key", "queue", "current", "served", "busy_since", "busy_time",
        "q_area", "q_last_t", "max_queue",
    )

    def __init__(self, key: tuple[int, int]):
        self.key = key
        self.queue: deque = deque()
        self.current: _Request | None = None
        self.served = 0
        self.busy_since = 0.0
        self.busy_time = 0.0
        self.q_area = 0.0   # integral of queue length over time
        self.q_last_t = 0.0
        self.max_queue = 0

    def note_queue_change(self, t: float) -> None:
        self.q_area += len(self.queue) * (t - self.q_last_t)
        self.q_last_t = t


def run_serving(
    topo: Topology,
    router: Router,
    arrivals: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    *,
    config: ServingConfig | None = None,
    fault_plan: FaultPlan | None = None,
    timeline=None,
) -> ServingStats:
    """Serve an open-loop workload through ``topo`` and aggregate stats.

    ``arrivals`` is a non-decreasing array of request arrival times and
    ``pairs`` the same-length sequence of (src, dst) pairs (any integer
    type, e.g. an ``(N, 2)`` integer array; nodes are taken as plain
    ``int`` and a non-integer raises :class:`TypeError`); request ``i``
    arrives at ``arrivals[i]``.  ``router`` is called once per distinct
    pair per run, at that pair's first arrival, and its path — validated
    hop by hop, as in :func:`run_traffic` — is reused by every later
    request of the pair, so the router must be a pure function of the
    pair.

    With a ``fault_plan``, each completed hop crossing is subject to the
    plan's deterministic drop schedule keyed by a global attempt counter
    (the same convention as :func:`run_traffic`; a given workload + plan
    reproduces its own retransmissions bit-for-bit, and on a single-link
    topology — where crossing order is sequential — it reproduces
    :func:`run_traffic`'s exactly); a dropped crossing re-enters
    service on the same link — the failed attempt still occupies the
    server and loads the link — bounded per hop by ``plan.max_retries``,
    after which the request counts as a drop.  The plan's delay schedule
    stretches individual service times by ``issue_delay(src, cycle)``
    service units, with ``cycle = floor(t) + 1``.  Structural and
    membership faults use the same wall-clock cycle key: a request
    arriving at a node that is crashed or inside a downtime interval
    (``plan.down(src, cycle)``) is refused at admission and counted as a
    drop, and a crossing whose link is cut — or whose endpoint is down —
    at that cycle is lost exactly like a transient drop (retransmitted in
    place up to ``max_retries``).  Plans without structural faults are
    unaffected bit-for-bit, because the global attempt counter advances
    identically.

    A ``timeline`` (:class:`~repro.obs.timeline.TimelineRecorder`)
    receives one message event per successful hop crossing (bucketed into
    integer cycles the same way) and one fault event per queue drop
    (``"drop"``), fault-plan drop (``"drop"``) and deadline miss
    (``"timeout"``), so ``repro serve --heatmap`` renders queue activity
    with the existing ASCII renderer.
    """
    cfg = config or ServingConfig()
    times = trace_arrivals(arrivals)
    # Plain int pairs: NumPy node IDs would leak into the stats' dict keys.
    pairs = [(index(u), index(v)) for u, v in pairs]
    if len(pairs) != len(times):
        raise ValueError(
            f"arrivals and pairs must have equal length, got "
            f"{len(times)} arrivals and {len(pairs)} pairs"
        )
    service = cfg.service_time
    capacity = cfg.queue_capacity
    horizon = cfg.horizon
    stop = horizon if horizon is not None else math.inf  # the clock's end
    deadline = cfg.deadline
    blocking = cfg.policy == "block"
    if blocking and capacity is not None and horizon is None:
        raise ValueError(
            "policy='block' with finite queue_capacity requires a horizon: "
            "cyclic backpressure can hold messages forever"
        )

    links: dict[tuple[int, int], _LinkQ] = {}
    load: dict[tuple[int, int], int] = {}  # undirected link -> attempts

    # The plan's structural faults: only these ranks can ever be down, and
    # a link can be down only if one of its endpoints is among them or the
    # plan cuts links.  Everywhere else ``down`` is False and ``link_up``
    # is True, so the loop asks the plan only where the answer can vary.
    if fault_plan is not None:
        can_fail = frozenset(fault_plan.node_crashes).union(
            fault_plan.downtimes
        )
        has_cuts = bool(fault_plan.link_cuts)
    else:
        can_fail, has_cuts = frozenset(), False

    # Aggregate counters.
    n_arrivals = n_completions = n_drops = n_misses = 0
    hops_served = path_hops = retransmissions = blocked_retries = 0
    attempt = 0  # global crossing-attempt index: the fault plan's cycle key
    sojourns: list[float] = []
    checkpoints: list[Checkpoint] = []
    next_checkpoint = cfg.checkpoint_every

    # Events are (t, kind, seq, payload): the payload is the arrival's
    # index, the retrying request or the departing link's queue.  Arrival
    # times are non-decreasing and their seq rises, so the arrival list,
    # cut at the horizon, is already a heap.
    times = times[: int(np.searchsorted(times, stop, side="right"))]
    heap = [(t, _ARRIVE, i, i) for i, t in enumerate(times.tolist())]
    next_seq = itertools.count(len(heap)).__next__
    heappush, heappop, floor = heapq.heappush, heapq.heappop, math.floor

    # Each pair is routed and validated lazily, at its first arrival, and
    # reused by later arrivals of the same pair; requests beyond the
    # horizon never arrive at all, so their pairs are never routed.
    paths: dict[tuple[int, int], tuple] = {}

    def record_fault(t: float, kind: str, rank: int, a=None, b=None):
        if timeline is not None:
            timeline.record_fault(floor(t) + 1, kind, rank=rank, src=a, dst=b)

    def start_service(lq: _LinkQ, req: _Request, t: float):
        lq.current = req
        lq.busy_since = t
        dt = service
        if fault_plan is not None:
            dt += fault_plan.issue_delay(req.path[req.hop], floor(t) + 1) * service
        heappush(heap, (t + dt, _DEPART, next_seq(), lq))

    def take_checkpoint(upto: float) -> None:
        nonlocal next_checkpoint
        if next_checkpoint is None:
            return
        while next_checkpoint <= upto and next_checkpoint <= stop:
            in_flight = n_arrivals - n_completions - n_drops - n_misses
            checkpoints.append(
                Checkpoint(
                    time=next_checkpoint,
                    arrivals=n_arrivals,
                    completions=n_completions,
                    drops=n_drops,
                    deadline_misses=n_misses,
                    in_flight=in_flight,
                )
            )
            next_checkpoint += cfg.checkpoint_every

    # One flat loop.  An arrival or injection retry offers its request to
    # the first link of its path; a departure either retransmits in place
    # or finishes, drops or hands the request off to the next link, and
    # then (unless backpressure holds it) releases the upstream server.
    last_t = 0.0
    while heap:
        t, kind, _, payload = heappop(heap)
        if t > stop:
            break
        if next_checkpoint is not None and next_checkpoint <= t:
            take_checkpoint(t)
        last_t = t

        if kind == _DEPART:
            # The link queue `payload` finished one service period.
            up = payload
            req = up.current
            if not req.crossed:
                # This completion is a genuine crossing attempt.
                a, b = up.key
                attempt += 1
                link = (a, b) if a < b else (b, a)
                load[link] = load.get(link, 0) + 1
                up.served += 1
                hops_served += 1
                if fault_plan is not None and (
                    fault_plan.dropped(a, b, attempt)
                    # A cut link or a down endpoint (crash/downtime) loses
                    # the crossing exactly like a transient drop: the
                    # attempt counter advanced, so drop-schedule verdicts
                    # for plans without structural faults are unchanged
                    # bit-for-bit.
                    or (
                        (has_cuts or a in can_fail or b in can_fail)
                        and not fault_plan.link_up(a, b, floor(t) + 1)
                    )
                ):
                    retransmissions += 1
                    req.tries += 1
                    record_fault(t, "drop", req.src, a, b)
                    if req.tries <= fault_plan.max_retries:
                        start_service(up, req, t)  # retransmit in place
                        continue
                    n_drops += 1
                    record_fault(t, "drop", req.src, a, b)
                    req = None
                else:
                    path_hops += 1
                    req.crossed = True
                    if timeline is not None:
                        timeline.record_message(floor(t) + 1, a, b, 1, "send")
            if req is not None:
                if req.hop + 2 < len(req.path):
                    # Hand off to the next link on the path.
                    req.hop += 1
                    req.tries = 0
                    req.crossed = False
                else:
                    sojourns.append(t - req.t_arrive)
                    if req.deadline is not None and t > req.deadline:
                        n_misses += 1
                        record_fault(t, "timeout", req.src)
                    else:
                        n_completions += 1
                    req = None
        elif kind == _ARRIVE:
            up = None
            pair = pairs[payload]
            path = paths.get(pair)
            if path is None:
                path = paths[pair] = _validated_path(topo, router, *pair)
            n_arrivals += 1
            src = pair[0]
            if src in can_fail and fault_plan.down(src, floor(t) + 1):
                # The ingress node is crashed or offline (downtime): the
                # request is refused at admission and counts as a drop —
                # the availability SLO's numerator.
                n_drops += 1
                record_fault(t, "drop", src, src, src)
                continue
            if len(path) == 1:
                # A self-pair finishes on arrival, on time.
                sojourns.append(0.0)
                n_completions += 1
                continue
            req = _Request(
                t, src, path, t + deadline if deadline is not None else None
            )
        else:  # _RETRY_INJECT
            up = None
            req = payload

        if req is not None:
            # Offer the request to its current link.
            key = (req.path[req.hop], req.path[req.hop + 1])
            lq = links.get(key)
            if lq is None:
                lq = links[key] = _LinkQ(key)
            if lq.current is None:
                start_service(lq, req, t)
            elif capacity is None or len(lq.queue) < capacity:
                lq.note_queue_change(t)
                lq.queue.append(req)
                if len(lq.queue) > lq.max_queue:
                    lq.max_queue = len(lq.queue)
            elif blocking:
                blocked_retries += 1
                if up is None:
                    # A blocked injection waits at the source.
                    heappush(heap, (t + service, _RETRY_INJECT, next_seq(), req))
                    continue
                # Hold the server and re-offer downstream after a service time.
                req.hop -= 1
                req.crossed = True
                heappush(heap, (t + service, _DEPART, next_seq(), up))
                continue
            else:
                n_drops += 1
                record_fault(t, "drop", req.src, key[0], key[1])

        if up is not None:
            # Release the upstream server to its next waiting message.
            up.busy_time += t - up.busy_since
            up.current = None
            if up.queue:
                up.note_queue_change(t)
                start_service(up, up.queue.popleft(), t)

    # The observation window is the *full* configured horizon: the run is
    # open-loop, so a drained event heap just means the tail of the window
    # was idle — idle time still counts toward utilization/goodput, and
    # checkpoints scheduled after the last event must still be emitted.
    # (Without a horizon the window ends at the last event, as before.)
    elapsed = horizon if horizon is not None else last_t
    take_checkpoint(elapsed)
    if timeline is not None and elapsed > 0:
        timeline.set_cycles(int(math.ceil(elapsed)))

    in_flight = n_arrivals - n_completions - n_drops - n_misses
    sojourns.sort()
    occupancy = {}
    for key in sorted(links):
        lq = links[key]
        if lq.current is not None:  # still busy at the horizon
            lq.busy_time += max(0.0, elapsed - lq.busy_since)
        if lq.queue:  # still waiting at the horizon
            lq.q_area += len(lq.queue) * max(0.0, elapsed - lq.q_last_t)
        occupancy[key] = LinkOccupancy(
            utilization=(lq.busy_time / elapsed) if elapsed > 0 else 0.0,
            mean_queue=(lq.q_area / elapsed) if elapsed > 0 else 0.0,
            max_queue=lq.max_queue,
            served=lq.served,
        )

    return ServingStats(
        topology=topo.name,
        policy=cfg.policy,
        arrivals=n_arrivals,
        completions=n_completions,
        drops=n_drops,
        deadline_misses=n_misses,
        in_flight=in_flight,
        elapsed=float(elapsed),
        p50=_percentile(sojourns, 0.50),
        p99=_percentile(sojourns, 0.99),
        p999=_percentile(sojourns, 0.999),
        mean_sojourn=float(np.mean(sojourns)) if sojourns else 0.0,
        max_sojourn=float(sojourns[-1]) if sojourns else 0.0,
        goodput=(n_completions / elapsed) if elapsed > 0 else 0.0,
        hops_served=hops_served,
        path_hops=path_hops,
        retransmissions=retransmissions,
        blocked_retries=blocked_retries,
        link_loads=load,
        occupancy=occupancy,
        checkpoints=tuple(checkpoints),
    )


# --------------------------------------------------------------------------
# Saturation sweep.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one :func:`find_saturation` bisection.

    ``rate`` is the highest *per-node* injection rate probed that kept
    p99 sojourn below ``threshold`` (the knee is between ``rate`` and
    ``diverged_rate``); ``probes`` records every ``(rate, p99)`` pair
    measured, in probe order, so the sweep is auditable.
    """

    topology: str
    rate: float
    diverged_rate: float
    base_p99: float
    threshold: float
    probes: tuple

    def row(self) -> tuple:
        return (
            self.topology,
            round(self.rate, 5),
            round(self.diverged_rate, 5),
            round(self.base_p99, 3),
            round(self.threshold, 3),
            len(self.probes),
        )


def find_saturation(
    topo: Topology,
    router: Router,
    *,
    seed: int = 0,
    requests: int = 2000,
    max_requests: int = 20000,
    window: float = 300.0,
    service_time: float = 1.0,
    start_rate: float = 0.01,
    p99_factor: float = 8.0,
    max_doublings: int = 12,
    rel_tol: float = 0.05,
    config: ServingConfig | None = None,
) -> SaturationResult:
    """Bisect per-node offered load to the knee where p99 diverges.

    Each probe observes a fixed simulated ``window``: it offers
    ``rate * num_nodes * window`` requests (floored at ``requests`` so
    near-idle probes still have a p99-worthy sample, capped at
    ``max_requests`` to bound probe cost).  The fixed window is what
    makes divergence *detectable*: past the knee, backlog accumulates
    over the whole window, so p99 grows with the window instead of
    saturating at the drain time of some fixed batch.  All probes reuse
    one seeded gap sequence and pair list (rescaled to the probed rate),
    so the sweep is deterministic and seed-stable.

    The divergence threshold is ``p99_factor`` times the p99 measured at
    ``start_rate`` (a nearly idle system, so that p99 is queueing-free
    path latency).  Doubling from ``start_rate`` finds a diverged rate,
    then bisection narrows the bracket to ``rel_tol`` relative width.

    Rates are *per node* per time unit — the natural axis for comparing
    topologies of different sizes (experiment E18).
    """
    if requests < 100:
        raise ValueError(f"requests must be >= 100 for a stable p99, got {requests}")
    if max_requests < requests:
        raise ValueError(
            f"max_requests ({max_requests}) must be >= requests ({requests})"
        )
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if start_rate <= 0:
        raise ValueError(f"start_rate must be positive, got {start_rate}")
    if p99_factor <= 1:
        raise ValueError(f"p99_factor must be > 1, got {p99_factor}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    base_cfg = config or ServingConfig(service_time=service_time)
    pairs = open_loop_pairs(topo, max_requests, seed)
    # One unit-rate gap sequence, rescaled per probe: probing rate r uses
    # arrival times gaps/total_rate, so all probes share one sample path.
    unit_gaps = np.random.default_rng(seed).exponential(1.0, max_requests)

    probes: list[tuple[float, float]] = []

    def p99_at(rate: float) -> float:
        total_rate = rate * topo.num_nodes
        num = int(min(max_requests, max(requests, round(total_rate * window))))
        arrivals = np.cumsum(unit_gaps[:num] / total_rate)
        stats = run_serving(
            topo, router, arrivals, pairs[:num], config=base_cfg
        )
        probes.append((rate, stats.p99))
        return stats.p99

    base_p99 = p99_at(start_rate)
    threshold = p99_factor * base_p99
    if base_p99 >= threshold:  # p99_factor > 1 makes this unreachable unless 0
        raise ValueError(
            f"baseline p99 {base_p99} already at threshold; lower start_rate"
        )

    lo, hi = start_rate, start_rate
    for _ in range(max_doublings):
        hi = hi * 2.0
        if p99_at(hi) > threshold:
            break
        lo = hi
    else:
        raise ValueError(
            f"{topo.name}: p99 never diverged up to rate {hi:.4f} "
            f"({max_doublings} doublings from {start_rate}); the service "
            f"rate may be effectively infinite for this workload"
        )

    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if p99_at(mid) > threshold:
            hi = mid
        else:
            lo = mid

    return SaturationResult(
        topology=topo.name,
        rate=lo,
        diverged_rate=hi,
        base_p99=base_p99,
        threshold=threshold,
        probes=tuple(probes),
    )


# --------------------------------------------------------------------------
# Metrics bridge.
# --------------------------------------------------------------------------


def registry_from_serving(stats: ServingStats, *, registry=None, labels=None):
    """Feed a :class:`ServingStats` into a metrics registry.

    Request outcomes and hop totals become counters, the latency
    percentiles and utilization gauges, and the per-link served counts a
    histogram (the distribution view of queue skew) — the same
    export-ready shape :func:`~repro.obs.metrics.registry_from_counters`
    gives the lockstep ledger.
    """
    # Imported lazily: the simulator stays importable without obs.
    from repro.obs.metrics import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    labels = dict(labels or {})
    labels.setdefault("topology", stats.topology)
    for name, value, help_text in (
        ("serving_arrivals", stats.arrivals, "Requests that entered the network"),
        ("serving_completions", stats.completions, "Requests completed within deadline"),
        ("serving_drops", stats.drops, "Requests dropped at a full queue or retry limit"),
        ("serving_deadline_misses", stats.deadline_misses, "Requests completed past their deadline"),
        ("serving_hops_served", stats.hops_served, "Physical hop crossings served (retransmissions included)"),
        ("serving_path_hops", stats.path_hops, "Logical hop crossings served"),
        ("serving_retransmissions", stats.retransmissions, "Hop crossings lost to the fault plan and retried"),
        ("serving_blocked_retries", stats.blocked_retries, "Backpressure re-offers of a held message"),
    ):
        reg.counter(name, help_text, labels).inc(int(value))
    for name, value, help_text in (
        ("serving_in_flight", stats.in_flight, "Requests still in the network at the horizon"),
        ("serving_p50_sojourn", stats.p50, "Median sojourn time"),
        ("serving_p99_sojourn", stats.p99, "99th-percentile sojourn time"),
        ("serving_p999_sojourn", stats.p999, "99.9th-percentile sojourn time"),
        ("serving_goodput", stats.goodput, "In-deadline completions per time unit"),
        ("serving_utilization", stats.utilization, "Mean utilization over loaded links"),
    ):
        reg.gauge(name, help_text, labels).set(float(value))
    served = reg.histogram(
        "serving_link_served",
        "Service completions per directed link",
        labels,
    )
    for occ in stats.occupancy.values():
        served.observe(occ.served)
    return reg
