"""The benchmark's four workloads.

Every workload is one closed loop in one thread: the next call into the
library is made only when the previous one has returned.  Inputs come
from the workload seed alone (op ``i`` draws from ``default_rng([seed,
i])``), so op ``i`` is the same call in every run with that seed; the
library receives only the generated arrays, pairs and seeds.  Each op's
output is checked after its timer stops, and a failed check or an
exception counts the op as failed.

The shared 2-core host this benchmark was tuned on runs the same code
up to twice as slow from one second to the next.  So the measured loop
also times a fixed reference kernel of the benchmark's own (the
*calibration*, every 50 ms), and the gated cost of an op is its wall
time over the median of the six calibrations nearest to it (three
before, three after), in *cal*.  A change to the library moves the op's
cost in cal; the machine's speed of the moment moves op and kernel alike.
The gated ``op_cost`` of a run is the geometric mean over its op kinds
of each kind's median cost, so every kind weighs the same.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import statistics
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext

import numpy as np

import repro
import repro.simulator.campaign as campaign
import repro.simulator.serving as serving
from repro.analysis.complexity import dual_prefix_comm_exact, dual_sort_comm_exact

CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 3  # calibrations on each side of an op that scale it


def nearest_rank(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def geometric_mean(values) -> float:
    return math.exp(statistics.mean(math.log(v) for v in values))


def metric(value: float, unit: str, samples: int, statistic: str) -> dict:
    return {"value": value, "unit": unit, "samples": samples,
            "statistic": statistic}


def same_values(out, reference: np.ndarray) -> bool:
    """Value and dtype equal to ``reference``."""
    return (isinstance(out, np.ndarray) and out.dtype == reference.dtype
            and np.array_equal(out, reference))


class _Message:
    __slots__ = ("node", "hop")

    def __init__(self, node: int):
        self.node = node
        self.hop = 0


def python_kernel(nodes: int = 2048, messages: int = 600) -> int:
    """Reference interpreter work: a tiny discrete-event run (event heap,
    per-link FIFO queues in a dict, slotted message objects), the mix of
    the simulator's Python code."""
    queues: dict = {}
    heap: list = []
    for i in range(messages):
        heapq.heappush(heap, (i * 0.01, i, _Message((i * 7919) % nodes)))
    seq = messages
    delivered = 0
    while heap:
        t, _, msg = heapq.heappop(heap)
        nxt = msg.node ^ (1 << (msg.hop % 11))
        queue = queues.get((msg.node, nxt))
        if queue is None:
            queue = queues[(msg.node, nxt)] = deque()
        queue.append(msg)
        if len(queue) > 4:
            queue.popleft()
        msg.node = nxt
        msg.hop += 1
        if msg.hop < 6:
            heapq.heappush(heap, (t + 1.0, seq, msg))
            seq += 1
        else:
            delivered += 1
    return delivered


class NumpyKernel:
    """Reference array work: compare-exchange of two strided halves of
    2^19 int64, three times, the elementwise min/max traffic of the bulk
    calls' rounds.  (Of the kernels tried, it tracked the bulk calls'
    speed from run to run best.)"""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.integers(-2**40, 2**40, size=2**19, dtype=np.int64)
        self.b = rng.integers(-2**40, 2**40, size=2**19, dtype=np.int64)

    def __call__(self) -> int:
        for _ in range(3):
            lo = np.minimum(self.a[::2], self.b[1::2])
            hi = np.maximum(self.a[::2], self.b[1::2])
        return int(lo[0] + hi[-1])


class Workload:
    """One workload: set-up, a closed loop of ops, checks and metrics."""

    name = ""
    why = ""
    min_ops = 1       # ops a measured run makes however short ``seconds`` is
    pass_ops = 1      # a measured run is whole passes of this many ops
    trace_ops = 1     # ops of the traced run, a fixed list: counts repeat
    warm_up_ops = 1   # set-up makes the first op of each kind among these

    def __init__(self, seed: int):
        self.seed = seed
        # (op, kind, seconds, index of the last calibration before it)
        self.records: list[tuple] = []
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.kernel = python_kernel
        self._first: dict = {}  # op -> fingerprint of its first output

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    # -- to fill in ----------------------------------------------------------

    def build(self) -> None:
        """Construct the topologies the ops run on."""

    def op(self, i: int):
        """Op ``i`` as ``(kind, call, check)``; ``call()`` makes one
        public call and ``check(output)`` says whether it was right."""
        raise NotImplementedError

    def end_to_end(self) -> dict:
        """The workload's end-to-end metrics (``setup_s`` and
        ``peak_rss_mb`` are added by the runner)."""
        raise NotImplementedError

    # -- driving -------------------------------------------------------------

    def setup(self) -> None:
        """Build, then one untimed warm-up call of every op kind."""
        self.build()
        self.kernel()
        seen = set()
        for i in range(self.warm_up_ops):
            kind, call, _ = self.op(i)
            if kind not in seen:
                seen.add(kind)
                call()

    def run_op(self, i: int, tracer=None, measured: bool = True) -> float:
        """Make op ``i``, check it, and return its wall time."""
        kind, call, check = self.op(i)
        self.attempted += 1
        window = tracer.recording(i) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with window:
                out = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if measured:
            self.records.append((i, kind, dt, len(self.calibrations) - 1))
        try:
            ok = check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"check failed: {self.name} op {i} ({kind})", file=sys.stderr)
        return dt

    def repeats(self, i: int, fingerprint) -> bool:
        """Whether op ``i`` gave ``fingerprint`` each time it was made."""
        return self._first.setdefault(i, fingerprint) == fingerprint

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.calibrations.append(time.perf_counter() - t0)

    def run(self, seconds: float) -> None:
        """The measured closed loop, ops 0, 1, ... in whole passes of
        ``pass_ops`` ops, at least ``min_ops``, then another pass while the
        mean pass so far still fits in ``seconds``; calibrated before, every
        50 ms and after.  Then op 0 once more, unmeasured, to check that it
        repeats."""
        for _ in range(CALIBRATION_WINDOW):
            self.calibrate()
        start = last = time.perf_counter()
        i = 0
        while True:
            if i % self.pass_ops == 0 and i >= self.min_ops:
                elapsed = time.perf_counter() - start
                if elapsed * (1 + self.pass_ops / i) > seconds:
                    break
            self.run_op(i)
            i += 1
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                self.calibrate()
                last = time.perf_counter()
        for _ in range(CALIBRATION_WINDOW):
            self.calibrate()
        self.run_op(0, measured=False)

    # -- samples -------------------------------------------------------------

    def seconds(self, match=None) -> list[float]:
        """Wall times of the measured ops (those whose kind satisfies
        ``match``, if given)."""
        return [dt for _, kind, dt, _ in self.records
                if match is None or match(kind)]

    def median_s(self, kind: str) -> float:
        return statistics.median(self.seconds(kind.__eq__))

    def costs(self, match=None) -> list[float]:
        """The same ops' times in cal: each over the median of the
        calibrations made nearest to it, ``CALIBRATION_WINDOW`` before and
        as many after."""
        cal, w = self.calibrations, CALIBRATION_WINDOW
        return [dt / statistics.median(cal[max(0, c - w + 1):c + w + 1])
                for _, kind, dt, c in self.records
                if match is None or match(kind)]

    def median_cost(self, kind: str) -> float:
        return statistics.median(self.costs(kind.__eq__))

    def kinds(self) -> list[str]:
        return sorted({kind for _, kind, _, _ in self.records})

    def op_cost_metric(self) -> dict:
        kinds = self.kinds()
        return metric(
            geometric_mean(self.median_cost(k) for k in kinds), "cal",
            len(self.records),
            f"geometric mean over op kinds ({len(kinds)}) of each kind's "
            f"median cost")

    def calibration_metric(self) -> dict:
        return metric(1e3 * statistics.median(self.calibrations), "ms",
                      len(self.calibrations),
                      "median calibration kernel time (1 cal)")


class BulkD10(Workload):
    name = "bulk-d10"
    why = ("2^19-element calls of all four entry points: numpy kernels and "
           "gather traffic in core, no routing or simulator")
    # Ops cycle through the four entry points, so every one sees the
    # same share of the machine's slow and fast seconds.
    N = 2**19
    KINDS = ("dual_prefix", "dual_sort", "large_prefix", "large_sort")
    warm_up_ops = 4
    trace_ops = 4
    min_ops = 4 * 5
    pass_ops = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.kernel = NumpyKernel()

    def build(self):
        self.d10 = repro.DualCube(10)
        self.rd10 = repro.RecursiveDualCube(10)
        self.d8 = repro.DualCube(8)
        self.rd8 = repro.RecursiveDualCube(8)

    def op(self, i):
        kind = self.KINDS[i % 4]
        rng = self.rng(i)
        if kind.endswith("prefix"):
            x = rng.integers(-2**20, 2**20, size=self.N, dtype=np.int64)
            check = lambda out: same_values(out, np.cumsum(x))
        else:
            x = rng.integers(-2**40, 2**40, size=self.N, dtype=np.int64)
            check = lambda out: same_values(out, np.sort(x))
        call = {
            "dual_prefix": lambda: repro.dual_prefix(self.d10, x, repro.ADD),
            "dual_sort": lambda: repro.dual_sort(self.rd10, x),
            "large_prefix": lambda: repro.large_prefix(self.d8, x, repro.ADD),
            "large_sort": lambda: repro.large_sort(self.rd8, x),
        }[kind]
        return kind, call, check

    def end_to_end(self):
        out = {}
        for kind in self.KINDS:
            short = {"dual_prefix": "prefix", "dual_sort": "sort"}.get(kind, kind)
            out[f"{short}_melem_per_s"] = metric(
                self.N / self.median_s(kind) / 1e6, "Melem/s",
                len(self.seconds(kind.__eq__)),
                "elements over the median call time")
        out["op_cost"] = self.op_cost_metric()
        out["calibration_ms"] = self.calibration_metric()
        return out


class PaperSmall(Workload):
    name = "paper-small"
    why = ("the paper's regime, D_3-D_5: per-call dispatch overhead on the "
           "default backend and the cycle-accurate engine")
    SIZES = (3, 4, 5)
    ENTRIES = ("dual_prefix", "dual_sort", "large_prefix", "large_sort")
    ENGINE = (("dual_prefix", 4), ("dual_prefix", 5),
              ("dual_sort", 3), ("dual_sort", 4))
    B = 4
    # One cycle is the 12 default-backend calls and one engine run, the
    # engine configuration rotating from cycle to cycle.
    warm_up_ops = 13 * len(ENGINE)
    trace_ops = 13 * len(ENGINE) * 8
    # p99 needs at least 1000 default calls for ten samples beyond it.
    min_ops = 13 * 92
    pass_ops = 13 * len(ENGINE)

    def build(self):
        self.dc = {n: repro.DualCube(n) for n in self.SIZES}
        self.rdc = {n: repro.RecursiveDualCube(n) for n in self.SIZES}

    def op(self, i):
        cycle, pos = divmod(i, 13)
        rng = self.rng(i)
        if pos < 12:
            n = self.SIZES[pos // 4]
            entry = self.ENTRIES[pos % 4]
            nodes = self.dc[n].num_nodes
            size = nodes * self.B if entry.startswith("large") else nodes
            x = rng.integers(-2**20, 2**20, size=size, dtype=np.int64)
            if entry.endswith("prefix"):
                topo = self.dc[n]
                call = lambda: getattr(repro, entry)(topo, x, repro.ADD)
                check = lambda out: same_values(out, np.cumsum(x))
            else:
                topo = self.rdc[n]
                call = lambda: getattr(repro, entry)(topo, x)
                check = lambda out: same_values(out, np.sort(x))
            return f"{entry}-d{n}", call, check
        entry, n = self.ENGINE[cycle % len(self.ENGINE)]
        x = rng.integers(-2**20, 2**20, size=self.dc[n].num_nodes, dtype=np.int64)
        if entry == "dual_prefix":
            topo, exact = self.dc[n], dual_prefix_comm_exact(n)
            call = lambda: repro.dual_prefix(topo, x, repro.ADD, backend="engine")
            reference = lambda: repro.dual_prefix(topo, x, repro.ADD)
        else:
            topo, exact = self.rdc[n], dual_sort_comm_exact(n)
            call = lambda: repro.dual_sort(topo, x, backend="engine")
            reference = lambda: repro.dual_sort(topo, x)

        def check(out):
            values, result = out
            return (result.comm_steps == exact
                    and [int(v) for v in values] == reference().tolist())

        return f"engine-{entry}-d{n}", call, check

    def end_to_end(self):
        def is_engine(kind):
            return kind.startswith("engine")

        calls = self.seconds(lambda kind: not is_engine(kind))
        runs = self.seconds(is_engine)
        return {
            "small_call_p50_us": metric(
                1e6 * statistics.median(calls), "us", len(calls),
                "median of default-backend calls"),
            "small_call_p99_us": metric(
                1e6 * nearest_rank(calls, 0.99), "us", len(calls),
                "nearest-rank p99 of default-backend calls"),
            "engine_runs_per_s": metric(
                len(runs) / sum(runs), "runs/s", len(runs),
                "engine runs over their total time"),
            # 16 kinds: 12 default-backend calls, 4 engine configurations
            "op_cost": self.op_cost_metric(),
            "calibration_ms": self.calibration_metric(),
        }


class ServeD6(Workload):
    name = "serve-d6"
    why = ("run_serving on D_6 with the closed-form route: each request "
           "routed once, event heap and cross-edge queues do the rest")
    REQUESTS = 3_000
    LOAD = 0.6       # requests per node per service time
    SLACK = 50.0     # horizon beyond the last arrival
    trace_ops = 6

    def build(self):
        self.dc = repro.DualCube(6)

    def op(self, i):
        # Poisson arrivals, uniform self-excluding (src, dst) pairs.
        rng = self.rng(i)
        nodes = self.dc.num_nodes
        arrivals = np.cumsum(
            rng.exponential(1.0 / (self.LOAD * nodes), size=self.REQUESTS))
        src = rng.integers(0, nodes, size=self.REQUESTS)
        dst = (src + rng.integers(1, nodes, size=self.REQUESTS)) % nodes
        pairs = list(zip(src.tolist(), dst.tolist()))
        dc = self.dc
        config = serving.ServingConfig(
            queue_capacity=8, policy="drop",
            horizon=float(math.ceil(arrivals[-1]) + self.SLACK))

        def call():
            return serving.run_serving(
                dc, lambda u, v: repro.route(dc, u, v), arrivals, pairs,
                config=config)

        def check(stats):
            fingerprint = hashlib.sha256(repr(stats).encode()).hexdigest()
            return (stats.conservation_ok() and stats.arrivals == self.REQUESTS
                    and self.repeats(i, fingerprint))

        return "run_serving", call, check

    def end_to_end(self):
        med = self.median_s("run_serving")
        n = len(self.records)
        return {
            "serve_kreq_per_s": metric(
                self.REQUESTS / med / 1e3, "kreq/s", n,
                "requests over the median run_serving time"),
            "op_cost": self.op_cost_metric(),
            "calibration_ms": self.calibration_metric(),
        }


class CampaignD3(Workload):
    name = "campaign-d3"
    why = ("run_campaign(3) re-serves one workload per probe: routing, "
           "faults, run_faulty, engine and static analysis all do work")
    # A campaign takes 0.2-0.7 s and its cost varies fourfold with its
    # campaign seed: with 40 campaigns drawn afresh for each workload
    # seed, op_cost spread 11-26% across workload seeds.  So the
    # campaign seeds are one fixed pool, which the workload seed orders,
    # and every run makes whole passes over it, each campaign seed its
    # own op kind: every run and both sides of a comparison see the same
    # mix.  The first campaign, set-up's warm-up, is the pool's first for
    # every workload seed, so set-up time does not depend on the order.
    CAMPAIGN_SEEDS = tuple(np.random.default_rng(0xCA).integers(
        0, 2**31, size=40).tolist())
    min_ops = pass_ops = len(CAMPAIGN_SEEDS)
    trace_ops = 2

    def __init__(self, seed):
        super().__init__(seed)
        rest = 1 + self.rng(0).permutation(len(self.CAMPAIGN_SEEDS) - 1)
        self.campaign_seeds = [self.CAMPAIGN_SEEDS[k] for k in (0, *rest)]

    def op(self, i):
        seed = self.campaign_seeds[i % len(self.campaign_seeds)]

        def check(result):
            report = json.dumps(result.to_dict(), sort_keys=True).encode()
            return (result.ok and not campaign.validate_report(result.to_dict())
                    and self.repeats(i, hashlib.sha256(report).hexdigest()))

        return (f"run_campaign-{seed}",
                lambda: campaign.run_campaign(3, seed=seed), check)

    def end_to_end(self):
        return {
            "campaign_s": metric(statistics.median(self.seconds()), "s",
                                 len(self.records),
                                 "median wall time of a verified campaign"),
            "op_cost": self.op_cost_metric(),
            "calibration_ms": self.calibration_metric(),
        }


WORKLOADS = {w.name: w for w in (BulkD10, PaperSmall, ServeD6, CampaignD3)}
