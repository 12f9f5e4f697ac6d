"""Algorithm 3 — D_sort: bitonic sorting in the dual-cube.

The recursive-structure technique (paper Section 6), expressed as an
explicit *schedule* of compare-exchange steps over the recursive
presentation:

* ``D_sort(D_1, tag)`` is one compare-exchange over dimension 0;
* ``D_sort(D_n, tag)`` recursively sorts the four D_{n-1} copies in
  alternating directions (direction = address bit 2n-3), then runs a
  (2n-2)-step descend merge over dimensions 2n-3..0 directed by address
  bit 2n-2 (ascending lower half, descending upper half — yielding one
  bitonic sequence over all of D_n), then a (2n-1)-step descend merge over
  dimensions 2n-2..0 directed by ``tag``.

Because the algorithm is oblivious, the whole recursion unrolls into a
flat list of :class:`ScheduleStep` — 2n² - n steps — executed by every
backend.  The same executor runs Batcher's network on the hypercube
(:mod:`repro.core.bitonic`), so baseline and dual-cube sorts differ *only*
in topology and schedule, which is exactly what Theorem 2 compares.

Communication cost per step: 1 cycle when every pair has a direct link
(dimension 0, or any dimension on the hypercube); otherwise the supported
half relays for the unsupported half over two cross-edges (paper
Section 6).  Under the 1-port model the paper's 3-time-unit claim is
achievable only if the middle hop carries two keys per message (the
relayed key packed with the relay's own key) — the default
``payload_policy="packed"``.  With strict one-key messages
(``payload_policy="single"``) the step needs 4 cycles; benchmark E8
quantifies both (see DESIGN.md, reconstruction notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulator import (
    CostCounters,
    Idle,
    Packed,
    Recv,
    Send,
    SendRecv,
    TraceRecorder,
    run_spmd,
)
from repro.topology.base import DimensionedTopology
from repro.topology.recursive import RecursiveDualCube

__all__ = [
    "ScheduleStep",
    "dual_sort_schedule",
    "schedule_program",
    "execute_schedule_engine",
    "dual_sort_engine",
    "dual_sort",
    "step_cycle_cost",
]


@dataclass(frozen=True)
class ScheduleStep:
    """One parallel compare-exchange round.

    ``dim`` is the address bit pairing the nodes; the direction at node
    ``u`` is descending iff ``dir_val`` (``dir_kind="const"``) or iff bit
    ``dir_val`` of ``u`` is set (``dir_kind="bit"`` — how sub-sorts and
    half-merges alternate directions per block).  ``phase`` labels the
    recursion segment for traces and figures.
    """

    dim: int
    dir_kind: str
    dir_val: int
    phase: str = ""

    def __post_init__(self):
        if self.dir_kind not in ("const", "bit"):
            raise ValueError(f"dir_kind must be 'const' or 'bit', got {self.dir_kind!r}")
        if self.dir_kind == "const" and self.dir_val not in (0, 1):
            raise ValueError(f"const direction must be 0/1, got {self.dir_val}")

    def descending(self, u: int) -> bool:
        """Whether node ``u`` compares in descending direction."""
        if self.dir_kind == "const":
            return bool(self.dir_val)
        return (u >> self.dir_val) & 1 == 1

    def descending_mask(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`descending`."""
        if self.dir_kind == "const":
            return np.full(len(idx), bool(self.dir_val))
        return (idx >> self.dir_val) & 1 == 1


def dual_sort_schedule(n: int, *, descending: bool = False) -> list[ScheduleStep]:
    """Unroll ``D_sort(D_n, tag)`` into its 2n² - n compare-exchange steps."""
    if n < 1:
        raise ValueError(f"dual-cube connectivity must be >= 1, got {n}")

    def build(k: int, kind: str, val: int) -> list[ScheduleStep]:
        if k == 1:
            return [ScheduleStep(0, kind, val, phase="base D_1")]
        steps = build(k - 1, "bit", 2 * k - 3)
        steps.extend(
            ScheduleStep(j, "bit", 2 * k - 2, phase=f"half-merge D_{k}")
            for j in range(2 * k - 3, -1, -1)
        )
        steps.extend(
            ScheduleStep(j, kind, val, phase=f"full-merge D_{k}")
            for j in range(2 * k - 2, -1, -1)
        )
        return steps

    return build(n, "const", int(descending))


def _dim_mode(topo: DimensionedTopology, dim: int) -> str:
    """``"direct"`` when every pair at ``dim`` has a link, else ``"mixed"``.

    In the recursive dual-cube a dimension-``dim`` partner always has the
    same class for ``dim > 0``, so either every node of a class is
    supported or none is — probing one node of each class suffices.
    """
    probes = (0, 1) if topo.num_nodes > 1 else (0,)
    supported = [topo.has_dimension_link(u, dim) for u in probes]
    return "direct" if all(supported) else "mixed"


def step_cycle_cost(
    topo: DimensionedTopology, dim: int, payload_policy: str = "packed"
) -> int:
    """Clock cycles one compare-exchange round costs at ``dim``."""
    if _dim_mode(topo, dim) == "direct":
        return 1
    return 3 if payload_policy == "packed" else 4


def _check_policy(payload_policy: str) -> None:
    if payload_policy not in ("packed", "single"):
        raise ValueError(
            f"payload_policy must be 'packed' or 'single', got {payload_policy!r}"
        )


def _compare_exchange_program(
    ctx,
    topo: DimensionedTopology,
    step: ScheduleStep,
    key,
    payload_policy: str,
    mode: str | None = None,
):
    """One compare-exchange round at one node (generator phase; returns the kept key)."""
    u = ctx.rank
    j = step.dim
    partner = u ^ (1 << j)
    if mode is None:
        mode = _dim_mode(topo, j)
    if mode == "direct":
        got = yield SendRecv(partner, key)
    elif topo.has_dimension_link(u, j):
        # Supported side: relay for the cross neighbor while exchanging.
        cross = u ^ 1
        relayed = yield Recv(cross)
        if payload_policy == "packed":
            pair = yield SendRecv(partner, Packed((relayed, key)))
            back, got = pair.items
            yield Send(cross, back)
        else:
            back = yield SendRecv(partner, relayed)
            yield Send(cross, back)
            got = yield SendRecv(partner, key)
    else:
        # Unsupported side: the exchange runs through the cross neighbor.
        cross = u ^ 1
        yield Send(cross, key)
        yield Idle()
        got = yield Recv(cross)
        if payload_policy == "single":
            yield Idle()
    ctx.compute(1)
    keep_min = ((u >> j) & 1 == 0) != step.descending(u)
    return min(key, got) if keep_min else max(key, got)


def schedule_program(
    topo: DimensionedTopology,
    keys,
    schedule: Sequence[ScheduleStep],
    *,
    payload_policy: str = "packed",
):
    """The SPMD program realizing a compare-exchange ``schedule`` on ``topo``.

    This is the exact program :func:`execute_schedule_engine` runs (so it
    covers `D_sort` and the hypercube bitonic baseline alike); it is
    exposed so the static schedule analyzer (:mod:`repro.analysis.static`)
    can extract its communication schedule without an engine run.
    """
    _check_policy(payload_policy)
    vals = list(keys)
    if len(vals) != topo.num_nodes:
        raise ValueError(
            f"expected {topo.num_nodes} keys for {topo.name}, got {len(vals)}"
        )

    # Dimension modes depend only on (topo, dim); hoist them out of the
    # per-node per-step hot path.
    modes = {d: _dim_mode(topo, d) for d in {s.dim for s in schedule}}

    def program(ctx):
        key = vals[ctx.rank]
        ctx.record("input", key)
        for k, step in enumerate(schedule):
            key = yield from _compare_exchange_program(
                ctx, topo, step, key, payload_policy, modes[step.dim]
            )
            ctx.record(f"step {k:03d} dim {step.dim} [{step.phase}]", key)
        return key

    return program


def execute_schedule_engine(
    topo: DimensionedTopology,
    keys,
    schedule: Sequence[ScheduleStep],
    *,
    payload_policy: str = "packed",
    trace: TraceRecorder | None = None,
):
    """Run a compare-exchange schedule on the cycle-accurate engine.

    Returns ``(sorted_keys, EngineResult)`` with keys in node-address order.
    """
    program = schedule_program(
        topo, keys, schedule, payload_policy=payload_policy
    )
    result = run_spmd(topo, program, trace=trace)
    return list(result.returns), result


def _count_step(
    counters: CostCounters,
    topo: DimensionedTopology,
    dim: int,
    n: int,
    payload_policy: str,
) -> None:
    """Charge the counters exactly what the engine would measure for one step."""
    if _dim_mode(topo, dim) == "direct":
        counters.record_comm_step(messages=n)
    else:
        half = n // 2
        # cycle 1: unsupported -> supported over cross-edges
        counters.record_comm_step(messages=half)
        if payload_policy == "packed":
            # cycle 2: supported pairs exchange (relayed key, own key)
            counters.record_comm_step(
                messages=half, payload_items=2 * half, max_payload=2
            )
        else:
            counters.record_comm_step(messages=half)
        # cycle 3: supported -> unsupported over cross-edges
        counters.record_comm_step(messages=half)
        if payload_policy == "single":
            # cycle 4: supported pairs exchange their own keys
            counters.record_comm_step(messages=half)
    counters.record_comp_step(ops_each=1)


def dual_sort_engine(
    rdc: RecursiveDualCube,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    trace: TraceRecorder | None = None,
):
    """Run Algorithm 3 on the cycle-accurate engine.

    ``keys`` are indexed by recursive-presentation node address; returns
    ``(sorted_keys, EngineResult)``, sorted keys in address order.
    """
    sched = dual_sort_schedule(rdc.n, descending=descending)
    return execute_schedule_engine(
        rdc, keys, sched, payload_policy=payload_policy, trace=trace
    )


def dual_sort(
    rdc: RecursiveDualCube,
    keys,
    *,
    descending: bool = False,
    backend: str = "columnar",
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
):
    """Sorting on the dual-cube — the library's headline entry point.

    ``backend`` selects ``"columnar"`` (the default: structured-array
    state, in-place view compare-exchanges, D_1 to D_11; returns the
    sorted array and honours ``counters``, ``trace`` and ``profiler``),
    ``"replay"`` (compiled straight-line plan; fastest on repeat runs at
    small sizes), or ``"engine"`` (cycle-accurate; returns
    ``(keys, EngineResult)``).  Capabilities are declared in
    :mod:`repro.core.backends`: ``profiler`` records
    per-:class:`ScheduleStep` wallclock spans (columnar backend only),
    and a backend without per-rank traces keeps no values to ``trace``.
    """
    from repro.core.backends import resolve_backend

    run = resolve_backend(
        "dual_sort",
        backend,
        counters=counters is not None,
        trace=trace is not None,
        profiler=profiler is not None,
    )
    return run(
        rdc,
        keys,
        descending=descending,
        payload_policy=payload_policy,
        counters=counters,
        trace=trace,
        profiler=profiler,
    )
