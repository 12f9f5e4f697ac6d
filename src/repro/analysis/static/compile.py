"""Schedule compilation: algorithms -> straight-line replay plans.

PR 4 proved every core algorithm's communication schedule is *oblivious*
(input-independent) by extracting it with :func:`extract_schedule`; PR 6
proved the columnar backend matches it step for step.  This module takes
the next step the ROADMAP calls schedule-JIT: since the schedule is a
constant of ``(algorithm, topology)``, compile it **once** into a plan of
precomputed gather permutations and masks, so the replay backend
(:mod:`repro.core.replay`) executes with no matching fixed point, no
request decoding, and no per-step index arithmetic at runtime.

Two plan shapes cover the core algorithms:

* :class:`PrefixPlan` — Algorithm 2 (`D_prefix`).  The two `Cube_prefix`
  phases use the *same* ``m`` ascend rounds, so the plan stores each
  round's partner permutation and upper-half mask once and the executor
  runs them twice, with the cross-edge permutation and the class-1 fold
  indices precomputed alongside.
* :class:`SchedulePlan` — any compare-exchange schedule (`D_sort`,
  Batcher's bitonic network).  Each
  :class:`~repro.core.dual_sort.ScheduleStep` compiles to a
  :class:`CompiledStep` carrying the partner permutation and keep-min
  mask that a gather-based executor would otherwise recompute per step.

Compilation is *structural* (no abstract interpretation), which keeps it
O(steps x nodes) and viable at D_9+.  To keep the structural compiler
honest, :func:`plan_comm_schedule` reconstructs the predicted
:class:`CommSchedule` from a plan, and the ``compile_*`` functions verify
it — event set and step count — against the record-only extractor on
networks up to :data:`VALIDATE_MAX_NODES` nodes (above that the
per-node-program extractor is the thing replay exists to avoid).  A
divergence raises :class:`PlanError` instead of producing wrong answers.

The module also hosts the **shard-disjointness race checker** for the
parallel execution paths: the sharded replay fork-pool writes two shared
memory buffers from concurrent workers, and the columnar backend's
in-place rounds write three reshape views of the same arrays.  Both
write sets are pure index arithmetic over the plan, so
:func:`check_shard_plan` / :func:`check_columnar_round` prove them
pairwise disjoint symbolically (:class:`WriteSpan` strided-block algebra
— exact, no ``shares_memory`` at runtime) and raise
:class:`ShardRaceError` *before* any worker is forked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.static.extract import extract_schedule
from repro.analysis.static.schedule import CommEvent, CommSchedule

__all__ = [
    "VALIDATE_MAX_NODES",
    "PlanError",
    "ShardRaceError",
    "PrefixRound",
    "PrefixPlan",
    "CompiledStep",
    "SchedulePlan",
    "compile_prefix_plan",
    "compile_schedule_plan",
    "plan_comm_schedule",
    "WriteSpan",
    "spans_overlap",
    "shard_task_spans",
    "check_shard_plan",
    "columnar_round_spans",
    "check_columnar_round",
]

#: Largest network on which compilation auto-validates its plan against
#: the record-only extractor (beyond this the extractor's per-node
#: generator cost is exactly what replay exists to avoid).
VALIDATE_MAX_NODES = 512


class PlanError(ValueError):
    """A compiled plan disagrees with the extracted schedule."""


class ShardRaceError(PlanError):
    """A parallel plan's write sets could race (overlap or escape)."""


@dataclass(frozen=True)
class PrefixRound:
    """One ascend round: partner permutation + upper-half mask."""

    perm: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class PrefixPlan:
    """Straight-line plan for Algorithm 2 on one dual-cube.

    ``rounds`` holds the ``m`` cluster ascend rounds **once**; both
    `Cube_prefix` phases replay the same tuple.  ``input_perm`` is the
    u*-arrangement permutation (also the inverse map for output),
    ``cross`` the cross-edge permutation, ``cls1_mask``/``cls1_ranks``
    the class-1 fold mask and rank list.  ``comm_steps`` is the
    predicted communication step count (2n, or 2n+1 paper-literal).
    """

    topology: str
    n: int
    num_nodes: int
    paper_literal: bool
    input_perm: np.ndarray
    cross: np.ndarray
    rounds: tuple
    cls1_mask: np.ndarray
    cls1_ranks: np.ndarray
    comm_steps: int
    comp_steps: int
    validated: bool


@dataclass(frozen=True)
class CompiledStep:
    """One compare-exchange round with its runtime arrays precomputed.

    ``step`` keeps the original :class:`~repro.core.dual_sort.ScheduleStep`
    so the executor can charge counters through the same accounting
    helpers as the columnar backend.
    """

    index: int
    step: object
    perm: np.ndarray
    keep_min: np.ndarray

    @property
    def dim(self) -> int:
        """The paired address dimension (from the source step)."""
        return self.step.dim

    @property
    def phase(self) -> str:
        """The recursion segment label (from the source step)."""
        return self.step.phase


@dataclass(frozen=True)
class SchedulePlan:
    """Straight-line plan for one compare-exchange schedule."""

    topology: str
    kind: str
    num_nodes: int
    descending: bool
    steps: tuple
    validated: bool


def compile_prefix_plan(dc, *, paper_literal: bool = False,
                        validate: bool | None = None) -> PrefixPlan:
    """Compile `D_prefix` on ``dc`` into a :class:`PrefixPlan`.

    ``validate=None`` (default) verifies the plan against the extractor
    iff ``dc.num_nodes <= VALIDATE_MAX_NODES``; pass True/False to force.
    """
    n = dc.num_nodes
    m = dc.cluster_dim
    idx = dc.all_nodes_array()
    cls1 = dc.class_of_v(idx) == 1
    nid = dc.node_id_v(idx)
    cross = idx ^ (1 << dc.class_dimension)
    step = np.where(cls1, 1 << m, 1).astype(np.int64)
    rounds = tuple(
        PrefixRound(perm=idx ^ (step << i), upper=(nid >> i) & 1 == 1)
        for i in range(m)
    )
    from repro.core.arrangement import arranged_index_v

    plan = PrefixPlan(
        topology=dc.name,
        n=dc.n,
        num_nodes=n,
        paper_literal=paper_literal,
        input_perm=arranged_index_v(dc),
        cross=cross,
        rounds=rounds,
        cls1_mask=cls1,
        cls1_ranks=idx[cls1],
        comm_steps=2 * m + 2 + (1 if paper_literal else 0),
        comp_steps=2 * m + 2,
        validated=False,
    )
    if validate is None:
        validate = n <= VALIDATE_MAX_NODES
    if not validate:
        return plan
    from repro.core.dual_prefix import dual_prefix_program
    from repro.core.ops import ADD

    program = dual_prefix_program(
        dc, np.arange(n, dtype=object), ADD, paper_literal=paper_literal
    )
    _check_against_extraction(plan, dc, program)
    return _replace_validated(plan)


def compile_schedule_plan(topo, schedule: Sequence, *, kind: str,
                          descending: bool = False,
                          validate: bool | None = None) -> SchedulePlan:
    """Compile a compare-exchange ``schedule`` on ``topo``.

    ``kind`` labels the plan family for caching/metrics (``"dual_sort"``,
    ``"bitonic"``); validation semantics match
    :func:`compile_prefix_plan` (the extraction runs under the default
    ``"packed"`` payload policy — perms and masks are policy-independent).
    """
    n = topo.num_nodes
    idx = np.arange(n, dtype=np.int64)
    steps = tuple(
        CompiledStep(
            index=k,
            step=s,
            perm=idx ^ (1 << s.dim),
            keep_min=((idx >> s.dim) & 1 == 0) != s.descending_mask(idx),
        )
        for k, s in enumerate(schedule)
    )
    plan = SchedulePlan(
        topology=topo.name,
        kind=kind,
        num_nodes=n,
        descending=descending,
        steps=steps,
        validated=False,
    )
    if validate is None:
        validate = n <= VALIDATE_MAX_NODES
    if not validate:
        return plan
    from repro.core.dual_sort import schedule_program

    program = schedule_program(topo, list(range(n)), list(schedule))
    _check_against_extraction(plan, topo, program)
    return _replace_validated(plan)


def _replace_validated(plan):
    from dataclasses import replace

    return replace(plan, validated=True)


def plan_comm_schedule(plan, topo, *, payload_policy: str = "packed"
                       ) -> CommSchedule:
    """Reconstruct the :class:`CommSchedule` a plan predicts.

    The inverse direction of compilation: from the straight-line plan
    back to per-step ``(src, dst, kind, size)`` events, comparable
    one-for-one with :func:`extract_schedule` output and usable with
    :func:`~repro.obs.cross_validate_timeline`.  Intended for validation
    sizes (it loops per node); the replay executor never calls it.
    """
    if isinstance(plan, PrefixPlan):
        return _prefix_comm_schedule(plan, topo)
    if isinstance(plan, SchedulePlan):
        return _schedule_comm_schedule(plan, topo, payload_policy)
    raise TypeError(f"expected PrefixPlan or SchedulePlan, got {type(plan)!r}")


def _prefix_comm_schedule(plan: PrefixPlan, topo) -> CommSchedule:
    events = []
    step = 0

    def ascend_phase(step0: int) -> int:
        s = step0
        for r in plan.rounds:
            s += 1
            events.extend(
                CommEvent(step=s, src=int(u), dst=int(r.perm[u]),
                          kind="sendrecv", size=1)
                for u in range(plan.num_nodes)
            )
        return s

    def cross_step(step0: int) -> int:
        s = step0 + 1
        events.extend(
            CommEvent(step=s, src=int(u), dst=int(plan.cross[u]),
                      kind="sendrecv", size=1)
            for u in range(plan.num_nodes)
        )
        return s

    step = ascend_phase(step)
    step = cross_step(step)
    step = ascend_phase(step)
    step = cross_step(step)
    if plan.paper_literal:
        step = cross_step(step)
    return CommSchedule(
        num_nodes=plan.num_nodes,
        topology=plan.topology,
        events=tuple(events),
        steps=step,
        comp_steps=plan.comp_steps,
        completed=True,
    )


def _schedule_comm_schedule(plan: SchedulePlan, topo,
                            payload_policy: str) -> CommSchedule:
    from repro.core.dual_sort import _check_policy, _dim_mode

    _check_policy(payload_policy)
    n = plan.num_nodes
    events = []
    step = 0
    for cs in plan.steps:
        dim = cs.dim
        if _dim_mode(topo, dim) == "direct":
            step += 1
            events.extend(
                CommEvent(step=step, src=u, dst=int(cs.perm[u]),
                          kind="sendrecv", size=1)
                for u in range(n)
            )
            continue
        supported = [u for u in range(n) if topo.has_dimension_link(u, dim)]
        unsupported = [u for u in range(n)
                       if not topo.has_dimension_link(u, dim)]
        # cycle 1: unsupported -> supported over cross-edges
        step += 1
        events.extend(
            CommEvent(step=step, src=u, dst=u ^ 1, kind="send", size=1)
            for u in unsupported
        )
        # cycle 2: supported pairs exchange (2-key packed, else the relay)
        step += 1
        size = 2 if payload_policy == "packed" else 1
        events.extend(
            CommEvent(step=step, src=u, dst=int(cs.perm[u]),
                      kind="sendrecv", size=size)
            for u in supported
        )
        # cycle 3: supported -> unsupported over cross-edges
        step += 1
        events.extend(
            CommEvent(step=step, src=u, dst=u ^ 1, kind="send", size=1)
            for u in supported
        )
        if payload_policy == "single":
            # cycle 4: supported pairs exchange their own keys
            step += 1
            events.extend(
                CommEvent(step=step, src=u, dst=int(cs.perm[u]),
                          kind="sendrecv", size=1)
                for u in supported
            )
    return CommSchedule(
        num_nodes=n,
        topology=plan.topology,
        events=tuple(events),
        steps=step,
        comp_steps=len(plan.steps),
        completed=True,
    )


def _check_against_extraction(plan, topo, program) -> None:
    predicted = plan_comm_schedule(plan, topo)
    extracted = extract_schedule(topo, program)
    if not extracted.completed:
        raise PlanError(
            f"extraction of {plan.topology} schedule did not complete "
            f"(stalled at step {extracted.stalled_at})"
        )
    problems = []
    if predicted.steps != extracted.steps:
        problems.append(
            f"step count {predicted.steps} != extracted {extracted.steps}"
        )
    if predicted.comp_steps != extracted.comp_steps:
        problems.append(
            f"comp steps {predicted.comp_steps} != extracted "
            f"{extracted.comp_steps}"
        )
    key = lambda e: (e.step, e.src, e.dst, e.kind, e.size)  # noqa: E731
    pred = sorted(map(key, predicted.events))
    extr = sorted(map(key, extracted.events))
    if pred != extr:
        diff = set(pred).symmetric_difference(extr)
        sample = sorted(diff)[:5]
        problems.append(
            f"{len(diff)} event(s) differ; first: {sample}"
        )
    if problems:
        raise PlanError(
            f"compiled plan for {plan.topology} diverges from the "
            f"extracted schedule: " + "; ".join(problems)
        )


# -- shard-disjointness race checking ------------------------------------------


@dataclass(frozen=True)
class WriteSpan:
    """A strided-block write set: elements ``base + k*stride + j`` for
    ``k < count``, ``j < block``, inside the address space ``buffer``.

    This is exactly the footprint of a numpy reshape-view write — a
    contiguous slab is ``count=1``, an interleaved view (every other
    ``2**b``-block, a transposed column) has ``count > 1`` — so the write
    sets of the sharded replay workers and the columnar rounds are all
    expressible, and overlap between two spans is decidable by integer
    division instead of runtime ``shares_memory``.
    """

    buffer: str
    base: int
    stride: int
    count: int
    block: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.count < 1 or self.block < 1:
            raise ValueError(f"malformed span {self}")
        if self.count > 1 and self.stride < self.block:
            raise ValueError(
                f"span {self} overlaps itself: stride {self.stride} < "
                f"block {self.block}"
            )

    @property
    def stop(self) -> int:
        """One past the largest element."""
        return self.base + (self.count - 1) * self.stride + self.block

    def elements(self) -> frozenset[int]:
        """The concrete element set (test/debug aid; O(count * block))."""
        return frozenset(
            self.base + k * self.stride + j
            for k in range(self.count)
            for j in range(self.block)
        )


def spans_overlap(a: WriteSpan, b: WriteSpan) -> bool:
    """Exact strided-block intersection test.

    Per block ``[x, x + a.block)`` of ``a``, the blocks of ``b`` that can
    intersect it start at ``b.base + j*b.stride`` with
    ``x - b.block < b.base + j*b.stride < x + a.block``; solving for the
    integer ``j`` range makes the test O(min(count)) with no element
    enumeration.
    """
    if a.buffer != b.buffer:
        return False
    if a.count > b.count:
        a, b = b, a
    for k in range(a.count):
        x = a.base + k * a.stride
        j_min = (x - b.block - b.base) // b.stride + 1
        j_max = -((b.base - x - a.block) // b.stride) - 1
        if max(j_min, 0) <= min(j_max, b.count - 1):
            return True
    return False


def _check_disjoint(
    spans: Sequence[tuple[str, WriteSpan]], what: str
) -> None:
    """Pairwise disjointness over labelled spans, or :class:`ShardRaceError`."""
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (name_a, a), (name_b, b) = spans[i], spans[j]
            if spans_overlap(a, b):
                raise ShardRaceError(
                    f"{what}: write sets of {name_a} and {name_b} overlap "
                    f"in buffer {a.buffer!r} ({a} vs {b})"
                )


def shard_task_spans(
    n: int, m: int, tasks: Sequence[tuple[int, int, int]]
) -> list[tuple[str, WriteSpan]]:
    """Write spans of the sharded-replay fork-pool tasks.

    ``tasks`` are ``(cls, start, stop)`` cluster blocks over a length-``n``
    state with ``2**m``-node clusters (the triples carried by
    ``repro.core.replay._shard_worker``).  A class-0 worker writes
    contiguous rows ``[start*width, stop*width)`` of the lower half; a
    class-1 worker writes columns ``[start, stop)`` of the upper half's
    ``(width, half/width)`` view — an interleaved span with stride
    ``half // width``.  Both the ``t`` and ``s`` buffers get the same
    footprint.
    """
    half = n // 2
    width = 1 << m
    if n <= 0 or n % 2 or half % width:
        raise ShardRaceError(
            f"shard geometry n={n}, m={m} does not split into two halves "
            f"of whole {width}-node clusters"
        )
    rows = half // width
    spans: list[tuple[str, WriteSpan]] = []
    for cls, start, stop in tasks:
        if cls not in (0, 1):
            raise ShardRaceError(f"shard task has class {cls}, not 0/1")
        limit = rows if cls == 0 else half // width
        if not 0 <= start < stop <= limit:
            raise ShardRaceError(
                f"shard task class {cls} block [{start}, {stop}) escapes "
                f"its 0..{limit} cluster range"
            )
        name = f"shard(cls={cls}, [{start}:{stop}))"
        for buf in ("t", "s"):
            if cls == 0:
                span = WriteSpan(
                    buffer=buf,
                    base=start * width,
                    stride=half,
                    count=1,
                    block=(stop - start) * width,
                )
            else:
                span = WriteSpan(
                    buffer=buf,
                    base=half + start,
                    stride=half // width,
                    count=width,
                    block=stop - start,
                )
            if span.stop > (half if cls == 0 else n):
                raise ShardRaceError(
                    f"{name} writes past its half: span {span} in a "
                    f"length-{n} state"
                )
            spans.append((name, span))
    return spans


def check_shard_plan(
    n: int, m: int, tasks: Sequence[tuple[int, int, int]]
) -> list[tuple[str, WriteSpan]]:
    """Verify a sharded-replay task list is race-free; returns its spans.

    Raises :class:`ShardRaceError` when any two tasks' write sets
    overlap or a task escapes its class half — called by
    ``_dual_prefix_replay_sharded`` before the pool forks, so a racing
    plan can never reach shared memory.
    """
    spans = shard_task_spans(n, m, tasks)
    _check_disjoint(spans, f"shard plan (n={n}, m={m})")
    return spans


def columnar_round_spans(
    length: int, bit: int
) -> list[tuple[str, WriteSpan]]:
    """Write spans of one columnar ``bit_pair_views`` combine round.

    The round body writes ``s_hi``, ``t_hi`` and ``t_lo``, where lo/hi
    are the bit-``bit`` pair sides of a length-``length`` column: every
    other ``2**bit``-block, stride ``2**(bit+1)``.
    """
    if bit < 0 or (1 << (bit + 1)) > length:
        raise ShardRaceError(
            f"bit {bit} out of range for a length-{length} column"
        )
    blk = 1 << bit
    pairs = length >> (bit + 1)

    def side(buf: str, hi: bool) -> WriteSpan:
        return WriteSpan(
            buffer=buf,
            base=blk if hi else 0,
            stride=2 * blk,
            count=pairs,
            block=blk,
        )

    return [
        ("t_lo", side("t", False)),
        ("t_hi", side("t", True)),
        ("s_hi", side("s", True)),
    ]


def check_columnar_round(
    length: int, bit: int
) -> list[tuple[str, WriteSpan]]:
    """Verify one columnar round's in-place writes cannot race.

    Raises :class:`ShardRaceError` on overlap or an out-of-column span;
    returns the spans otherwise.
    """
    spans = columnar_round_spans(length, bit)
    for name, span in spans:
        if span.stop > length:
            raise ShardRaceError(
                f"columnar round bit {bit}: {name} span {span} escapes "
                f"the length-{length} column"
            )
    _check_disjoint(spans, f"columnar round (length={length}, bit={bit})")
    return spans
