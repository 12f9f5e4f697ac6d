"""Columnar backend: D_prefix / D_sort / large-input variants.

# repro: columnar-hot-path

The default array backend of every entry point, next to the
cycle-accurate engine and the compiled-plan replay backend.  All per-rank
state lives in numpy structured arrays
(:class:`~repro.simulator.columnar.ColumnarState`) and every
dimension-step executes as one batched in-place combine over reshape
views (:func:`~repro.simulator.columnar.bit_pair_views`) — no per-rank
Python objects, no materialized edge lists, no per-step gather
permutations.  Topology questions are answered arithmetically
(:meth:`~repro.topology.dualcube.DualCube.class_slices`,
:meth:`~repro.topology.dualcube.DualCube.local_round_bit`).

Two structural facts carry the whole backend:

* in the standard :class:`~repro.topology.dualcube.DualCube` the class
  bit is the **top** address bit, so the two classes are contiguous array
  halves — the cross-edge exchange is two half-copies
  (:func:`~repro.simulator.columnar.swap_halves`), and each class runs
  its ascend round over one fixed address bit
  (``i`` for class 0, ``n-1+i`` for class 1);
* in every generated compare-exchange schedule the direction bit sits
  *above* the paired dimension, so one reshape splits a column into
  ascending/descending × lower/upper quarters and both merge directions
  apply as in-place ``minimum``/``maximum`` with a scratch column.

Cost accounting matches the engine call for call: the same
:meth:`~repro.simulator.counters.CostCounters.record_comm_step` /
:meth:`~repro.simulator.counters.CostCounters.record_comp_step`
sequence, so comm/comp step counts, message and payload tallies — and
any timeline attached via ``counters.attach_timeline`` — agree exactly
with the engine and the static :class:`CommSchedule`.  The state columns
are in node order, so ``trace`` snapshots are the columns themselves and
carry the engine's labels; ``profiler`` spans name the algorithm
segments.  Memory stays O(nodes) (O(N) for the large-input variants).
"""

from __future__ import annotations

import numpy as np

from repro.core.arrangement import arranged_index_v
from repro.core.ops import AssocOp, _state_dtype, combine_into
from repro.obs.profile import NULL_PROFILER
from repro.simulator import CostCounters, TraceRecorder
from repro.simulator.columnar import (
    ColumnarState,
    bit_pair_views,
    dir_bit_views,
    swap_halves,
)
from repro.topology.dualcube import DualCube

__all__ = [
    "dual_prefix_columnar",
    "execute_schedule_columnar",
    "dual_sort_columnar",
    "large_prefix_columnar",
    "large_sort_columnar",
]


def _fill_identity(col: np.ndarray, op: AssocOp) -> None:
    """Set every element of ``col`` to the operation's identity."""
    col[...] = op.identity_array(len(col))


def _ascend_round(
    op: AssocOp,
    t: np.ndarray,
    s: np.ndarray,
    dc: DualCube,
    i: int,
    counters: CostCounters | None,
) -> None:
    """One cluster ascend round, both classes, fully in place.

    Mirrors :func:`~repro.core.cube_prefix.ascend_rounds_vec` round ``i``:
    the upper pair side (bit set) folds the lower side's subcube total
    into both ``s`` and ``t`` (pre-composed — operand order preserved for
    non-commutative ops), the lower side folds the upper total into
    ``t``; both sides of a pair end with ``t = t_lo ⊕ t_hi``.
    """
    for cls, half in enumerate(dc.class_slices()):
        b = dc.local_round_bit(cls, i)
        t_lo, t_hi = bit_pair_views(t[half], b)
        s_hi = bit_pair_views(s[half], b)[1]
        combine_into(op, t_lo, s_hi, s_hi)
        combine_into(op, t_lo, t_hi, t_hi)
        t_lo[...] = t_hi
    if counters is not None:
        counters.record_comm_step(messages=dc.num_nodes)
        counters.record_comp_step(ops_each=2)


def dual_prefix_columnar(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    inclusive: bool = True,
    paper_literal: bool = False,
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
) -> np.ndarray:
    """Columnar Algorithm 2; returns prefixes in input-index order.

    Step-for-step mirror of :func:`~repro.core.dual_prefix.dual_prefix_engine`
    — identical results and identical counter call sequence — with all
    four algorithm variables (``t``, ``s``, ``t'``, ``s'``) as columns of
    one structured array and every round an in-place pair-view combine.
    The only O(nodes) index array is the arrangement permutation, built
    once per call; no per-step gathers exist at all.

    ``trace`` records the engine program's ``(a)``-``(f)`` snapshots;
    ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler`) records
    wallclock spans for the algorithm's four segments: ``cluster-prefix``
    (step 1), ``cross`` (the cross-edge exchanges), ``block-prefix``
    (step 3), and ``fold`` (steps 4-5).
    """
    vals = np.asarray(values)
    n = dc.num_nodes
    if vals.shape != (n,):
        raise ValueError(
            f"expected {n} values for {dc.name}, got shape {vals.shape}"
        )
    if dc.class_dimension != dc.num_dimensions - 1:
        raise ValueError(
            "columnar D_prefix needs the class bit as the top address bit "
            f"(got dimension {dc.class_dimension} of {dc.num_dimensions})"
        )
    m = dc.cluster_dim
    prof = profiler if profiler is not None else NULL_PROFILER
    dt = _state_dtype(vals, op)
    state = ColumnarState(n, [("t", dt), ("s", dt), ("t2", dt), ("s2", dt)])
    t = state.column("t")
    s = state.column("s")
    t2 = state.column("t2")
    s2 = state.column("s2")

    def snap(label, col):
        if trace is not None:
            trace.record_array(label, col)

    arranged = arranged_index_v(dc)
    t[...] = vals[arranged]
    snap("(a) input", t)

    # Step 1: inclusive/diminished Cube_prefix inside every cluster.
    with prof.span("cluster-prefix", rounds=m):
        if inclusive:
            s[...] = t
        else:
            _fill_identity(s, op)
        for i in range(m):
            _ascend_round(op, t, s, dc, i, counters)
    snap("(b) cluster prefix s", s)
    snap("(b) cluster total t", t)

    # Step 2: block totals cross the class boundary (t2 <- t over the
    # cross-edges, which swap the two class halves).
    with prof.span("cross"):
        swap_halves(t, t2)
        if counters is not None:
            counters.record_comm_step(messages=n)
    snap("(c) cross total temp", t2)

    # Step 3: diminished prefix of the other class's block totals.
    with prof.span("block-prefix", rounds=m):
        _fill_identity(s2, op)
        for i in range(m):
            _ascend_round(op, t2, s2, dc, i, counters)
    snap("(d) block-prefix s'", s2)
    snap("(d) half total t'", t2)

    # Step 4: earlier-block composition returns over the cross-edge and
    # pre-folds into s.  t is dead after step 2; reuse it as the receive
    # buffer.
    with prof.span("cross"):
        swap_halves(s2, t)
        if counters is not None:
            counters.record_comm_step(messages=n)
            counters.record_comp_step(ops_each=1)
    with prof.span("fold"):
        combine_into(op, t, s, s)
    snap("(e) after s' fold", s)

    # Step 5 (paper-literal: one redundant cross exchange, counted only —
    # see the dual_prefix module docstring), then the class-1 pre-fold of
    # the first-half total, which is exactly class-1's own t'.
    with prof.span("fold"):
        if paper_literal and counters is not None:
            counters.record_comm_step(messages=n)
        cls1 = dc.class_slices()[1]
        combine_into(op, t2[cls1], s[cls1], s[cls1])
        if counters is not None:
            counters.record_comp_step(
                ops_each=1, ranks=range(cls1.start, cls1.stop)
            )
    snap("(f) final prefix", s)

    out = np.empty(n, dtype=dt)
    out[arranged] = s
    return out


def _merge_pair(
    lo: np.ndarray, hi: np.ndarray, scratch: np.ndarray, descending: bool
) -> None:
    """In-place compare-exchange of the pair views ``lo``/``hi``."""
    if descending:
        np.maximum(lo, hi, out=scratch)
        np.minimum(lo, hi, out=hi)
    else:
        np.minimum(lo, hi, out=scratch)
        np.maximum(lo, hi, out=hi)
    lo[...] = scratch


def _columnar_compare_exchange(key, tmp, step) -> None:
    """One schedule step on the key column, fully in place."""
    j = step.dim
    if step.dir_kind == "const":
        lo, hi = bit_pair_views(key, j)
        scratch = bit_pair_views(tmp, j)[0]
        _merge_pair(lo, hi, scratch, bool(step.dir_val))
        return
    if step.dir_val > j:
        asc_lo, asc_hi, desc_lo, desc_hi = dir_bit_views(key, step.dir_val, j)
        sc = dir_bit_views(tmp, step.dir_val, j)
        _merge_pair(asc_lo, asc_hi, sc[0], descending=False)
        _merge_pair(desc_lo, desc_hi, sc[2], descending=True)
        return
    if step.dir_val == j:
        raise ValueError(
            f"degenerate schedule step: direction bit equals the paired "
            f"dimension {j}"
        )
    # Defensive general path (dir bit below the paired dimension — never
    # produced by the generated schedules): both pair sides share the
    # direction bit, so a per-pair mask decides which side keeps the min.
    lo, hi = bit_pair_views(key, j)
    t_lo, t_hi = bit_pair_views(tmp, j)
    rows, inner = lo.shape[0], 1 << j
    addr = (np.arange(rows, dtype=np.int64) << (j + 1))[:, None] | np.arange(
        inner, dtype=np.int64
    )
    desc = (addr >> step.dir_val) & 1 == 1
    np.minimum(lo, hi, out=t_lo)
    np.maximum(lo, hi, out=t_hi)
    lo[...] = np.where(desc, t_hi, t_lo)
    hi[...] = np.where(desc, t_lo, t_hi)


def execute_schedule_columnar(
    topo,
    keys,
    schedule,
    *,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
) -> np.ndarray:
    """Columnar compare-exchange schedule executor.

    Results and counters mirror
    :func:`~repro.core.dual_sort.execute_schedule_engine` exactly; state
    is one key column plus one scratch column, and each
    :class:`~repro.core.dual_sort.ScheduleStep` applies as in-place
    ``minimum``/``maximum`` over reshape views split by the step's pair
    dimension and direction bit.  ``trace`` records the engine program's
    ``"input"`` and per-step snapshots; ``profiler`` (a
    :class:`~repro.obs.profile.PhaseProfiler`) records one wallclock span
    per step, named by the step's recursion segment (``step.phase``).
    """
    from repro.core.dual_sort import _check_policy, _count_step

    _check_policy(payload_policy)
    arr = np.asarray(keys)
    n = topo.num_nodes
    if arr.shape != (n,):
        raise ValueError(
            f"expected {n} keys for {topo.name}, got shape {arr.shape}"
        )
    prof = profiler if profiler is not None else NULL_PROFILER
    state = ColumnarState(n, [("key", arr.dtype), ("tmp", arr.dtype)])
    key = state.column("key")
    key[...] = arr
    tmp = state.column("tmp")
    if trace is not None:
        trace.record_array("input", key)
    for k, step in enumerate(schedule):
        with prof.span(step.phase, step=k, dim=step.dim):
            _columnar_compare_exchange(key, tmp, step)
            if counters is not None:
                _count_step(counters, topo, step.dim, n, payload_policy)
        if trace is not None:
            trace.record_array(
                f"step {k:03d} dim {step.dim} [{step.phase}]", key
            )
    return key.copy()


def dual_sort_columnar(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    trace: TraceRecorder | None = None,
    profiler=None,
) -> np.ndarray:
    """Columnar Algorithm 3; returns keys sorted in node-address order."""
    from repro.core.dual_sort import dual_sort_schedule

    sched = dual_sort_schedule(rdc.n, descending=descending)
    return execute_schedule_columnar(
        rdc, keys, sched, payload_policy=payload_policy, counters=counters,
        trace=trace, profiler=profiler,
    )


def large_prefix_columnar(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    counters: CostCounters | None = None,
    profiler=None,
) -> np.ndarray:
    """Columnar blocked prefix of N = B * 2^(2n-1) values on D_n.

    Mirrors :func:`~repro.core.large_inputs.large_prefix` (same phases,
    same counter calls) with the per-node block as a ``(B,)`` subarray
    field: the local prefix and the offset fold run column-at-a-time in
    place, and the network phase is the diminished
    :func:`dual_prefix_columnar` on the block totals.
    """
    from repro.core.large_inputs import _blocked

    blocks, b = _blocked(values, dc.num_nodes)
    prof = profiler if profiler is not None else NULL_PROFILER
    dt = _state_dtype(blocks, op)
    state = ColumnarState(dc.num_nodes, [("block", dt, (b,))])
    local = state.column("block")
    local[...] = blocks

    with prof.span("local-prefix", block=b):
        for k in range(1, b):
            combine_into(op, local[:, k - 1], local[:, k], local[:, k])
        if counters is not None and b > 1:
            counters.record_comp_step(ops_each=b - 1)

    with prof.span("network"):
        offsets = dual_prefix_columnar(
            dc, local[:, -1], op, inclusive=False, counters=counters
        )

    with prof.span("fold", block=b):
        for k in range(b):
            combine_into(op, offsets, local[:, k], local[:, k])
        if counters is not None:
            counters.record_comp_step(ops_each=b)
    return local.reshape(-1).copy()


def _merge_split(
    lo: np.ndarray, hi: np.ndarray, b: int, descending: bool
) -> None:
    """In-place merge-split: ``lo`` keeps the B smallest of the 2B keys
    (largest when ``descending``), ``hi`` the rest, both sorted."""
    merged = np.sort(np.concatenate([lo, hi], axis=-1), axis=-1)
    if descending:
        lo[...] = merged[..., b:]
        hi[...] = merged[..., :b]
    else:
        lo[...] = merged[..., :b]
        hi[...] = merged[..., b:]


def large_sort_columnar(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    profiler=None,
) -> np.ndarray:
    """Columnar blocked sort of N = B * 2^(2n-1) numeric keys on D_n.

    Mirrors :func:`~repro.core.large_inputs.large_sort` — local sort, then
    the `D_sort` schedule with compare-exchanges replaced by merge-splits
    — with the block state as a ``(B,)`` subarray field and every
    merge-split applied through pair views instead of partner gathers.
    """
    from repro.core.dual_sort import _check_policy, dual_sort_schedule
    from repro.core.large_inputs import _blocked, _count_block_step, _local_sort_ops

    _check_policy(payload_policy)
    blocks, b = _blocked(keys, rdc.num_nodes)
    if blocks.dtype == object:
        raise TypeError("large_sort supports numeric keys only")
    prof = profiler if profiler is not None else NULL_PROFILER
    n = rdc.num_nodes
    state = ColumnarState(n, [("block", blocks.dtype, (b,))])
    arr = state.column("block")

    with prof.span("local-sort", block=b):
        arr[...] = np.sort(blocks, axis=1)
        if counters is not None:
            counters.record_comp_step(ops_each=_local_sort_ops(b))

    for k, step in enumerate(dual_sort_schedule(rdc.n, descending=descending)):
        with prof.span(step.phase, step=k, dim=step.dim):
            j = step.dim
            if step.dir_kind == "const":
                lo, hi = bit_pair_views(arr, j)
                _merge_split(lo, hi, b, bool(step.dir_val))
            elif step.dir_val > j:
                asc_lo, asc_hi, desc_lo, desc_hi = dir_bit_views(
                    arr, step.dir_val, j
                )
                _merge_split(asc_lo, asc_hi, b, descending=False)
                _merge_split(desc_lo, desc_hi, b, descending=True)
            else:
                raise ValueError(
                    f"degenerate schedule step: direction bit "
                    f"{step.dir_val} not above dimension {j}"
                )
            if counters is not None:
                _count_block_step(counters, rdc, step, n, b, payload_policy)
    if descending:
        # Blocks end internally ascending; flatten each high-to-low for a
        # descending global order (local, no messages — as in large_sort).
        arr[...] = arr[:, ::-1].copy()
    return arr.reshape(-1).copy()
