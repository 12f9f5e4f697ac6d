"""Replay backend: execute precompiled straight-line plans.

The third execution backend (next to ``engine`` and the default
``columnar``): every core algorithm's communication schedule is oblivious,
so :mod:`repro.analysis.static.compile` compiles it **once** per
``(algorithm, topology)`` into a plan of gather permutations and masks,
and this module replays the plan with no matching fixed point, no request
decoding, and no per-step index arithmetic — just ``take``/``ufunc``/
``where`` over preallocated buffers.  On repeat runs at small sizes
(plans cached in-process, D_3-D_5) that is the fastest backend.

Plans live in a module-level cache keyed by
``("prefix", topology, paper_literal)`` or ``("schedule", topology, kind,
descending)``; :func:`plan_cache_stats` exposes hit/miss/compile-time
counters and :func:`registry_from_plan_cache` feeds them into a
:class:`~repro.obs.metrics.MetricsRegistry` as ``repro_replay_*`` series.

**Sharding** (`D_prefix` family only): the two `Cube_prefix` phases touch
no cross-class edge — clusters are independent (n-1)-cubes between the
cross-edge barrier steps — so ``shards=k`` runs each ascend phase with
cluster blocks distributed over ``k`` forked workers writing into shared
memory, and the main process performs the cross exchanges and folds at
the barriers.  Sharding requires a numeric dtype and an operation with a
numpy ufunc (worker slabs combine in place); counters are charged by the
main process — the ledger is data-independent, so it is identical to the
unsharded run.

Cost accounting is call-for-call identical to the columnar backend
(the same ``record_comm_step``/``record_comp_step`` sequence), so step
counts, message/payload tallies, and attached timelines agree exactly
with the engine and the static :class:`CommSchedule`.  Prefix state is
built in :func:`~repro.core.ops._state_dtype`, as in the columnar
backend, so narrow inputs are promoted rather than wrapped.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.static.compile import (
    check_shard_plan,
    compile_prefix_plan,
    compile_schedule_plan,
)
from repro.core.ops import AssocOp, _state_dtype, combine_arrays
from repro.simulator import CostCounters

__all__ = [
    "clear_plan_cache",
    "plan_cache_stats",
    "registry_from_plan_cache",
    "get_prefix_plan",
    "get_schedule_plan",
    "dual_prefix_replay",
    "execute_schedule_replay",
    "dual_sort_replay",
    "hypercube_bitonic_sort_replay",
    "large_prefix_replay",
    "large_sort_replay",
]


# -- the compiled-plan cache ---------------------------------------------------

_PLAN_CACHE: dict[tuple, object] = {}
_STATS = {"hits": 0, "misses": 0, "compile_seconds": 0.0, "validated": 0}


def _cached_plan(key: tuple, build):
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _STATS["hits"] += 1
        return plan
    _STATS["misses"] += 1
    t0 = time.perf_counter()
    plan = build()
    _STATS["compile_seconds"] += time.perf_counter() - t0
    if plan.validated:
        _STATS["validated"] += 1
    _PLAN_CACHE[key] = plan
    return plan


def plan_cache_stats() -> dict:
    """A snapshot of the compiled-plan cache: hits, misses, size,
    cumulative compile seconds, and how many plans were auto-validated
    against the extractor."""
    return dict(_STATS, size=len(_PLAN_CACHE))


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the cache statistics."""
    _PLAN_CACHE.clear()
    _STATS.update(hits=0, misses=0, compile_seconds=0.0, validated=0)


def registry_from_plan_cache(*, registry=None, labels: dict | None = None):
    """Feed the plan-cache statistics into a metrics registry.

    Returns the registry (a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` unless one is passed),
    carrying ``repro_replay_plan_cache_hits`` / ``_misses`` /
    ``_validated`` counters and ``repro_replay_plan_cache_size`` /
    ``repro_replay_plan_compile_seconds`` gauges.
    """
    from repro.obs.metrics import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    stats = plan_cache_stats()
    reg.counter(
        "repro_replay_plan_cache_hits",
        "Replay plan cache hits", labels,
    ).inc(stats["hits"])
    reg.counter(
        "repro_replay_plan_cache_misses",
        "Replay plan cache misses (compilations)", labels,
    ).inc(stats["misses"])
    reg.counter(
        "repro_replay_plan_cache_validated",
        "Compiled plans auto-validated against the extractor", labels,
    ).inc(stats["validated"])
    reg.gauge(
        "repro_replay_plan_cache_size",
        "Compiled plans currently cached", labels,
    ).set(stats["size"])
    reg.gauge(
        "repro_replay_plan_compile_seconds",
        "Cumulative wallclock spent compiling plans", labels,
    ).set(stats["compile_seconds"])
    return reg


def get_prefix_plan(dc, *, paper_literal: bool = False):
    """The cached (compiling on first use) `D_prefix` plan for ``dc``."""
    return _cached_plan(
        ("prefix", dc.name, paper_literal),
        lambda: compile_prefix_plan(dc, paper_literal=paper_literal),
    )


def get_schedule_plan(topo, schedule_factory, *, kind: str,
                      descending: bool = False):
    """The cached compare-exchange plan for ``topo``.

    ``schedule_factory()`` produces the
    :class:`~repro.core.dual_sort.ScheduleStep` list; it is only called
    on a cache miss.
    """
    return _cached_plan(
        ("schedule", topo.name, kind, descending),
        lambda: compile_schedule_plan(
            topo, schedule_factory(), kind=kind, descending=descending
        ),
    )


# -- D_prefix replay -----------------------------------------------------------


def dual_prefix_replay(
    dc,
    values,
    op: AssocOp,
    *,
    inclusive: bool = True,
    paper_literal: bool = False,
    counters: CostCounters | None = None,
    shards: int | None = None,
) -> np.ndarray:
    """Replay Algorithm 2 from its compiled plan.

    Results and counter sequence are byte-identical to
    :func:`~repro.core.columnar.dual_prefix_columnar`; the arrangement
    permutation, per-round partner permutations, and fold masks come from
    the cached :class:`~repro.analysis.static.compile.PrefixPlan` instead
    of being re-derived per call.  ``shards=k`` (k >= 2) distributes the
    cluster-local ascend phases over ``k`` forked workers (numeric
    ufunc operations only); the cross-edge steps stay in the main
    process as barriers.
    """
    vals = np.asarray(values)
    if vals.shape != (dc.num_nodes,):
        raise ValueError(
            f"expected {dc.num_nodes} values for {dc.name}, got shape {vals.shape}"
        )
    plan = get_prefix_plan(dc, paper_literal=paper_literal)
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1 and len(plan.rounds) > 0:
            return _dual_prefix_replay_sharded(
                dc, vals, op, plan, inclusive=inclusive, counters=counters,
                shards=shards,
            )
    n = dc.num_nodes
    t = vals[plan.input_perm].astype(_state_dtype(vals, op))
    s = t.copy() if inclusive else op.identity_array(n)
    t, s = _replay_rounds(plan, t, s, op, counters)

    temp = t[plan.cross]
    if counters is not None:
        counters.record_comm_step(messages=n)

    t2 = temp.copy()
    s2 = op.identity_array(n)
    t2, s2 = _replay_rounds(plan, t2, s2, op, counters)

    got = s2[plan.cross]
    if counters is not None:
        counters.record_comm_step(messages=n)
        counters.record_comp_step(ops_each=1)
    s = combine_arrays(op, got, s)

    if plan.paper_literal and counters is not None:
        counters.record_comm_step(messages=n)
    s = np.where(plan.cls1_mask, combine_arrays(op, t2, s), s)
    if counters is not None:
        counters.record_comp_step(ops_each=1, ranks=plan.cls1_ranks)

    out = np.empty_like(s)
    out[plan.input_perm] = s
    return out


def _replay_rounds(plan, t, s, op, counters):
    """The m ascend rounds from precompiled permutations (both phases
    replay the same tuple) — op-for-op
    :func:`~repro.core.cube_prefix.ascend_rounds_vec`."""
    for r in plan.rounds:
        temp = t[r.perm]
        t = np.where(
            r.upper, combine_arrays(op, temp, t), combine_arrays(op, t, temp)
        )
        s = np.where(r.upper, combine_arrays(op, temp, s), s)
        if counters is not None:
            counters.record_comm_step(messages=len(t))
            counters.record_comp_step(ops_each=2)
    return t, s


# -- sharded D_prefix ----------------------------------------------------------


def _shard_worker(task):
    """Run all m ascend rounds on one block of clusters, in shared memory.

    ``task`` = (t_name, s_name, dtype_str, n, m, cls, start, stop, ufunc).
    Class-0 clusters are contiguous rows of the lower half; class-1
    clusters are columns of the upper half, so those slabs move through a
    transpose copy.  The in-place round body is the columnar backend's
    (s_hi = t_lo + s_hi; t_hi = t_lo + t_hi; t_lo = t_hi), which computes
    the same per-element operand order as the vectorized rounds.
    """
    from multiprocessing import shared_memory

    t_name, s_name, dtype_str, n, m, cls, start, stop, ufunc = task
    dt = np.dtype(dtype_str)
    shm_t = shared_memory.SharedMemory(name=t_name)
    shm_s = shared_memory.SharedMemory(name=s_name)
    try:
        half = n // 2
        width = 1 << m
        t_all = np.ndarray((n,), dtype=dt, buffer=shm_t.buf)
        s_all = np.ndarray((n,), dtype=dt, buffer=shm_s.buf)
        if cls == 0:
            t_view = t_all[:half].reshape(-1, width)[start:stop]
            s_view = s_all[:half].reshape(-1, width)[start:stop]
            slab_t = np.ascontiguousarray(t_view)
            slab_s = np.ascontiguousarray(s_view)
        else:
            t_view = t_all[half:].reshape(width, -1)[:, start:stop]
            s_view = s_all[half:].reshape(width, -1)[:, start:stop]
            slab_t = np.ascontiguousarray(t_view.T)
            slab_s = np.ascontiguousarray(s_view.T)
        nc = slab_t.shape[0]
        for i in range(m):
            tv = slab_t.reshape(nc, -1, 2, 1 << i)
            sv = slab_s.reshape(nc, -1, 2, 1 << i)
            t_lo = tv[:, :, 0, :]
            t_hi = tv[:, :, 1, :]
            s_hi = sv[:, :, 1, :]
            ufunc(t_lo, s_hi, out=s_hi)
            ufunc(t_lo, t_hi, out=t_hi)
            t_lo[...] = t_hi
        if cls == 0:
            t_view[...] = slab_t
            s_view[...] = slab_s
        else:
            t_view[...] = slab_t.T
            s_view[...] = slab_s.T
    finally:
        shm_t.close()
        shm_s.close()


def _cluster_blocks(num_clusters: int, shards: int) -> list:
    """Split ``num_clusters`` cluster indices into <= ``shards`` blocks."""
    bounds = np.linspace(0, num_clusters, min(shards, num_clusters) + 1)
    bounds = np.unique(bounds.astype(int))
    return [
        (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]


def _swapped_halves(arr: np.ndarray) -> np.ndarray:
    """The cross-edge exchange on a class-contiguous array."""
    half = len(arr) // 2
    out = np.empty_like(arr)
    out[:half] = arr[half:]
    out[half:] = arr[:half]
    return out


def _dual_prefix_replay_sharded(
    dc, vals, op, plan, *, inclusive, counters, shards
):
    import multiprocessing

    if op.ufunc is None:
        raise ValueError(
            f"sharded replay requires an operation with a numpy ufunc "
            f"(got {op.name!r}); run with shards=None"
        )
    if vals.dtype == object:
        raise ValueError(
            "sharded replay supports numeric values only; run with "
            "shards=None"
        )
    if dc.class_dimension != dc.num_dimensions - 1:
        raise ValueError(
            "sharded replay needs the class bit as the top address bit "
            f"(got dimension {dc.class_dimension} of {dc.num_dimensions})"
        )
    n = dc.num_nodes
    m = dc.cluster_dim
    dt = _state_dtype(vals, op)
    ufunc = op.ufunc
    ctx = multiprocessing.get_context("fork")
    from multiprocessing import shared_memory

    shm_t = shared_memory.SharedMemory(create=True, size=max(1, dt.itemsize * n))
    shm_s = shared_memory.SharedMemory(create=True, size=max(1, dt.itemsize * n))
    try:
        t = np.ndarray((n,), dtype=dt, buffer=shm_t.buf)
        s = np.ndarray((n,), dtype=dt, buffer=shm_s.buf)
        held = vals[plan.input_perm].astype(dt, copy=False)
        t[...] = held
        if inclusive:
            s[...] = held
        else:
            s[...] = op.identity_array(n).astype(dt, copy=False)

        blocks = _cluster_blocks(1 << m, shards)
        tasks = [
            (shm_t.name, shm_s.name, dt.str, n, m, cls, a, b, ufunc)
            for cls in (0, 1)
            for a, b in blocks
        ]
        # Prove the workers' shared-memory write sets pairwise disjoint
        # before anything forks; a racing plan raises ShardRaceError here.
        check_shard_plan(n, m, [(t[5], t[6], t[7]) for t in tasks])

        def charge_rounds():
            if counters is not None:
                for _ in range(m):
                    counters.record_comm_step(messages=n)
                    counters.record_comp_step(ops_each=2)

        with ctx.Pool(processes=min(shards, len(tasks))) as pool:
            # Phase 1: cluster-local ascend rounds (workers), then the
            # cross-edge barrier (main process).
            pool.map(_shard_worker, tasks)
            charge_rounds()
            s_phase1 = s.copy()
            temp = _swapped_halves(t)
            if counters is not None:
                counters.record_comm_step(messages=n)

            # Phase 2: the same rounds on the crossed totals.
            t[...] = temp
            s[...] = op.identity_array(n).astype(dt, copy=False)
            pool.map(_shard_worker, tasks)
            charge_rounds()

        # Folds (main process; identical op order to the unsharded path).
        got = _swapped_halves(s)
        if counters is not None:
            counters.record_comm_step(messages=n)
            counters.record_comp_step(ops_each=1)
        folded = ufunc(got, s_phase1)
        if plan.paper_literal and counters is not None:
            counters.record_comm_step(messages=n)
        folded = np.where(plan.cls1_mask, ufunc(t, folded), folded)
        if counters is not None:
            counters.record_comp_step(ops_each=1, ranks=plan.cls1_ranks)

        out = np.empty(n, dtype=folded.dtype)
        out[plan.input_perm] = folded
        return out
    finally:
        shm_t.close()
        shm_s.close()
        shm_t.unlink()
        shm_s.unlink()


# -- compare-exchange replay ---------------------------------------------------


def _elementwise_minmax(arr: np.ndarray, other: np.ndarray):
    """Elementwise (min, max) of object arrays of orderables."""
    lo = np.empty(len(arr), dtype=object)
    hi = np.empty(len(arr), dtype=object)
    for k, (a, b) in enumerate(zip(arr, other)):
        if b < a:
            lo[k], hi[k] = b, a
        else:
            lo[k], hi[k] = a, b
    return lo, hi


def execute_schedule_replay(
    topo,
    keys,
    plan,
    *,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Execute a compiled :class:`SchedulePlan` on a key array.

    Results and counters mirror
    :func:`~repro.core.columnar.execute_schedule_columnar` exactly;
    numeric dtypes run through four preallocated buffers (``take`` /
    ``minimum`` / ``maximum`` / masked ``copyto``) with no per-step
    allocation, object dtypes fall back to an element loop.
    """
    from repro.core.dual_sort import _check_policy, _count_step

    _check_policy(payload_policy)
    arr = np.asarray(keys).copy()
    n = topo.num_nodes
    if arr.shape != (n,):
        raise ValueError(
            f"expected {n} keys for {topo.name}, got shape {arr.shape}"
        )
    if arr.dtype == object:
        for cs in plan.steps:
            pk = arr[cs.perm]
            lo, hi = _elementwise_minmax(arr, pk)
            arr = np.where(cs.keep_min, lo, hi)
            if counters is not None:
                _count_step(counters, topo, cs.dim, n, payload_policy)
        return arr
    pk = np.empty_like(arr)
    lo = np.empty_like(arr)
    hi = np.empty_like(arr)
    for cs in plan.steps:
        np.take(arr, cs.perm, out=pk)
        np.minimum(arr, pk, out=lo)
        np.maximum(arr, pk, out=hi)
        np.copyto(hi, lo, where=cs.keep_min)
        arr, hi = hi, arr
        if counters is not None:
            _count_step(counters, topo, cs.dim, n, payload_policy)
    return arr


def dual_sort_replay(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Replay Algorithm 3 from its compiled plan; byte-identical results
    and counters to :func:`~repro.core.columnar.dual_sort_columnar`."""
    from repro.core.dual_sort import dual_sort_schedule

    plan = get_schedule_plan(
        rdc,
        lambda: dual_sort_schedule(rdc.n, descending=descending),
        kind="dual_sort",
        descending=descending,
    )
    return execute_schedule_replay(
        rdc, keys, plan, payload_policy=payload_policy, counters=counters
    )


def hypercube_bitonic_sort_replay(
    keys,
    *,
    descending: bool = False,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Replay Batcher's bitonic network from its compiled plan."""
    from repro.core.bitonic import _sort_cube, bitonic_schedule

    arr = np.asarray(keys)
    cube = _sort_cube(len(arr))
    plan = get_schedule_plan(
        cube,
        lambda: bitonic_schedule(cube.q, descending=descending),
        kind="bitonic",
        descending=descending,
    )
    return execute_schedule_replay(cube, arr, plan, counters=counters)


# -- large-input replay --------------------------------------------------------


def large_prefix_replay(
    dc,
    values,
    op: AssocOp,
    *,
    counters: CostCounters | None = None,
    profiler=None,
    shards: int | None = None,
) -> np.ndarray:
    """Replay the blocked prefix: local phases as in
    :func:`~repro.core.large_inputs.large_prefix`, the network phase from
    the compiled `D_prefix` plan (optionally sharded)."""
    from repro.core.large_inputs import _blocked
    from repro.obs.profile import NULL_PROFILER

    blocks, b = _blocked(values, dc.num_nodes)
    prof = profiler if profiler is not None else NULL_PROFILER

    with prof.span("local-prefix", block=b):
        local = blocks.astype(_state_dtype(blocks, op))
        for k in range(1, b):
            local[:, k] = combine_arrays(op, local[:, k - 1], local[:, k])
        if counters is not None and b > 1:
            counters.record_comp_step(ops_each=b - 1)

    with prof.span("network"):
        totals = local[:, -1]
        offsets = dual_prefix_replay(
            dc, totals, op, inclusive=False, counters=counters, shards=shards
        )

    with prof.span("fold", block=b):
        out = np.empty_like(local)
        for k in range(b):
            out[:, k] = combine_arrays(op, offsets, local[:, k])
        if counters is not None:
            counters.record_comp_step(ops_each=b)
        return out.reshape(-1)


def large_sort_replay(
    rdc,
    keys,
    *,
    descending: bool = False,
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    profiler=None,
) -> np.ndarray:
    """Replay the blocked sort: merge-split rounds over the compiled
    `D_sort` plan's permutations and keep-min masks."""
    from repro.core.dual_sort import _check_policy, dual_sort_schedule
    from repro.core.large_inputs import (
        _blocked,
        _count_block_step,
        _local_sort_ops,
    )
    from repro.obs.profile import NULL_PROFILER

    _check_policy(payload_policy)
    blocks, b = _blocked(keys, rdc.num_nodes)
    if blocks.dtype == object:
        raise TypeError("large_sort supports numeric keys only")
    prof = profiler if profiler is not None else NULL_PROFILER
    plan = get_schedule_plan(
        rdc,
        lambda: dual_sort_schedule(rdc.n, descending=descending),
        kind="dual_sort",
        descending=descending,
    )
    with prof.span("local-sort", block=b):
        arr = np.sort(blocks, axis=1)
        if counters is not None:
            counters.record_comp_step(ops_each=_local_sort_ops(b))

    n = rdc.num_nodes
    for cs in plan.steps:
        with prof.span(cs.phase, step=cs.index, dim=cs.dim):
            pk = arr[cs.perm]
            merged = np.sort(np.concatenate([arr, pk], axis=1), axis=1)
            arr = np.where(cs.keep_min[:, None], merged[:, :b], merged[:, b:])
            if counters is not None:
                _count_block_step(counters, rdc, cs.step, n, b, payload_policy)
    if descending:
        arr = arr[:, ::-1]
    return arr.reshape(-1)
