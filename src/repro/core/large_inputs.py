"""Inputs larger than the network (the paper's future-work item 1).

Both extensions keep the network phase *identical* to the N = P algorithms
and add purely local work, which is the standard blocked technique:

* **large prefix** — each node holds a consecutive block of B = N/P items;
  it computes a local inclusive prefix, runs *diminished* `D_prefix` on
  the block totals (2n communication steps, unchanged), and folds the
  returned offset into every local prefix.  Local computation is
  2B - 1 = O(N/P) operations per node.

* **large sort** — each node locally sorts its block, then the `D_sort`
  compare-exchange schedule runs with every compare-exchange replaced by a
  *merge-split*: partners exchange whole blocks, the "min" side keeps the
  B smallest of the 2B keys, the "max" side the B largest.  Replacing the
  comparators of any sorting network by merge-splits on sorted blocks
  sorts the blocked sequence (Knuth, TAOCP 5.3.4), so correctness is
  inherited from Algorithm 3; communication steps are unchanged while each
  message now carries B keys.
"""

from __future__ import annotations

import numpy as np

from repro.core.dual_sort import ScheduleStep, _dim_mode
from repro.core.ops import AssocOp
from repro.simulator import CostCounters
from repro.topology.dualcube import DualCube
from repro.topology.recursive import RecursiveDualCube

__all__ = [
    "large_prefix",
    "large_prefix_engine",
    "large_sort",
]


def _blocked(values, num_nodes: int) -> tuple[np.ndarray, int]:
    """Reshape a flat input into (num_nodes, B) consecutive blocks."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat 1-D input, got shape {arr.shape}")
    if len(arr) == 0 or len(arr) % num_nodes:
        raise ValueError(
            f"input length {len(arr)} must be a positive multiple of the "
            f"network size {num_nodes}"
        )
    b = len(arr) // num_nodes
    return arr.reshape(num_nodes, b), b


def _local_sort_ops(b: int) -> int:
    """Charged cost of one local B-key sort: B * ceil(log2 B) comparisons.

    ``(b - 1).bit_length()`` is ceil(log2 b) for b >= 1 (0 for b = 1,
    clamped to one comparison below); ``b.bit_length() - 1`` would be
    *floor*(log2 b), undercharging every non-power-of-two block size.
    """
    return max(1, b * max(1, (b - 1).bit_length()))


def large_prefix(
    dc: DualCube,
    values,
    op: AssocOp,
    *,
    backend: str = "columnar",
    counters: CostCounters | None = None,
    profiler=None,
    shards: int | None = None,
) -> np.ndarray:
    """Prefix of N = B * 2^(2n-1) values on D_n; returns the full prefix array.

    Global index order: node block k (input order) covers indices
    ``[kB, (k+1)B)``.  Communication cost equals plain `D_prefix`.

    ``backend`` selects ``"columnar"`` (the default: blocks as
    structured subarray fields; scales to D_9-D_11) or ``"replay"``
    (network phase from the compiled `D_prefix` plan; the only backend
    taking ``shards``) — both with identical results and counters;
    capabilities are declared in :mod:`repro.core.backends`.
    ``profiler`` (a :class:`~repro.obs.profile.PhaseProfiler`) records
    wallclock spans for the three phases the cost model distinguishes:
    ``local-prefix`` (B-1 local rounds), ``network`` (the diminished
    `D_prefix` on block totals — the only communicating phase), and
    ``fold`` (B offset applications).
    """
    from repro.core.backends import resolve_backend

    run = resolve_backend(
        "large_prefix",
        backend,
        counters=counters is not None,
        profiler=profiler is not None,
        shards=shards is not None,
    )
    return run(
        dc, values, op, counters=counters, profiler=profiler, shards=shards
    )


def large_prefix_engine(
    dc: DualCube,
    values,
    op: AssocOp,
):
    """Cycle-accurate blocked prefix: the N = P schedule with local work.

    Node ``u`` holds the consecutive block at arranged position
    ``arranged_index(u)``; each node computes its local prefix, the
    network runs the diminished `D_prefix` on block totals (2n steps,
    single-total messages), and the offset folds into every local value.
    Returns ``(prefix_array, EngineResult)`` with the prefix in global
    index order.
    """
    from repro.core.arrangement import arranged_index
    from repro.core.dual_prefix import _dual_prefix_node_program
    from repro.simulator import run_spmd

    blocks, b = _blocked(values, dc.num_nodes)

    def program(ctx):
        u = ctx.rank
        block = list(blocks[arranged_index(dc, u)])
        for k in range(1, b):
            block[k] = op(block[k - 1], block[k])
        if b > 1:
            ctx.compute(b - 1)
        # The network phase runs on the *held* totals directly; passing
        # inclusive=False yields the composition of all earlier blocks.
        offset = yield from _dual_prefix_node_program(
            ctx, dc, block[-1], op, paper_literal=False, inclusive=False
        )
        ctx.compute(b)
        return [op(offset, x) for x in block]

    result = run_spmd(dc, program)
    out = np.empty(dc.num_nodes * b, dtype=object)
    for u in dc.nodes():
        g = arranged_index(dc, u)
        out[g * b : (g + 1) * b] = result.returns[u]
    return out, result


def _count_block_step(
    counters: CostCounters,
    topo: RecursiveDualCube,
    step: ScheduleStep,
    n: int,
    b: int,
    payload_policy: str,
) -> None:
    """Cycle/message accounting for one merge-split round with B-key blocks."""
    if _dim_mode(topo, step.dim) == "direct":
        counters.record_comm_step(messages=n, payload_items=n * b, max_payload=b)
        counters.record_comp_step(ops_each=2 * b)
        return
    half = n // 2
    counters.record_comm_step(messages=half, payload_items=half * b, max_payload=b)
    if payload_policy == "packed":
        counters.record_comm_step(
            messages=half, payload_items=2 * half * b, max_payload=2 * b
        )
    else:
        counters.record_comm_step(
            messages=half, payload_items=half * b, max_payload=b
        )
    counters.record_comm_step(messages=half, payload_items=half * b, max_payload=b)
    if payload_policy == "single":
        counters.record_comm_step(
            messages=half, payload_items=half * b, max_payload=b
        )
    counters.record_comp_step(ops_each=2 * b)


def large_sort(
    rdc: RecursiveDualCube,
    keys,
    *,
    descending: bool = False,
    backend: str = "columnar",
    payload_policy: str = "packed",
    counters: CostCounters | None = None,
    profiler=None,
) -> np.ndarray:
    """Sort N = B * 2^(2n-1) numeric keys on D_n; returns the sorted array.

    Keys are indexed by (recursive node address, block offset); the output
    is the globally sorted flat sequence in that same blocked order.

    ``backend`` selects ``"columnar"`` (the default: merge-splits
    through reshape views; scales to D_9-D_11) or ``"replay"``
    (compiled-plan permutations and masks) — both with identical results
    and counters; capabilities are declared in
    :mod:`repro.core.backends`.  ``profiler`` records one wallclock span
    per merge-split round, named by the round's recursion segment
    (``step.phase``), plus a ``local-sort`` span for the initial
    per-block sort.
    """
    from repro.core.backends import resolve_backend

    run = resolve_backend(
        "large_sort",
        backend,
        counters=counters is not None,
        profiler=profiler is not None,
    )
    return run(
        rdc,
        keys,
        descending=descending,
        payload_policy=payload_policy,
        counters=counters,
        profiler=profiler,
    )
