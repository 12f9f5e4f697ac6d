"""Columnar node state: the whole network as one numpy structured array.

# repro: columnar-hot-path

The engine backend keeps one Python generator per rank, and a plain
whole-network numpy execution would still materialize per-step *gather
permutations* (``arr[partner]``) — an O(nodes) index array plus an
O(nodes) gathered copy per dimension-step.  The columnar backend removes
even that: per-rank state lives in named columns of a
single structured array, and a dimension-``b`` exchange is expressed as a
**reshape view** that splits a column into its bit-``b`` = 0/1 halves, so
a whole step executes as one in-place batched combine with no index
arrays and no gathered copies.

The trick is pure address arithmetic: the nodes with bit ``b`` clear and
the nodes with bit ``b`` set alternate in runs of ``2**b``, so reshaping
a length-``L`` column to ``(L >> (b+1), 2, 1 << b)`` puts the two sides
of every dimension-``b`` edge on axis 1.  Numpy guarantees such a
length-factoring reshape of a strided 1-D view is itself a view, and
:func:`bit_pair_views` verifies that with ``np.shares_memory`` so a
silent copy (which would discard the in-place update) is impossible.

Cost accounting matches the engine: columnar executors call the
:meth:`~repro.simulator.counters.CostCounters.record_comm_step` /
:meth:`~repro.simulator.counters.CostCounters.record_comp_step` hooks
once per engine step, so counters (and any timeline attached via
:meth:`~repro.simulator.counters.CostCounters.attach_timeline`) agree
with the engine exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ColumnarState",
    "bit_pair_views",
    "dir_bit_views",
    "swap_halves",
]


class ColumnarState:
    """Per-rank algorithm state as columns of one structured array.

    Parameters
    ----------
    num_nodes:
        Network size (one record per rank).
    fields:
        Sequence of ``(name, dtype)`` or ``(name, dtype, shape)`` numpy
        structured-dtype field specs — one field per algorithm variable
        (``t``, ``s``, a scratch column, a ``(B,)`` block, ...).

    Columns come back as **views** into the shared record buffer
    (:meth:`column`), so in-place updates through
    :func:`bit_pair_views` / :func:`dir_bit_views` mutate the state
    directly; total memory is O(num_nodes * record size) for the whole
    run.  Object-dtype fields are supported (non-numeric payloads such as
    CONCAT tuples), at Python-loop combine speed.
    """

    def __init__(self, num_nodes: int, fields):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        specs = [tuple(f) for f in fields]
        if not specs:
            raise ValueError("ColumnarState needs at least one field")
        self.num_nodes = num_nodes
        self._data = np.zeros(num_nodes, dtype=specs)

    @property
    def dtype(self) -> np.dtype:
        """The structured record dtype."""
        return self._data.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes held by the record buffer."""
        return self._data.nbytes

    def column(self, name: str) -> np.ndarray:
        """A named column as a strided view (never a copy)."""
        return self._data[name]

    def columns(self) -> tuple[str, ...]:
        """The declared field names, in order."""
        return tuple(self._data.dtype.names)


def _reshaped_view(col: np.ndarray, shape: tuple) -> np.ndarray:
    """Reshape ``col`` asserting the result still aliases its memory."""
    view = col.reshape(shape)
    if not np.shares_memory(view, col):
        raise ValueError(
            f"reshape to {shape} copied a columnar view (dtype {col.dtype}, "
            f"strides {col.strides}); in-place steps would be lost"
        )
    return view


def bit_pair_views(col: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a column into the two sides of every dimension-``b`` edge.

    ``col`` has length ``L`` along axis 0 (a power of two > ``2**b``);
    trailing axes (e.g. a block axis) ride along.  Returns ``(lo, hi)``
    views — ``lo[r]`` is the node with bit ``b`` clear of pair ``r``,
    ``hi[r]`` its bit-``b`` partner — so one batched in-place combine on
    the pair realizes the whole exchange round with no gathers.
    """
    length = col.shape[0]
    if b < 0 or (1 << (b + 1)) > length:
        raise ValueError(
            f"bit {b} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col, (length >> (b + 1), 2, 1 << b) + col.shape[1:]
    )
    return view[:, 0], view[:, 1]


def dir_bit_views(
    col: np.ndarray, dir_bit: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a column by direction bit ``dir_bit`` *and* pair bit ``dim``.

    Requires ``dir_bit > dim`` (which every generated compare-exchange
    schedule satisfies: merge direction bits sit above the dimensions
    they direct).  Returns ``(asc_lo, asc_hi, desc_lo, desc_hi)`` views:
    the ascending (bit ``dir_bit`` clear) and descending (set) pair
    sides, each split as in :func:`bit_pair_views`.
    """
    length = col.shape[0]
    if dir_bit <= dim:
        raise ValueError(
            f"dir_bit {dir_bit} must exceed the pair dimension {dim}"
        )
    if (1 << (dir_bit + 1)) > length:
        raise ValueError(
            f"direction bit {dir_bit} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col,
        (
            length >> (dir_bit + 1),
            2,
            1 << (dir_bit - dim - 1),
            2,
            1 << dim,
        )
        + col.shape[1:],
    )
    return view[:, 0, :, 0], view[:, 0, :, 1], view[:, 1, :, 0], view[:, 1, :, 1]


def swap_halves(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exchange over the class (top) address bit: ``out = src[cross]``.

    When the cross-edge dimension is the *top* address bit (as in the
    standard :class:`~repro.topology.dualcube.DualCube` presentation),
    every node's cross partner lives at the mirrored position in the
    other array half, so the full cross-edge exchange is two half-copies
    — no partner index array at all.
    """
    if src.shape != out.shape:
        raise ValueError(
            f"shape mismatch: src {src.shape} vs out {out.shape}"
        )
    half = src.shape[0] >> 1
    if half << 1 != src.shape[0]:
        raise ValueError(
            f"column length must be even, got {src.shape[0]}"
        )
    out[:half] = src[half:]
    out[half:] = src[:half]
    return out
