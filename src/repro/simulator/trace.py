"""Trace recording for figure regeneration.

The paper's Figures 3, 5 and 6 are snapshots of the per-node state after
each algorithm phase.  Algorithms record labelled per-node values through
:meth:`NodeCtx.record` (engine backend) or directly through
:meth:`TraceRecorder.record_array` (columnar backend); the benchmark
harness then renders each labelled snapshot as one figure panel.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Ordered, labelled per-node state snapshots.

    A *snapshot* with label L is complete once every rank has recorded a
    value under L the same number of times; ranks may record under the same
    label repeatedly (one value per round), producing a series.

    Parameters
    ----------
    num_nodes:
        Expected rank count, when known.  With it set,
        :meth:`record_array` rejects ragged/short snapshots instead of
        silently recording an incomplete one.
    """

    def __init__(self, num_nodes: int | None = None):
        if num_nodes is not None and num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self._per_rank: dict[str, dict[int, list[Any]]] = {}
        self._label_order: list[str] = []

    def record(self, label: str, rank: int, value: Any) -> None:
        """Record ``value`` for ``rank`` under ``label``."""
        if label not in self._per_rank:
            self._per_rank[label] = {}
            self._label_order.append(label)
        self._per_rank[label].setdefault(rank, []).append(value)

    def record_array(self, label: str, values: Iterable[Any]) -> None:
        """Record one full snapshot at once (rank k gets ``values[k]``).

        When the recorder knows its rank count, a snapshot of any other
        length raises ``ValueError`` (nothing is recorded); previously a
        short or ragged iterable was silently accepted, leaving the label
        incomplete and every later :meth:`snapshot` call failing.
        """
        vals = list(values)
        if self.num_nodes is not None and len(vals) != self.num_nodes:
            raise ValueError(
                f"snapshot {label!r} has {len(vals)} values; recorder "
                f"expects exactly {self.num_nodes} ranks"
            )
        for rank, value in enumerate(vals):
            self.record(label, rank, value)

    def labels(self) -> tuple[str, ...]:
        """Labels in first-recorded order."""
        return tuple(self._label_order)

    def _ranks(self, label: str) -> dict[int, list[Any]]:
        """Per-rank values under ``label``; a helpful KeyError if unknown.

        A bare ``KeyError: 'label'`` from the internal dict told the caller
        nothing about what *was* recorded; list the known labels instead.
        """
        try:
            return self._per_rank[label]
        except KeyError:
            known = ", ".join(repr(x) for x in self._label_order) or "<none>"
            raise KeyError(
                f"no snapshot recorded under label {label!r}; "
                f"known labels: {known}"
            ) from None

    def depth(self, label: str) -> int:
        """How many snapshots exist under ``label`` (min across ranks)."""
        ranks = self._ranks(label)
        return min(len(v) for v in ranks.values())

    def snapshot(self, label: str, num_nodes: int, index: int = 0) -> list:
        """The ``index``-th snapshot under ``label`` as a rank-ordered list."""
        ranks = self._ranks(label)
        out = []
        for r in range(num_nodes):
            if r not in ranks or index >= len(ranks[r]):
                raise KeyError(
                    f"snapshot {label!r}[{index}] incomplete at rank {r}"
                )
            out.append(ranks[r][index])
        return out

    def series(self, label: str, num_nodes: int) -> list[list]:
        """All snapshots under ``label`` in recording order."""
        return [
            self.snapshot(label, num_nodes, i) for i in range(self.depth(label))
        ]
