"""Cost accounting shared by the cycle-accurate engine and the array backends.

The paper's theorems count two quantities under the synchronous 1-port
model:

* **communication steps** — lockstep cycles in which messages fly; every
  algorithm here keeps all nodes in lockstep, so engine cycles equal the
  paper's communication steps;
* **computation steps** — parallel rounds of O(1) local work (one
  ``t``/``s`` update pair in the prefix algorithms, one comparison in the
  sort); the per-node op tallies are also kept so the "O(1) per round"
  claim itself is checkable.

Both execution backends feed the same :class:`CostCounters` so benchmark
rows are directly comparable.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["CostCounters", "Packed", "payload_size"]


class Packed:
    """Explicit multi-item message container.

    Algorithms that deliberately batch several key-sized items into one
    message (the sort's packed 3-hop schedule) wrap them in ``Packed`` so
    the payload audit can distinguish a 2-key message from a single value
    that merely *is* a tuple (e.g. a CONCAT partial result).
    """

    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Packed) and self.items == other.items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Packed{self.items!r}"


def payload_size(payload: Any) -> int:
    """Number of key-sized items a message payload carries.

    ``None`` counts as 0 (control-only), :class:`Packed` by item count,
    anything else — including tuples that are single values — as one item.
    """
    if payload is None:
        return 0
    if isinstance(payload, Packed):
        return len(payload)
    return 1


class CostCounters:
    """Mutable cost ledger for one algorithm run.

    Parameters
    ----------
    num_nodes:
        Network size; per-node tallies are dense arrays of this length.
    """

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.cycles = 0
        self.active_cycles = 0
        self.messages = 0
        self.payload_items = 0
        self.max_message_payload = 0
        self.messages_dropped = 0
        self.retries = 0
        self.timeouts = 0
        self.node_crashes = 0
        self.sends = np.zeros(num_nodes, dtype=np.int64)
        self.recvs = np.zeros(num_nodes, dtype=np.int64)
        self._comp_calls = np.zeros(num_nodes, dtype=np.int64)
        self._comp_ops = np.zeros(num_nodes, dtype=np.int64)
        self._timeline = None

    def attach_timeline(self, recorder) -> None:
        """Mirror bulk lockstep rounds into a timeline recorder.

        The array backends have no engine cycles — their unit of
        progress is the bulk round recorded through
        :meth:`record_comm_step`/:meth:`record_comp_step`.  With a
        recorder attached (duck-typed: anything with ``record_comm_step``
        and ``record_comp_step``, normally a
        :class:`~repro.obs.timeline.TimelineRecorder`), each bulk round
        also emits one coarse per-step timeline record.  Pass ``None`` to
        detach.
        """
        if recorder is not None and not hasattr(recorder, "record_comm_step"):
            raise TypeError(
                f"expected a timeline recorder with record_comm_step/"
                f"record_comp_step or None, got {type(recorder)!r}"
            )
        self._timeline = recorder

    # -- engine-side hooks ---------------------------------------------------

    def record_cycle(self, deliveries: int) -> None:
        """One engine clock tick with ``deliveries`` completed messages."""
        self.cycles += 1
        if deliveries:
            self.active_cycles += 1

    def record_delivery(self, src: int, dst: int, payload: Any) -> None:
        """One message delivered ``src -> dst``."""
        size = payload_size(payload)
        self.messages += 1
        self.payload_items += size
        if size > self.max_message_payload:
            self.max_message_payload = size
        self.sends[src] += 1
        self.recvs[dst] += 1

    def record_drop(self) -> None:
        """One in-flight message lost to fault injection (forces a retry)."""
        self.messages_dropped += 1
        self.retries += 1

    def record_timeout(self) -> None:
        """One request abandoned by the per-request timeout."""
        self.timeouts += 1

    def record_crash(self) -> None:
        """One node killed by the fault plan."""
        self.node_crashes += 1

    def record_compute(self, rank: int, ops: int = 1) -> None:
        """One local computation round of ``ops`` primitive operations at ``rank``."""
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        self._comp_calls[rank] += 1
        self._comp_ops[rank] += ops

    # -- array-backend hooks ---------------------------------------------

    def record_comm_step(
        self, messages: int, payload_items: int | None = None, max_payload: int = 1
    ) -> None:
        """One lockstep communication round performed in bulk.

        ``messages`` is the number of point-to-point messages in the round;
        ``payload_items`` defaults to one item per message.
        """
        self.cycles += 1
        if messages:
            self.active_cycles += 1
        self.messages += messages
        self.payload_items += (
            messages if payload_items is None else payload_items
        )
        if messages and max_payload > self.max_message_payload:
            self.max_message_payload = max_payload
        if self._timeline is not None:
            self._timeline.record_comm_step(
                messages, payload_items, max_payload
            )

    def record_comp_step(self, ops_each: int = 1, ranks=None) -> None:
        """One lockstep computation round performed in bulk.

        ``ranks`` limits the round to a subset of nodes (array/sequence of
        rank indices); by default every node participates.  A rank listed
        k times is charged k rounds (``np.add.at`` — buffered fancy-index
        ``+=`` would silently collapse duplicates).  A ``range`` charges
        the contiguous slice directly, so callers over huge networks (the
        columnar backend's class-half rounds) never materialize an index
        array.
        """
        if ranks is None:
            self._comp_calls += 1
            self._comp_ops += ops_each
        elif isinstance(ranks, range) and ranks.step == 1:
            self._comp_calls[ranks.start : ranks.stop] += 1
            self._comp_ops[ranks.start : ranks.stop] += ops_each
        else:
            idx = np.asarray(ranks, dtype=np.int64)
            np.add.at(self._comp_calls, idx, 1)
            np.add.at(self._comp_ops, idx, ops_each)
        if self._timeline is not None:
            self._timeline.record_comp_step(ops_each)

    def record_bulk(
        self,
        *,
        cycles: int,
        active_cycles: int,
        messages: int,
        payload_items: int,
        max_message_payload: int,
        sends,
        recvs,
    ) -> None:
        """Flush tallies accumulated outside the ledger (engine fast mode).

        The engine's fast path counts deliveries in plain Python scalars
        and per-node lists, then merges them here in one shot; the final
        ledger state is identical to per-event recording.
        """
        self.cycles += cycles
        self.active_cycles += active_cycles
        self.messages += messages
        self.payload_items += payload_items
        if max_message_payload > self.max_message_payload:
            self.max_message_payload = max_message_payload
        self.sends += np.asarray(sends, dtype=np.int64)
        self.recvs += np.asarray(recvs, dtype=np.int64)

    # -- derived quantities ----------------------------------------------------

    @property
    def comm_steps(self) -> int:
        """Communication steps in the paper's sense (lockstep cycles)."""
        return self.cycles

    @property
    def comp_steps(self) -> int:
        """Parallel computation steps: the longest per-node chain of rounds."""
        return int(self._comp_calls.max(initial=0))

    @property
    def max_node_ops(self) -> int:
        """Largest number of primitive local operations any node performed."""
        return int(self._comp_ops.max(initial=0))

    @property
    def total_ops(self) -> int:
        """Total primitive local operations across all nodes."""
        return int(self._comp_ops.sum())

    def summary(self) -> dict:
        """Compact dict for benchmark tables."""
        return {
            "comm_steps": self.comm_steps,
            "comp_steps": self.comp_steps,
            "messages": self.messages,
            "payload_items": self.payload_items,
            "max_message_payload": self.max_message_payload,
            "max_node_ops": self.max_node_ops,
            "total_ops": self.total_ops,
            "messages_dropped": self.messages_dropped,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "node_crashes": self.node_crashes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        body = ", ".join(f"{k}={v}" for k, v in s.items())
        return f"CostCounters({body})"
