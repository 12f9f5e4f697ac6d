"""Shortest-path routing in the dual-cube (paper Sections 1-2).

The constructive counterpart of :meth:`DualCube.distance`: dimension-order
routing that corrects the node-ID field inside the source cluster, crosses
the class boundary, corrects the other field, and (when source and target
share a class but not a cluster) crosses back.  The produced walk always
realizes the closed-form distance, which the tests verify against BFS.
"""

from __future__ import annotations

from repro.topology.dualcube import DualCube

__all__ = ["dimension_order_route", "route", "route_length"]


def _fix_field(path: list[int], target: int, lo: int, m: int) -> int:
    """Greedy dimension-order walk equalizing the width-``m`` field at ``lo``.

    Appends the nodes visited after ``path[-1]`` and returns the last one;
    the walk flips the field bits where ``path[-1]`` and ``target`` differ,
    low to high, staying inside one cluster (the field must be the
    node-ID field of ``path[-1]``'s class).
    """
    cur = path[-1]
    diff = ((cur ^ target) >> lo) & ((1 << m) - 1)
    while diff:
        low = diff & -diff
        cur ^= low << lo
        path.append(cur)
        diff ^= low
    return cur


def dimension_order_route(dc: DualCube, u: int, v: int) -> list[int]:
    """A shortest path from ``u`` to ``v`` as the full node sequence.

    Strategy (each leg is dimension-order within a cluster):

    * same cluster — fix the node-ID field;
    * different classes — fix ``u``'s node-ID field to match the bits it
      shares with ``v`` across the cross-edge, cross, then fix the rest;
    * same class, different clusters — fix the node-ID field to ``v``'s
      *cluster*-determining bits, cross, fix the other field (now the
      node-ID field of the other class), cross back.

    Nodes may be any integer type.
    """
    dc.check_node(u)
    dc.check_node(v)
    if u == v:
        return [u]
    m = dc.cluster_dim
    cross = 1 << dc.class_dimension
    # The node-ID field starts at bit 0 in class 0 and at bit m in class 1.
    lo_u = m if u & cross else 0
    lo_v = m if v & cross else 0
    path = [u]
    cur = _fix_field(path, v, lo_u, m)
    if (u ^ v) & cross:
        # One cross-edge; the remaining difference lies in v's node-ID field.
        path.append(cur ^ cross)
        _fix_field(path, v, lo_v, m)
    elif cur != v:
        # Same class, different clusters: cross, fix the field that is the
        # node-ID field of the other class, cross back.
        path.append(cur ^ cross)
        cur = _fix_field(path, v, m - lo_u, m)
        path.append(cur ^ cross)
    return path


def route(dc: DualCube, u: int, v: int, *, validate: bool = True) -> list[int]:
    """Shortest path from ``u`` to ``v``; optionally re-checks every hop.

    Nodes may be any integer type (Python or NumPy).
    """
    path = dimension_order_route(dc, u, v)
    if validate:
        for a, b in zip(path, path[1:]):
            if not dc.has_edge(a, b):
                raise AssertionError(
                    f"routing bug: {a} -> {b} is not an edge of {dc.name}"
                )
        if len(path) - 1 != dc.distance(u, v):
            raise AssertionError(
                f"routing bug: path length {len(path) - 1} != "
                f"distance {dc.distance(u, v)} for ({u}, {v})"
            )
    return path


def route_length(dc: DualCube, u: int, v: int) -> int:
    """Length of the route (equals :meth:`DualCube.distance`)."""
    return len(dimension_order_route(dc, u, v)) - 1
