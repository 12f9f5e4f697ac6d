"""The recursive presentation of the dual-cube (paper Section 4).

The recursive presentation relabels D_n so that:

* bit 0 of the address is the class indicator;
* class-0 clusters span the **even** dimensions ``{2, 4, ..., 2n-2}``;
* class-1 clusters span the **odd** dimensions ``{1, 3, ..., 2n-3}``;
* dimension 0 is the cross-edge.

A node has a *direct link* along dimension ``j`` iff ``j = 0``, or ``j`` is
even and the node is class 0, or ``j`` is odd and the node is class 1 — the
exact condition in the paper's Algorithm 3.  A compare-exchange pair at an
unsupported dimension is emulated by the 3-hop path
``u -> u^1 -> (u^1)^(1<<j) -> u^(1<<j)`` (cross, intra, cross).

The presentation makes the recursive construction explicit:
``D_1 = K_2`` and D_n is four copies of D_{n-1} selected by the top two
address bits ``(a_{2n-2}, a_{2n-3})``, plus the dimension-(2n-2) links
(completing the class-0 cubes) and the dimension-(2n-3) links (class-1).

:func:`standard_to_recursive` / :func:`recursive_to_standard` give the
explicit graph isomorphism to :class:`~repro.topology.dualcube.DualCube`:
writing a standard address as (class c, middle field A, low field B), the
recursive address places B on the even dimensions, A on the odd dimensions,
and c at bit 0 — for *both* classes, which is what makes the map
class-uniform and edge-preserving.
"""

from __future__ import annotations

from repro._bits import bit, deinterleave, flip_bit, interleave
from repro.topology.base import DimensionedTopology
from repro.topology.dualcube import DualCube

__all__ = [
    "RecursiveDualCube",
    "standard_to_recursive",
    "recursive_to_standard",
]


class RecursiveDualCube(DimensionedTopology):
    """D_n under the recursive presentation.

    Isomorphic to :class:`~repro.topology.dualcube.DualCube` with the same
    ``n`` (see :func:`standard_to_recursive`); used by the sorting
    algorithm, whose compare-exchange schedule is naturally expressed in
    these coordinates.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"dual-cube connectivity must be >= 1, got {n}")
        self._n = n
        self._bits = 2 * n - 1

    @property
    def n(self) -> int:
        """Connectivity (links per node)."""
        return self._n

    @property
    def name(self) -> str:
        return f"RD_{self._n}"

    @property
    def num_nodes(self) -> int:
        return 1 << self._bits

    @property
    def num_dimensions(self) -> int:
        return self._bits

    # -- structure ----------------------------------------------------------

    def class_of(self, u: int) -> int:
        """Class indicator: bit 0 of the recursive address."""
        self.check_node(u)
        return u & 1

    def cluster_dimensions(self, u: int) -> range:
        """Dimensions along which ``u`` has intra-cluster (direct) links."""
        self.check_node(u)
        if u & 1 == 0:
            return range(2, self._bits, 2)  # even dims 2..2n-2
        return range(1, self._bits - 1, 2)  # odd dims 1..2n-3

    def has_dimension_link(self, u: int, d: int) -> bool:
        self.check_node(u)
        self.check_dimension(d)
        if d == 0:
            return True
        if d % 2 == 0:
            return u & 1 == 0
        return u & 1 == 1

    def neighbors(self, u: int) -> tuple[int, ...]:
        self.check_node(u)
        nbrs = [flip_bit(u, 0)]
        nbrs.extend(flip_bit(u, d) for d in self.cluster_dimensions(u))
        return tuple(nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge; nodes may be any integer type."""
        self.check_node(u)
        self.check_node(v)
        diff = u ^ v
        if diff == 0 or (diff & (diff - 1)) != 0:
            return False
        d = int(diff).bit_length() - 1
        return self.has_dimension_link(u, d)

    def emulation_path(self, u: int, d: int) -> tuple[int, ...]:
        """Hop-by-hop path realizing the dimension-``d`` exchange from ``u``.

        Returns ``(u, partner)`` when a direct link exists, and the 3-hop
        path ``(u, u^1, u^1^(1<<d), u^(1<<d))`` otherwise (paper Section 6:
        cross-edge, intra-cluster edge in the opposite class, cross-edge).
        """
        self.check_node(u)
        self.check_dimension(d)
        target = flip_bit(u, d)
        if self.has_dimension_link(u, d):
            return (u, target)
        v = flip_bit(u, 0)
        w = flip_bit(v, d)
        if flip_bit(w, 0) != target:
            raise ValueError(
                f"emulation path invariant violated for node {u}, "
                f"dimension {d}: relay {w} does not cross back to {target}"
            )
        return (u, v, w, target)

    def exchange_hops(self, u: int, d: int) -> int:
        """Number of hops the dimension-``d`` exchange takes from ``u`` (1 or 3)."""
        return 1 if self.has_dimension_link(u, d) else 3

    # -- recursive construction --------------------------------------------

    def subcube_index(self, u: int) -> int:
        """Which of the four D_{n-1} copies ``u`` lies in (top two bits)."""
        self.check_node(u)
        if self._n == 1:
            raise ValueError("D_1 is the recursion base; it has no sub-dual-cubes")
        return u >> (self._bits - 2)

    def subcube_members(self, i: int) -> range:
        """Node range of sub-dual-cube ``i`` (the copies are contiguous)."""
        if self._n == 1:
            raise ValueError("D_1 is the recursion base; it has no sub-dual-cubes")
        if not 0 <= i < 4:
            raise ValueError(f"sub-dual-cube index must be in 0..3, got {i}")
        size = 1 << (self._bits - 2)
        return range(i * size, (i + 1) * size)

    def sub_dual_cube(self) -> "RecursiveDualCube":
        """The D_{n-1} each of the four copies is isomorphic to."""
        if self._n == 1:
            raise ValueError("D_1 is the recursion base; it has no sub-dual-cubes")
        return RecursiveDualCube(self._n - 1)

    def joining_edges(self) -> list[tuple[int, int]]:
        """The edges the recursive step adds on top of the four D_{n-1}.

        These are exactly the dimension-(2n-2) links of class-0 nodes and
        the dimension-(2n-3) links of class-1 nodes (paper Fig. 4's bold
        lines and curves).
        """
        if self._n == 1:
            raise ValueError("D_1 is the recursion base; it has no joining edges")
        out = []
        top_even = self._bits - 1  # 2n-2
        top_odd = self._bits - 2  # 2n-3
        for u in self.nodes():
            for d in (top_even, top_odd):
                if self.has_dimension_link(u, d):
                    v = flip_bit(u, d)
                    if u < v:
                        out.append((u, v))
        return out

    # -- metrics ------------------------------------------------------------

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance, via the isomorphism to the standard form."""
        std = DualCube(self._n)
        return std.distance(
            recursive_to_standard(self._n, u), recursive_to_standard(self._n, v)
        )

    def diameter(self) -> int:
        """Closed-form diameter (same as the standard presentation)."""
        return DualCube(self._n).diameter()


def standard_to_recursive(n: int, u: int) -> int:
    """Map a standard-presentation address of D_n to its recursive address.

    Writing ``u = (c, A, B)`` with class bit ``c``, middle (n-1)-bit field
    ``A`` and low field ``B``, the recursive address has ``c`` at bit 0,
    ``A`` spread over the odd dimensions and ``B`` over the even ones.
    """
    m = n - 1
    c = bit(u, 2 * m)
    a = (u >> m) & ((1 << m) - 1)
    b = u & ((1 << m) - 1)
    # interleave(first, second, m): second -> even positions, first -> odd.
    return (interleave(b, a, m) << 1) | c


def recursive_to_standard(n: int, r: int) -> int:
    """Inverse of :func:`standard_to_recursive`."""
    m = n - 1
    c = r & 1
    b_field, a_field = deinterleave(r >> 1, m)
    # deinterleave returns (odd-position bits, even-position bits); the odd
    # positions carried B (the standard low field) and the even positions
    # carried A (the standard middle field).
    return (c << (2 * m)) | (a_field << m) | b_field
