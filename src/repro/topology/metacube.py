"""The metacube MC(k, m) — the authors' generalization of the dual-cube.

The paper's introduction positions the dual-cube inside the authors'
program of low-degree hypercube-like networks; the metacube (Li & Peng,
"Efficient communication in metacube") is the general member:

* a node address is a k-bit **class** ``c`` plus ``2^k`` fields of m bits;
* node ``u`` has m **cluster edges** flipping one bit of field ``c_u``
  (the field selected by its own class), and k **cross edges** flipping
  one class bit each;
* degree k + m, with 2^(k + m·2^k) nodes.

``MC(1, m)`` is exactly the dual-cube D_{m+1} — bit-for-bit, not merely
isomorphic — which the tests verify.  MC(2, m) networks reach enormous
sizes at degree m + 2 (MC(2, 3) has 16384 nodes at degree 5), the
scalability story the dual-cube begins.
"""

from __future__ import annotations

from repro._bits import extract_field, flip_bit
from repro.topology.base import DimensionedTopology

__all__ = ["Metacube"]


class Metacube(DimensionedTopology):
    """MC(k, m): 2^k classes of m-cube clusters.

    Parameters
    ----------
    k:
        Class-field width; ``2^k`` classes, ``k`` cross edges per node.
        ``k >= 1``.
    m:
        Cluster-cube dimension; ``m >= 1``.

    Notes
    -----
    Address layout (low to high): field 0, field 1, …, field ``2^k - 1``
    (m bits each), then the k class bits — matching the dual-cube layout
    at ``k = 1`` (part I, part II, class indicator).
    """

    def __init__(self, k: int, m: int):
        if k < 1:
            raise ValueError(f"metacube class width must be >= 1, got {k}")
        if m < 1:
            raise ValueError(f"metacube cluster dimension must be >= 1, got {m}")
        self._k = k
        self._m = m
        self._fields = 1 << k
        self._bits = k + m * self._fields
        if self._bits > 40:
            raise ValueError(
                f"MC({k}, {m}) would have 2^{self._bits} nodes; "
                "this simulator caps addresses at 40 bits"
            )

    @property
    def k(self) -> int:
        """Class-field width."""
        return self._k

    @property
    def m(self) -> int:
        """Cluster-cube dimension."""
        return self._m

    @property
    def name(self) -> str:
        return f"MC({self._k},{self._m})"

    @property
    def num_nodes(self) -> int:
        return 1 << self._bits

    @property
    def num_dimensions(self) -> int:
        return self._bits

    @property
    def degree_formula(self) -> int:
        """Closed-form degree: k + m."""
        return self._k + self._m

    # -- address fields -----------------------------------------------------

    def class_of(self, u: int) -> int:
        """The k-bit class of ``u``."""
        self.check_node(u)
        return extract_field(u, self._m * self._fields, self._k)

    def field(self, u: int, index: int) -> int:
        """Field ``index`` (0 .. 2^k - 1) of ``u``."""
        self.check_node(u)
        if not 0 <= index < self._fields:
            raise ValueError(
                f"field index {index} out of range [0, {self._fields})"
            )
        return extract_field(u, self._m * index, self._m)

    def node_id(self, u: int) -> int:
        """The active field (node ID within the cluster): field ``class_of(u)``."""
        return self.field(u, self.class_of(u))

    def cluster_key(self, u: int) -> tuple:
        """Hashable cluster identity: class plus every inactive field."""
        c = self.class_of(u)
        inactive = tuple(
            self.field(u, i) for i in range(self._fields) if i != c
        )
        return (c, inactive)

    # -- adjacency ------------------------------------------------------------

    def cluster_dimensions(self, u: int) -> range:
        """Address bits realizing ``u``'s intra-cluster (active-field) edges."""
        self.check_node(u)
        base = self._m * self.class_of(u)
        return range(base, base + self._m)

    def cross_dimensions(self) -> range:
        """Address bits of the k class bits (cross edges, same for all nodes)."""
        return range(self._m * self._fields, self._bits)

    def neighbors(self, u: int) -> tuple[int, ...]:
        self.check_node(u)
        nbrs = [flip_bit(u, d) for d in self.cluster_dimensions(u)]
        nbrs.extend(flip_bit(u, d) for d in self.cross_dimensions())
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

    def has_dimension_link(self, u: int, d: int) -> bool:
        self.check_node(u)
        self.check_dimension(d)
        if d >= self._m * self._fields:
            return True  # class bits: cross edges for every node
        return d in self.cluster_dimensions(u)

    def edge_count(self) -> int:
        """Closed-form |E| = (k + m) * 2^(bits - 1)."""
        return (self._k + self._m) << (self._bits - 1)
