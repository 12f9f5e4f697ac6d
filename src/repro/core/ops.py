"""Associative binary operations for parallel prefix.

The paper's prefix computation is defined over an arbitrary associative
operation (not necessarily commutative).  :class:`AssocOp` packages the
operation with its identity and an optional NumPy ufunc so the array
backends can run at array speed for numeric operations while the same code
path supports exotic ones (tuple concatenation, 2x2 matrix product) that
the tests use to catch operand-ordering bugs — a commutative ``+`` hides
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "AssocOp",
    "ADD",
    "MUL",
    "MIN",
    "MAX",
    "CONCAT",
    "MATMUL2",
    "combine_arrays",
    "combine_into",
]


@dataclass(frozen=True)
class AssocOp:
    """An associative binary operation with identity.

    Attributes
    ----------
    name:
        Label used in traces and benchmark tables.
    fn:
        The scalar operation ``(a, b) -> a ⊕ b``.  Must be associative;
        need *not* be commutative (operand order is preserved everywhere).
    identity:
        Two-sided identity element (the value of an empty/diminished
        prefix).
    ufunc:
        Optional NumPy ufunc implementing ``fn`` elementwise; enables the
        fast array path in the array backends.
    commutative:
        Purely informational; algorithms never rely on it.
    """

    name: str
    fn: Callable[[Any, Any], Any] = field(repr=False)
    identity: Any
    ufunc: Any = field(default=None, repr=False)
    commutative: bool = False

    def __call__(self, a: Any, b: Any) -> Any:
        """Apply the operation to two scalars (in the given order)."""
        return self.fn(a, b)

    def reduce(self, items) -> Any:
        """Left fold of ``items`` starting from the identity."""
        acc = self.identity
        for x in items:
            acc = self.fn(acc, x)
        return acc

    def identity_array(self, n: int) -> np.ndarray:
        """Array of ``n`` identity elements, numeric when possible."""
        if self.ufunc is not None and isinstance(self.identity, (int, float)):
            return np.full(n, self.identity, dtype=np.int64 if isinstance(self.identity, int) else np.float64)
        out = np.empty(n, dtype=object)
        out[:] = [self.identity] * n
        return out


def _state_dtype(vals: np.ndarray, op: AssocOp | None) -> np.dtype:
    """State dtype able to hold inputs, identities and combine results.

    Every array backend builds its prefix state in this dtype, so narrow
    inputs (``bool``, ``uint8``) are promoted as ``np.cumsum`` would
    rather than wrapping, and all backends return the same dtype.
    ``op=None`` (compare-exchange state) keeps the input dtype.
    """
    if vals.dtype == object or (op is not None and op.ufunc is None):
        return np.dtype(object)
    if op is None:
        return vals.dtype
    return np.result_type(vals.dtype, np.asarray(op.identity).dtype)


def combine_arrays(op: AssocOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a[k] ⊕ b[k]`` preserving operand order.

    Uses the ufunc when available and the arrays are non-object; falls back
    to a scalar loop over object arrays.
    """
    if (
        op.ufunc is not None
        and a.dtype != object
        and np.asarray(b).dtype != object
    ):
        return op.ufunc(a, b)
    out = np.empty(len(a), dtype=object)
    out[:] = [op.fn(x, y) for x, y in zip(a, b)]
    return out


def combine_into(
    op: AssocOp, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Elementwise ``out[k] = a[k] ⊕ b[k]`` written in place into ``out``.

    The columnar backend's combine primitive: ``out`` may alias ``a`` or
    ``b`` exactly (same shape and strides) — each element is read before
    its slot is written, so in-place folds like ``s ⊕= got`` need no
    temporary.  Arrays may be multi-dimensional (pair views).  Uses the
    ufunc when available and non-object; otherwise an ``nditer`` loop
    over object elements, preserving operand order.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if (
        op.ufunc is not None
        and a.dtype != object
        and b.dtype != object
        and out.dtype != object
    ):
        op.ufunc(a, b, out=out)
        return out
    fn = op.fn
    # Scalar element assignment (out[idx] = obj) stores arbitrary objects
    # verbatim; nditer 0-d views would try to broadcast tuple values.
    for idx in np.ndindex(a.shape):
        out[idx] = fn(a[idx], b[idx])
    return out


def _matmul2(a: tuple, b: tuple) -> tuple:
    """2x2 matrix product on row-major 4-tuples (non-commutative test op)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


ADD = AssocOp("add", lambda a, b: a + b, 0, ufunc=np.add, commutative=True)
MUL = AssocOp("mul", lambda a, b: a * b, 1, ufunc=np.multiply, commutative=True)
MIN = AssocOp("min", min, float("inf"), ufunc=np.minimum, commutative=True)
MAX = AssocOp("max", max, float("-inf"), ufunc=np.maximum, commutative=True)
CONCAT = AssocOp("concat", lambda a, b: a + b, (), commutative=False)
MATMUL2 = AssocOp("matmul2", _matmul2, (1, 0, 0, 1), commutative=False)
