"""Bit-packed symmetric linear algebra over the two-element field.

Matrices are immutable: n bit-rows packed into Python ints (bit j of row i is
entry (i, j)), capped at n = 64.  This module owns rank computation, diagonal
perturbation, the diagonal-mask search behind the geometric and boolean
dimensions, and the bilinear form of a symmetric matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

from ._backend import kernels
from .errors import CapacityError

MAX_N = 64

#: Diagonal masks are plain ints; bit i set means diagonal entry (i, i) is 1.
DiagonalMask = int


@dataclass(frozen=True)
class F2Matrix:
    """Square 0/1 matrix over GF(2) as a tuple of row bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("matrix size must be nonnegative")
        if self.n > MAX_N:
            raise CapacityError(f"matrices are capped at n = {MAX_N}, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        limit = 1 << self.n
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")

    @classmethod
    def zeros(cls, n: int) -> "F2Matrix":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_lists(cls, entries) -> "F2Matrix":
        """Build from a list of 0/1 lists (row-major)."""
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(sum((1 << j) for j, v in enumerate(row) if v & 1))
        return cls(n, tuple(rows))

    def is_symmetric(self) -> bool:
        """Every set entry (i, j) has its mirror (j, i) set."""
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                if not (self.rows[low.bit_length() - 1] >> i) & 1:
                    return False
                row ^= low
        return True


def _require_symmetric(m: F2Matrix):
    if not m.is_symmetric():
        raise ValueError("operation requires a symmetric matrix")


def rank(m: F2Matrix) -> int:
    """GF(2) row rank; the input is never modified."""
    return kernels.rank(m.rows, m.n)


def add_diagonal(m: F2Matrix, mask: DiagonalMask) -> F2Matrix:
    """XOR the diagonal with ``mask`` (entry i flips iff bit i of mask is set).

    For the zero-diagonal adjacency matrices this library feeds in, the
    result's diagonal equals the mask.
    """
    _require_symmetric(m)
    if not 0 <= mask < (1 << m.n):
        raise ValueError("diagonal mask does not match the matrix size")
    rows = tuple(m.rows[i] ^ (((mask >> i) & 1) << i) for i in range(m.n))
    return F2Matrix(m.n, rows)


def is_alternating(m: F2Matrix) -> bool:
    """True iff every diagonal entry is zero."""
    return all(((m.rows[i] >> i) & 1) == 0 for i in range(m.n))


def _deadline(budget_s: float | None) -> float | None:
    """The monotonic-clock deadline of a search with ``budget_s`` seconds
    (None: unbounded).  A NaN or negative budget is malformed input."""
    if budget_s is None:
        return None
    if not budget_s >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget_s}")
    return time.monotonic() + budget_s


class Sweep(NamedTuple):
    """The least rank of a zero-diagonal matrix plus a diagonal mask: over
    all masks (geometric) and over the nonzero ones (boolean), each with its
    mask."""

    geometric: int
    geometric_mask: DiagonalMask
    boolean: int
    boolean_mask: DiagonalMask


def minrank_sweep(m: F2Matrix, *, budget_s: float | None = None) -> Sweep:
    """Geometric and boolean minima over the diagonal masks, in one search.

    The geometric value is the least rank(m + D) over all 2^n masks D.  The
    boolean (inner-realizability) value is the least rank over the nonzero
    masks (0 for the zero matrix): a Gram matrix with a nonzero diagonal
    entry and rank r is realizable with the standard scalar product in
    dimension r.  Mask 0 never does better, because an alternating Gram
    matrix of rank r0 > 0 needs r0 + 1 coordinates and a one-vertex mask
    already has rank at most r0 + 1.  The kernel runs once with the cap
    r0 + 2, which every one-vertex mask beats, so it always returns a mask;
    with h its rank, geometric = min(r0, h) and boolean = h.

    Each witness is the first mask in Gray-code order attaining its minimum.
    The geometric one may be mask 0 (Gray position 0); the boolean one is
    nonzero unless the matrix is zero.
    """
    _require_symmetric(m)
    if not is_alternating(m):
        raise ValueError("diagonal sweep expects a zero-diagonal matrix")
    deadline = _deadline(budget_s)
    r0 = rank(m)
    if r0 == 0:
        return Sweep(0, 0, 0, 0)
    h, mask = kernels.diagonal_sweep(m.rows, m.n, r0 + 2, 0, deadline)
    geometric = (r0, 0) if r0 <= h else (h, mask)
    return Sweep(*geometric, h, mask)


def inner_cost_sweep(m: F2Matrix, *, budget_s: float | None = None) -> tuple[int, DiagonalMask]:
    """The boolean half of minrank_sweep: ``(value, mask)``."""
    sweep = minrank_sweep(m, budget_s=budget_s)
    return sweep.boolean, sweep.boolean_mask


# Vectors below are coefficient bitmasks over the standard basis e_0..e_{n-1};
# the bilinear form of a symmetric matrix B evaluates as
# phi(x, y) = parity(x & (B y)).


def _image(m: F2Matrix, y: int) -> int:
    """B y: the XOR of the rows of m that y selects."""
    by = 0
    while y:
        low = y & -y
        by ^= m.rows[low.bit_length() - 1]
        y ^= low
    return by


def form_value(m: F2Matrix, x: int, y: int) -> int:
    """phi(x, y) for the symmetric bilinear form with Gram matrix m."""
    return (x & _image(m, y)).bit_count() & 1
