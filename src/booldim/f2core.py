"""Bit-packed symmetric linear algebra over the two-element field.

Matrices are immutable: n bit-rows packed into Python ints (bit j of row i is
entry (i, j)), capped at n = 64.  This module owns rank computation, diagonal
perturbation, the diagonal-mask search behind the geometric and boolean
dimensions, the orthonormal basis extraction used to build representation
witnesses, and hyperbolic-pair extraction for alternating forms.
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
    return None if budget_s is None else time.monotonic() + budget_s


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
    r0 = rank(m)
    if r0 == 0:
        return Sweep(0, 0, 0, 0)
    h, mask = kernels.diagonal_sweep(m.rows, m.n, r0 + 2, 0, _deadline(budget_s))
    geometric = (r0, 0) if r0 <= h else (h, mask)
    return Sweep(*geometric, h, mask)


def inner_cost_sweep(m: F2Matrix, *, budget_s: float | None = None) -> tuple[int, DiagonalMask]:
    """The boolean half of minrank_sweep: ``(value, mask)``."""
    sweep = minrank_sweep(m, budget_s=budget_s)
    return sweep.boolean, sweep.boolean_mask


# ---------------------------------------------------------------------------
# Basis extraction for representation witnesses
# ---------------------------------------------------------------------------
#
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


def orthonormal_basis(m: F2Matrix) -> list[int]:
    """Orthonormal basis of a complement of the radical of a non-alternating form.

    Returns rank(m) vectors u_k with phi(u_k, u_l) = delta_kl.  Greedy
    extraction of non-isotropic vectors first; if an alternating block is left
    over, each of its hyperbolic pairs (a, b) is merged with one orthonormal
    vector u via the isometry {u, a, b} -> {u+a, u+b, u+a+b}.
    """
    _require_symmetric(m)
    if is_alternating(m) and rank(m) > 0:
        raise ValueError("form is alternating; no orthonormal basis exists")
    vectors = [1 << i for i in range(m.n)]
    ortho: list[int] = []
    while True:
        u = next((v for v in vectors if form_value(m, v, v)), None)
        if u is None:
            break
        vectors.remove(u)
        bu = _image(m, u)
        vectors = [v ^ u if (v & bu).bit_count() & 1 else v for v in vectors]
        ortho.append(u)
    pairs = _extract_pairs(m, vectors)
    if pairs:
        u = ortho.pop()
        for a, b in pairs:
            ortho.append(u ^ a)
            ortho.append(u ^ b)
            u = u ^ a ^ b
        ortho.append(u)
    return ortho


def symplectic_pairs(m: F2Matrix) -> list[tuple[int, int]]:
    """Hyperbolic pairs (a_k, b_k) spanning a complement of the radical.

    Requires an alternating form; phi(a_k, b_k) = 1 and all other products
    among the returned vectors vanish, so rank(m) = 2 * len(pairs).
    """
    _require_symmetric(m)
    if not is_alternating(m):
        raise ValueError("symplectic pair extraction expects a zero diagonal")
    return _extract_pairs(m, [1 << i for i in range(m.n)])


def _first_pair(m, vectors):
    """The first (i, j), i < j, with phi(vectors[i], vectors[j]) = 1, or None."""
    for i, a in enumerate(vectors):
        ba = _image(m, a)
        for j in range(i + 1, len(vectors)):
            if (vectors[j] & ba).bit_count() & 1:
                return i, j
    return None


def _extract_pairs(m, vectors):
    """Split off hyperbolic pairs: the first (a, b) in list order with
    phi(a, b) = 1, then every other vector is made orthogonal to both."""
    pairs = []
    vectors = list(vectors)
    while True:
        found = _first_pair(m, vectors)
        if found is None:
            return pairs
        i, j = found
        b = vectors.pop(j)
        a = vectors.pop(i)
        ba, bb = _image(m, a), _image(m, b)
        fixed = []
        for x in vectors:
            if (x & bb).bit_count() & 1:
                x ^= a
            if (x & ba).bit_count() & 1:
                x ^= b
            fixed.append(x)
        vectors = fixed
        pairs.append((a, b))
