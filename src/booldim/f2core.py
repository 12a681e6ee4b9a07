"""The diagonal-mask search behind the geometric and boolean dimensions, and
the deadlines of every budgeted search.

A graph's adjacency matrix A is its bit rows (bit j of ``g.adj[i]`` is entry
(i, j)); ``Graph`` guarantees on construction that A is symmetric with a zero
diagonal, so nothing here checks it again.  A diagonal mask is an int whose
bit i is entry (i, i) of D in A + D.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import _kernels_py as kernels
from .graphs import Graph


def _deadline(budget_s: float | None) -> float | None:
    """The monotonic-clock deadline of a search with ``budget_s`` seconds
    (None: unbounded).  A NaN or negative budget is malformed input."""
    if budget_s is None:
        return None
    if not budget_s >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget_s}")
    return time.monotonic() + budget_s


class Sweep(NamedTuple):
    """The least rank of A + D: over all diagonal masks D (geometric) and
    over the nonzero ones (boolean), each with its mask."""

    geometric: int
    geometric_mask: int
    boolean: int
    boolean_mask: int


def minrank_sweep(g: Graph, *, budget_s: float | None = None) -> Sweep:
    """Geometric and boolean minima over the diagonal masks of g's adjacency
    matrix A, in one search.

    The geometric value is the least rank(A + D) over all 2^n masks D.  The
    boolean (inner-realizability) value is the least rank over the nonzero
    masks (0 for a graph without edges): a Gram matrix with a nonzero
    diagonal entry and rank r is realizable with the standard scalar product
    in dimension r.  Mask 0 never does better, because an alternating Gram
    matrix of rank r0 > 0 needs r0 + 1 coordinates and a one-vertex mask
    already has rank at most r0 + 1.  The kernel runs once on the bit rows
    with the cap r0 + 2, which every one-vertex mask beats, so it always
    returns a mask; with h its rank, geometric = min(r0, h) and boolean = h.

    Each witness is the first mask in Gray-code order attaining its minimum.
    The geometric one may be mask 0 (Gray position 0); the boolean one is
    nonzero unless g has no edges.
    """
    deadline = _deadline(budget_s)
    r0 = kernels.rank(g.adj, g.n)
    if r0 == 0:
        return Sweep(0, 0, 0, 0)
    h, mask = kernels.diagonal_sweep(g.adj, g.n, r0 + 2, 0, deadline)
    geometric = (r0, 0) if r0 <= h else (h, mask)
    return Sweep(*geometric, h, mask)


def inner_cost_sweep(g: Graph, *, budget_s: float | None = None) -> tuple[int, int]:
    """The boolean half of minrank_sweep: ``(value, mask)``."""
    sweep = minrank_sweep(g, budget_s=budget_s)
    return sweep.boolean, sweep.boolean_mask
