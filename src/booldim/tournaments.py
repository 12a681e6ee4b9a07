"""Tournaments, subset inversions, and the exact inversion index.

A tournament on 0..n-1 keeps one bit-row per vertex (bit j of arcs[i] set iff
the arc runs i -> j).  The inversion index is the least number of vertex
subsets whose successive inversions make the tournament acyclic; it equals
the minimum, over target orders, of the boolean dimension of the disagreement
graph (the pairs whose arc opposes the order), because XOR-ing a clique
family into the tournament is the same as inverting its subsets.  The search
therefore sweeps (order, diagonal mask) jointly with branch-and-bound, and
turns the optimal clique family straight into an inversion certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from . import _kernels_py as kernels
from . import dims, f2core
from ._parallel import run_tasks
from .errors import CapacityError, FormatError
from .graphs import Graph, _check_rows, _check_size, _vertex_mask, set_bits

INDEX_VERTEX_CAP = 9
ORACLE_VERTEX_CAP = 5
ORACLE_LENGTH_CAP = 2
EMBEDS_VERTEX_CAP = 10
ENUM_VERTEX_CAP = 7
TABLE_VERTEX_CAP = 6


@dataclass(frozen=True)
class Tournament:
    """Complete antisymmetric orientation on 0..n-1."""

    n: int
    arcs: tuple[int, ...]

    def __post_init__(self):
        _check_rows(self.n, self.arcs, "tournaments", "self-arc")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.arcs[i] >> j) & 1 == (self.arcs[j] >> i) & 1:
                    raise ValueError(f"pair ({i}, {j}) needs exactly one arc")

    @classmethod
    def from_order(cls, order) -> "Tournament":
        """Acyclic tournament whose arcs follow the given vertex order: each
        vertex beats the vertices after it."""
        order = list(order)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the vertex set")
        arcs = [0] * n
        after = (1 << n) - 1
        for v in order:
            after ^= 1 << v
            arcs[v] = after
        return cls(n, tuple(arcs))

    @classmethod
    def acyclic(cls, n: int) -> "Tournament":
        _check_size(n, "tournaments")
        return cls.from_order(range(n))

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.arcs[u] >> v) & 1)

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.arcs)

    @classmethod
    def from_text(cls, text: str) -> "Tournament":
        """Parse the text format: first line n, then n rows of n 0/1 characters."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty tournament input")
        try:
            n = int(lines[0])
        except ValueError:
            raise FormatError(f"first line must be the vertex count, got {lines[0]!r}") from None
        if len(lines) != n + 1:
            raise FormatError(f"expected {n} matrix rows, got {len(lines) - 1}")
        arcs = []
        for i, line in enumerate(lines[1:]):
            if len(line) != n or set(line) - {"0", "1"}:
                raise FormatError(f"row {i} must be {n} characters of 0/1, got {line!r}")
            arcs.append(sum(1 << j for j, c in enumerate(line) if c == "1"))
        try:
            return cls(n, tuple(arcs))
        except ValueError as exc:
            raise FormatError(f"invalid tournament matrix: {exc}") from None

    def to_text(self) -> str:
        rows = [
            "".join("1" if (self.arcs[i] >> j) & 1 else "0" for j in range(self.n))
            for i in range(self.n)
        ]
        return "\n".join([str(self.n)] + rows) + "\n"


@dataclass(frozen=True)
class InversionCertificate:
    """Subset sequence reaching an acyclic tournament with the stored order."""

    subsets: tuple[int, ...]
    order: tuple[int, ...]


# ---------------------------------------------------------------------------
# Inversions
# ---------------------------------------------------------------------------


def invert(t: Tournament, vertices) -> Tournament:
    """Reverse every arc with both endpoints in the given set S."""
    return apply_inversions(t, [vertices])


def apply_inversions(t: Tournament, subsets) -> Tournament:
    """Invert the subsets in sequence (an arc flips iff it lies in an odd
    number): row u of each u in a subset S flips on S minus u.  A subset is a
    vertex iterable or a bitmask; a vertex or mask bit outside 0..n-1, or a
    negative mask, is refused."""
    arcs = list(t.arcs)
    for subset in subsets:
        if isinstance(subset, int):
            if not 0 <= subset < 1 << t.n:
                raise ValueError(f"subset mask {subset} has vertices outside 0..{t.n - 1}")
            mask = subset
        else:
            mask = _vertex_mask(t.n, subset)
        for u in set_bits(mask):
            arcs[u] ^= mask ^ (1 << u)
    return Tournament(t.n, tuple(arcs))


def is_acyclic(t: Tournament) -> tuple[int, ...] | None:
    """The topological order when one exists, else None.

    A tournament is acyclic exactly when its out-degrees are pairwise distinct
    (n-1 down to 0); the order lists vertices by decreasing out-degree.
    """
    degs = t.out_degrees()
    if sorted(degs, reverse=True) != list(range(t.n - 1, -1, -1)):
        return None
    return tuple(sorted(range(t.n), key=lambda v: -degs[v]))


def disagreement_graph(t: Tournament, order) -> Graph:
    """Graph of pairs whose arc opposes the order; XOR-ing it into the
    tournament yields the acyclic tournament sorted by the order, so each
    row is the XOR of the two tournaments' rows."""
    order = list(order)
    if sorted(order) != list(range(t.n)):
        raise ValueError("order must be a permutation of the vertex set")
    target = Tournament.from_order(order)
    return Graph(t.n, tuple(a ^ b for a, b in zip(t.arcs, target.arcs)))


# ---------------------------------------------------------------------------
# Inversion index
# ---------------------------------------------------------------------------


def inversion_index(
    t: Tournament,
    *,
    budget_s: float | None = None,
) -> tuple[int, InversionCertificate]:
    """Exact inversion index with a replay-checked certificate.

    Minimum over all target orders of the boolean cost of the disagreement
    graph; the winning order is the lexicographically first one attaining the
    minimum, and the certificate subsets are the witness cliques of the
    optimal graph, exactly as many as the index (a clique under two vertices
    inverts nothing, so an optimal family has none).
    """
    if t.n > INDEX_VERTEX_CAP:
        raise CapacityError(f"inversion index search capped at {INDEX_VERTEX_CAP} vertices")
    deadline = f2core._deadline(budget_s)
    order = is_acyclic(t)
    if order is not None:
        return 0, InversionCertificate((), order)
    value, order, mask = kernels.inversion_search(t.arcs, t.n, deadline)
    return value, _certificate(t, value, order, mask)


def _certificate(t: Tournament, value: int, order, mask: int) -> InversionCertificate:
    subsets = dims.witness_family(disagreement_graph(t, order), mask).members
    if len(subsets) != value:
        raise AssertionError(f"certificate length {len(subsets)} differs from the index {value}")
    if is_acyclic(apply_inversions(t, subsets)) != tuple(order):  # pragma: no cover
        raise AssertionError("certificate replay did not reach the target order")
    return InversionCertificate(subsets, tuple(order))


def inversion_index_oracle(t: Tournament, m_max: int) -> int | None:
    """Direct search over subset sequences, the independent cross-check.

    Only the parity of membership matters, so sequences reduce to sets of
    distinct subsets, and subsets with under two vertices invert nothing;
    enumeration covers exactly the families of size >= 2 subsets.  Returns the
    least length <= m_max reaching an acyclic tournament, else None.
    """
    if t.n > ORACLE_VERTEX_CAP:
        raise CapacityError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices")
    if m_max > ORACLE_LENGTH_CAP:
        raise CapacityError(f"oracle capped at sequences of {ORACLE_LENGTH_CAP}")
    usable = [s for s in range(1 << t.n) if s.bit_count() >= 2]
    for m in range(m_max + 1):
        for combo in combinations(usable, m):
            if is_acyclic(apply_inversions(t, combo)) is not None:
                return m
    return None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def gen_c3_sum(n: int) -> Tournament:
    """n stacked 3-cycles: block i is a 3-cycle on {3i, 3i+1, 3i+2}, and every
    vertex of block i beats every vertex of block j for i < j."""
    if n < 1:
        raise ValueError("need at least one block")
    size = 3 * n
    _check_size(size, "tournaments")
    arcs = [0] * size
    for i in range(n):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        later = (1 << size) - (1 << (c + 1))
        arcs[a] = later | 1 << b
        arcs[b] = later | 1 << c
        arcs[c] = later | 1 << a
    return Tournament(size, tuple(arcs))


def gen_strong_path(n: int) -> Tournament:
    """Forward arcs (i, i+1) plus every back arc (j, i) with j > i + 1."""
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_size(n, "tournaments")
    arcs = [0] * n
    for i in range(n - 1):
        arcs[i] |= 1 << (i + 1)
    for i in range(n):
        for j in range(i + 2, n):
            arcs[j] |= 1 << i
    return Tournament(n, tuple(arcs))


def gen_antichain_cn(n: int) -> Tournament:
    """The strong path with the arc between n-1 and 0 reversed."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return invert(gen_strong_path(n), [0, n - 1])


# ---------------------------------------------------------------------------
# Embedding and enumeration
# ---------------------------------------------------------------------------


def embeds(pattern: Tournament, host: Tournament) -> bool:
    """True iff some induced subtournament of host is isomorphic to pattern.

    Pattern vertices are mapped in order, each to an unused host vertex w in
    increasing order.  With ``placed`` the mask of the images so far, w can
    be the image of vertex i when ``host.arcs[w] & placed`` is the mask of
    the images of the earlier vertices that i beats, and its out-degree lies
    between i's and i's plus the host vertices the pattern leaves out.
    """
    if host.n > EMBEDS_VERTEX_CAP:
        raise CapacityError(f"embedding search capped at {EMBEDS_VERTEX_CAP} vertices")
    if pattern.n > host.n:
        return False
    p_out = pattern.out_degrees()
    h_out = host.out_degrees()
    spare = host.n - pattern.n
    images = [0] * pattern.n  # one bit per placed image

    def rec(i: int, placed: int) -> bool:
        if i == pattern.n:
            return True
        beats = sum(images[j] for j in set_bits(pattern.arcs[i] & ((1 << i) - 1)))
        for w in range(host.n):
            if (
                not (placed >> w) & 1
                and p_out[i] <= h_out[w] <= p_out[i] + spare
                and host.arcs[w] & placed == beats
            ):
                images[i] = 1 << w
                if rec(i + 1, placed | images[i]):
                    return True
        return False

    return rec(0, 0)


def canonical_form(t: Tournament) -> Tournament:
    """Representative with the lexicographically least arc-matrix bit-string
    over all relabelings (rows read entry (i, j) with j ascending)."""
    if t.n > ENUM_VERTEX_CAP:
        raise CapacityError(f"canonicalization capped at {ENUM_VERTEX_CAP} vertices")
    return Tournament(t.n, tuple(kernels.canon_tournament(t.arcs, t.n)))


def enumerate_tournaments(n: int) -> list[Tournament]:
    """All tournaments on n vertices up to isomorphism (canonical reps).

    Grown one vertex at a time: every tournament restricts to one on n - 1
    vertices, so extending each (n-1)-representative by all 2^(n-1) arc
    patterns and deduplicating canonically reaches every class.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > ENUM_VERTEX_CAP:
        raise CapacityError(f"enumeration capped at {ENUM_VERTEX_CAP} vertices")
    reps = [(0,)]
    for size in range(2, n + 1):
        seen = set()
        new = size - 1
        for arcs in reps:
            for pattern in range(1 << new):  # bit j: the new vertex beats j
                grown = tuple(row | ((~pattern >> j) & 1) << new for j, row in enumerate(arcs))
                seen.add(kernels.canon_tournament(grown + (pattern,), size))
        reps = sorted(seen)
    return [Tournament(n, arcs) for arcs in reps]


def inversion_table(
    n: int,
    *,
    budget_s: float | None = None,
    index_cache=None,
) -> list[tuple[Tournament, int]]:
    """Inversion index of every tournament on n vertices up to isomorphism.

    Returns (canonical representative, index) per class, in enumeration
    order; i(n) is the largest index.  ``index_cache`` (any mutable mapping
    from tournament text to int) lets callers persist per-class results
    between runs: each class is looked up once, the classes it lacks are
    computed in one ``run_tasks`` batch, in enumeration order, and written
    back.  For n >= 6 the maximum is checked against the proven window
    ceil((n-1)/2 - log2 n) <= i(n) <= n - 4.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > TABLE_VERTEX_CAP:
        raise CapacityError(f"table sweep capped at {TABLE_VERTEX_CAP} vertices")
    f2core._deadline(budget_s)  # a malformed budget fails even on a full cache
    cache = {} if index_cache is None else index_cache
    reps = enumerate_tournaments(n)
    keys = [rep.to_text() for rep in reps]
    values = [int(cache[key]) if key in cache else None for key in keys]
    missing = [i for i, value in enumerate(values) if value is None]
    tasks = [partial(inversion_index, reps[i], budget_s=budget_s) for i in missing]
    for i, (value, _) in zip(missing, run_tasks(tasks)):
        values[i] = cache[keys[i]] = value
    result = max(values)
    if n >= 6:
        low = math.ceil((n - 1) / 2 - math.log2(n))
        if not low <= result <= n - 4:
            raise AssertionError(f"i({n}) = {result} escapes the proven window")
    return list(zip(reps, values))
