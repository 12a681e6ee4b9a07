"""The four GF(2) dimension invariants of a finite graph.

symplectic = rank of the adjacency matrix; geometric = minimum rank over all
diagonal perturbations; boolean (= inner) = minimum rank over the nonzero
diagonal perturbations (0 for a graph without edges).  Every numeric answer
ships with a checkable certificate: a diagonal mask attaining the geometric
minimum, and a clique family of size equal to the boolean dimension whose
XOR realizes the graph.  Both are checked before they are returned.

boolean_dim_oracle is the independent cross-check: direct exhaustive search
over clique families, trusted only because it never shares code with the rank
sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from . import _kernels_py as kernels
from . import f2core
from .errors import CapacityError
from .graphs import CliqueFamily, Graph, _vertex_mask, realize, set_bits

#: The pruned diagonal search still grows exponentially on its worst inputs (a
#: 16-vertex path takes about 27k nodes), so cap it: a stray huge input fails
#: fast instead of running for days.
DEFAULT_SWEEP_CAP = 26

IND_SEARCH_CAP = 20
SUBSET_TEST_CAP = 20
ORACLE_VERTEX_CAP = 6
ORACLE_FAMILY_CAP = 5


class TrichotomyCase(enum.Enum):
    """Which of the three dimension relations a graph satisfies."""

    ALL_EQUAL = "all-equal"
    GEO_SYMP_EQ_BOOL_MINUS_1 = "geo-symp-eq-bool-minus-1"
    GEO_EQ_BOOL_LT_SYMP = "geo-eq-bool-lt-symp"


@dataclass(frozen=True)
class DimensionReport:
    symplectic: int
    geometric: int
    boolean: int
    inner: int
    trichotomy_case: TrichotomyCase
    witness_diagonal: int
    witness_cliques: CliqueFamily

    def __post_init__(self):
        if self.inner != self.boolean:
            raise ValueError("inner dimension must equal the boolean dimension")
        if self.geometric > min(self.boolean, self.symplectic):
            raise ValueError("geometric dimension exceeds boolean or symplectic")
        if self.symplectic % 2:
            raise ValueError("symplectic dimension must be even")


@dataclass(frozen=True)
class IndWitness:
    """A maximum independent-mod-2 vertex set."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def symplectic_dim(g: Graph) -> int:
    """Rank of the adjacency matrix over GF(2)."""
    return kernels.rank(g.adj, g.n)


def _plus_diagonal(g: Graph, mask: int) -> list[int]:
    """The bit rows of A + D, D the diagonal whose entry (v, v) is bit v of
    ``mask``."""
    return [row | (mask & (1 << v)) for v, row in enumerate(g.adj)]


def geometric_dim(g: Graph, *, budget_s: float | None = None) -> tuple[int, int]:
    """Minimum rank over all 2^n diagonal masks, with an achieving mask: the
    first mask in Gray-code order attaining the minimum.  A view of
    dimension_report, which checks the mask."""
    report = dimension_report(g, budget_s=budget_s)
    return report.geometric, report.witness_diagonal


def boolean_dim(g: Graph, *, budget_s: float | None = None) -> tuple[int, CliqueFamily]:
    """Least number of cliques whose XOR is the graph, with a witness family.

    Computed as the least rank over the nonzero diagonal masks (see
    f2core.minrank_sweep); the witness family is read off a factorization
    A + D = M^T M of the optimal Gram matrix (see witness_family), one clique
    per row of M.  A view of dimension_report, which checks the family.
    """
    report = dimension_report(g, budget_s=budget_s)
    return report.boolean, report.witness_cliques


def dimension_report(g: Graph, *, budget_s: float | None = None) -> DimensionReport:
    """All four dimensions, the trichotomy case, and both witnesses, from one
    diagonal search on the non-isolated vertices (isolated ones never help; a
    core of more than DEFAULT_SWEEP_CAP vertices is refused before it starts).
    Both witnesses are lifted back to g and checked before they are returned:
    the mask by replaying its rank, the clique family by its size and by
    realizing g (isolated vertices have zero rows, so no clique meets them).
    """
    core = [v for v in range(g.n) if g.adj[v]]
    if len(core) > DEFAULT_SWEEP_CAP:
        raise CapacityError(
            f"diagonal sweep capped at {DEFAULT_SWEEP_CAP} non-isolated vertices, got {len(core)}"
        )
    sweep = f2core.minrank_sweep(g.induced(core), budget_s=budget_s)
    geo, boo = sweep.geometric, sweep.boolean
    diag = sum(1 << core[i] for i in set_bits(sweep.geometric_mask))
    if kernels.rank(_plus_diagonal(g, diag), g.n) != geo:
        raise AssertionError("diagonal witness does not attain the geometric minimum")
    cliques = witness_family(g, sum(1 << core[i] for i in set_bits(sweep.boolean_mask)))
    if len(cliques) != boo:
        raise AssertionError("clique witness size differs from the boolean dimension")
    if realize(cliques).adj != g.adj:
        raise AssertionError("clique witness does not realize the graph")
    symp = symplectic_dim(g)
    if geo == boo == symp:
        case = TrichotomyCase.ALL_EQUAL
    elif geo == symp == boo - 1:
        case = TrichotomyCase.GEO_SYMP_EQ_BOOL_MINUS_1
    elif geo == boo < symp:
        case = TrichotomyCase.GEO_EQ_BOOL_LT_SYMP
    else:  # pragma: no cover - would contradict the sweep definitions
        raise AssertionError(f"trichotomy violated: geo={geo} symp={symp} bool={boo}")
    return DimensionReport(
        symplectic=symp,
        geometric=geo,
        boolean=boo,
        inner=boo,
        trichotomy_case=case,
        witness_diagonal=diag,
        witness_cliques=cliques,
    )


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


def witness_family(g: Graph, mask: int) -> CliqueFamily:
    """Clique family realizing g: a factorization B = M^T M over GF(2) of
    B = A + mask with rank(B) rows, one clique per row (Lempel, SIAM J.
    Comput. 4, 1975).

    A symmetric elimination on the bit rows of B.  While some row v has its
    diagonal bit (the least such v), its row c is a clique, and B + c c^T,
    one rank lower, XORs c into every row w in c.  The alternating rest is
    split into pairs: for the least nonzero row a and the least bit b of it,
    r_a goes into every row with bit b and r_b into every row with bit a,
    which zeroes rows a and b and keeps (r_a, r_b).  Each pair is merged
    with the last clique u as u + r_a, u + r_b and then u + r_a + r_b: the
    isometry {u, a, b} -> {u + a, u + b, u + a + b} turns one orthonormal
    vector and a hyperbolic pair into three orthonormal vectors.

    The mask must lie in 0..2^n - 1 and be nonzero unless g has no edges:
    an alternating nonzero B has no such factorization.
    """
    if not 0 <= mask < (1 << g.n):
        raise ValueError("diagonal mask does not match the matrix size")
    if not mask and any(g.adj):
        raise ValueError("A + D is alternating for mask 0; no clique family factors it")
    rows = _plus_diagonal(g, mask)
    cliques = []
    diagonal = mask  # bit v is the diagonal entry of row v
    while diagonal:
        c = rows[(diagonal & -diagonal).bit_length() - 1]
        cliques.append(c)
        # Each w in c flips its diagonal bit, and the pivot's row becomes 0.
        diagonal ^= c
        for w in set_bits(c):
            rows[w] ^= c
    pairs = []
    for a in range(g.n):
        ra = rows[a]
        if ra:
            rb = rows[(ra & -ra).bit_length() - 1]
            # By symmetry the rows with bit b are the bits of r_b, and those
            # with bit a the bits of r_a, both read before the update.
            for x in set_bits(rb):
                rows[x] ^= ra
            for x in set_bits(ra):
                rows[x] ^= rb
            pairs.append((ra, rb))
    if pairs:
        u = cliques.pop()
        for ra, rb in pairs:
            cliques += (u ^ ra, u ^ rb)
            u ^= ra ^ rb
        cliques.append(u)
    return CliqueFamily(g.n, tuple(cliques))


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------


def boolean_dim_oracle(g: Graph, k_max: int) -> int | None:
    """Least k <= k_max such that some family of k vertex subsets realizes g.

    Direct search: subsets with at least two vertices, enumerated as strictly
    increasing code sequences (repeats cancel in a XOR and smaller subsets add
    nothing, so this ordering loses no family).  Returns None when every
    family up to k_max fails.
    """
    if g.n > ORACLE_VERTEX_CAP:
        raise CapacityError(f"oracle search capped at {ORACLE_VERTEX_CAP} vertices")
    if k_max > ORACLE_FAMILY_CAP:
        raise CapacityError(f"oracle search capped at families of {ORACLE_FAMILY_CAP}")
    pairs = list(combinations(range(g.n), 2))
    index = {pair: t for t, pair in enumerate(pairs)}

    def edge_mask_of(subset: int) -> int:
        out = 0
        vs = [v for v in range(g.n) if (subset >> v) & 1]
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                out |= 1 << index[(vs[a], vs[b])]
        return out

    target = 0
    for u, v in g.edges():
        target |= 1 << index[(u, v)]
    subsets = [s for s in range(1 << g.n) if s.bit_count() >= 2]
    masks = [edge_mask_of(s) for s in subsets]

    def search(k: int, start: int, remaining: int) -> bool:
        if k == 0:
            return remaining == 0
        for idx in range(start, len(masks) - k + 1):
            if search(k - 1, idx + 1, remaining ^ masks[idx]):
                return True
        return False

    for k in range(k_max + 1):
        if search(k, 0, target):
            return k
    return None


# ---------------------------------------------------------------------------
# Independence mod 2
# ---------------------------------------------------------------------------


def _closed_subset(adj, members, outside: int, x: int = 0, fold: int = 0) -> bool:
    """True iff some nonempty X = x ^ Y, Y inside ``members``, has its fold
    (XOR of the rows over X; ``fold`` is x's) inside X.  With x and the members
    off ``outside``, that needs fold(X) & outside == 0, linear in Y: only its
    solutions, one Y plus the kernel's span, are walked in Gray-code order."""
    basis, kernel = [], []  # basis: (pivot bit, vector, combination, fold)
    for u in members:
        c, y, f = adj[u] & outside, 1 << u, adj[u]
        for pivot, bc, by, bf in basis:
            if c & pivot:
                c, y, f = c ^ bc, y ^ by, f ^ bf
        if c:
            basis.append((c & -c, c, y, f))
        else:
            kernel.append((y, f))
    c = fold & outside
    for pivot, bc, by, bf in basis:
        if c & pivot:
            c, x, fold = c ^ bc, x ^ by, fold ^ bf
    if c:  # off the span: no Y solves the system
        return False
    if x and not fold & ~x:
        return True
    for t in range(1, 1 << len(kernel)):
        y, f = kernel[(t & -t).bit_length() - 1]
        x, fold = x ^ y, fold ^ f
        if not fold & ~x:
            return True
    return False


def is_independent_mod2(g: Graph, vertices) -> bool:
    """True iff every nonempty X inside the set has an outside vertex with an
    odd number of neighbors in X.

    Bitset form: the fold of the adjacency rows over X marks the vertices of
    odd neighborhood intersection, and X fails when its fold lies inside X.
    Only the X whose fold is even on every vertex outside the set can fail,
    so only those are tested.  ind_mod2 checks its witness with this test.
    """
    mask = _vertex_mask(g.n, vertices)
    if mask.bit_count() > SUBSET_TEST_CAP:
        raise CapacityError(f"independence test capped at sets of {SUBSET_TEST_CAP}")
    return not _closed_subset(g.adj, set_bits(mask), ~mask)


def ind_mod2(g: Graph, *, budget_s: float | None = None) -> tuple[int, IndWitness]:
    """Maximum size of an independent-mod-2 set, with a checked witness: the
    first largest set of an include-first search over the vertices by
    decreasing degree (ties by index), the one lexicographically greatest in
    that order.  By heredity an include only tests the subsets with the new
    vertex.  A nonzero x inside an independent S with (A + D)x = 0 would have
    fold(x) = Dx inside x, so the search stops at min(rank A, rank(A + I)) and
    cuts a branch whose chosen and remaining columns of A have rank too low to
    beat the incumbent.  The deadline is polled at the first node and every
    1024 nodes."""
    if g.n > IND_SEARCH_CAP:
        raise CapacityError(f"independence search capped at {IND_SEARCH_CAP} vertices")
    deadline = f2core._deadline(budget_s)
    shifted = [row ^ (1 << v) for v, row in enumerate(g.adj)]
    bound = min(kernels.rank(g.adj, g.n), kernels.rank(shifted, g.n))
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    nodes = 0

    def rec(i: int, members: int):
        nonlocal best, nodes
        if not nodes & kernels._CHECK_MASK:
            kernels._check_deadline(deadline)
        nodes += 1
        if i == g.n:
            best = tuple(sorted(chosen))
            return
        v = order[i]
        bit = 1 << v
        if not _closed_subset(g.adj, chosen, ~(members | bit), bit, g.adj[v]):
            chosen.append(v)
            rec(i + 1, members | bit)
            chosen.pop()
        rest = order[i + 1:]
        if len(best) < bound and len(chosen) + len(rest) > len(best):
            if kernels.rank([g.adj[u] for u in chosen + rest], g.n) > len(best):
                rec(i + 1, members)

    rec(0, 0)
    if not is_independent_mod2(g, best):
        raise AssertionError("independence witness is not independent mod 2")
    return len(best), IndWitness(best)
