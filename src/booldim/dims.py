"""The four GF(2) dimension invariants of a finite graph.

symplectic = rank of the adjacency matrix; geometric = minimum rank over all
diagonal perturbations; boolean (= inner) = minimum inner-realizability cost
over the same perturbations, where an alternating optimum pays one extra
coordinate.  Every numeric answer ships with a checkable certificate: a
diagonal mask attaining the geometric minimum, and a clique family of size
equal to the boolean dimension whose XOR realizes the graph.  Both are
checked before they are returned.

boolean_dim_oracle is the independent cross-check: direct exhaustive search
over clique families, trusted only because it never shares code with the rank
sweep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from . import f2core
from .errors import CapacityError
from .f2core import F2Matrix
from .graphs import CliqueFamily, Graph, realize, validate_representation

#: The pruned diagonal search still grows exponentially on its worst inputs (a
#: 16-vertex path takes about 33k nodes), so cap it: a stray huge input fails
#: fast instead of running for days.
DEFAULT_SWEEP_CAP = 26

IND_SEARCH_CAP = 16
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


def adjacency_matrix(g: Graph) -> F2Matrix:
    return F2Matrix(g.n, g.adj)


def _isolated_free_core(g: Graph) -> tuple[Graph, list[int]]:
    """Subgraph on the non-isolated vertices, plus the index mapping back."""
    core = [v for v in range(g.n) if g.adj[v]]
    return g.induced(core), core


def _lift_mask(mask: int, core: list[int]) -> int:
    out = 0
    for i, v in enumerate(core):
        if (mask >> i) & 1:
            out |= 1 << v
    return out


def _check_sweep_cap(n: int, cap: int):
    if n > cap:
        raise CapacityError(f"diagonal sweep capped at {cap} non-isolated vertices, got {n}")


def symplectic_dim(g: Graph) -> int:
    """Rank of the adjacency matrix over GF(2)."""
    return f2core.rank(adjacency_matrix(g))


def _core_sweep(g: Graph, cap: int, budget_s: float | None):
    """One diagonal search on the isolated-free core (isolated vertices never
    help), with the core and its vertex mapping back to g."""
    core_g, core = _isolated_free_core(g)
    _check_sweep_cap(core_g.n, cap)
    return core_g, core, f2core.minrank_sweep(adjacency_matrix(core_g), budget_s=budget_s)


def _geometric_witness(g: Graph, core: list[int], sweep: f2core.Sweep) -> int:
    """The geometric mask lifted to g, its rank replayed against the value."""
    mask = _lift_mask(sweep.geometric_mask, core)
    if f2core.rank(f2core.add_diagonal(adjacency_matrix(g), mask)) != sweep.geometric:
        raise AssertionError("diagonal witness does not attain the geometric minimum")
    return mask


def _boolean_witness(g: Graph, core_g: Graph, core: list[int], sweep: f2core.Sweep) -> CliqueFamily:
    """The boolean clique family lifted to g, checked to have the boolean
    value as its size and to realize g."""
    family = witness_family(core_g, sweep.boolean_mask)
    family = CliqueFamily(g.n, tuple(_lift_mask(c, core) for c in family.members))
    if len(family) != sweep.boolean:
        raise AssertionError("clique witness size differs from the boolean dimension")
    if realize(family).adj != g.adj:
        raise AssertionError("clique witness does not realize the graph")
    if not validate_representation(g, family.vertex_map()):
        raise AssertionError("clique witness fails representation validation")
    return family


def geometric_dim(
    g: Graph,
    *,
    cap: int = DEFAULT_SWEEP_CAP,
    budget_s: float | None = None,
) -> tuple[int, int]:
    """Minimum rank over all 2^n diagonal masks, with an achieving mask.

    The witness is the first mask in Gray-code order attaining the minimum.
    """
    _, core, sweep = _core_sweep(g, cap, budget_s)
    return sweep.geometric, _geometric_witness(g, core, sweep)


def boolean_dim(
    g: Graph,
    *,
    cap: int = DEFAULT_SWEEP_CAP,
    budget_s: float | None = None,
) -> tuple[int, CliqueFamily]:
    """Least number of cliques whose XOR is the graph, with a witness family.

    Computed as the minimum inner-realizability cost over diagonal masks (see
    f2core.minrank_sweep); the witness family is read off a factorization
    of the optimal Gram matrix, one clique per coordinate.
    """
    core_g, core, sweep = _core_sweep(g, cap, budget_s)
    return sweep.boolean, _boolean_witness(g, core_g, core, sweep)


def dimension_report(
    g: Graph,
    *,
    cap: int = DEFAULT_SWEEP_CAP,
    budget_s: float | None = None,
) -> DimensionReport:
    """All four dimensions, the trichotomy case, and both witnesses, from one
    diagonal search.  Both witnesses are checked before they are returned."""
    symp = symplectic_dim(g)
    core_g, core, sweep = _core_sweep(g, cap, budget_s)
    geo, diag = sweep.geometric, _geometric_witness(g, core, sweep)
    boo, cliques = sweep.boolean, _boolean_witness(g, core_g, core, sweep)
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
    """Clique family realizing g, read off the Gram matrix A + mask.

    Non-alternating case (mask != 0): vectors f(v) are coordinates against an
    orthonormal basis, giving rank-many cliques C_k = {v : f(v)_k = 1}.
    Alternating case (mask = 0, rank 2m > 0): coordinates against a hyperbolic
    pair basis are re-expressed in an even-weight symplectic basis of a
    (2m+1)-dimensional scalar-product space, giving 2m + 1 cliques.
    """
    m = f2core.add_diagonal(adjacency_matrix(g), mask)
    n = g.n
    if mask != 0:
        basis = f2core.orthonormal_basis(m)
        cliques = [0] * len(basis)
        for v in range(n):
            ev = 1 << v
            for k, u in enumerate(basis):
                if f2core.form_value(m, ev, u):
                    cliques[k] |= ev
        return CliqueFamily(n, tuple(cliques))
    pairs = f2core.symplectic_pairs(m)
    if not pairs:
        return CliqueFamily(n, ())
    dim = 2 * len(pairs) + 1
    hyper = _even_hyperplane_pairs(len(pairs))
    cliques = [0] * dim
    for v in range(n):
        ev = 1 << v
        image = 0
        for (a, b), (alpha, beta) in zip(pairs, hyper):
            if f2core.form_value(m, ev, b):
                image ^= alpha
            if f2core.form_value(m, ev, a):
                image ^= beta
        for j in range(dim):
            if (image >> j) & 1:
                cliques[j] |= ev
    return CliqueFamily(n, tuple(cliques))


def _even_hyperplane_pairs(m: int) -> list[tuple[int, int]]:
    """Symplectic basis, under the scalar product, of the even-weight vectors
    of F2^(2m+1).  Spanning vectors e_i + e_2m are all even weight, and the
    hyperplane misses the all-ones vector, so the restriction is nondegenerate."""
    d = 2 * m + 1
    ident = F2Matrix.identity(d)
    spanning = [(1 << i) | (1 << (d - 1)) for i in range(d - 1)]
    pairs = f2core.symplectic_pairs_in(ident, spanning)
    if len(pairs) != m:  # pragma: no cover - fixed by construction
        raise AssertionError("even-weight hyperplane pairing failed")
    return pairs


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


def is_independent_mod2(g: Graph, vertices) -> bool:
    """True iff every nonempty X inside the set has an outside vertex with an
    odd number of neighbors in X.

    Bitset form: with x the characteristic vector of X, the fold of the
    adjacency rows over X marks the vertices of odd neighborhood intersection;
    the test is a set bit outside x.  Subsets are walked in Gray-code order so
    each step is one row XOR.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if len(vs) > SUBSET_TEST_CAP:
        raise CapacityError(f"independence test capped at sets of {SUBSET_TEST_CAP}")
    fold = 0
    xmask = 0
    prev = 0
    for t in range(1, 1 << len(vs)):
        gray = t ^ (t >> 1)
        toggled = gray ^ prev
        prev = gray
        v = vs[toggled.bit_length() - 1]
        fold ^= g.adj[v]
        xmask ^= 1 << v
        if not fold & ~xmask:
            return False
    return True


def ind_mod2(g: Graph) -> tuple[int, IndWitness]:
    """Maximum size of an independent-mod-2 set, with a witness.

    Depth-first over vertices in decreasing-degree order (ties by index),
    exploiting heredity: every subset of an independent set is independent, so
    a candidate only needs its new subsets (those containing the added vertex)
    checked.  Prunes when the remaining vertices cannot beat the incumbent.
    """
    if g.n > IND_SEARCH_CAP:
        raise CapacityError(f"independence search capped at {IND_SEARCH_CAP} vertices")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best = 0
    best_set: tuple[int, ...] = ()
    subs: list[tuple[int, int]] = [(0, 0)]
    chosen: list[int] = []

    def rec(i: int):
        nonlocal best, best_set
        if len(chosen) + (g.n - i) <= best:
            return
        if i == g.n:
            if len(chosen) > best:
                best = len(chosen)
                best_set = tuple(sorted(chosen))
            return
        v = order[i]
        bit = 1 << v
        row = g.adj[v]
        extension = []
        ok = True
        for xmask, fold in subs:
            xmask2 = xmask | bit
            fold2 = fold ^ row
            if not fold2 & ~xmask2:
                ok = False
                break
            extension.append((xmask2, fold2))
        if ok:
            base = len(subs)
            subs.extend(extension)
            chosen.append(v)
            rec(i + 1)
            chosen.pop()
            del subs[base:]
        rec(i + 1)

    rec(0)
    return best, IndWitness(best_set)
