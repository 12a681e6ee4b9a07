"""Dimension invariants: examples, oracle agreement, and property suites."""

from __future__ import annotations

import random

import pytest

from booldim import dims, f2core
from booldim.dims import (
    TrichotomyCase,
    boolean_dim,
    boolean_dim_oracle,
    dimension_report,
    geometric_dim,
    ind_mod2,
    is_independent_mod2,
    symplectic_dim,
)
from booldim.errors import BudgetExceededError, CapacityError
from booldim.graphs import (
    Graph,
    clique_graph,
    complete_graph,
    cycle_graph,
    ortho_graph,
    ortho_graph_H,
    parse_graph6,
    path_graph,
    realize,
    validate_representation,
)
from conftest import (
    boolean_sum,
    diagonal_rank,
    enumerate_graphs,
    find_duo,
    max_clique_size,
    nonisomorphic_trees,
    plus_diagonal,
    random_graph,
    random_tree,
    vertex_map,
)


def triangle_with_pendants() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


class TestSymplectic:
    def test_complete_graphs(self):
        assert symplectic_dim(complete_graph(4)) == 4
        assert symplectic_dim(complete_graph(5)) == 4
        assert symplectic_dim(complete_graph(3)) == 2

    def test_empty(self):
        assert symplectic_dim(Graph.empty(5)) == 0


class TestGeometric:
    def test_complete_graph_all_ones_witness(self):
        for n in range(2, 8):
            value, mask = geometric_dim(complete_graph(n))
            assert value == 1
            assert mask == (1 << n) - 1

    def test_ortho3(self):
        assert geometric_dim(ortho_graph(3))[0] == 3

    def test_empty(self):
        assert geometric_dim(Graph.empty(4)) == (0, 0)

    def test_witness_attains_minimum(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            value, mask = geometric_dim(g)
            assert diagonal_rank(g, mask) == value

    def test_cap(self, monkeypatch):
        # Isolated vertices do not count against the cap.
        assert geometric_dim(Graph.empty(dims.DEFAULT_SWEEP_CAP + 1)) == (0, 0)
        # It is checked before any search: sweeping a 27-vertex path would
        # take about a minute.
        monkeypatch.setattr(f2core, "minrank_sweep", lambda *a, **k: pytest.fail("swept"))
        with pytest.raises(CapacityError):
            geometric_dim(path_graph(dims.DEFAULT_SWEEP_CAP + 1))


class TestBoolean:
    def test_paths(self):
        for n in range(2, 11):
            assert boolean_dim(path_graph(n))[0] == n - 1

    def test_triangle_with_pendants(self):
        assert boolean_dim(triangle_with_pendants())[0] == 4

    def test_empty(self):
        value, family = boolean_dim(Graph.empty(3))
        assert value == 0 and len(family) == 0

    def test_cycles(self):
        for n in range(5, 11):
            assert boolean_dim(cycle_graph(n))[0] == n - 2
        assert boolean_dim(cycle_graph(3))[0] == 1
        assert boolean_dim(cycle_graph(4))[0] == 2

    def test_witness_realizes_and_validates(self):
        rng = random.Random(1)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 8))
            value, family = boolean_dim(g)
            assert len(family) == value
            assert realize(family).adj == g.adj
            assert validate_representation(g, vertex_map(family))

    def test_isolated_vertices_ignored(self):
        g = path_graph(4)
        padded = Graph.from_edges(7, g.edges())
        assert boolean_dim(padded)[0] == boolean_dim(g)[0]
        assert geometric_dim(padded)[0] == geometric_dim(g)[0]


# Vectors below are coefficient bitmasks over the standard basis e_0..e_{n-1};
# the bilinear form of a symmetric matrix B with bit rows ``m`` evaluates as
# phi(x, y) = parity(x & (B y)).


def image(m, y: int) -> int:
    """B y: the XOR of the rows of m that y selects."""
    by = 0
    while y:
        low = y & -y
        by ^= m[low.bit_length() - 1]
        y ^= low
    return by


def form_value(m, x: int, y: int) -> int:
    """phi(x, y) for the symmetric bilinear form with Gram rows m."""
    return (x & image(m, y)).bit_count() & 1


def gram_schmidt_basis(m) -> list[int]:
    """Reference for witness_family: an orthonormal basis u_1..u_r of the
    form of symmetric non-alternating bit rows m, by Gram-Schmidt on
    coefficient vectors over e_0..e_{n-1}.

    The first vector with phi(v, v) = 1 is taken and every vector that meets
    it is made orthogonal to it.  An alternating rest is split into
    hyperbolic pairs: the first (a, b) in list order with phi(a, b) = 1, then
    every other vector is made orthogonal to both.  Each pair is merged with
    the last basis vector u by the isometry {u, a, b} -> {u+a, u+b, u+a+b}.
    The cliques of witness_family are the images m u_k.
    """
    vectors = [1 << i for i in range(len(m))]
    ortho = []
    while True:
        u = next((v for v in vectors if form_value(m, v, v)), None)
        if u is None:
            break
        vectors.remove(u)
        vectors = [v ^ u if form_value(m, v, u) else v for v in vectors]
        ortho.append(u)
    pairs = []
    while True:
        found = next(
            (
                (i, j)
                for i in range(len(vectors))
                for j in range(i + 1, len(vectors))
                if form_value(m, vectors[i], vectors[j])
            ),
            None,
        )
        if found is None:
            break
        i, j = found
        b = vectors.pop(j)
        a = vectors.pop(i)
        fixed = []
        for x in vectors:
            if form_value(m, x, b):
                x ^= a
            if form_value(m, x, a):
                x ^= b
            fixed.append(x)
        vectors = fixed
        pairs.append((a, b))
    if pairs:
        u = ortho.pop()
        for a, b in pairs:
            ortho.append(u ^ a)
            ortho.append(u ^ b)
            u = u ^ a ^ b
        ortho.append(u)
    return ortho


def reference_cliques(g: Graph, mask: int) -> tuple[int, ...]:
    m = plus_diagonal(g.adj, mask)
    return tuple(image(m, u) for u in gram_schmidt_basis(m))


class TestWitnessFamily:
    def test_clique_k_is_the_odd_overlaps_with_u_k(self):
        # Clique k holds v exactly when row v of A + D meets u_k in an odd
        # number of positions; the rows are built here from the edge list.
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            mask = rng.randrange(1, 1 << n)
            rows = [((mask >> v) & 1) << v for v in range(n)]
            for u, v in g.edges():
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            basis = gram_schmidt_basis(rows)
            expected = tuple(
                sum(1 << v for v in range(n) if bin(rows[v] & u).count("1") % 2)
                for u in basis
            )
            assert dims.witness_family(g, mask).members == expected

    def test_matches_reference_on_every_graph_to_5(self):
        # Every admissible mask, not only the optimal ones, gives rank(A + D)
        # cliques that realize g.  Mask 0 is admissible only without edges.
        for n in range(6):
            for g in enumerate_graphs(n):
                for mask in range(1 if any(g.adj) else 0, 1 << n):
                    family = dims.witness_family(g, mask)
                    assert len(family) == diagonal_rank(g, mask)
                    assert realize(family).adj == g.adj
                    assert family.members == reference_cliques(g, mask)

    def test_hyperbolic_repair(self):
        # Vertex 0 is the only one with a diagonal bit and leaves the
        # hyperbolic plane of the edge 1-2 behind: three cliques by the merge.
        g = Graph.from_edges(3, [(1, 2)])
        family = dims.witness_family(g, 0b001)
        assert family.members == (0b101, 0b011, 0b111) == reference_cliques(g, 0b001)
        assert realize(family).adj == g.adj

    def test_rejects_bad_masks(self):
        for mask in (-1, 1 << 3):
            with pytest.raises(ValueError, match="matrix size"):
                dims.witness_family(path_graph(3), mask)
        # Mask 0 leaves A alternating: no clique family has rank(A) members.
        with pytest.raises(ValueError, match="alternating"):
            dims.witness_family(path_graph(3), 0)
        assert dims.witness_family(Graph.empty(3), 0).members == ()


class TestOracle:
    def test_single_clique(self):
        assert boolean_dim_oracle(complete_graph(3), 2) == 1

    def test_path4(self):
        assert boolean_dim_oracle(path_graph(4), 4) == 3

    def test_empty(self):
        assert boolean_dim_oracle(Graph.empty(4), 2) == 0

    def test_k_max_exceeded_returns_none(self):
        assert boolean_dim_oracle(path_graph(5), 2) is None

    def test_caps(self):
        with pytest.raises(CapacityError):
            boolean_dim_oracle(Graph.empty(7), 2)
        with pytest.raises(CapacityError):
            boolean_dim_oracle(Graph.empty(3), 9)

    def test_agreement_exhaustive_n4(self):
        for g in enumerate_graphs(4):
            value, _ = boolean_dim(g)
            assert boolean_dim_oracle(g, 3) == value

    def test_agreement_random_n6(self):
        # Validation of the rank-sweep formula at the oracle's size cap.
        rng = random.Random(2)
        for _ in range(500):
            g = random_graph(rng, 6, rng.choice([0.2, 0.4, 0.5, 0.6, 0.8]))
            value, _ = boolean_dim(g)
            assert boolean_dim_oracle(g, 5) == value


class TestDimensionReport:
    def test_ortho_h4(self):
        rep = dimension_report(ortho_graph_H(4))
        assert (rep.geometric, rep.symplectic, rep.boolean) == (4, 4, 5)
        assert rep.trichotomy_case is TrichotomyCase.GEO_SYMP_EQ_BOOL_MINUS_1

    def test_tie_case_boolean_witness_is_first_nonzero_mask(self):
        # When boolean = symplectic + 1, mask 0 ties the optimum; the boolean
        # witness is the first nonzero mask in Gray order (mask 1), and its
        # clique factorization realizes the graph.
        for g in (ortho_graph_H(4), parse_graph6("Dvw")):
            core = g.induced([v for v in range(g.n) if g.adj[v]])
            sweep = f2core.minrank_sweep(core)
            assert sweep.boolean == diagonal_rank(core, 0) + 1
            assert sweep.boolean_mask == 1
            family = dimension_report(g).witness_cliques
            assert len(family) == sweep.boolean
            assert realize(family).adj == g.adj

    def test_k5(self):
        rep = dimension_report(complete_graph(5))
        assert (rep.geometric, rep.boolean, rep.symplectic) == (1, 1, 4)
        assert rep.trichotomy_case is TrichotomyCase.GEO_EQ_BOOL_LT_SYMP

    def test_ortho3(self):
        rep = dimension_report(ortho_graph(3))
        assert rep.geometric == rep.boolean == 3
        assert rep.symplectic == symplectic_dim(ortho_graph(3))
        assert rep.inner == rep.boolean

    def test_empty_graph_all_equal(self):
        rep = dimension_report(Graph.empty(2))
        assert rep.trichotomy_case is TrichotomyCase.ALL_EQUAL

    def test_planted_wrong_clique_witness_raises(self, monkeypatch):
        build = dims.witness_family

        def drop_one(g, mask):
            family = build(g, mask)
            return type(family)(family.n, family.members[1:])

        monkeypatch.setattr(dims, "witness_family", drop_one)
        with pytest.raises(AssertionError):
            dimension_report(ortho_graph(3))

    def test_planted_clique_witness_off_by_one_vertex_raises(self, monkeypatch):
        # The right number of cliques, but vertex 0 toggled in the first one:
        # only the realization check can tell.
        build = dims.witness_family

        def flip_vertex_0(g, mask):
            family = build(g, mask)
            return type(family)(family.n, (family.members[0] ^ 1,) + family.members[1:])

        monkeypatch.setattr(dims, "witness_family", flip_vertex_0)
        with pytest.raises(AssertionError, match="does not realize"):
            dimension_report(complete_graph(5))

    def test_planted_wrong_diagonal_witness_raises(self, monkeypatch):
        sweep = f2core.minrank_sweep

        def flip_bit_0(g, **kwargs):
            found = sweep(g, **kwargs)
            return found._replace(geometric_mask=found.geometric_mask ^ 1)

        monkeypatch.setattr(f2core, "minrank_sweep", flip_bit_0)
        with pytest.raises(AssertionError):
            dimension_report(complete_graph(5))


def gray_walk_independent(g: Graph, vertices) -> bool:
    """Brute-force oracle for is_independent_mod2: every nonempty X inside the
    set, walked in Gray-code order so each step is one row XOR, must have its
    fold (the vertices with an odd number of neighbors in X) leave X."""
    vs = sorted(set(vertices))
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


def ind_mod2_brute(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Brute-force oracle for ind_mod2 over all 2^n vertex subsets.

    A set is independent when it is not closed (its fold leaves it) and every
    set with one vertex fewer is independent.  Of the largest independent
    sets it returns the one whose membership tuple along the
    decreasing-degree order (ties by index) is greatest: the first optimum an
    include-first depth-first search meets.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    fold = [0] * (1 << g.n)
    independent = [True] * (1 << g.n)
    best_key, best = (0, ()), 0
    for s in range(1, 1 << g.n):
        low = s & -s
        fold[s] = fold[s ^ low] ^ g.adj[low.bit_length() - 1]
        independent[s] = bool(fold[s] & ~s) and all(
            independent[s ^ (1 << v)] for v in range(g.n) if s >> v & 1
        )
        if independent[s]:
            key = (s.bit_count(), tuple(s >> v & 1 for v in order))
            if key > best_key:
                best_key, best = key, s
    return best_key[0], tuple(v for v in range(g.n) if best >> v & 1)


class TestIndependence:
    def test_path_prefix(self):
        for n in range(2, 9):
            assert is_independent_mod2(path_graph(n), range(n - 1))

    def test_triangle_with_pendants_example(self):
        assert is_independent_mod2(triangle_with_pendants(), [3, 0, 1, 2])

    def test_empty_set(self):
        assert is_independent_mod2(Graph.empty(3), [])

    def test_full_vertex_set_of_single_vertex(self):
        assert not is_independent_mod2(Graph.empty(1), [0])

    def test_ind_paths(self):
        for n in range(2, 10):
            value, witness = ind_mod2(path_graph(n))
            assert value == n - 1
            assert is_independent_mod2(path_graph(n), witness.vertices)

    def test_ind_triangle_with_pendants(self):
        value, witness = ind_mod2(triangle_with_pendants())
        assert value == 4
        assert witness.size == 4

    def test_ind_single_vertex(self):
        assert ind_mod2(Graph.empty(1))[0] == 0

    def test_heredity(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 8))
            _, witness = ind_mod2(g)
            vs = list(witness.vertices)
            for k in range(len(vs)):
                assert is_independent_mod2(g, vs[:k] + vs[k + 1:])

    def test_matches_gray_walk_on_every_subset_n_le_5(self):
        for n in range(6):
            for g in enumerate_graphs(n):
                for s in range(1 << n):
                    vs = [v for v in range(n) if s >> v & 1]
                    assert is_independent_mod2(g, vs) == gray_walk_independent(g, vs)

    def test_search_matches_brute_force(self):
        cases = [g for n in range(6) for g in enumerate_graphs(n)]
        rng = random.Random(8)
        cases += [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(300)]
        cases += [t.graph for n in range(1, 11) for t in nonisomorphic_trees(n)]
        for g in cases:
            value, witness = ind_mod2(g)
            assert (value, witness.vertices) == ind_mod2_brute(g)

    def test_planted_wrong_witness_raises(self, monkeypatch):
        closed = dims._closed_subset

        def include_everything(adj, members, outside, x=0, fold=0):
            # The search's include tests pass x; the witness check does not.
            return False if x else closed(adj, members, outside)

        monkeypatch.setattr(dims, "_closed_subset", include_everything)
        # P6 has rank(A) = rank(A + I) = 6, so the search takes all six
        # vertices, one more than the maximum.
        with pytest.raises(AssertionError):
            ind_mod2(path_graph(6))

    def test_cap(self):
        assert dims.IND_SEARCH_CAP == 20
        with pytest.raises(CapacityError):
            ind_mod2(path_graph(21))

    def test_budget_expires_mid_search(self, clock_jump):
        # This tree takes a few thousand search nodes, so several deadline polls.
        clock = clock_jump(1)
        with pytest.raises(BudgetExceededError):
            ind_mod2(random_tree(random.Random(1), 20), budget_s=3600)
        assert clock.reads == 2


# ---------------------------------------------------------------------------
# Property suites over exhaustive small graphs
# ---------------------------------------------------------------------------


def test_invariants_exhaustive_n_le_6():
    """ind <= geometric, trichotomy holds, even symplectic, over all 6-vertex
    labeled graphs (covers n <= 6 up to isomorphism via isolated padding)."""
    strict = 0
    for g in enumerate_graphs(6):
        rep = dimension_report(g)
        ind_value, _ = ind_mod2(g)
        assert ind_value <= rep.geometric
        if ind_value < rep.geometric:
            strict += 1
        assert rep.symplectic % 2 == 0
    # Whether ind can be strictly below geometric is open; report, never assume.
    print(f"\n[note] graphs on 6 vertices with ind < geometric: {strict} of 32768")


def test_clique_bound_random():
    rng = random.Random(4)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8))
        assert max_clique_size(g) <= symplectic_dim(g) + 1


def test_duo_free_log_lower_bound():
    import math

    for n in range(2, 6):
        for g in enumerate_graphs(n):
            if find_duo(g) is None:
                assert boolean_dim(g)[0] >= math.ceil(math.log2(g.n))


def test_duo_free_witness_injective():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 8))
        if find_duo(g) is not None:
            continue
        checked += 1
        _, family = boolean_dim(g)
        f = vertex_map(family)
        assert validate_representation(g, f)
        values = list(f.values())
        assert len(set(values)) == len(values)
    assert checked > 30


def test_vertex_exponentiation_changes_dim_by_at_most_one():
    # G^x: delete x, XOR a clique on its neighborhood into the rest.
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        x = rng.randrange(n)
        keep = [v for v in range(n) if v != x]
        rest = g.induced(keep)
        nbrs = [keep.index(v) for v in keep if g.has_edge(x, v)]
        gx = boolean_sum([rest, clique_graph(n - 1, nbrs)])
        assert abs(boolean_dim(g)[0] - boolean_dim(gx)[0]) <= 1


def test_budget_exceeded_raises():
    from booldim.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        boolean_dim(ortho_graph_H(4), budget_s=1e-9)


def test_budget_expires_mid_search(clock_jump):
    from booldim.errors import BudgetExceededError

    # A 16-vertex path visits about 27k search nodes, 27 deadline polls.
    clock = clock_jump(3)
    with pytest.raises(BudgetExceededError):
        dimension_report(path_graph(16), budget_s=3600)
    assert clock.reads == 4


def test_realized_family_dim_at_most_family_size():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        k = rng.randint(0, 4)
        from booldim.graphs import CliqueFamily

        members = tuple(rng.getrandbits(n) for _ in range(k))
        fam = CliqueFamily(n, members)
        assert boolean_dim(realize(fam))[0] <= k
