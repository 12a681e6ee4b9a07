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
from booldim.errors import CapacityError
from booldim.graphs import (
    Graph,
    boolean_sum,
    clique_graph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    find_duo,
    ortho_graph,
    ortho_graph_H,
    path_graph,
    realize,
    validate_representation,
)
from conftest import random_graph


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
            m = f2core.add_diagonal(dims.adjacency_matrix(g), mask)
            assert f2core.rank(m) == value

    def test_cap(self):
        with pytest.raises(CapacityError):
            geometric_dim(complete_graph(10), cap=8)


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
            assert validate_representation(g, family.vertex_map())

    def test_isolated_vertices_ignored(self):
        g = path_graph(4)
        padded = Graph.from_edges(7, g.edges())
        assert boolean_dim(padded)[0] == boolean_dim(g)[0]
        assert geometric_dim(padded)[0] == geometric_dim(g)[0]


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

    def test_planted_wrong_diagonal_witness_raises(self, monkeypatch):
        sweep = f2core.minrank_sweep

        def flip_bit_0(m, **kwargs):
            found = sweep(m, **kwargs)
            return found._replace(geometric_mask=found.geometric_mask ^ 1)

        monkeypatch.setattr(f2core, "minrank_sweep", flip_bit_0)
        with pytest.raises(AssertionError):
            dimension_report(complete_graph(5))


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
    from booldim.graphs import max_clique_size

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
        f = family.vertex_map()
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

    # A 16-vertex path visits about 33k search nodes, 32 deadline polls.
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
