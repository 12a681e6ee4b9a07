"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7's nine-vertex
case is opt-in: ``pytest -m slow``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from booldim import dims, tournaments, trees
from booldim.dims import (
    boolean_dim,
    boolean_dim_oracle,
    dimension_report,
    ind_mod2,
    symplectic_dim,
)
from booldim.graphs import (
    Graph,
    complete_graph,
    ortho_graph,
    ortho_graph_H,
    path_graph,
    realize,
    validate_representation,
)
from booldim.tournaments import (
    apply_inversions,
    embeds,
    gen_antichain_cn,
    gen_c3_sum,
    inversion_index,
    is_acyclic,
    max_inversion_table,
)
from conftest import (
    all_tournaments_labeled,
    diagonal_rank,
    enumerate_graphs,
    max_clique_size,
    nonisomorphic_trees,
    random_graph,
    random_tournament,
    vertex_map,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def _is_path(g: Graph) -> bool:
    return (
        g.is_connected()
        and sorted(g.degrees()) == [1, 1] + [2] * (g.n - 2)
    )


def test_criterion_1_oracle_equivalence():
    with criterion(1, "boolean_dim equals brute-force oracle, all labeled n=5"):
        checked = 0
        for g in enumerate_graphs(5):
            value, _ = boolean_dim(g)
            assert boolean_dim_oracle(g, 4) == value, g.edges()
            checked += 1
        assert checked == 1 << 10


def test_criterion_2_paths_are_extremal():
    with criterion(2, "paths attain n-1 and are the only graphs doing so, n<=6"):
        for n in range(2, 11):
            assert boolean_dim(path_graph(n))[0] == n - 1
        for n in range(2, 7):
            for g in enumerate_graphs(n):
                if boolean_dim(g)[0] == n - 1:
                    assert _is_path(g), g.edges()


def test_criterion_3_tree_three_way_equality():
    with criterion(3, "ind = boolean = m on all trees up to 9 vertices"):
        counts = []
        for n in range(1, 10):
            reps = list(nonisomorphic_trees(n))
            counts.append(len(reps))
            for tree in reps:
                ind_value, _ = ind_mod2(tree.graph)
                bool_value, _ = boolean_dim(tree.graph)
                star_value, _ = trees.m_star(tree)
                assert ind_value == bool_value == star_value
        # The tree classes come from networkx: 47 at n = 9, 95 in total.
        assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47]
        assert sum(counts) == 95


def test_criterion_4_dimension_examples():
    with criterion(4, "clique/orthogonality-graph dimension table"):
        for n in range(2, 9):
            assert symplectic_dim(complete_graph(n)) == 2 * (n // 2)
        for k in (2, 3, 4):
            rep = dimension_report(ortho_graph(k))
            assert rep.geometric == rep.boolean == k
        rep = dimension_report(ortho_graph_H(4))
        assert rep.geometric == rep.symplectic == 4 and rep.boolean == 5
        rep = dimension_report(ortho_graph_H(2))
        assert rep.geometric == rep.boolean == 1 and rep.symplectic == 2


def test_criterion_5_triangle_with_pendants():
    with criterion(5, "triangle with pendant edges: all three invariants = 4"):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        rep = dimension_report(g)
        ind_value, _ = ind_mod2(g)
        assert ind_value == rep.geometric == rep.boolean == 4


def test_criterion_6_inversion_table():
    with criterion(6, "max inversion index table through n = 6"):
        table = [max_inversion_table(n) for n in range(1, 7)]
        assert table == [0, 0, 1, 1, 2, 2]
        assert table[5] <= 6 - 4


def test_criterion_7_c3_sums_small():
    with criterion(7, "stacked 3-cycles: index equals block count, n <= 2"):
        assert inversion_index(gen_c3_sum(1))[0] == 1
        assert inversion_index(gen_c3_sum(2))[0] == 2


@pytest.mark.slow
def test_criterion_7_c3_sum_three_blocks_slow():
    with criterion(7, "stacked 3-cycles, nine vertices (slow)"):
        value, cert = inversion_index(gen_c3_sum(3), budget_s=3600)
        assert value == 3
        final = apply_inversions(gen_c3_sum(3), cert.subsets)
        assert is_acyclic(final) == cert.order


def test_criterion_8_antichain():
    with criterion(8, "reversed-arc strong paths form an embedding antichain"):
        cs = {n: gen_antichain_cn(n) for n in (7, 8, 9)}
        for m in (7, 8, 9):
            for n in (7, 8, 9):
                if m < n:
                    assert not embeds(cs[m], cs[n])
                    assert not embeds(cs[n], cs[m])


def test_criterion_9_invariant_suites():
    with criterion(9, "invariant suites, exhaustive n<=5 plus 1000 random n<=8"):
        strict = []

        def check_graph(g: Graph):
            rep = dimension_report(g)
            ind_value, witness = ind_mod2(g)
            assert ind_value <= rep.geometric
            if ind_value < rep.geometric:
                strict.append(g)
            assert rep.symplectic % 2 == 0
            assert max_clique_size(g) <= rep.symplectic + 1
            assert dims.is_independent_mod2(g, witness.vertices)
            # Witness re-validation.
            assert len(rep.witness_cliques) == rep.boolean
            assert realize(rep.witness_cliques).adj == g.adj
            assert validate_representation(g, vertex_map(rep.witness_cliques))
            assert diagonal_rank(g, rep.witness_diagonal) == rep.geometric

        for n in range(1, 6):
            for g in enumerate_graphs(n):
                check_graph(g)
        rng = random.Random(2024)
        for _ in range(1000):
            check_graph(random_graph(rng, rng.randint(1, 8), rng.random()))

        def check_replay(t):
            value, cert = inversion_index(t)
            final = apply_inversions(t, cert.subsets)
            assert is_acyclic(final) == cert.order
            assert len(cert.subsets) <= value

        for n in range(1, 5):
            for t in all_tournaments_labeled(n):
                check_replay(t)
        for t in tournaments.enumerate_tournaments(5):
            check_replay(t)
        for _ in range(150):
            check_replay(random_tournament(rng, rng.randint(6, 8)))

        # Whether ind can be strictly below the geometric dimension is open;
        # surface any instance found, but never assume either answer.
        if strict:
            print(f"\n[note] ind < geometric on {len(strict)} instances, e.g. "
                  f"{strict[0].edges()}")


@pytest.mark.slow
def test_strong_path_indices_reported():
    # Open question: is the index of the strong path floor((n-1)/2)?  Computed
    # and printed for the record; nothing asserted beyond the search contract.
    values = {}
    for n in range(1, 10):
        values[n], _ = inversion_index(tournaments.gen_strong_path(n))
    print("\n[note] strong-path inversion indices:",
          {n: v for n, v in values.items()},
          "versus floor((n-1)/2):", {n: (n - 1) // 2 for n in values})
