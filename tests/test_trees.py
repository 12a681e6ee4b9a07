"""Tree reductions, star decompositions, and the three-way equality."""

from __future__ import annotations

import random
from itertools import product

import networkx as nx
import pytest

from booldim import trees
from booldim.dims import boolean_dim, ind_mod2
from booldim.errors import NotATreeError
from booldim.graphs import MAX_VERTICES, cycle_graph, realize
from booldim.trees import (
    Base,
    Cherry,
    Deg2,
    Star,
    StarDecomposition,
    Tree,
    decomposition_to_cliques,
    find_reduction,
    m_star,
)
from conftest import nonisomorphic_trees, random_tree, star_cost_dp


def exhaustive_m(tree: Tree) -> int:
    """Oracle: assign every edge a center endpoint; grouping co-centered edges
    into one star per center is never worse, so the minimum over all 2^(n-1)
    orientations equals the minimum over all star decompositions."""
    edges = tree.graph.edges()
    best = 10 ** 9
    for choice in product(range(2), repeat=len(edges)):
        loads: dict[int, int] = {}
        for (u, v), c in zip(edges, choice):
            center = u if c == 0 else v
            loads[center] = loads.get(center, 0) + 1
        cost = sum(1 if k == 1 else 2 for k in loads.values())
        best = min(best, cost)
    return best


def spider() -> Tree:
    return Tree.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def random_trees_to_max_n() -> list[Tree]:
    """Seeded random trees with 1..MAX_VERTICES vertices, the largest size
    included, plus the extreme path and star."""
    rng = random.Random(64)
    sizes = [rng.randint(1, MAX_VERTICES) for _ in range(150)] + [MAX_VERTICES] * 5
    return [Tree(random_tree(rng, n)) for n in sizes] + [
        Tree.path(MAX_VERTICES),
        Tree.star(MAX_VERTICES - 1),
    ]


class TestTreeType:
    def test_rejects_cycle(self):
        with pytest.raises(NotATreeError):
            Tree.from_graph(cycle_graph(4))

    def test_rejects_forest(self):
        with pytest.raises(NotATreeError):
            Tree.from_edges(4, [(0, 1), (2, 3)])

    def test_degrees_cached(self):
        t = Tree.star(3)
        assert t.degrees == (3, 1, 1, 1)


class TestFindReduction:
    def test_star_is_cherry(self):
        red = find_reduction(Tree.star(3))
        assert isinstance(red, Cherry)
        assert red.center == 0
        assert red.leaf_neighbors == (1, 2, 3)
        assert red.subtree_roots == ()

    def test_path4_is_deg2(self):
        red = find_reduction(Tree.path(4))
        assert isinstance(red, Deg2)
        assert red.middle in (1, 2)
        assert Tree.path(4).degrees[red.middle] == 2

    def test_single_edge_is_base(self):
        assert isinstance(find_reduction(Tree.path(2)), Base)

    def test_cherry_with_subtrees(self):
        # Leaves 2,3 hang off 1; 0 roots the rest.
        t = Tree.from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)])
        red = find_reduction(t)
        assert isinstance(red, (Cherry, Deg2))

    def test_site_pinned(self):
        # The deterministic choice: the end of the double BFS from the least
        # vertex, ties toward the least index.
        assert find_reduction(Tree.path(4)) == Deg2(middle=1, leaf=0)
        fork = Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert find_reduction(fork) == Cherry(center=0, leaf_neighbors=(1, 2), subtree_roots=(3,))

    def test_site_ends_a_longest_path(self):
        # Checked against networkx eccentricities: the site sits next to a
        # leaf v whose eccentricity is the diameter, and it splits its
        # neighborhood by degree.
        for tree in random_trees_to_max_n():
            red = find_reduction(tree)
            if tree.n <= 2:
                assert isinstance(red, Base)
                continue
            g = nx.Graph(tree.graph.edges())
            ecc = nx.eccentricity(g)
            diameter = max(ecc.values())
            if isinstance(red, Deg2):
                x, ends = red.middle, [red.leaf]
                assert g.degree[x] == 2
            else:
                assert isinstance(red, Cherry)
                x, ends = red.center, list(red.leaf_neighbors)
                assert g.degree[x] != 2
                nbrs = sorted(g[x])
                assert red.leaf_neighbors == tuple(w for w in nbrs if g.degree[w] == 1)
                assert red.subtree_roots == tuple(w for w in nbrs if g.degree[w] > 1)
            assert any(
                g.degree[v] == 1 and ecc[v] == diameter and g.has_edge(x, v) for v in ends
            )


class TestMStar:
    def test_two_vertices(self):
        assert m_star(Tree.path(2))[0] == 1

    def test_stars(self):
        for m in range(2, 6):
            assert m_star(Tree.star(m))[0] == 2
        assert m_star(Tree.star(1))[0] == 1

    def test_paths(self):
        for n in range(2, 12):
            assert m_star(Tree.path(n))[0] == n - 1

    def test_spider_value_frozen_from_oracle(self):
        assert exhaustive_m(spider()) == 5
        assert m_star(spider())[0] == 5

    def test_spider_witness_pinned(self):
        assert m_star(spider())[1].stars == (
            Star(0, (1, 3, 5)),
            Star(1, (2,)),
            Star(5, (6,)),
            Star(3, (4,)),
        )

    def test_matches_exhaustive_oracle_all_trees_to_9(self):
        for n in range(1, 10):
            for tree in nonisomorphic_trees(n):
                value, decomposition = m_star(tree)
                decomposition.validate_for(tree)
                assert decomposition.value == value
                assert value == exhaustive_m(tree) == star_cost_dp(tree.graph)

    def test_matches_load_dp_on_random_trees_to_max_n(self):
        for tree in random_trees_to_max_n():
            value, decomposition = m_star(tree)
            assert value == decomposition.value == star_cost_dp(tree.graph)

    def test_planted_wrong_witness_raises(self, monkeypatch):
        recurse = trees._m_star_rec

        def drop_one(*args):
            value, stars = recurse(*args)
            return value, stars[1:]

        monkeypatch.setattr(trees, "_m_star_rec", drop_one)
        with pytest.raises(AssertionError):
            m_star(spider())

    def test_isomorphism_invariance(self):
        rng = random.Random(0)
        for tree in nonisomorphic_trees(8):
            perm = list(range(8))
            rng.shuffle(perm)
            relabeled = Tree.from_edges(
                8, [(perm[u], perm[v]) for u, v in tree.graph.edges()]
            )
            assert m_star(relabeled)[0] == m_star(tree)[0]


class TestDecompositionToCliques:
    def test_p3_single_star(self):
        t = Tree.path(3)
        sigma = StarDecomposition((Star(1, (0, 2)),))
        fam = decomposition_to_cliques(t, sigma)
        assert fam.members == (0b111, 0b101)
        assert realize(fam).adj == t.graph.adj

    def test_single_edge(self):
        t = Tree.path(2)
        fam = decomposition_to_cliques(t, StarDecomposition((Star(0, (1,)),)))
        assert fam.members == (0b11,)

    def test_optimal_p5(self):
        t = Tree.path(5)
        value, sigma = m_star(t)
        fam = decomposition_to_cliques(t, sigma)
        assert len(fam) == value == 4
        assert realize(fam).adj == t.graph.adj

    def test_invalid_decomposition_rejected(self):
        t = Tree.path(3)
        with pytest.raises(ValueError):
            decomposition_to_cliques(t, StarDecomposition((Star(0, (2,)),)))
        with pytest.raises(ValueError):
            decomposition_to_cliques(t, StarDecomposition((Star(0, (1,)),)))

    def test_every_witness_realizes(self):
        for n in range(2, 9):
            for tree in nonisomorphic_trees(n):
                _, sigma = m_star(tree)
                fam = decomposition_to_cliques(tree, sigma)
                assert realize(fam).adj == tree.graph.adj


class TestTreeTheorem:
    def test_path10(self):
        t = Tree.path(10)
        assert ind_mod2(t.graph)[0] == boolean_dim(t.graph)[0] == m_star(t)[0] == 9

    def test_star4(self):
        t = Tree.star(4)
        assert ind_mod2(t.graph)[0] == boolean_dim(t.graph)[0] == m_star(t)[0] == 2

    def test_ind_equals_m_star_on_20_vertex_trees(self):
        # m* shares no code with the independence search.
        for seed in (1, 3, 5):
            tree = Tree.from_graph(random_tree(random.Random(seed), 20))
            assert ind_mod2(tree.graph)[0] == m_star(tree)[0]


def test_boolean_dim_bounded_by_any_decomposition():
    rng = random.Random(1)
    for tree in nonisomorphic_trees(7):
        edges = tree.graph.edges()
        for _ in range(5):
            stars: dict[int, list[int]] = {}
            for u, v in edges:
                center, leaf = (u, v) if rng.random() < 0.5 else (v, u)
                stars.setdefault(center, []).append(leaf)
            sigma = StarDecomposition(
                tuple(Star(c, tuple(sorted(ls))) for c, ls in sorted(stars.items()))
            )
            sigma.validate_for(tree)
            assert boolean_dim(tree.graph)[0] <= sigma.value


def test_m_equals_ind_and_boolean_means_minrank_too():
    # For trees the geometric dimension coincides with the common value.
    from booldim.dims import geometric_dim

    for tree in nonisomorphic_trees(7):
        value, _ = m_star(tree)
        assert geometric_dim(tree.graph)[0] == value
