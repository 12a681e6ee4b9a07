"""Invariants the mathematics guarantees, checked on small random inputs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from booldim import f2core
from booldim.dims import dimension_report
from booldim.graphs import Graph
from booldim.tournaments import Tournament, inversion_index, invert
from conftest import diagonal_rank

# Derandomized and without an example database, so every run checks the
# same inputs.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n: int = 7) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for t, p in enumerate(pairs) if (bits >> t) & 1])


@st.composite
def tournaments(draw, max_n: int = 6) -> Tournament:
    n = draw(st.integers(1, max_n))
    arcs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
    return Tournament(n, tuple(arcs))


def relabel_graph(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def relabel_tournament(t: Tournament, perm) -> Tournament:
    arcs = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if t.has_arc(u, v):
                arcs[perm[u]] |= 1 << perm[v]
    return Tournament(t.n, tuple(arcs))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def dims_of(g: Graph) -> tuple[int, int, int, int]:
    report = dimension_report(g)
    return report.symplectic, report.geometric, report.boolean, report.inner


@PROPERTY
@given(st.data())
def test_dimensions_invariant_under_relabeling(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    assert dims_of(relabel_graph(g, perm)) == dims_of(g)


@PROPERTY
@given(st.data())
def test_inversion_index_invariant_under_relabeling(data):
    t = data.draw(tournaments())
    perm = data.draw(st.permutations(range(t.n)))
    assert inversion_index(relabel_tournament(t, perm))[0] == inversion_index(t)[0]


@PROPERTY
@given(tournaments())
def test_dual_has_the_same_index(t):
    assert inversion_index(invert(t, range(t.n)))[0] == inversion_index(t)[0]


@PROPERTY
@given(graphs(), graphs())
def test_geometric_and_symplectic_additive_over_disjoint_union(g, h):
    union = dimension_report(disjoint_union(g, h))
    left, right = dimension_report(g), dimension_report(h)
    assert union.geometric == left.geometric + right.geometric
    assert union.symplectic == left.symplectic + right.symplectic


@PROPERTY
@given(graphs(), graphs())
def test_boolean_of_disjoint_union_is_at_most_one_below_the_sum(g, h):
    union = dimension_report(disjoint_union(g, h)).boolean
    total = dimension_report(g).boolean + dimension_report(h).boolean
    assert total - 1 <= union <= total


@PROPERTY
@given(graphs().filter(lambda g: g.edge_count() > 0))
def test_boolean_is_a_nonzero_mask_at_most_one_above_symplectic(g):
    # Mask 0 never beats the nonzero masks: a one-vertex mask adds at most
    # one to the rank, so the least nonzero-mask rank is the boolean value.
    r0 = diagonal_rank(g, 0)
    sweep = f2core.minrank_sweep(g)
    assert sweep.boolean <= r0 + 1
    assert sweep.boolean_mask != 0
    for v in range(g.n):
        assert diagonal_rank(g, 1 << v) <= r0 + 1
