"""Shared generators and helpers for the test suite.  Everything is seeded."""

from __future__ import annotations

import random
import sys
import time
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import pytest

from booldim import _kernels_py
from booldim.graphs import CliqueFamily, Graph
from booldim.tournaments import Tournament
from booldim.trees import Tree

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random recursive tree (each vertex joins an earlier one), relabeled by a
    random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[v], perm[rng.randrange(v)]) for v in range(1, n)])


def nonisomorphic_trees(n: int):
    """One Tree per isomorphism class on n vertices, from networkx, which
    shares no code with booldim."""
    for t in nx.nonisomorphic_trees(n):
        yield Tree.from_edges(n, t.edges())


def star_cost_dp(g: Graph) -> int:
    """Oracle for the tree optimum m*: the least sum of cost(load) over all
    orientations of the edges toward a center endpoint, where a vertex with
    load 0, 1 or >= 2 costs 0, 1 or 2 (one star per center), by dynamic
    programming over the tree rooted at vertex 0."""
    if g.n <= 1:
        return 0
    nbrs = [[w for w in range(g.n) if (g.adj[v] >> w) & 1] for v in range(g.n)]
    parent = {0: None}
    order = [0]
    for v in order:
        for w in nbrs[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    inf = float("inf")
    # best[v][p]: least cost of v's subtree when p (0 or 1) is the load the
    # edge to v's parent puts on v.
    best = {}
    for v in reversed(order):
        by_load = [0, inf, inf]  # least cost with 0, 1, >= 2 child edges at v
        for c in nbrs[v]:
            if c == parent[v]:
                continue
            nxt = [inf, inf, inf]
            for k in range(3):
                nxt[k] = min(nxt[k], by_load[k] + best[c][1])
                nxt[min(k + 1, 2)] = min(nxt[min(k + 1, 2)], by_load[k] + best[c][0])
            by_load = nxt
        best[v] = tuple(min(by_load[k] + min(k + p, 2) for k in range(3)) for p in (0, 1))
    return best[0][0]


def plus_diagonal(rows, mask: int) -> tuple[int, ...]:
    """Rows with entry (i, i) flipped for every bit i of mask."""
    return tuple(row ^ (mask & (1 << i)) for i, row in enumerate(rows))


def diagonal_rank(g: Graph, mask: int) -> int:
    """rank(A + D) for the diagonal D whose entry (v, v) is bit v of mask, by
    the benchmark's own GF(2) rank, which shares no code with booldim's."""
    return checks.rank(plus_diagonal(g.adj, mask))


def random_symmetric_rows(rng: random.Random, n: int, zero_diagonal: bool = True):
    rows = [0] * n
    for i in range(n):
        if not zero_diagonal and rng.random() < 0.5:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def row_tuples(n: int):
    """Every tuple of n rows drawn from -1..2^(n+1)-1 (one value below and
    2^n values above the vertex range)."""
    return product(range(-1, 1 << (n + 1)), repeat=n)


def perturbed(rng: random.Random, rows):
    """rows, or rows with one bit (i, j) flipped for 0 <= i < n, 0 <= j <= n,
    or one row made negative."""
    rows = list(rows)
    roll = rng.random()
    if roll < 0.1:
        rows[rng.randrange(len(rows))] = -1
    elif roll < 0.8:
        rows[rng.randrange(len(rows))] ^= 1 << rng.randint(0, len(rows))
    return tuple(rows)


def boolean_sum(graphs: list[Graph]) -> Graph:
    """Edge-wise XOR: {x, y} survives iff it is an edge of an odd number of inputs."""
    if not graphs:
        raise ValueError("boolean_sum needs at least one graph")
    n = graphs[0].n
    for g in graphs:
        if g.n != n:
            raise ValueError("boolean_sum requires a common vertex set")
    adj = [0] * n
    for g in graphs:
        for i in range(n):
            adj[i] ^= g.adj[i]
    return Graph(n, tuple(adj))


def find_duo(g: Graph) -> tuple[int, int] | None:
    """Lexicographically least pair {a, b} with equal neighborhoods outside the pair."""
    for a in range(g.n):
        for b in range(a + 1, g.n):
            outside = ~((1 << a) | (1 << b))
            if (g.adj[a] ^ g.adj[b]) & outside == 0:
                return (a, b)
    return None


def vertex_map(family: CliqueFamily) -> dict[int, frozenset[int]]:
    """The map v -> {i : v in C_i} induced by the family."""
    return {
        v: frozenset(i for i, c in enumerate(family.members) if (c >> v) & 1)
        for v in range(family.n)
    }


def max_clique_size(g: Graph) -> int:
    """Largest clique, by bitset branch and bound (desk-scale graphs only)."""
    best = 0

    def grow(size: int, candidates: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            grow(size + 1, rest & g.adj[low.bit_length() - 1])
            if size + rest.bit_count() <= best:
                return

    grow(0, (1 << g.n) - 1)
    return best


def enumerate_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, by upper-triangle edge mask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield Graph(n, tuple(adj))


def three_cycles_through(t: Tournament, v: int) -> int:
    """Number of 3-element cycles containing vertex v."""
    count = 0
    for a, b in combinations([u for u in range(t.n) if u != v], 2):
        outs = [t.arcs[x] & ((1 << v) | (1 << a) | (1 << b)) for x in (v, a, b)]
        if all(o.bit_count() == 1 for o in outs):
            count += 1
    return count


def random_tournament(rng: random.Random, n: int) -> Tournament:
    arcs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
    return Tournament(n, tuple(arcs))


def all_tournaments_labeled(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        arcs = [0] * n
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
        yield Tournament(n, tuple(arcs))


class JumpingClock:
    """Stands in for the kernels' clock: real time for the first ``polls``
    reads, then far past any deadline."""

    def __init__(self, polls: int):
        self.polls = polls
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return time.monotonic() + (1e9 if self.reads > self.polls else 0.0)


@pytest.fixture()
def clock_jump(monkeypatch):
    """``clock_jump(polls)`` makes the kernels' deadline polls expire after
    ``polls`` reads, so a budget can run out in the middle of a search."""

    def install(polls: int) -> JumpingClock:
        clock = JumpingClock(polls)
        monkeypatch.setattr(_kernels_py, "time", clock)
        return clock

    return install
