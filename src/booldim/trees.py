"""Trees, star decompositions, and the reduction-based optimum.

The cost of a star decomposition is (#single-edge stars) + 2 * (#larger
stars); the minimum over all decompositions is computed by recursive
reduction: a cherry center x (a vertex whose non-leaf neighbors root hanging
subtrees T_i) contributes 2 + sum of the subtree optima, and a degree-2 vertex
next to a leaf z contributes optimum(T - z) + 1.  Both reductions ship a
decomposition witness, and every tree with at least three vertices admits one
of the two sites on any longest path.

The reductions run on the graph's bit rows restricted to a vertex mask of the
part still alive, and ``m_star`` reduces at the site ``find_reduction``
reports for that part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotATreeError
from .graphs import CliqueFamily, Graph, _neighborhood, _vertex_mask, path_graph, realize, set_bits


@dataclass(frozen=True)
class Tree:
    """Connected acyclic graph."""

    graph: Graph

    def __post_init__(self):
        g = self.graph
        if g.n == 0:
            raise NotATreeError("trees need at least one vertex")
        if g.edge_count() != g.n - 1:
            raise NotATreeError(f"{g.n} vertices need {g.n - 1} edges, found {g.edge_count()}")
        if not g.is_connected():
            raise NotATreeError("graph is not connected")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.graph.degrees()

    @classmethod
    def from_graph(cls, g: Graph) -> "Tree":
        return cls(g)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Tree":
        return cls(Graph.from_edges(n, edges))

    @classmethod
    def path(cls, n: int) -> "Tree":
        return cls(path_graph(n))

    @classmethod
    def star(cls, m: int) -> "Tree":
        """K_{1,m}: hub 0 with m leaves."""
        return cls.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


# ---------------------------------------------------------------------------
# Star decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Star:
    """One star of a decomposition: its center and the other edge endpoints."""

    center: int
    leaves: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted((self.center, leaf))) for leaf in self.leaves]


@dataclass(frozen=True)
class StarDecomposition:
    stars: tuple[Star, ...]

    @property
    def value(self) -> int:
        """Cost: 1 per single-edge star, 2 per larger star."""
        return sum(1 if len(s.leaves) == 1 else 2 for s in self.stars)

    def validate_for(self, tree: Tree) -> None:
        """Raise ValueError unless the stars exactly partition the tree's edges."""
        seen = set()
        for star in self.stars:
            if not star.leaves:
                raise ValueError("empty star")
            if len(set(star.leaves)) != len(star.leaves):
                raise ValueError("repeated endpoint inside a star")
            for u, v in star.edges():
                if u == v:
                    raise ValueError(f"degenerate edge at vertex {u}")
                if not (0 <= u < tree.n and 0 <= v < tree.n):
                    raise ValueError(f"edge ({u}, {v}) outside the tree")
                if not tree.graph.has_edge(u, v):
                    raise ValueError(f"({u}, {v}) is not a tree edge")
                if (u, v) in seen:
                    raise ValueError(f"edge ({u}, {v}) covered twice")
                seen.add((u, v))
        if len(seen) != tree.n - 1:
            raise ValueError("stars do not cover every tree edge")


@dataclass(frozen=True)
class Cherry:
    """Reduction site: center whose leaf neighbors are tree leaves."""

    center: int
    leaf_neighbors: tuple[int, ...]
    subtree_roots: tuple[int, ...]


@dataclass(frozen=True)
class Deg2:
    """Reduction site: degree-2 vertex adjacent to a leaf."""

    middle: int
    leaf: int


@dataclass(frozen=True)
class Base:
    """Trees with at most two vertices; no further reduction."""


# ---------------------------------------------------------------------------
# Reduction machinery.  Internals work on the tree's bit rows restricted to a
# mask ``alive`` of the subtree still being reduced, so recursive witnesses
# come back in the caller's labels.
# ---------------------------------------------------------------------------


def _farthest(adj, alive: int, start: int) -> tuple[int, int]:
    """Least vertex of the last BFS layer from start, and the layer before it."""
    prev, layer, seen = 0, 1 << start, 1 << start
    while True:
        nxt = _neighborhood(adj, layer) & alive & ~seen
        if not nxt:
            return (layer & -layer).bit_length() - 1, prev
        prev, layer = layer, nxt
        seen |= nxt


def _site(adj, alive: int):
    """Deg2 or Cherry at the second-to-last vertex of a longest path of the
    subtree on alive (at least three vertices)."""
    u, _ = _farthest(adj, alive, (alive & -alive).bit_length() - 1)
    v, prev = _farthest(adj, alive, u)
    # In a tree the end leaf v has exactly one neighbor in the layer before.
    x = (adj[v] & prev).bit_length() - 1
    nbrs = adj[x] & alive
    if nbrs.bit_count() == 2:
        return Deg2(middle=x, leaf=v)
    leaves = tuple(w for w in set_bits(nbrs) if (adj[w] & alive).bit_count() == 1)
    roots = tuple(w for w in set_bits(nbrs) if (adj[w] & alive).bit_count() > 1)
    return Cherry(center=x, leaf_neighbors=leaves, subtree_roots=roots)


def find_reduction(tree: Tree):
    """Classify the tree's deterministic reduction site.

    Returns Base for at most two vertices; otherwise locates the
    second-to-last vertex x of a longest path (found by double BFS from the
    least-index eccentric vertex).  Degree 2 at x gives Deg2(x, end leaf);
    degree >= 3 gives the cherry centered at x, whose non-leaf neighbors root
    the hanging subtrees.  ``m_star`` reduces at this same site.
    """
    if tree.n <= 2:
        return Base()
    return _site(tree.graph.adj, (1 << tree.n) - 1)


def _m_star_rec(adj, alive: int) -> tuple[int, list[Star]]:
    if alive.bit_count() == 1:
        return 0, []
    if alive.bit_count() == 2:
        u, v = set_bits(alive)
        return 1, [Star(u, (v,))]
    site = _site(adj, alive)
    if isinstance(site, Deg2):
        value, stars = _m_star_rec(adj, alive ^ (1 << site.leaf))
        return value + 1, stars + [Star(site.middle, (site.leaf,))]
    # Cherry: one star covers every edge at the center, subtrees recurse.
    x = site.center
    value = 2
    stars = [Star(x, tuple(set_bits(adj[x] & alive)))]
    rest = alive ^ (1 << x)
    for root in site.subtree_roots:
        component = frontier = 1 << root
        while frontier:
            frontier = _neighborhood(adj, frontier) & rest & ~component
            component |= frontier
        sub_value, sub_stars = _m_star_rec(adj, component)
        value += sub_value
        stars.extend(sub_stars)
    return value, stars


def m_star(tree: Tree) -> tuple[int, StarDecomposition]:
    """Minimum decomposition cost with an optimal witness.

    The witness is checked before it is returned: its stars partition the
    tree's edges, its clique family realizes the tree, and its cost is the
    value.
    """
    value, stars = _m_star_rec(tree.graph.adj, (1 << tree.n) - 1)
    decomposition = StarDecomposition(tuple(stars))
    try:
        family = decomposition_to_cliques(tree, decomposition)
    except ValueError as exc:
        raise AssertionError(f"star decomposition witness is invalid: {exc}") from None
    if realize(family).adj != tree.graph.adj:
        raise AssertionError("decomposition cliques do not realize the tree")
    if decomposition.value != value:
        raise AssertionError("star decomposition cost differs from the value")
    return value, decomposition


def decomposition_to_cliques(tree: Tree, decomposition: StarDecomposition) -> CliqueFamily:
    """Clique family realizing the tree: a 2-subset per trivial star, and
    {center + leaves} plus {leaves} per nontrivial star."""
    decomposition.validate_for(tree)
    members = []
    for star in decomposition.stars:
        leaves = _vertex_mask(tree.n, star.leaves)
        members.append(leaves | (1 << star.center))
        if len(star.leaves) > 1:
            members.append(leaves)
    return CliqueFamily(tree.n, tuple(members))
