"""Trees, star decompositions, and the reduction-based optimum.

The cost of a star decomposition is (#single-edge stars) + 2 * (#larger
stars); the minimum over all decompositions is computed by recursive
reduction: a cherry center x (a vertex whose non-leaf neighbors root hanging
subtrees T_i) contributes 2 + sum of the subtree optima, and a degree-2 vertex
next to a leaf z contributes optimum(T - z) + 1.  Both reductions ship a
decomposition witness, and every tree with at least three vertices admits one
of the two sites on any longest path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotATreeError
from .graphs import CliqueFamily, Graph, path_graph, realize


@dataclass(frozen=True)
class Tree:
    """Connected acyclic graph plus its cached degree array."""

    graph: Graph
    degrees: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        if g.n == 0:
            raise NotATreeError("trees need at least one vertex")
        if g.edge_count() != g.n - 1:
            raise NotATreeError(f"{g.n} vertices need {g.n - 1} edges, found {g.edge_count()}")
        if not g.is_connected():
            raise NotATreeError("graph is not connected")
        if self.degrees != g.degrees():
            raise ValueError("cached degrees do not match the graph")

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def from_graph(cls, g: Graph) -> "Tree":
        return cls(g, g.degrees())

    @classmethod
    def from_edges(cls, n: int, edges) -> "Tree":
        return cls.from_graph(Graph.from_edges(n, edges))

    @classmethod
    def path(cls, n: int) -> "Tree":
        return cls.from_graph(path_graph(n))

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
    def trivial_count(self) -> int:
        return sum(1 for s in self.stars if len(s.leaves) == 1)

    @property
    def nontrivial_count(self) -> int:
        return sum(1 for s in self.stars if len(s.leaves) > 1)

    @property
    def value(self) -> int:
        return self.trivial_count + 2 * self.nontrivial_count

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
# Reduction machinery.  Internals work on adjacency dicts keyed by original
# vertex ids so recursive witnesses come back in the caller's labels.
# ---------------------------------------------------------------------------


def _adj_dict(tree: Tree) -> dict[int, set[int]]:
    g = tree.graph
    return {v: {w for w in range(g.n) if (g.adj[v] >> w) & 1} for v in range(g.n)}


def _bfs_farthest(adj, start):
    """(farthest vertex, parent map); ties broken toward least index."""
    parent = {start: None}
    frontier = [start]
    last_layer = [start]
    while frontier:
        last_layer = frontier
        nxt = []
        for v in frontier:
            for w in sorted(adj[v]):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return min(last_layer), parent


def _reduction_site(adj):
    """Second-to-last vertex of the deterministic longest path, plus the end leaf."""
    u, _ = _bfs_farthest(adj, min(adj))
    v, parent = _bfs_farthest(adj, u)
    x = parent[v]
    return x, v


def find_reduction(tree: Tree):
    """Classify the tree's deterministic reduction site.

    Returns Base for at most two vertices; otherwise locates the
    second-to-last vertex x of a longest path (found by double BFS from the
    least-index eccentric vertex).  Degree 2 at x gives Deg2(x, end leaf);
    degree >= 3 gives the cherry centered at x, whose non-leaf neighbors root
    the hanging subtrees.
    """
    if tree.n <= 2:
        return Base()
    adj = _adj_dict(tree)
    x, v = _reduction_site(adj)
    if len(adj[x]) == 2:
        return Deg2(middle=x, leaf=v)
    leaf_nbrs = tuple(sorted(w for w in adj[x] if len(adj[w]) == 1))
    roots = tuple(sorted(w for w in adj[x] if len(adj[w]) > 1))
    return Cherry(center=x, leaf_neighbors=leaf_nbrs, subtree_roots=roots)


def _component_without(adj, removed, root):
    """Adjacency dict of the component of adj - removed containing root."""
    comp = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w != removed and w not in comp:
                comp.add(w)
                stack.append(w)
    return {v: adj[v] & comp for v in comp}


def _m_star_rec(adj) -> tuple[int, list[Star]]:
    n = len(adj)
    if n <= 1:
        return 0, []
    if n == 2:
        u, v = sorted(adj)
        return 1, [Star(u, (v,))]
    x, v = _reduction_site(adj)
    if len(adj[x]) == 2:
        rest = {w: nbrs - {v} for w, nbrs in adj.items() if w != v}
        value, stars = _m_star_rec(rest)
        return value + 1, stars + [Star(x, (v,))]
    # Cherry at x: one star covers every edge at x, subtrees recurse.
    value = 2
    stars = [Star(x, tuple(sorted(adj[x])))]
    for w in sorted(adj[x]):
        if len(adj[w]) > 1:
            sub_value, sub_stars = _m_star_rec(_component_without(adj, x, w))
            value += sub_value
            stars.extend(sub_stars)
    return value, stars


def m_star(tree: Tree) -> tuple[int, StarDecomposition]:
    """Minimum decomposition cost with an optimal witness.

    The witness is checked before it is returned: its stars partition the
    tree's edges, its clique family realizes the tree, and its cost is the
    value.
    """
    value, stars = _m_star_rec(_adj_dict(tree))
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
        leaves_mask = 0
        for leaf in star.leaves:
            leaves_mask |= 1 << leaf
        if len(star.leaves) == 1:
            members.append(leaves_mask | (1 << star.center))
        else:
            members.append(leaves_mask | (1 << star.center))
            members.append(leaves_mask)
    return CliqueFamily(tree.n, tuple(members))


def verify_tree_theorem(tree: Tree, *, budget_s: float | None = None) -> bool:
    """Independently compute the three tree invariants and compare them."""
    from .dims import boolean_dim, ind_mod2

    ind_value, _ = ind_mod2(tree.graph, budget_s=budget_s)
    bool_value, _ = boolean_dim(tree.graph, budget_s=budget_s)
    star_value, _ = m_star(tree)
    return ind_value == bool_value == star_value


# ---------------------------------------------------------------------------
# Enumeration up to isomorphism
# ---------------------------------------------------------------------------


def canonical_key(tree: Tree) -> str:
    """Isomorphism-invariant encoding: AHU string rooted at the tree center."""
    adj = _adj_dict(tree)
    centers = _find_centers(adj)
    return min(_ahu_encode(adj, root, None) for root in centers)


def _find_centers(adj) -> list[int]:
    degrees = {v: len(nbrs) for v, nbrs in adj.items()}
    remaining = set(adj)
    layer = sorted(v for v in remaining if degrees[v] <= 1)
    while len(remaining) > 2:
        remaining -= set(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                if w in remaining:
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = sorted(set(nxt))
    return sorted(remaining)


def _ahu_encode(adj, v, parent) -> str:
    parts = sorted(_ahu_encode(adj, w, v) for w in adj[v] if w != parent)
    return "(" + "".join(parts) + ")"


def enumerate_trees(n: int) -> list[Tree]:
    """All trees on n vertices up to isomorphism, by leaf augmentation."""
    if n < 1:
        return []
    reps: dict[str, Tree] = {}
    single = Tree.from_edges(1, [])
    reps[canonical_key(single)] = single
    for size in range(2, n + 1):
        grown: dict[str, Tree] = {}
        for tree in reps.values():
            for v in range(size - 1):
                bigger = Tree.from_edges(size, tree.graph.edges() + [(v, size - 1)])
                grown.setdefault(canonical_key(bigger), bigger)
        reps = grown
    return [reps[key] for key in sorted(reps)]
