"""Undirected loopless graphs on vertices 0..n-1 with bitset adjacency rows.

Vertices are always 0..n-1; labels live only at the I/O boundary.  Alongside
the data model this module provides XOR (Boolean) sums of graphs, clique-graph
constructors and realization of clique families, duo (two-element module)
detection, the non-orthogonality graph generators over GF(2), representation
validation, and graph6 / edge-list text I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, FormatError

MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    """Graph as n adjacency bitmask rows; bit j of adj[i] set iff {i, j} is an edge.

    The rows are also the adjacency matrix over GF(2) that every rank and
    diagonal search reads; construction checks once that it is in range,
    symmetric and zero on the diagonal.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_rows(self.n, self.adj, "graphs", "loop")
        for i, row in enumerate(self.adj):
            for j in set_bits(row):
                if not (self.adj[j] >> i) & 1:
                    raise ValueError(f"adjacency not symmetric at ({min(i, j)}, {max(i, j)})")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (self.adj[i] >> j) & 1
        ]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def induced(self, vertices) -> "Graph":
        """Subgraph induced by the given vertices, relabeled in their sorted order."""
        keep = set_bits(_vertex_mask(self.n, vertices))
        index = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for v in keep:
            row = self.adj[v]
            for w in keep:
                if (row >> w) & 1:
                    adj[index[v]] |= 1 << index[w]
        return Graph(len(keep), tuple(adj))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = frontier = 1
        while frontier:
            frontier = _neighborhood(self.adj, frontier) & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


@dataclass(frozen=True)
class CliqueFamily:
    """Vertex subsets C_1..C_k (bitmasks) over a ground set of n vertices."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        limit = 1 << self.n
        for i, c in enumerate(self.members):
            if not 0 <= c < limit:
                raise ValueError(f"subset {i} has vertices outside 0..{self.n - 1}")

    def __len__(self) -> int:
        return len(self.members)

    def as_sets(self) -> list[list[int]]:
        return [set_bits(c) for c in self.members]

    def vertex_map(self) -> dict[int, frozenset[int]]:
        """The map v -> {i : v in C_i} induced by the family."""
        return {
            v: frozenset(i for i, c in enumerate(self.members) if (c >> v) & 1)
            for v in range(self.n)
        }


def _check_size(n: int, kind: str) -> None:
    """Refuse a vertex count below 0 or above MAX_VERTICES; ``kind`` names
    the objects in the message.  Generators call it before they build rows."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise CapacityError(f"{kind} are capped at {MAX_VERTICES} vertices")


def _check_rows(n: int, rows, kind: str, loop: str) -> None:
    """The checks that Graph and Tournament share: the vertex count first,
    then n rows, each inside 0..n-1 and without its own bit (a ``loop``)."""
    _check_size(n, kind)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    limit = 1 << n
    for i, row in enumerate(rows):
        if not 0 <= row < limit:
            raise ValueError(f"row {i} has bits outside the vertex range")
        if (row >> i) & 1:
            raise ValueError(f"{loop} at vertex {i}")


def _vertex_mask(n: int, vertices) -> int:
    """Bitmask of the given vertices, each of which must lie in 0..n-1."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        mask |= 1 << v
    return mask


def _neighborhood(adj, mask: int) -> int:
    """Union of the rows adj[v] over the vertices v in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Boolean sums and clique families
# ---------------------------------------------------------------------------


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


def clique_graph(n: int, vertices) -> Graph:
    """Graph on 0..n-1 whose edges are all pairs within the given subset."""
    _check_size(n, "graphs")
    mask = _vertex_mask(n, vertices)
    adj = tuple((mask & ~(1 << i)) if (mask >> i) & 1 else 0 for i in range(n))
    return Graph(n, adj)


def realize(family: CliqueFamily) -> Graph:
    """Boolean sum of the clique graphs of all family members."""
    adj = [0] * family.n
    for c in family.members:
        for i in set_bits(c):
            adj[i] ^= c & ~(1 << i)
    return Graph(family.n, tuple(adj))


def find_duo(g: Graph) -> tuple[int, int] | None:
    """Lexicographically least pair {a, b} with equal neighborhoods outside the pair."""
    for a in range(g.n):
        for b in range(a + 1, g.n):
            outside = ~((1 << a) | (1 << b))
            if (g.adj[a] ^ g.adj[b]) & outside == 0:
                return (a, b)
    return None


def validate_representation(g: Graph, f) -> bool:
    """Check that f maps vertices to index subsets with edge <=> odd intersection.

    ``f`` is a mapping from every vertex to an iterable of hashable indices.
    """
    sets = {v: frozenset(f[v]) for v in range(g.n)}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            odd = len(sets[u] & sets[v]) % 2 == 1
            if odd != g.has_edge(u, v):
                return False
    return True


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    _check_size(n, "graphs")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    _check_size(n, "graphs")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return clique_graph(n, range(n))


ORTHO_MAX_K = 5
ORTHO_H_MAX_K = 4


def _form_graph(vectors, odd) -> Graph:
    """Graph on the listed vectors: i ~ j iff odd(vectors[i], vectors[j])."""
    n = len(vectors)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if odd(vectors[i], vectors[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def _odd_scalar_product(x: int, y: int) -> int:
    return (x & y).bit_count() & 1


def ortho_graph(k: int) -> Graph:
    """Non-orthogonality graph of the scalar product on all k-bit vectors.

    Vertex i is the vector given by the binary digits of i; distinct vertices
    are adjacent iff their scalar product (popcount of AND, mod 2) is 1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > ORTHO_MAX_K:
        raise CapacityError(f"ortho_graph is capped at k = {ORTHO_MAX_K} (2^k vertices)")
    return _form_graph(range(1 << k), _odd_scalar_product)


def ortho_graph_H(k: int) -> Graph:
    """Non-orthogonality graph on the even-weight vectors of length k + 1.

    This is the scalar product restricted to the hyperplane orthogonal to the
    all-ones vector; k must be even.  Vertices are the 2^k even-weight
    (k+1)-bit vectors in increasing numeric order.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError("k must be even and nonnegative")
    if k > ORTHO_H_MAX_K:
        raise CapacityError(f"ortho_graph_H is capped at k = {ORTHO_H_MAX_K}")
    vectors = [x for x in range(1 << (k + 1)) if x.bit_count() % 2 == 0]
    return _form_graph(vectors, _odd_scalar_product)


# ---------------------------------------------------------------------------
# graph6 I/O
#
# Standard format: header byte n + 63 for n <= 62, or '~' followed by three
# 6-bit bytes of n for larger graphs; then the upper triangle x(i, j) for
# j = 1..n-1, i = 0..j-1 (column-major), packed 6 bits per byte, each + 63.
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str | bytes) -> Graph:
    """Parse one graph6 string (optional '>>graph6<<' prefix, trailing newline ok)."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = text.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise FormatError("empty graph6 input", offset=0)
    data = [ord(c) - 63 for c in text]
    for off, v in enumerate(data):
        if not 0 <= v <= 63:
            raise FormatError(f"byte {text[off]!r} outside graph6 range", offset=off)
    if data[0] <= 62:
        n, body = data[0], data[1:]
        body_offset = 1
    else:
        if len(data) < 4:
            raise FormatError("truncated long-form vertex count", offset=len(data))
        if data[1] == 63:
            raise FormatError("8-byte vertex counts exceed the supported range", offset=1)
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body, body_offset = data[4:], 4
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 input has {n} vertices; cap is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise FormatError(
            f"payload needs {need} bytes for n = {n}, got {len(body)}",
            offset=body_offset + len(body),
        )
    if len(body) > need:
        raise FormatError("trailing bytes after graph6 payload", offset=body_offset + need)
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (body[idx // 6] >> (5 - idx % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 string (no header, no newline)."""
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = ["~", chr(((g.n >> 12) & 63) + 63), chr(((g.n >> 6) & 63) + 63), chr((g.n & 63) + 63)]
    acc = 0
    nacc = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.adj[i] >> j) & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Edge-list text I/O: one "u v" pair per line, 0-indexed, '#' comments.
# The vertex count is max index + 1 (0 for an empty file).
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex")
        if u == v:
            raise FormatError(f"line {lineno}: loop at vertex {u}")
        edges.append((u, v))
        top = max(top, u, v)
    if top + 1 > MAX_VERTICES:
        raise CapacityError(f"edge list uses {top + 1} vertices; cap is {MAX_VERTICES}")
    return Graph.from_edges(top + 1, edges)


def write_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())
