"""Answer checks for the benchmark, written apart from booldim on purpose.

Every CLI reply is compared with a golden value and its certificate is
replayed here with the benchmark's own GF(2) rank, graph6 codec and
tournament inversion code, so a bug shared by booldim's solver and booldim's
own witness checks cannot pass unnoticed.  Each check returns None when the
reply is right and a one-line reason when it is not.
"""

from __future__ import annotations

from itertools import permutations

# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------


def g6_encode(n: int, adj) -> str:
    """graph6 for n <= 62: one size byte, then the upper triangle column by column."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form holds 0..62 vertices, got {n}")
    out = [chr(n + 63)]
    acc = nacc = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((adj[i] >> j) & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


def g6_decode(text: str) -> tuple[int, list[int]]:
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (data[1 + idx // 6] >> (5 - idx % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return n, adj


def tournament_text(n: int, arcs) -> str:
    rows = ["".join("1" if (arcs[i] >> j) & 1 else "0" for j in range(n)) for i in range(n)]
    return "\n".join([str(n)] + rows) + "\n"


def parse_tournament(text: str) -> tuple[int, list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0])
    arcs = [sum(1 << j for j, c in enumerate(row) if c == "1") for row in lines[1:]]
    if len(arcs) != n:
        raise ValueError(f"expected {n} rows, got {len(arcs)}")
    return n, arcs


def relabel(rows, perm) -> list[int]:
    """Rows of the same graph or tournament with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if (row >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


# ---------------------------------------------------------------------------
# GF(2) and tournament helpers
# ---------------------------------------------------------------------------


def rank(rows) -> int:
    """GF(2) rank: each row is reduced by every earlier basis row and kept if nonzero."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def xor_cliques(n: int, cliques) -> list[int]:
    """Adjacency rows of the XOR of the complete graphs on the given vertex lists."""
    adj = [0] * n
    for clique in cliques:
        members = set(clique)
        mask = sum(1 << v for v in members)
        for v in members:
            adj[v] ^= mask & ~(1 << v)
    return adj


def invert_subsets(arcs, subsets) -> list[int]:
    """Reverse every arc with both ends in a subset, subset after subset."""
    arcs = list(arcs)
    for subset in subsets:
        for a in subset:
            for b in subset:
                if a < b and ((arcs[a] >> b) & 1) != ((arcs[b] >> a) & 1):
                    arcs[a] ^= 1 << b
                    arcs[b] ^= 1 << a
    return arcs


def acyclic_order(n: int, arcs) -> tuple[int, ...] | None:
    """Topological order of an acyclic tournament (distinct out-degrees), else None."""
    degs = [row.bit_count() for row in arcs]
    if sorted(degs) != list(range(n)):
        return None
    return tuple(sorted(range(n), key=lambda v: -degs[v]))


def canonical_text(n: int, arcs) -> str:
    """Text of the relabeling whose row-major bit string is least."""
    best = None
    for perm in permutations(range(n)):
        text = tournament_text(n, relabel(arcs, perm))
        if best is None or text < best:
            best = text
    return best


# ---------------------------------------------------------------------------
# Per-command checks.  ``item`` is a corpus manifest entry; ``record`` is the
# CLI's JSON run record; ``data`` is the item's input file content.
# ---------------------------------------------------------------------------


def check_graph_dims(item, record, data) -> str | None:
    golden = item["golden"]
    result = record["result"]
    for key in ("boolean", "geometric", "symplectic", "trichotomy"):
        if result.get(key) != golden[key]:
            return f"{key} = {result.get(key)!r}, golden {golden[key]!r}"
    if result.get("inner") != result["boolean"]:
        return "inner differs from boolean"
    n, adj = g6_decode(data)
    cliques = record["witness"]["cliques"]
    if len(cliques) != result["boolean"]:
        return f"{len(cliques)} witness cliques for boolean = {result['boolean']}"
    if xor_cliques(n, cliques) != adj:
        return "witness cliques do not XOR to the input graph"
    diag = 0
    for v in record["witness"]["diagonal"]:
        diag |= 1 << v
    if rank([adj[v] ^ (diag & (1 << v)) for v in range(n)]) != result["geometric"]:
        return "rank(A + D) of the witness diagonal differs from geometric"
    return None


def check_tree_verify(item, record, data) -> str | None:
    m = item["golden"]["m"]
    result = record["result"]
    if result.get("equal") is not True:
        return "tree invariants reported unequal"
    for key in ("independence", "boolean", "m"):
        if result.get(key) != m:
            return f"{key} = {result.get(key)!r}, golden {m}"
    return None


def check_tree_mstar(item, record, data) -> str | None:
    m = item["golden"]["m"]
    if record["result"].get("m") != m:
        return f"m = {record['result'].get('m')!r}, golden {m}"
    n, adj = g6_decode(data)
    stars = record["witness"]["stars"]
    value = sum(1 if len(s["leaves"]) == 1 else 2 for s in stars)
    if value != m:
        return f"stars cost {value}, reported m = {m}"
    edges = [frozenset((s["center"], leaf)) for s in stars for leaf in s["leaves"]]
    if len(set(edges)) != len(edges) or xor_cliques(n, edges) != adj:
        return "stars do not partition the tree's edges"
    return None


def check_tournament_index(item, record, data) -> str | None:
    golden = item["golden"]["index"]
    value = record["result"].get("index")
    if value != golden:
        return f"index = {value!r}, golden {golden}"
    n, arcs = parse_tournament(data)
    subsets = record["witness"]["subsets"]
    if len(subsets) > value:
        return f"{len(subsets)} inversions certify index {value}"
    order = acyclic_order(n, invert_subsets(arcs, subsets))
    if order is None or list(order) != record["witness"]["order"]:
        return "inversions do not reach the stated acyclic order"
    return None


def check_tournament_table(item, record, data) -> str | None:
    golden = item["golden"]
    result = record["result"]
    if result.get("max_index") != golden["max_index"]:
        return f"max_index = {result.get('max_index')!r}, golden {golden['max_index']}"
    classes = record["witness"]["indices"]
    if result.get("classes") != len(golden["classes"]) or len(classes) != len(golden["classes"]):
        return f"{len(classes)} classes, golden {len(golden['classes'])}"
    seen = set()
    for entry in classes:
        key = entry["tournament"]
        if key not in golden["classes"]:
            key = canonical_text(*parse_tournament(key))
        if key in seen or golden["classes"].get(key) != entry["index"]:
            return f"class index {entry['index']} does not match golden"
        seen.add(key)
    return None


CHECKS = {
    "graph dims": check_graph_dims,
    "tree verify": check_tree_verify,
    "tree mstar": check_tree_mstar,
    "tournament index": check_tournament_index,
    "tournament table": check_tournament_table,
}


def check_reply(item, record, data) -> str | None:
    """None when the record answers the item correctly, else the reason."""
    if record.get("command") != item["command"]:
        return f"record is for {record.get('command')!r}"
    try:
        return CHECKS[item["command"]](item, record, data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed record: {exc!r}"
