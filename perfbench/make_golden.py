#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: the input pools and their golden answers.

    python3 perfbench/make_golden.py

Random pool members come from a fixed master seed; each answer is computed
once with the booldim library in ``src`` and stored, so benchmark runs check
every reply against values that no later change to booldim can move.  The
benchmark's ``--seed`` picks pool members and relabels their vertices, which
leaves every stored value unchanged.  Rerun this only to extend the pools.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from booldim import __version__, dims, graphs, kernel_backend, tournaments, trees  # noqa: E402

from checks import g6_encode, tournament_text  # noqa: E402

MASTER_SEED = 2105_00206
GRAPH_NS = range(12, 17)
POOL = 4
RANDOM_TOURNAMENTS = {7: 6, 8: 4}


def random_graph(rng, n):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def random_tree_edges(rng, n, offset=0):
    """Uniform labeled tree on n >= 2 vertices from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf + offset, v + offset))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u + offset, w + offset))
    return edges


def rows_of(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def random_tournament(rng, n):
    arcs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
    return arcs


def dims_entry(n, adj):
    report = dims.dimension_report(graphs.Graph(n, tuple(adj)), workers=2)
    return {
        "input": g6_encode(n, adj),
        "golden": {
            "boolean": report.boolean,
            "geometric": report.geometric,
            "symplectic": report.symplectic,
            "trichotomy": report.trichotomy_case.value,
        },
    }


def tree_entry(n, adj):
    g = graphs.Graph(n, tuple(adj))
    m, _ = trees.m_star(trees.Tree.from_graph(g))
    ind, _ = dims.ind_mod2(g)
    boo, _ = dims.boolean_dim(g, workers=2)
    if not m == ind == boo:
        raise AssertionError(f"tree invariants differ: m={m} ind={ind} boolean={boo}")
    return {"input": g6_encode(n, adj), "golden": {"m": m}}


def index_entry(t):
    value, _ = tournaments.inversion_index(t, workers=2)
    return {"input": tournament_text(t.n, t.arcs), "golden": {"index": value}}


def table_entry(n):
    per_class = {}
    value = tournaments.max_inversion_table(n, workers=2, index_cache=per_class)
    return {"input": None, "golden": {"max_index": value, "classes": per_class}}


def main():
    rng = random.Random(MASTER_SEED)
    pools = {name: {} for name in (
        "gnp", "ortho", "complete", "path", "cycle", "forest", "tree",
        "tournament", "cn", "strongpath", "c3sum", "table",
    )}
    for n in GRAPH_NS:
        pools["gnp"][n] = [dims_entry(n, random_graph(rng, n)) for _ in range(POOL)]
        pools["path"][n] = [dims_entry(n, rows_of(n, [(i, i + 1) for i in range(n - 1)]))]
        pools["cycle"][n] = [dims_entry(n, rows_of(n, [(i, (i + 1) % n) for i in range(n)]))]
        forests = []
        for _ in range(POOL):
            a = rng.randint(4, n - 4)
            edges = random_tree_edges(rng, a) + random_tree_edges(rng, n - a, offset=a)
            forests.append(dims_entry(n, rows_of(n, edges)))
        pools["forest"][n] = forests
        pools["tree"][n] = [tree_entry(n, rows_of(n, random_tree_edges(rng, n))) for _ in range(POOL)]
        print(f"graphs n={n} done", flush=True)
    ortho = graphs.ortho_graph(4)
    pools["ortho"][ortho.n] = [dims_entry(ortho.n, ortho.adj)]
    pools["complete"][16] = [dims_entry(16, graphs.complete_graph(16).adj)]
    for n, count in RANDOM_TOURNAMENTS.items():
        pools["tournament"][n] = [
            index_entry(tournaments.Tournament(n, tuple(random_tournament(rng, n))))
            for _ in range(count)
        ]
    pools["cn"][7] = [index_entry(tournaments.gen_antichain_cn(7))]
    pools["strongpath"][7] = [index_entry(tournaments.gen_strong_path(7))]
    pools["c3sum"][6] = [index_entry(tournaments.gen_c3_sum(2))]
    pools["table"][5] = [table_entry(5)]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    golden = {
        "computed_with": {"booldim": __version__, "commit": commit, "backend": kernel_backend()},
        "master_seed": MASTER_SEED,
        "pools": {fam: {str(n): entries for n, entries in by_n.items()} for fam, by_n in pools.items()},
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
