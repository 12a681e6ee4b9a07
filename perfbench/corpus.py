#!/usr/bin/env python3
"""Seeded corpus for one benchmark workload.

    python3 perfbench/corpus.py --workload NAME --seed N --out DIR

Imports ``booldim.cli`` (set-up time is what a fresh interpreter pays to load
the program and write its inputs), then writes DIR/manifest.json and one input
file per item.  Each item picks a member of a pool in golden.json and relabels
its vertices with a permutation drawn from the seed; both leave the stored
golden answer unchanged.  Items in FIXED_INPUTS are the same on every
seed.  The same workload and seed always give the same
files and the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

from checks import g6_decode, g6_encode, parse_tournament, relabel, tournament_text

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GRAPH_NS = range(12, 17)

ARGV = {
    "graph dims": ["graph", "dims", "--graph6"],
    "tree verify": ["tree", "verify", "--graph6"],
    "tree mstar": ["tree", "mstar", "--graph6"],
    "tournament index": ["tournament", "index", "--file"],
    "tournament table": ["tournament", "table", "--n"],
}

# (family, n, commands run on the same input).  Why each workload exists is
# recorded in BENCHMARK.json.
WORKLOADS = {
    "graph-dense": [("gnp", n, ("graph dims",)) for n in GRAPH_NS]
    + [("ortho", 16, ("graph dims",)), ("complete", 16, ("graph dims",))],
    # Cycles and forests stop at n = 15 so that two cold/warm pairs fit in a
    # run; the n = 16 worst case is the path.  Their n = 15 members also keep
    # the median call among the n = 13 items: with n up to 14 it fell in the
    # gap between the n = 12 and n = 13 call times (about 95 ms and 160 ms)
    # and read one side on some seeds and the other on the rest.
    "graph-sparse": [("path", n, ("graph dims",)) for n in GRAPH_NS]
    + [(family, n, ("graph dims",)) for family in ("cycle", "forest") for n in range(12, 16)]
    + [("tree", n, ("tree verify", "tree mstar")) for n in GRAPH_NS],
    # With two workers on a 2-core x86-64 machine and the pure kernels, cn:8
    # takes about 4 s and strongpath:8 about 11 s per call, which would leave
    # room for one pair per run; their n = 7 members
    # keep the families, and the random n = 8 tournament keeps n = 8.  The
    # fixed n = 7 members sit in the middle of the call times, so the latency
    # median does not hinge on a random draw.
    "tournament-index": [
        ("c3sum", 6, ("tournament index",)),
        ("tournament", 7, ("tournament index",)),
        ("strongpath", 7, ("tournament index",)),
        ("cn", 7, ("tournament index",)),
        ("tournament", 8, ("tournament index",)),
    ],
    # n = 6 takes 4-6 s per call on the same machine, leaving too few calls
    # per run for a steady median; n = 5 has the same structure (canonical
    # forms dominate, two enumerations per call, a pool over the classes,
    # cache reads when warm).
    "tournament-table": [("table", 5, ("tournament table",))],
}

# Named families keep the labeling their generator gives them.
FIXED_LABELS = {"cn", "strongpath", "c3sum", "table"}

# Items that are the same input on every seed: the first pool member, as
# stored.  The n = 8 random tournament is the slowest item of its workload,
# so it alone sets latency_tail_ms there, and its call time moves from about
# 1.9 s to 3.4 s with the pool member and the vertex labeling; drawn per seed,
# it made that metric spread past its bound across seeds.
FIXED_INPUTS = {("tournament", 8)}

# Closed forms replace stored values where the mathematics gives them.
CLOSED_FORMS = {
    "path": lambda n: {"boolean": n - 1},
    "complete": lambda n: {"boolean": 1, "geometric": 1},
    "c3sum": lambda n: {"index": 2} if n == 6 else {},
    "table": lambda n: {"max_index": 2} if n in (5, 6) else {},  # i(5) = i(6) = 2
}


def build(workload: str, seed: int, golden: dict) -> tuple[list[dict], dict[str, str]]:
    """Manifest items and {file name: content} for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    items: list[dict] = []
    files: dict[str, str] = {}
    used: dict[tuple[str, int], set[int]] = {}
    for family, n, commands in WORKLOADS[workload]:
        pool = golden["pools"][family][str(n)]
        taken = used.setdefault((family, n), set())
        fixed = (family, n) in FIXED_INPUTS
        k = 0 if fixed else rng.choice([i for i in range(len(pool)) if i not in taken])
        taken.add(k)
        entry = pool[k]
        answer = dict(entry["golden"])
        for key, value in CLOSED_FORMS.get(family, lambda n: {})(n).items():
            if answer.get(key, value) != value:
                raise ValueError(f"golden {family} n={n}: {key}={answer[key]}, closed form {value}")
            answer[key] = value
        name = f"{family}-n{n}-{k}"
        if entry["input"] is None:
            file, arg = None, str(n)
        elif commands[0] == "tournament index":
            size, arcs = parse_tournament(entry["input"])
            if family not in FIXED_LABELS and not fixed:
                arcs = relabel(arcs, rng.sample(range(size), size))
            file = arg = f"{name}.txt"
            files[file] = tournament_text(size, arcs)
        else:
            size, adj = g6_decode(entry["input"])
            if family not in FIXED_LABELS:
                adj = relabel(adj, rng.sample(range(size), size))
            file = arg = f"{name}.g6"
            files[file] = g6_encode(size, adj) + "\n"
        for command in commands:
            items.append({
                "id": f"{name}:{command.split()[-1]}",
                "family": family,
                "n": n,
                "command": command,
                "argv": ARGV[command] + [arg],
                "file": file,
                "golden": answer,
            })
    return items, files


def digest(items, files) -> str:
    h = hashlib.sha256(json.dumps(items, sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


def write(workload: str, seed: int, out: Path) -> dict:
    golden = json.loads(GOLDEN.read_text())
    items, files = build(workload, seed, golden)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    manifest = {"workload": workload, "seed": seed, "digest": digest(items, files), "items": items}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    import booldim.cli  # noqa: F401  (set-up time includes loading the program)

    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
