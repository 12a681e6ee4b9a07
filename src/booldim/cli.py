"""Command-line front end.

One verb per artifact: graph dims / graph oracle-check, tree mstar / tree
verify, tournament index / table / embeds, and generate for the built-in
families.  Reports are human-readable by default and a stable JSON record
with --json.  Commands only parse, call the library and print: each witness
is checked by the library function that builds it.  The tournament table
keeps its per-class indices in a write-once cache directory, keyed by the
tournament and the booldim version; no other command touches it.

Exit codes: 0 success, 2 malformed input, 3 capacity or budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, dims, graphs, tournaments, trees
from .errors import BudgetExceededError, CapacityError

CACHE_ENV = "BOOLDIM_CACHE_DIR"


def _stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    raw = args.cache_dir or os.environ.get(CACHE_ENV)
    path = Path(raw) if raw else Path.home() / ".cache" / "booldim"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"warning: cache directory unusable: {exc}", file=sys.stderr)
        return None
    return path


def _write_once(path: Path, text: str):
    if path.exists():
        return
    tmp = path.with_suffix(".tmp-%d" % os.getpid())
    tmp.write_text(text)
    tmp.replace(path)


class FileIndexCache:
    """Per-tournament inversion indices persisted as write-once JSON files.

    Entries are keyed on the booldim version as well as the tournament text,
    so an index computed by another build is a miss.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def _path(self, key: str) -> Path:
        digest = _digest(f"{__version__}\n{key}".encode())[:24]
        return self.directory / f"tournament-index-{digest}.json"

    def _load(self, key: str) -> int | None:
        """The stored index, or None when the entry is missing or unreadable."""
        try:
            return int(json.loads(self._path(key).read_text())["index"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def __getitem__(self, key: str) -> int:
        value = self._load(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value: int):
        # Only misses are stored, so an existing file here is unreadable.
        self._path(key).unlink(missing_ok=True)
        _write_once(self._path(key), _stable_json({"tournament": key, "index": value}))


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load_graph(args) -> tuple[graphs.Graph, bytes]:
    if args.graph6 and args.edges:
        raise ValueError("give exactly one of --graph6 / --edges")
    if args.graph6:
        raw = _read_input(args.graph6)
        return graphs.parse_graph6(raw.decode("ascii")), raw
    if args.edges:
        raw = _read_input(args.edges)
        return graphs.parse_edge_list(raw.decode()), raw
    raise ValueError("an input graph is required (--graph6 or --edges)")


TOURNAMENT_FAMILIES = {
    "c3sum": tournaments.gen_c3_sum,
    "strongpath": tournaments.gen_strong_path,
    "cn": tournaments.gen_antichain_cn,
    "acyclic": tournaments.Tournament.acyclic,
}

GRAPH_FAMILIES = {
    "path": graphs.path_graph,
    "cycle": graphs.cycle_graph,
    "clique": graphs.complete_graph,
    "ortho": graphs.ortho_graph,
    "ortho-h": graphs.ortho_graph_H,
}


def _load_tournament(args) -> tuple[tournaments.Tournament, bytes]:
    if getattr(args, "family", None):
        if args.n is None:
            raise ValueError("--family needs --n")
        t = _tournament_family(args.family, args.n)
        return t, t.to_text().encode()
    if getattr(args, "file", None):
        raw = _read_input(args.file)
        return tournaments.Tournament.from_text(raw.decode()), raw
    raise ValueError("an input tournament is required (--file or --family)")


def _tournament_family(name: str, n: int) -> tournaments.Tournament:
    try:
        gen = TOURNAMENT_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown tournament family {name!r}; choose from {sorted(TOURNAMENT_FAMILIES)}"
        ) from None
    return gen(n)


def _tournament_spec(spec: str) -> tuple[tournaments.Tournament, bytes]:
    """A path, '-', or 'family:n' shorthand."""
    if ":" in spec and not Path(spec).exists():
        name, _, arg = spec.partition(":")
        t = _tournament_family(name, int(arg))
        return t, t.to_text().encode()
    raw = _read_input(spec)
    return tournaments.Tournament.from_text(raw.decode()), raw


# ---------------------------------------------------------------------------
# Record emission
# ---------------------------------------------------------------------------


def _emit(args, command: str, digest: str, params: dict, result, witness, started: float):
    record = {
        "command": command,
        "input_digest": digest,
        "params": params,
        "result": result,
        "witness": witness,
        "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
        "version": __version__,
    }
    if args.json:
        print(_stable_json(record))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_graph_dims(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args)
    report = dims.dimension_report(g, budget_s=args.budget)
    result = {
        "boolean": report.boolean,
        "geometric": report.geometric,
        "inner": report.inner,
        "symplectic": report.symplectic,
        "trichotomy": report.trichotomy_case.value,
    }
    witness = {
        "diagonal": graphs.set_bits(report.witness_diagonal),
        "cliques": report.witness_cliques.as_sets(),
    }
    _emit(args, "graph dims", _digest(raw), _params(args), result, witness, started)
    if not args.json:
        print(
            f"boolean={report.boolean} inner={report.inner} "
            f"geometric={report.geometric} symplectic={report.symplectic}"
        )
        print(f"trichotomy: {report.trichotomy_case.value}")
        print(f"witness diagonal: {witness['diagonal']}")
        print(f"witness cliques: {witness['cliques']}")
    return 0


def _cmd_graph_oracle_check(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args)
    value, _ = dims.boolean_dim(g, budget_s=args.budget)
    oracle = dims.boolean_dim_oracle(g, value)
    agree = oracle == value
    result = {"boolean": value, "oracle": oracle, "agree": agree}
    _emit(args, "graph oracle-check", _digest(raw), _params(args), result, None, started)
    if not args.json:
        print(f"boolean={value} oracle={oracle} -> {'AGREE' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def _cmd_tree_mstar(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args)
    tree = trees.Tree.from_graph(g)
    value, decomposition = trees.m_star(tree)
    result = {"m": value}
    witness = {
        "stars": [
            {"center": s.center, "leaves": list(s.leaves)} for s in decomposition.stars
        ]
    }
    _emit(args, "tree mstar", _digest(raw), _params(args), result, witness, started)
    if not args.json:
        print(f"m = {value}")
        for star in decomposition.stars:
            kind = "trivial" if len(star.leaves) == 1 else "star"
            print(f"  {kind} center={star.center} leaves={list(star.leaves)}")
    return 0


def _cmd_tree_verify(args) -> int:
    started = time.perf_counter()
    g, raw = _load_graph(args)
    tree = trees.Tree.from_graph(g)
    ind_value, _ = dims.ind_mod2(g, budget_s=args.budget)
    bool_value, _ = dims.boolean_dim(g, budget_s=args.budget)
    star_value, _ = trees.m_star(tree)
    equal = ind_value == bool_value == star_value
    result = {
        "independence": ind_value,
        "boolean": bool_value,
        "m": star_value,
        "equal": equal,
    }
    _emit(args, "tree verify", _digest(raw), _params(args), result, None, started)
    if not args.json:
        print(f"independence={ind_value} boolean={bool_value} m={star_value} -> "
              f"{'EQUAL' if equal else 'UNEQUAL'}")
    return 0 if equal else 1


def _cmd_tournament_index(args) -> int:
    started = time.perf_counter()
    t, raw = _load_tournament(args)
    value, certificate = tournaments.inversion_index(t, budget_s=args.budget)
    result = {"index": value}
    witness = {
        "subsets": [graphs.set_bits(s) for s in certificate.subsets],
        "order": list(certificate.order),
    }
    _emit(args, "tournament index", _digest(raw), _params(args), result, witness, started)
    if not args.json:
        print(f"inversion index = {value}")
        print(f"invert in sequence: {witness['subsets']}")
        print(f"resulting order: {witness['order']}")
    return 0


def _cmd_tournament_table(args) -> int:
    started = time.perf_counter()
    cache = _cache_dir(args)
    table = tournaments.inversion_table(
        args.n,
        budget_s=args.budget,
        index_cache=FileIndexCache(cache) if cache is not None else None,
    )
    value = max(index for _, index in table)
    per_class = [{"tournament": rep.to_text(), "index": index} for rep, index in table]
    digest = _digest(f"table:{args.n}".encode())
    result = {"n": args.n, "max_index": value, "classes": len(table)}
    _emit(args, "tournament table", digest, _params(args), result,
          {"indices": per_class}, started)
    if not args.json:
        print(f"i({args.n}) = {value} over {len(table)} isomorphism classes")
    return 0


def _cmd_tournament_embeds(args) -> int:
    started = time.perf_counter()
    pattern, raw_p = _tournament_spec(args.pattern)
    target, raw_t = _tournament_spec(args.target)
    answer = tournaments.embeds(pattern, target)
    digest = _digest(raw_p + b"\x00" + raw_t)
    result = {"embeds": answer, "pattern_n": pattern.n, "target_n": target.n}
    _emit(args, "tournament embeds", digest, _params(args), result, None, started)
    if not args.json:
        print("embeds" if answer else "does not embed")
    return 0


def _cmd_generate(args) -> int:
    if args.family in TOURNAMENT_FAMILIES:
        sys.stdout.write(_tournament_family(args.family, args.n).to_text())
        return 0
    if args.family in GRAPH_FAMILIES:
        print(graphs.write_graph6(GRAPH_FAMILIES[args.family](args.n)))
        return 0
    raise ValueError(
        f"unknown family {args.family!r}; tournaments: {sorted(TOURNAMENT_FAMILIES)}, "
        f"graphs: {sorted(GRAPH_FAMILIES)}"
    )


def _params(args) -> dict:
    skip = {"func", "json", "cache_dir", "no_cache", "workers"}
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not callable(v)
    }


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit a JSON run record")
    # Accepted for old command lines and ignored: every command runs in one process.
    parser.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                        help="hard wall-clock bound for each search (exceeding is an error)")
    parser.add_argument("--cache-dir", default=None,
                        help="per-class index cache of 'tournament table' "
                             f"(default ${CACHE_ENV} or ~/.cache/booldim)")
    parser.add_argument("--no-cache", action="store_true",
                        help="compute every class of 'tournament table' afresh")


def _add_graph_input(parser):
    parser.add_argument("--graph6", metavar="PATH", help="graph6 input ('-' for stdin)")
    parser.add_argument("--edges", metavar="PATH", help="edge-list input ('-' for stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="booldim",
        description="Exact GF(2) dimension invariants, tree star decompositions, "
                    "and tournament inversion indices.",
    )
    parser.add_argument("--version", action="version", version=f"booldim {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    graph = top.add_parser("graph", help="graph dimension commands").add_subparsers(
        dest="verb", required=True
    )
    p = graph.add_parser("dims", help="all four dimensions with witnesses")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_dims)
    p = graph.add_parser("oracle-check", help="compare against the brute-force oracle")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(func=_cmd_graph_oracle_check)

    tree = top.add_parser("tree", help="tree decomposition commands").add_subparsers(
        dest="verb", required=True
    )
    p = tree.add_parser("mstar", help="optimal star decomposition")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tree_mstar)
    p = tree.add_parser("verify", help="three-way equality of the tree invariants")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tree_verify)

    tour = top.add_parser("tournament", help="tournament commands").add_subparsers(
        dest="verb", required=True
    )
    p = tour.add_parser("index", help="exact inversion index with certificate")
    p.add_argument("--file", metavar="PATH", help="tournament text input ('-' for stdin)")
    p.add_argument("--family", choices=sorted(TOURNAMENT_FAMILIES), help="generate the input")
    p.add_argument("--n", type=int, help="family size parameter")
    _add_common(p)
    p.set_defaults(func=_cmd_tournament_index)
    p = tour.add_parser("table", help="max inversion index over all n-vertex tournaments")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_tournament_table)
    p = tour.add_parser("embeds", help="induced subtournament test")
    p.add_argument("--pattern", required=True, metavar="SPEC",
                   help="path, '-', or family:n (e.g. cn:7)")
    p.add_argument("--target", required=True, metavar="SPEC")
    _add_common(p)
    p.set_defaults(func=_cmd_tournament_embeds)

    p = top.add_parser("generate", help="write a named family member to stdout")
    p.add_argument("--family", required=True,
                   choices=sorted(TOURNAMENT_FAMILIES) + sorted(GRAPH_FAMILIES))
    p.add_argument("--n", type=int, required=True, help="size parameter (k for ortho families)")
    p.set_defaults(func=_cmd_generate, json=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
