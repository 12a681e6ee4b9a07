"""Command-line front end.

One verb per artifact: graph dims / graph oracle-check, tree mstar / tree
verify, tournament index / table / embeds, and generate for the built-in
families.  Reports are human-readable by default and a stable JSON record
with --json.  Commands only parse, call the library and print: each witness
is checked by the library function that builds it.  Given --cache-dir, the
tournament table keeps its per-class indices there, each entry written to a
temp file and renamed into place, keyed by the tournament and the booldim
version; without it nothing is cached, and no other command touches it.

Exit codes: 0 success, 1 a cross-check disagreed (graph oracle-check MISMATCH,
tree verify UNEQUAL), 2 malformed input, 3 capacity or budget exceeded.
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


def _stable_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _write_once(path: Path, text: str):
    # A temp file renamed over the entry, so a reader never sees half of one.
    tmp = path.with_suffix(".tmp-%d" % os.getpid())
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


class FileIndexCache:
    """Per-tournament inversion indices persisted as JSON files, each written
    to a temp file and renamed into place.

    Entries are keyed on the booldim version as well as the tournament text,
    so an index computed by another build is a miss.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def _path(self, key: str) -> Path:
        digest = _digest(f"{__version__}\n{key}".encode())[:24]
        return self.directory / f"tournament-index-{digest}.json"

    def _load(self, key: str) -> int | None:
        """The stored index, or None when the entry is missing, unreadable,
        names another tournament, or holds no int in 0..n for the key's n
        vertices (the order search never needs more than n inversions)."""
        try:
            data = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("tournament") != key:
            return None
        index, n = data.get("index"), int(key.partition("\n")[0])
        return index if type(index) is int and 0 <= index <= n else None

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def __getitem__(self, key: str) -> int:
        value = self._load(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value: int):
        """Store the entry; a failed write only warns, as a failed read is a miss."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _write_once(self._path(key), _stable_json({"tournament": key, "index": value}))
        except OSError as exc:
            print(f"warning: cache entry not written: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load_graph(args) -> tuple[graphs.Graph, bytes]:
    if bool(args.graph6) == bool(args.edges):
        raise ValueError("give exactly one of --graph6 / --edges")
    raw = _read_input(args.graph6 or args.edges)
    if args.graph6:
        return graphs.parse_graph6(raw.decode("ascii")), raw
    return graphs.parse_edge_list(raw.decode()), raw


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


def _tournament_family(name: str, n: int) -> tuple[tournaments.Tournament, bytes]:
    if name not in TOURNAMENT_FAMILIES:
        raise ValueError(f"unknown tournament family {name!r}; "
                         f"choose from {sorted(TOURNAMENT_FAMILIES)}")
    t = TOURNAMENT_FAMILIES[name](n)
    return t, t.to_text().encode()


def _tournament_file(path: str) -> tuple[tournaments.Tournament, bytes]:
    raw = _read_input(path)
    return tournaments.Tournament.from_text(raw.decode()), raw


def _tournament_spec(spec: str) -> tuple[tournaments.Tournament, bytes]:
    """A path, '-', or 'family:n' shorthand."""
    if ":" in spec and not Path(spec).exists():
        name, _, arg = spec.partition(":")
        return _tournament_family(name, int(arg))
    return _tournament_file(spec)


# ---------------------------------------------------------------------------
# Commands: each returns (input bytes, result, witness, text lines, exit code)
# ---------------------------------------------------------------------------


def _graph_dims(args):
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
    lines = [
        f"boolean={report.boolean} inner={report.inner} "
        f"geometric={report.geometric} symplectic={report.symplectic}",
        f"trichotomy: {report.trichotomy_case.value}",
        f"witness diagonal: {witness['diagonal']}",
        f"witness cliques: {witness['cliques']}",
    ]
    return raw, result, witness, lines, 0


def _graph_oracle_check(args):
    g, raw = _load_graph(args)
    value, _ = dims.boolean_dim(g, budget_s=args.budget)
    oracle = dims.boolean_dim_oracle(g, value)
    agree = oracle == value
    result = {"boolean": value, "oracle": oracle, "agree": agree}
    line = f"boolean={value} oracle={oracle} -> {'AGREE' if agree else 'MISMATCH'}"
    return raw, result, None, [line], 0 if agree else 1


def _tree_mstar(args):
    g, raw = _load_graph(args)
    value, decomposition = trees.m_star(trees.Tree.from_graph(g))
    stars = [{"center": s.center, "leaves": list(s.leaves)} for s in decomposition.stars]
    lines = [f"m = {value}"] + [
        f"  {'trivial' if len(s['leaves']) == 1 else 'star'} "
        f"center={s['center']} leaves={s['leaves']}"
        for s in stars
    ]
    return raw, {"m": value}, {"stars": stars}, lines, 0


def _tree_verify(args):
    g, raw = _load_graph(args)
    tree = trees.Tree.from_graph(g)
    ind_value, _ = dims.ind_mod2(g, budget_s=args.budget)
    bool_value, _ = dims.boolean_dim(g, budget_s=args.budget)
    star_value, _ = trees.m_star(tree)
    equal = ind_value == bool_value == star_value
    result = {"independence": ind_value, "boolean": bool_value, "m": star_value, "equal": equal}
    line = (f"independence={ind_value} boolean={bool_value} m={star_value} -> "
            f"{'EQUAL' if equal else 'UNEQUAL'}")
    return raw, result, None, [line], 0 if equal else 1


def _tournament_index(args):
    if bool(args.file) == bool(args.family):
        raise ValueError("give exactly one of --file / --family")
    if args.family and args.n is None:
        raise ValueError("--family needs --n")
    if args.file and args.n is not None:
        raise ValueError("--n needs --family")
    t, raw = _tournament_file(args.file) if args.file else _tournament_family(args.family, args.n)
    value, certificate = tournaments.inversion_index(t, budget_s=args.budget)
    witness = {
        "subsets": [graphs.set_bits(s) for s in certificate.subsets],
        "order": list(certificate.order),
    }
    lines = [
        f"inversion index = {value}",
        f"invert in sequence: {witness['subsets']}",
        f"resulting order: {witness['order']}",
    ]
    return raw, {"index": value}, witness, lines, 0


def _tournament_table(args):
    cache = FileIndexCache(Path(args.cache_dir)) if args.cache_dir else None
    table = tournaments.inversion_table(args.n, budget_s=args.budget, index_cache=cache)
    value = max(index for _, index in table)
    per_class = [{"tournament": rep.to_text(), "index": index} for rep, index in table]
    result = {"n": args.n, "max_index": value, "classes": len(table)}
    line = f"i({args.n}) = {value} over {len(table)} isomorphism classes"
    return f"table:{args.n}".encode(), result, {"indices": per_class}, [line], 0


def _tournament_embeds(args):
    pattern, raw_p = _tournament_spec(args.pattern)
    target, raw_t = _tournament_spec(args.target)
    answer = tournaments.embeds(pattern, target)
    result = {"embeds": answer, "pattern_n": pattern.n, "target_n": target.n}
    line = "embeds" if answer else "does not embed"
    return raw_p + b"\x00" + raw_t, result, None, [line], 0


def _generate(args):
    if args.family in TOURNAMENT_FAMILIES:
        lines = _tournament_family(args.family, args.n)[0].to_text().splitlines()
    else:
        lines = [graphs.write_graph6(GRAPH_FAMILIES[args.family](args.n))]
    return b"", None, None, lines, 0


def _params(args) -> dict:
    skip = {"command", "json", "cache_dir", "workers"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _record_flags(p):
    p.add_argument("--json", action="store_true", help="emit a JSON run record")
    # Accepted for old command lines and ignored: every command runs in one process.
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p.add_argument("--cache-dir", metavar="DIR",
                   help="per-class index cache of 'tournament table' (none if omitted)")


def _budget_flag(p):
    p.add_argument("--budget", type=float, metavar="SECONDS",
                   help="hard wall-clock bound for each search (exceeding is an error)")


def _graph_flags(p):
    p.add_argument("--graph6", metavar="PATH", help="graph6 input ('-' for stdin)")
    p.add_argument("--edges", metavar="PATH", help="edge-list input ('-' for stdin)")


def _index_flags(p):
    p.add_argument("--file", metavar="PATH", help="tournament text input ('-' for stdin)")
    p.add_argument("--family", choices=sorted(TOURNAMENT_FAMILIES), help="generate the input")
    p.add_argument("--n", type=int, help="family size parameter")


def _table_flags(p):
    p.add_argument("--n", type=int, required=True)


def _embeds_flags(p):
    p.add_argument("--pattern", required=True, metavar="SPEC",
                   help="path, '-', or family:n (e.g. cn:7)")
    p.add_argument("--target", required=True, metavar="SPEC")


def _generate_flags(p):
    p.add_argument("--family", required=True,
                   choices=sorted(TOURNAMENT_FAMILIES) + sorted(GRAPH_FAMILIES))
    p.add_argument("--n", type=int, required=True, help="size parameter (k for ortho families)")
    p.set_defaults(json=False)


GROUPS = {
    "graph": "graph dimension commands",
    "tree": "tree decomposition commands",
    "tournament": "tournament commands",
}

#: One row per verb: its help text, the functions that add its flags, and the
#: function that computes its reply.
COMMANDS = {
    "graph dims": ("all four dimensions with witnesses",
                   (_graph_flags, _record_flags, _budget_flag), _graph_dims),
    "graph oracle-check": ("compare against the brute-force oracle",
                           (_graph_flags, _record_flags, _budget_flag), _graph_oracle_check),
    "tree mstar": ("optimal star decomposition", (_graph_flags, _record_flags), _tree_mstar),
    "tree verify": ("three-way equality of the tree invariants",
                    (_graph_flags, _record_flags, _budget_flag), _tree_verify),
    "tournament index": ("exact inversion index with certificate",
                         (_index_flags, _record_flags, _budget_flag), _tournament_index),
    "tournament table": ("max inversion index over all n-vertex tournaments",
                         (_table_flags, _record_flags, _budget_flag), _tournament_table),
    "tournament embeds": ("induced subtournament test",
                          (_embeds_flags, _record_flags), _tournament_embeds),
    "generate": ("write a named family member to stdout", (_generate_flags,), _generate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="booldim",
        description="Exact GF(2) dimension invariants, tree star decompositions, "
                    "and tournament inversion indices.",
    )
    parser.add_argument("--version", action="version", version=f"booldim {__version__}")
    top = parser.add_subparsers(dest="group", required=True)
    verbs = {
        group: top.add_parser(group, help=text).add_subparsers(dest="verb", required=True)
        for group, text in GROUPS.items()
    }
    for name, (text, flags, _) in COMMANDS.items():
        group, _, verb = name.partition(" ")
        p = verbs[group].add_parser(verb, help=text) if verb else top.add_parser(name, help=text)
        for add in flags:
            add(p)
        p.set_defaults(command=name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        raw, result, witness, lines, code = COMMANDS[args.command][2](args)
    except (ValueError, OSError, BudgetExceededError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, OSError)) else 3
    if args.json:
        print(_stable_json({
            "command": args.command,
            "input_digest": _digest(raw),
            "params": _params(args),
            "result": result,
            "witness": witness,
            "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
            "version": __version__,
        }))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
