"""CLI behavior: subcommands, exit codes, JSON stability, cache reuse."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from booldim import cli, dims, trees
from booldim.graphs import complete_graph, ortho_graph_H, path_graph, write_graph6

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import (  # noqa: E402
    check_graph_dims,
    check_tournament_index,
    check_tournament_table,
    check_tree_mstar,
    check_tree_verify,
)
from corpus import ARGV  # noqa: E402
from conftest import random_tree, star_cost_dp  # noqa: E402


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PARITY_FILES = {
    "g.g6": "Dvw\n",
    "p5.txt": "0 1\n1 2\n2 3\n3 4\n",
    "t8.txt": "0 1\n0 2\n0 3\n3 4\n4 5\n4 6\n6 7\n",
    "s5.txt": "5\n01000\n00100\n10010\n11001\n11100\n",
}

# verb: (argv, text reply, --json record without elapsed_ms and version)
PARITY = {
    "graph dims": (
        ["graph", "dims", "--graph6", "g.g6"],
        "boolean=3 inner=3 geometric=2 symplectic=2\n"
        "trichotomy: geo-symp-eq-bool-minus-1\n"
        "witness diagonal: []\n"
        "witness cliques: [[0, 1, 2, 3, 4], [1, 2], [3, 4]]\n",
        {"command": "graph dims",
         "input_digest": "3926e63080e29d88a3dbd3ebecdf807531c7a99b01c3fde23c4c96ce8b55ab69",
         "params": {"graph6": "g.g6", "group": "graph", "verb": "dims"},
         "result": {"boolean": 3,
                    "geometric": 2,
                    "inner": 3,
                    "symplectic": 2,
                    "trichotomy": "geo-symp-eq-bool-minus-1"},
         "witness": {"cliques": [[0, 1, 2, 3, 4], [1, 2], [3, 4]], "diagonal": []}},
    ),
    "graph oracle-check": (
        ["graph", "oracle-check", "--edges", "p5.txt"],
        "boolean=4 oracle=4 -> AGREE\n",
        {"command": "graph oracle-check",
         "input_digest": "723eee12f244bc1bd1e4648685d613233d8b31a2ee280f5d2837c79c28ca6842",
         "params": {"edges": "p5.txt", "group": "graph", "verb": "oracle-check"},
         "result": {"agree": True, "boolean": 4, "oracle": 4},
         "witness": None},
    ),
    "tree mstar": (
        ["tree", "mstar", "--edges", "t8.txt"],
        "m = 5\n"
        "  star center=0 leaves=[1, 2, 3]\n"
        "  star center=4 leaves=[3, 5, 6]\n"
        "  trivial center=6 leaves=[7]\n",
        {"command": "tree mstar",
         "input_digest": "d16eeb5214fb76320ebeb14a56e2ed72726cc75bbb93f6be51459f397eb156e5",
         "params": {"edges": "t8.txt", "group": "tree", "verb": "mstar"},
         "result": {"m": 5},
         "witness": {"stars": [{"center": 0, "leaves": [1, 2, 3]},
                               {"center": 4, "leaves": [3, 5, 6]},
                               {"center": 6, "leaves": [7]}]}},
    ),
    "tree verify": (
        ["tree", "verify", "--edges", "t8.txt"],
        "independence=5 boolean=5 m=5 -> EQUAL\n",
        {"command": "tree verify",
         "input_digest": "d16eeb5214fb76320ebeb14a56e2ed72726cc75bbb93f6be51459f397eb156e5",
         "params": {"edges": "t8.txt", "group": "tree", "verb": "verify"},
         "result": {"boolean": 5, "equal": True, "independence": 5, "m": 5},
         "witness": None},
    ),
    "tournament index family": (
        ["tournament", "index", "--family", "c3sum", "--n", "2"],
        "inversion index = 2\n"
        "invert in sequence: [[0, 2], [3, 5]]\n"
        "resulting order: [0, 1, 2, 3, 4, 5]\n",
        {"command": "tournament index",
         "input_digest": "0735ff145b5efdf5430c207ccfe0f51875b0500e096af50e6ab77fcd311617cb",
         "params": {"family": "c3sum", "group": "tournament", "n": 2, "verb": "index"},
         "result": {"index": 2},
         "witness": {"order": [0, 1, 2, 3, 4, 5], "subsets": [[0, 2], [3, 5]]}},
    ),
    "tournament index file": (
        ["tournament", "index", "--file", "s5.txt"],
        "inversion index = 2\n"
        "invert in sequence: [[0, 2, 3, 4], [1, 3, 4]]\n"
        "resulting order: [0, 1, 3, 2, 4]\n",
        {"command": "tournament index",
         "input_digest": "95396727dd3749259060f035a31bb2319dd8c98f164c96ed796fce58cd59dd87",
         "params": {"file": "s5.txt", "group": "tournament", "verb": "index"},
         "result": {"index": 2},
         "witness": {"order": [0, 1, 3, 2, 4], "subsets": [[0, 2, 3, 4], [1, 3, 4]]}},
    ),
    "tournament table": (
        ["tournament", "table", "--n", "4", "--no-cache"],
        "i(4) = 1 over 4 isomorphism classes\n",
        {"command": "tournament table",
         "input_digest": "4f287c5840aa89d4b722c7e331e779f8fbc3c62642abf557ad3014ea4bd7a7aa",
         "params": {"group": "tournament", "n": 4, "verb": "table"},
         "result": {"classes": 4, "max_index": 1, "n": 4},
         "witness": {"indices": [{"index": 0, "tournament": "4\n0000\n1000\n1100\n1110\n"},
                                 {"index": 1, "tournament": "4\n0000\n1001\n1100\n1010\n"},
                                 {"index": 1, "tournament": "4\n0001\n1000\n1100\n0110\n"},
                                 {"index": 1, "tournament": "4\n0001\n1000\n1101\n0100\n"}]}},
    ),
    "tournament embeds": (
        ["tournament", "embeds", "--pattern", "acyclic:3", "--target", "s5.txt"],
        "embeds\n",
        {"command": "tournament embeds",
         "input_digest": "aaf2b5ce70e1f84c44e11b806f9399afbdea1153e0096afd03e719f9c14198b0",
         "params": {"group": "tournament",
                    "pattern": "acyclic:3",
                    "target": "s5.txt",
                    "verb": "embeds"},
         "result": {"embeds": True, "pattern_n": 3, "target_n": 5},
         "witness": None},
    ),
    "generate tournament": (
        ["generate", "--family", "strongpath", "--n", "4"],
        "4\n"
        "0100\n"
        "0010\n"
        "1001\n"
        "1100\n",
        None,
    ),
    "generate graph": (
        ["generate", "--family", "ortho", "--n", "2"],
        "CB\n",
        None,
    ),
}


@pytest.fixture()
def parity_files(tmp_path, monkeypatch):
    """The PARITY_FILES, written into a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    for name, content in PARITY_FILES.items():
        (tmp_path / name).write_text(content)


@pytest.mark.parametrize("verb", list(PARITY))
def test_reply_parity(parity_files, capsys, verb):
    # The exact text reply and --json record of every verb on fixed inputs,
    # so that a change to the command layer shows in any byte it moves.
    argv, text, record = PARITY[verb]
    assert run(capsys, *argv) == (0, text, "")
    if record is not None:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        reply = json.loads(out)
        assert out == json.dumps(reply, sort_keys=True, separators=(",", ":")) + "\n"
        assert reply.pop("elapsed_ms") >= 0
        assert reply == {**record, "version": cli.__version__}


def test_graph_dims_k5(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "k5.g6"
    g6.write_text(write_graph6(complete_graph(5)) + "\n")
    code, out, _ = run(capsys, "graph", "dims", "--graph6", str(g6))
    assert code == 0
    assert "boolean=1" in out and "geometric=1" in out and "symplectic=4" in out


def test_graph_dims_json_stable(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "p6.g6"
    g6.write_text(write_graph6(path_graph(6)))
    records = []
    for _ in range(2):
        code, out, _ = run(capsys, "graph", "dims", "--graph6", str(g6), "--json")
        assert code == 0
        records.append(json.loads(out))
    for rec in records:
        rec.pop("elapsed_ms")
    assert records[0] == records[1]
    assert records[0]["result"]["boolean"] == 5
    assert records[0]["version"]
    assert len(records[0]["input_digest"]) == 64


@pytest.mark.parametrize(
    "g6, golden",
    [
        (write_graph6(ortho_graph_H(4)), (4, 4, 5)),
        ("Dvw", (2, 2, 3)),
    ],
    ids=["ortho_H4", "K5_minus_two_disjoint_edges"],
)
def test_graph_dims_tie_case_passes_independent_check(tmp_path, cache_dir, capsys, g6, golden):
    # Graphs with geometric = symplectic = boolean - 1, where the boolean
    # witness is a nonzero mask that ties mask 0; the benchmark's own rank
    # and clique-XOR check replays the record against the paper's values.
    path = tmp_path / "g.g6"
    path.write_text(g6 + "\n")
    code, out, _ = run(capsys, "graph", "dims", "--graph6", str(path), "--json")
    assert code == 0
    geometric, symplectic, boolean = golden
    item = {
        "golden": {
            "geometric": geometric,
            "symplectic": symplectic,
            "boolean": boolean,
            "trichotomy": "geo-symp-eq-bool-minus-1",
        }
    }
    assert check_graph_dims(item, json.loads(out), g6) is None


def test_tree_mstar_path10(tmp_path, cache_dir, capsys):
    edges = tmp_path / "p10.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
    code, out, _ = run(capsys, "tree", "mstar", "--edges", str(edges), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["m"] == 9
    assert len(rec["witness"]["stars"]) == 9


def test_tree_verify(tmp_path, cache_dir, capsys):
    edges = tmp_path / "star.txt"
    edges.write_text("0 1\n0 2\n0 3\n0 4\n")
    code, out, _ = run(capsys, "tree", "verify", "--edges", str(edges))
    assert code == 0
    assert "EQUAL" in out


@pytest.mark.parametrize(
    "command, check, max_n, count",
    [("tree mstar", check_tree_mstar, 62, 60), ("tree verify", check_tree_verify, 16, 20)],
    ids=["mstar", "verify"],
)
def test_tree_records_pass_independent_check(
    tmp_path, cache_dir, capsys, command, check, max_n, count
):
    # The benchmark's own checks compare each record with the golden m of
    # the load DP oracle and, for mstar, replay the star witness against the
    # input graph.  Their graph6 decoder reads the short form only, so the
    # mstar trees stop at 62 vertices.
    rng = random.Random(max_n)
    sizes = [rng.randint(1, max_n) for _ in range(count)] + [max_n]
    path = tmp_path / "t.g6"
    for n in sizes:
        g = random_tree(rng, n)
        g6 = write_graph6(g)
        path.write_text(g6 + "\n")
        code, out, _ = run(capsys, *command.split(), "--graph6", str(path), "--json")
        assert code == 0
        item = {"command": command, "golden": {"m": star_cost_dp(g)}}
        assert check(item, json.loads(out), g6) is None, g6


def test_tournament_index_family(cache_dir, capsys):
    code, out, _ = run(
        capsys, "tournament", "index", "--family", "c3sum", "--n", "2", "--json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["index"] == 2
    assert len(rec["witness"]["subsets"]) == 2


GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())
TOURNAMENT_POOL = [
    pytest.param(item, id=f"{family}:{n}:{k}")
    for family in ("c3sum", "cn", "strongpath", "tournament")
    for n, pool in GOLDEN["pools"][family].items()
    for k, item in enumerate(pool)
]


@pytest.mark.parametrize("item", TOURNAMENT_POOL)
def test_tournament_index_records_pass_independent_check(tmp_path, cache_dir, capsys, item):
    # The benchmark's golden index and its own replay of the inversions, on
    # every tournament the benchmark draws from.
    path = tmp_path / "t.txt"
    path.write_text(item["input"])
    code, out, _ = run(capsys, "tournament", "index", "--file", str(path), "--json")
    assert code == 0
    assert check_tournament_index(item, json.loads(out), item["input"]) is None


GRAPH_POOL = [
    pytest.param(item, id=f"{family}:{n}:{k}")
    for family, pools in GOLDEN["pools"].items()
    for n, pool in pools.items()
    for k, item in enumerate(pool)
    if "boolean" in item["golden"]
]


@pytest.mark.parametrize("item", GRAPH_POOL)
def test_graph_dims_records_pass_independent_check(tmp_path, cache_dir, capsys, item):
    # The benchmark's golden values, its own rank of the diagonal witness and
    # its own XOR of the witness cliques, on every graph it draws from.
    path = tmp_path / "g.g6"
    path.write_text(item["input"] + "\n")
    code, out, _ = run(capsys, "graph", "dims", "--graph6", str(path), "--json")
    assert code == 0
    assert check_graph_dims(item, json.loads(out), item["input"]) is None


def test_tournament_table_uses_cache(cache_dir, capsys):
    code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["result"]["max_index"] == 1
    cached = list(cache_dir.glob("tournament-index-*.json"))
    assert len(cached) == 4  # one per isomorphism class
    # Second run must reuse the per-class records (no new files).
    code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json")
    assert code == 0
    assert len(list(cache_dir.glob("tournament-index-*.json"))) == 4


def test_tournament_table_records_pass_independent_check(tmp_path, capsys):
    # The benchmark's cold and warm passes: a fresh cache directory, then the
    # same one again, each record checked against the golden class table.
    item = {"command": "tournament table", "golden": GOLDEN["pools"]["table"]["5"][0]["golden"]}
    cache = tmp_path / "cache"
    for _ in range(2):
        code, out, _ = run(
            capsys, "tournament", "table", "--n", "5", "--json", "--cache-dir", str(cache)
        )
        assert code == 0
        assert check_tournament_table(item, json.loads(out), None) is None
        assert len(list(cache.glob("tournament-index-*.json"))) == 12


def test_tournament_table_bad_budget_on_warm_cache_exit_2(cache_dir, capsys):
    code, _, _ = run(capsys, "tournament", "table", "--n", "3")
    assert code == 0
    assert any(cache_dir.iterdir())
    for budget in ("-1", "nan"):
        code, _, err = run(capsys, "tournament", "table", "--n", "3", "--budget", budget)
        assert code == 2
        assert "budget" in err


def test_tournament_table_unreadable_cache_entry_is_a_miss(cache_dir, capsys):
    code, _, _ = run(capsys, "tournament", "table", "--n", "4")
    assert code == 0
    entries = sorted(cache_dir.glob("tournament-index-*.json"))
    entries[0].write_text("{garbage")
    code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["result"]["max_index"] == 1
    # The miss was recomputed and renamed over the unreadable entry.
    assert json.loads(entries[0].read_text())["index"] in (0, 1)
    assert sorted(cache_dir.iterdir()) == entries


def test_tournament_table_unwritable_cache_entry_only_warns(cache_dir, capsys):
    code, expected, _ = run(capsys, "tournament", "table", "--n", "3")
    assert code == 0
    entries = sorted(cache_dir.glob("tournament-index-*.json"))
    for entry in entries:
        # A non-empty directory at the entry's path: reading it is a miss and
        # renaming a file over it fails.
        entry.unlink()
        entry.mkdir()
        (entry / "keep").write_text("")
    code, out, err = run(capsys, "tournament", "table", "--n", "3")
    assert code == 0
    assert out == expected
    assert err.count("warning: cache entry not written") == len(entries)
    assert sorted(cache_dir.iterdir()) == entries


def test_tournament_table_cache_keyed_on_version(cache_dir, capsys, monkeypatch):
    with monkeypatch.context() as other_build:
        other_build.setattr(cli, "__version__", "0.0.0-other")
        code, _, _ = run(capsys, "tournament", "table", "--n", "4")
    assert code == 0
    stale = sorted(cache_dir.glob("tournament-index-*.json"))
    assert len(stale) == 4
    for entry in stale:
        entry.write_text(json.dumps({**json.loads(entry.read_text()), "index": 7}))
    code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json")
    assert code == 0
    # The other build's entries are misses: recomputed and stored alongside.
    assert json.loads(out)["result"]["max_index"] == 1
    assert len(list(cache_dir.glob("tournament-index-*.json"))) == 8


def test_tournament_table_ignores_workers(capsys):
    records = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json",
                           "--no-cache", "--workers", workers)
        assert code == 0
        record = json.loads(out)
        record.pop("elapsed_ms")
        records.append(record)
    assert records[0] == records[1]
    assert "workers" not in records[0]["params"]


def test_benchmark_command_lines_parse():
    # perfbench/run.py calls every corpus command with this suffix; a flag
    # dropped from any command would fail every benchmark call.
    parser = cli.build_parser()
    suffix = ["--json", "--workers", "2", "--cache-dir", "DIR"]
    for command, argv in ARGV.items():
        args = parser.parse_args(argv + ["5"] + suffix)
        assert (args.json, args.workers, args.cache_dir) == (True, 2, "DIR"), command


def test_only_the_table_uses_the_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    g6 = tmp_path / "p6.g6"
    g6.write_text(write_graph6(path_graph(6)))
    commands = [
        ["graph", "dims", "--graph6", str(g6)],
        ["graph", "oracle-check", "--graph6", str(g6)],
        ["tree", "mstar", "--graph6", str(g6)],
        ["tree", "verify", "--graph6", str(g6)],
        ["tournament", "index", "--family", "c3sum", "--n", "2"],
        ["tournament", "embeds", "--pattern", "cn:5", "--target", "cn:6"],
    ]
    for argv in commands:
        code, _, _ = run(capsys, *argv, "--json", "--cache-dir", str(cache))
        assert code == 0, argv
    assert not cache.exists() or not any(cache.iterdir())


def test_tournament_embeds(cache_dir, capsys):
    code, out, _ = run(
        capsys, "tournament", "embeds", "--pattern", "cn:7", "--target", "cn:8"
    )
    assert code == 0
    assert "does not embed" in out


def test_generate_round_trips(cache_dir, capsys):
    code, out, _ = run(capsys, "generate", "--family", "strongpath", "--n", "5")
    assert code == 0
    from booldim.tournaments import Tournament, gen_strong_path

    assert Tournament.from_text(out) == gen_strong_path(5)
    code, out, _ = run(capsys, "generate", "--family", "ortho", "--n", "3")
    assert code == 0
    from booldim.graphs import ortho_graph, parse_graph6

    assert parse_graph6(out).adj == ortho_graph(3).adj


def test_stdin_input(cache_dir, capsys, monkeypatch):
    import io

    g6 = write_graph6(complete_graph(4))
    monkeypatch.setattr(
        "sys.stdin", type("S", (), {"buffer": io.BytesIO(g6.encode())})()
    )
    code, out, _ = run(capsys, "graph", "dims", "--graph6", "-")
    assert code == 0
    assert "symplectic=4" in out


def test_malformed_input_exit_2(tmp_path, cache_dir, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("}}}}}}}}}}}}}}}}")
    code, _, err = run(capsys, "graph", "dims", "--graph6", str(bad))
    assert code == 2
    assert "error:" in err


def test_missing_input_exit_2(cache_dir, capsys):
    code, _, err = run(capsys, "graph", "dims")
    assert code == 2


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["graph", "dims", "--graph6", "g.g6", "--edges", "p5.txt"], "--graph6 / --edges"),
        (["tournament", "index", "--file", "s5.txt", "--family", "c3sum", "--n", "2"],
         "--file / --family"),
    ],
    ids=["graph", "tournament"],
)
def test_two_inputs_exit_2(parity_files, capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"give exactly one of {flags}" in err


def test_index_file_with_n_exit_2(parity_files, capsys):
    # --n sizes a family; with --file it would be ignored.
    code, out, err = run(capsys, "tournament", "index", "--file", "s5.txt", "--n", "9")
    assert (code, out) == (2, "")
    assert "--n needs --family" in err


@pytest.mark.parametrize(
    "command",
    [
        "tournament index --family acyclic --n -4",
        "generate --family acyclic --n -1",
        "tournament embeds --pattern acyclic:-2 --target cn:5",
    ],
)
def test_negative_acyclic_size_exit_2(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "command",
    [
        "tree mstar --edges t8.txt --budget 1",
        "tournament embeds --pattern cn:5 --target cn:6 --budget 1",
        "graph dims --edges t8.txt --no-cache",
        "graph oracle-check --edges t8.txt --no-cache",
        "tree mstar --edges t8.txt --no-cache",
        "tree verify --edges t8.txt --no-cache",
        "tournament index --family c3sum --n 2 --no-cache",
        "tournament embeds --pattern cn:5 --target cn:6 --no-cache",
    ],
)
def test_flag_the_verb_does_not_read_exit_2(capsys, command):
    # --budget bounds only the verbs that search and --no-cache concerns
    # only the table, so elsewhere they are refused rather than ignored.
    with pytest.raises(SystemExit) as refused:
        cli.main(command.split())
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, module, name, fake, line",
    [
        ("graph oracle-check --edges p5.txt", dims, "boolean_dim_oracle",
         lambda g, k_max: k_max - 1, "boolean=4 oracle=3 -> MISMATCH"),
        ("tree verify --edges t8.txt", trees, "m_star",
         lambda tree: (6, None), "independence=5 boolean=5 m=6 -> UNEQUAL"),
    ],
    ids=["oracle-check", "verify"],
)
def test_disagreement_exit_1(parity_files, capsys, monkeypatch, command, module, name, fake, line):
    # A planted disagreement between the two sides of a cross-check.
    monkeypatch.setattr(module, name, fake)
    assert run(capsys, *command.split()) == (1, line + "\n", "")
    code, out, _ = run(capsys, *command.split(), "--json")
    assert code == 1
    assert False in json.loads(out)["result"].values()


def test_capacity_exit_3(tmp_path, cache_dir, capsys):
    code, _, err = run(capsys, "tournament", "table", "--n", "9")
    assert code == 3
    assert "error:" in err


def test_oversize_family_exit_3_before_building(capsys):
    # 20,000 rows would take tens of seconds to build; the cap comes first.
    started = time.perf_counter()
    code, out, err = run(capsys, "generate", "--family", "strongpath", "--n", "20000")
    assert (code, out) == (3, "")
    assert "capped at 64" in err
    assert time.perf_counter() - started < 0.5


def test_budget_exhaustion_exit_3(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "big.g6"
    from booldim.graphs import ortho_graph_H

    g6.write_text(write_graph6(ortho_graph_H(4)))
    code, _, err = run(
        capsys, "graph", "dims", "--graph6", str(g6), "--budget", "1e-9"
    )
    assert code == 3
    assert "budget" in err


BUDGET_COMMANDS = {
    "graph dims": ["graph", "dims", "--graph6", "p16.g6"],
    "tournament index": ["tournament", "index", "--family", "strongpath", "--n", "7"],
}


@pytest.mark.parametrize("command", sorted(BUDGET_COMMANDS))
@pytest.mark.parametrize("budget, code", [("nan", 2), ("-1", 2), ("0", 3)])
def test_budget_value_exit_codes(tmp_path, cache_dir, capsys, monkeypatch, command, budget, code):
    # A NaN or negative budget is malformed input; a zero budget is a
    # search that runs out at its first poll.
    (tmp_path / "p16.g6").write_text(write_graph6(path_graph(16)) + "\n")
    monkeypatch.chdir(tmp_path)
    got, _, err = run(capsys, *BUDGET_COMMANDS[command], "--budget", budget)
    assert got == code
    assert "budget" in err


def test_budget_expires_mid_search_exit_3(tmp_path, cache_dir, capsys, clock_jump):
    g6 = tmp_path / "p16.g6"
    g6.write_text(write_graph6(path_graph(16)))
    clock_jump(3)
    code, _, err = run(
        capsys, "graph", "dims", "--graph6", str(g6), "--budget", "3600"
    )
    assert code == 3
    assert "budget" in err


def test_tree_verify_budget_expires_in_independence_search(
    tmp_path, cache_dir, capsys, clock_jump, monkeypatch
):
    # The independence search polls several times on this tree and runs
    # before the diagonal sweep, so the budget must expire inside it.
    g6 = tmp_path / "t20.g6"
    g6.write_text(write_graph6(random_tree(random.Random(1), 20)))

    def sweep(*args, **kwargs):
        raise AssertionError("the diagonal sweep ran")

    monkeypatch.setattr(dims, "boolean_dim", sweep)
    clock = clock_jump(1)
    code, _, err = run(
        capsys, "tree", "verify", "--graph6", str(g6), "--budget", "3600"
    )
    assert code == 3
    assert "budget" in err
    assert clock.reads == 2


def test_oracle_check(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "p5.g6"
    g6.write_text(write_graph6(path_graph(5)))
    code, out, _ = run(capsys, "graph", "oracle-check", "--graph6", str(g6), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == {"agree": True, "boolean": 4, "oracle": 4}
