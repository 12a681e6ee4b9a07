"""CLI behavior: subcommands, exit codes, JSON stability, cache reuse."""

from __future__ import annotations

import json

import pytest

from booldim import cli
from booldim.graphs import complete_graph, path_graph, write_graph6


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_tournament_index_family(cache_dir, capsys):
    code, out, _ = run(
        capsys, "tournament", "index", "--family", "c3sum", "--n", "2", "--json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["index"] == 2
    assert len(rec["witness"]["subsets"]) == 2


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


def test_tournament_table_unreadable_cache_entry_is_a_miss(cache_dir, capsys):
    code, _, _ = run(capsys, "tournament", "table", "--n", "4")
    assert code == 0
    entries = sorted(cache_dir.glob("tournament-index-*.json"))
    entries[0].write_text("{garbage")
    code, out, _ = run(capsys, "tournament", "table", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["result"]["max_index"] == 1
    # The miss was recomputed and stored over the unreadable entry.
    assert json.loads(entries[0].read_text())["index"] in (0, 1)


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


def test_capacity_exit_3(tmp_path, cache_dir, capsys):
    code, _, err = run(capsys, "tournament", "table", "--n", "9")
    assert code == 3
    assert "error:" in err


def test_budget_exhaustion_exit_3(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "big.g6"
    from booldim.graphs import ortho_graph_H

    g6.write_text(write_graph6(ortho_graph_H(4)))
    code, _, err = run(
        capsys, "graph", "dims", "--graph6", str(g6), "--budget", "1e-9"
    )
    assert code == 3
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


def test_oracle_check(tmp_path, cache_dir, capsys):
    g6 = tmp_path / "p5.g6"
    g6.write_text(write_graph6(path_graph(5)))
    code, out, _ = run(capsys, "graph", "oracle-check", "--graph6", str(g6), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == {"agree": True, "boolean": 4, "oracle": 4}
