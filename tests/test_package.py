"""The names the booldim package exports: the engine and what the CLI and the
benchmark read, nothing that only the tests call.  No module imports a name it
never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import booldim

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "BooldimError",
    "BudgetExceededError",
    "CapacityError",
    "CliqueFamily",
    "DimensionReport",
    "FormatError",
    "Graph",
    "IndWitness",
    "InversionCertificate",
    "NotATreeError",
    "StarDecomposition",
    "Tournament",
    "Tree",
    "TrichotomyCase",
    "apply_inversions",
    "boolean_dim",
    "boolean_dim_oracle",
    "clique_graph",
    "complete_graph",
    "cycle_graph",
    "decomposition_to_cliques",
    "dimension_report",
    "disagreement_graph",
    "embeds",
    "enumerate_tournaments",
    "find_reduction",
    "gen_antichain_cn",
    "gen_c3_sum",
    "gen_strong_path",
    "geometric_dim",
    "ind_mod2",
    "inversion_index",
    "inversion_index_oracle",
    "inversion_table",
    "invert",
    "is_acyclic",
    "is_independent_mod2",
    "kernel_backend",
    "m_star",
    "max_inversion_table",
    "ortho_graph",
    "ortho_graph_H",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "realize",
    "symplectic_dim",
    "validate_representation",
    "write_edge_list",
    "write_graph6",
]


def test_exports_are_pinned():
    assert sorted(booldim.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(booldim, name), name


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unused_imports():
    # perfbench/tracing.py reads booldim._backend.kernels to label its spans.
    allowed = {"src/booldim/_backend.py": ["kernels"]}
    found = {
        path.relative_to(ROOT).as_posix(): names
        for folder in ("src/booldim", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert found == allowed
