"""The names the booldim package exports: the engine and what the CLI and the
benchmark read, nothing that only the tests call."""

from __future__ import annotations

import booldim

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
