"""Exact GF(2) dimension invariants of graphs, optimal star decompositions of
trees, and tournament inversion indices, each paired with an independent
brute-force oracle.

The hot kernels (rank, the diagonal-mask search, the tournament order
search) are pure Python and prune their searches; see booldim._kernels_py.
"""

from ._backend import kernel_backend
from .dims import (
    DimensionReport,
    IndWitness,
    TrichotomyCase,
    boolean_dim,
    boolean_dim_oracle,
    dimension_report,
    geometric_dim,
    ind_mod2,
    is_independent_mod2,
    symplectic_dim,
)
from .errors import (
    BooldimError,
    BudgetExceededError,
    CapacityError,
    FormatError,
    NotATreeError,
)
from .graphs import (
    CliqueFamily,
    Graph,
    clique_graph,
    complete_graph,
    cycle_graph,
    ortho_graph,
    ortho_graph_H,
    parse_edge_list,
    parse_graph6,
    path_graph,
    realize,
    validate_representation,
    write_edge_list,
    write_graph6,
)
from .tournaments import (
    InversionCertificate,
    Tournament,
    apply_inversions,
    disagreement_graph,
    embeds,
    enumerate_tournaments,
    gen_antichain_cn,
    gen_c3_sum,
    gen_strong_path,
    inversion_index,
    inversion_index_oracle,
    inversion_table,
    invert,
    is_acyclic,
    max_inversion_table,
)
from .trees import (
    StarDecomposition,
    Tree,
    decomposition_to_cliques,
    find_reduction,
    m_star,
)

__version__ = "0.1.0"

__all__ = [
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
