"""Graph toolkit for connectivity and super connectivity of direct
products with cycles: constructions, exact invariants, and a verification
harness for the product-connectivity results."""

__version__ = "0.1.0"

from .connectivity import (
    ConnectivityReport,
    SuperKappaResult,
    VertexCut,
    all_minimum_vertex_cuts,
    connectivity_report,
    edge_connectivity,
    is_super_kappa,
    vertex_connectivity,
    vertex_connectivity_exhaustive,
)
from .construct import (
    LayeredDecomposition,
    complete,
    complete_bipartite,
    cycle,
    direct_product,
    double_cover,
    layer_decomposition,
    random_connected_bipartite,
    random_connected_nonbipartite,
    tilde,
)
from .errors import (
    CapacityError,
    FormatError,
    GenerationError,
    InputError,
    NoCutError,
)
from .expr import ProductSpec, build_expression, parse_spec
from .formats import (
    parse_edgelist_json,
    parse_graph6,
    write_edgelist_json,
    write_graph6,
)
from .graph import Bipartition, Graph, is_isomorphic_small
from .theorems import (
    THEOREM_IDS,
    TheoremVerdict,
    check_hypotheses,
    predicted,
    replay_witness,
    verify,
    verify_decomposition,
)
from .tightness import TightnessReport, tightness_search

__all__ = [name for name in dir() if not name.startswith("_")]
