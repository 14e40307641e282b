"""Exact node-reliability polynomials of graphs and their shape on (0,1)."""

from .census import CensusSummary, generate_connected, generate_trees, run_census, stream_graph6
from .connsets import (
    ConnSetProfile,
    check_coefficient_identities,
    count_connected_sets,
    f_coefficients,
    family_profile,
    first_bound_violation,
    first_sperner_violation,
    profile_disjoint_union,
)
from .graphs import (
    FamilySpec,
    Graph,
    canonical_graph,
    cut_vertices,
    is_connected,
    is_two_connected,
    make_family,
    min_vertex_cut,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .poly import (
    ReliabilityPoly,
    d_coefficients,
    derivative,
    eval_exact,
    from_profile,
    monte_carlo_estimate,
    sample,
    second_derivative,
)
from .shape import (
    Interval,
    RootRecord,
    ShapeReport,
    analyze_profile,
    check_fixed_point_witness,
    check_sparse_decrease,
    isolate_roots,
    maximize_threshold_constant,
)
from .sturm import ZeroPolynomialError

__version__ = "0.1.0"
