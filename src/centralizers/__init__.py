"""Exact-arithmetic toolkit for almost-fixed-point sets and centralizer
extraction on Cayley balls and the Farey graph."""

from .errors import (
    BudgetError,
    ClosureError,
    GraphError,
    InputError,
    InvariantError,
    ParseError,
    ToolkitError,
)
from .extraction import (
    CentralizerCertificate,
    ConstantsReport,
    compute_constants,
    extract_centralizers,
    measure_constants,
    order_lower_bound,
    verify_centralizer,
)
from .farey import (
    FareyContext,
    FareyWindow,
    Slope,
    UniMatrix,
    act,
    adjacent,
    almost_fixed_slopes,
    build_window,
    farey_distance,
    finite_subgroup,
    intersection_number,
    orbit_diameter_profile,
)
from .fixpoints import (
    AlmostFixedSet,
    CayleyContext,
    MidpointCertificate,
    almost_fixed_set,
    far_pairs,
    midpoint_certify,
)
from .graphs import (
    DeltaEstimate,
    FiniteMetricGraph,
    all_geodesics,
    bfs_distances,
    estimate_delta,
    geodesic_layers,
)
from .groupfile import builtin_group, load_group, parse_group
from .groups import (
    CayleyBall,
    FiniteSubgroup,
    GroupElement,
    GroupOracle,
    MultiplicationTable,
    build_ball,
    verify_subgroup,
)
from .multitwist import (
    PermutationAction,
    SemidirectElement,
    build_T,
    commutes,
    parse_action,
    verify_multitwist_commutation,
)

__version__ = "0.1.0"
