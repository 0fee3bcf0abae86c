"""Exact-arithmetic toolkit for almost-fixed-point sets and centralizer
extraction on Cayley balls and the Farey graph."""

from .errors import (
    BudgetError,
    ClosureError,
    GraphError,
    InputError,
    ParseError,
    ToolkitError,
    WindowError,
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
    midpoint_certify,
    orbit,
    orbit_diameter,
)
from .graphs import (
    DeltaEstimate,
    DistanceWitness,
    FiniteMetricGraph,
    all_geodesics,
    bfs_distances,
    estimate_delta,
    geodesic_layers,
    safe_distance,
    set_diameter,
)
from .groupfile import builtin_group, load_group, parse_group
from .groups import (
    CayleyBall,
    DirectProductOracle,
    FiniteGroupOracle,
    FiniteSubgroup,
    FreeGroupOracle,
    FreeProductOracle,
    GeneratorAlphabet,
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
    cycle_decomposition,
    parse_action,
    verify_multitwist_commutation,
)

__version__ = "0.1.0"
