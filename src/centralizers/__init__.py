"""Exact-arithmetic toolkit for almost-fixed-point sets and centralizer
extraction on Cayley balls and the Farey graph.

Each export is loaded from its submodule on first use (PEP 562), so that
importing the package, or its CLI, compiles only the modules a caller reads.
"""

from importlib import import_module

_EXPORTS = {  # submodule -> the names the package exports from it
    "errors": (
        "BudgetError", "ClosureError", "GraphError", "InputError", "InvariantError",
        "ParseError", "ToolkitError",
    ),
    "extraction": (
        "CentralizerCertificate", "ConstantsReport", "compute_constants",
        "extract_centralizers", "measure_constants", "order_lower_bound",
        "verify_centralizer",
    ),
    "farey": (
        "FareyContext", "FareyWindow", "Slope", "UniMatrix", "act", "adjacent",
        "almost_fixed_slopes", "build_window", "farey_distance", "finite_subgroup",
        "intersection_number", "orbit_diameter_profile",
    ),
    "fixpoints": (
        "AlmostFixedSet", "CayleyContext", "MidpointCertificate", "almost_fixed_set",
        "far_pairs", "midpoint_certify",
    ),
    "graphs": (
        "DeltaEstimate", "FiniteMetricGraph", "all_geodesics", "bfs_distances",
        "estimate_delta", "geodesic_layers",
    ),
    "groupfile": ("builtin_group", "load_group", "parse_group"),
    "groups": (
        "CayleyBall", "FiniteSubgroup", "GroupElement", "GroupOracle",
        "MultiplicationTable", "build_ball", "verify_subgroup",
    ),
    "multitwist": (
        "PermutationAction", "SemidirectElement", "build_T", "commutes", "parse_action",
        "verify_multitwist_commutation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
