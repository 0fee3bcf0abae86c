"""Every module reads each name it imports, and the package serves its exports."""

import ast
import importlib
import os
import sys

import pytest

import centralizers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "centralizers")
TESTS = os.path.join(ROOT, "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads.

    ``__future__`` imports bind nothing to read, and a dotted ``import a.b``
    binds ``a``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def modules():
    for folder, skip in ((PACKAGE, "__init__.py"), (TESTS, None)):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py") and name != skip:
                yield os.path.join(folder, name)


def test_scan_sees_plain_dotted_aliased_and_from_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import gcd, lcm\nx: gcd = os.path.join(j.dumps(1))\n")
    assert unused_imports(source) == ["lcm"]


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for path in modules():
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}


def imported_modules(source: str) -> set[str]:
    """The top-level modules the imports in ``source`` name, those inside
    functions included; a relative import names the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("centralizers" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    # the package runs where no third-party module is installed; the scan
    # sees dotted, relative and function-level imports
    source = "import os.path\nfrom . import graphs\ndef f():\n    import numpy as np\n"
    assert imported_modules(source) == {"os", "centralizers", "numpy"}
    allowed = set(sys.stdlib_module_names) | {"centralizers"}
    foreign = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                names = sorted(imported_modules(fh.read()) - allowed)
            if names:
                foreign[name] = names
    assert foreign == {}


# the names ``centralizers`` has exported since it imported every submodule
EXPORTS = {
    "errors": ["BudgetError", "ClosureError", "GraphError", "InputError", "InvariantError",
               "ParseError", "ToolkitError"],
    "extraction": ["CentralizerCertificate", "ConstantsReport", "compute_constants",
                   "extract_centralizers", "measure_constants", "order_lower_bound",
                   "verify_centralizer"],
    "farey": ["FareyContext", "FareyWindow", "Slope", "UniMatrix", "act", "adjacent",
              "almost_fixed_slopes", "build_window", "farey_distance", "finite_subgroup",
              "intersection_number", "orbit_diameter_profile"],
    "fixpoints": ["AlmostFixedSet", "CayleyContext", "MidpointCertificate",
                  "almost_fixed_set", "far_pairs", "midpoint_certify"],
    "graphs": ["DeltaEstimate", "FiniteMetricGraph", "all_geodesics", "bfs_distances",
               "estimate_delta", "geodesic_layers"],
    "groupfile": ["builtin_group", "load_group", "parse_group"],
    "groups": ["CayleyBall", "FiniteSubgroup", "GroupElement", "GroupOracle",
               "MultiplicationTable", "build_ball", "verify_subgroup"],
    "multitwist": ["PermutationAction", "SemidirectElement", "build_T", "commutes",
                   "parse_action", "verify_multitwist_commutation"],
}


def test_package_exports_resolve_to_their_submodules_objects():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(centralizers.__all__) == sorted(names)
    assert set(names) <= set(dir(centralizers))
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"centralizers.{module}")
        for name in names:
            assert getattr(centralizers, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        centralizers.no_such_name
