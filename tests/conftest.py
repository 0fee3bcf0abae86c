"""Shared fixtures: the corpus of small groups used across the suite."""

import importlib
import warnings

import pytest

from centralizers import builtin_group, verify_subgroup

# hypothesis imports this module to report a failing example; where libcst is
# installed the import warns that mypy_extensions.TypedDict is deprecated, and
# under -W error that warning would end the session with INTERNALERROR in
# place of the failure.  Importing it once here, with that warning ignored,
# leaves the later import nothing to run; pytest restores the filters after
# conftests load, so a filter alone would not last.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated")
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass

# (family name, subgroup specs as comma-separated words)
CORPUS = [
    ("F2", [""]),
    ("F2xZ2", ["t"]),
    ("F2xZ3", ["u,u*u"]),
    ("Z2*Z2", ["r", "s", "r*s*r"]),
    ("Z2*Z3", ["r", "s,s*s", "s*r*s*s"]),
]


def make_subgroup(oracle, spec: str):
    """Finite subgroup from comma-separated words; identity is implied."""
    words = [w for w in spec.split(",") if w]
    return verify_subgroup(oracle, {oracle.identity, *(oracle.parse(w) for w in words)})


@pytest.fixture(scope="session")
def f2():
    return builtin_group("F2")


@pytest.fixture(scope="session")
def f2xz2():
    return builtin_group("F2xZ2")


@pytest.fixture(scope="session")
def f2xz3():
    return builtin_group("F2xZ3")


@pytest.fixture(scope="session")
def z2z2():
    return builtin_group("Z2*Z2")


@pytest.fixture(scope="session")
def z2z3():
    return builtin_group("Z2*Z3")


@pytest.fixture(scope="session")
def corpus():
    out = []
    for name, specs in CORPUS:
        oracle = builtin_group(name)
        subgroups = [make_subgroup(oracle, spec) for spec in specs]
        out.append((name, oracle, subgroups))
    return out


def window_symmetries(window):
    """p/q -> -p/q, q/p and -q/p as vertex maps of a Farey window: the
    stabiliser of the base edge 0/1 -- 1/0 in PGL(2, Z), a Klein four-group,
    without its identity (Hatcher, *Topology of Numbers*).  They keep
    intersection numbers and the base edge, so they map the window grown
    from it onto itself."""
    from centralizers import Slope

    return tuple(tuple(window.index[Slope.make(*image(s.p, s.q))] for s in window.slopes)
                 for image in (lambda p, q: (-p, q), lambda p, q: (q, p),
                               lambda p, q: (-q, p)))
