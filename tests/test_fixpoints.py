"""Orbits, almost-fixed-point sets, and midpoint certification."""

from fractions import Fraction

import pytest

from centralizers import (
    CayleyContext,
    InputError,
    WindowError,
    almost_fixed_set,
    build_ball,
    midpoint_certify,
    orbit,
    orbit_diameter,
    verify_subgroup,
)
from centralizers.fixpoints import ActionContext
from centralizers.graphs import FiniteMetricGraph


@pytest.fixture(scope="module")
def ctx_f2xz2(f2xz2):
    return CayleyContext(build_ball(f2xz2, 4))


@pytest.fixture(scope="module")
def h_central(f2xz2):
    return verify_subgroup(f2xz2, {f2xz2.identity, f2xz2.parse("t")})


def test_orbit_is_right_coset(ctx_f2xz2, h_central, f2xz2):
    ball = ctx_f2xz2.ball
    vid = ball.vertex_id(f2xz2.parse("a"))
    orb = orbit(ctx_f2xz2, h_central, vid)
    assert len(orb) == 2
    labels = {str(ball.vertices[v]) for v in orb}
    assert labels == {"a", "a*t"}


def test_orbit_escaping_window_raises(ctx_f2xz2, h_central):
    ball = ctx_f2xz2.ball
    deep = max(range(ball.size), key=lambda v: ball.lengths[v])
    with pytest.raises(WindowError):
        orbit(ctx_f2xz2, h_central, deep)


def test_orbit_diameter_central(ctx_f2xz2, h_central, f2xz2):
    vid = ctx_f2xz2.ball.vertex_id(f2xz2.parse("a*b"))
    diam, valid = orbit_diameter(ctx_f2xz2, orbit(ctx_f2xz2, h_central, vid))
    assert (diam, valid) == (1, True)  # d(g, g*t) = |t| = 1, central


def test_almost_fixed_set_monotone_in_threshold(ctx_f2xz2, h_central):
    sizes = [
        almost_fixed_set(ctx_f2xz2, h_central, a).size
        for a in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    ]
    assert sizes == sorted(sizes)
    # t is central with |t| = 1: thresholds in [1, 2) capture exactly the
    # window-valid vertices
    assert sizes[2] == sizes[3] > sizes[0] == 0


def test_almost_fixed_set_counts_add_up(ctx_f2xz2, h_central):
    afp = almost_fixed_set(ctx_f2xz2, h_central, 1)
    assert afp.size + afp.excluded <= afp.total
    assert all(afp.diameters[v] <= 1 for v in afp.members)


def test_almost_fixed_set_equivariance(ctx_f2xz2, h_central, f2xz2):
    # right multiplication by a centralizing element preserves membership
    # (wherever the translate stays in the window)
    afp = almost_fixed_set(ctx_f2xz2, h_central, 1)
    members = set(afp.members)
    ball = ctx_f2xz2.ball
    z = f2xz2.parse("a")
    moved = 0
    for v in afp.members:
        image = f2xz2.multiply(ball.vertices[v], z)
        j = ball.index.get(image)
        if j is None or ball.lengths[j] + 1 > ball.radius:
            continue
        assert j in members
        moved += 1
    assert moved > 0


def test_negative_threshold_rejected(ctx_f2xz2, h_central):
    with pytest.raises(InputError):
        almost_fixed_set(ctx_f2xz2, h_central, Fraction(-1, 2))


# --- midpoint certification -----------------------------------------------

def test_midpoint_certify_nonvacuous(ctx_f2xz2, h_central):
    # delta = 1/6 makes the thresholds bite: 6d = 1, 20d = 10/3, 8d = 4/3
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx_f2xz2, h_central, 6 * delta)
    done = 0
    for i, x in enumerate(afp.members):
        for y in afp.members[i + 1:]:
            d, ok = ctx_f2xz2.pair_distance(x, y)
            if not ok or d < 20 * delta:
                continue
            cert = midpoint_certify(ctx_f2xz2, h_central, x, y, delta)
            assert cert.ok and cert.certified
            assert cert.geodesics_examined >= 1
            done += 1
    assert done > 0


def test_midpoint_certify_preconditions(ctx_f2xz2, h_central):
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx_f2xz2, h_central, 6 * delta)
    x, y = afp.members[0], afp.members[1]
    d, _ = ctx_f2xz2.pair_distance(x, y)
    if d < 20 * delta:
        with pytest.raises(InputError):
            midpoint_certify(ctx_f2xz2, h_central, x, y, delta)
    with pytest.raises(InputError):
        midpoint_certify(ctx_f2xz2, h_central, x, y, Fraction(-1))


class _RiggedContext(ActionContext):
    """Path graph 0..n-1; the 'group' is a list of vertex maps (dicts)."""

    def __init__(self, n):
        adj = [tuple(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]
        self.graph = FiniteMetricGraph(adjacency=tuple(adj))

    def act(self, h, vid):
        return h.get(vid, vid)

    def pair_distance(self, u, v):
        return abs(u - v), True


def test_midpoint_certify_detects_counterexample():
    # endpoints are fixed, but an interior vertex has a large orbit
    ctx = _RiggedContext(11)
    subgroup = [{}, {5: 8, 8: 5}]
    cert = midpoint_certify(ctx, subgroup, 0, 10, Fraction(0))
    assert not cert.ok
    assert any(z == 5 and diam >= 3 for z, diam in cert.counterexamples)
    # vertices off the swapped pair still certify
    assert any(z == 2 for z, _ in cert.certified)
