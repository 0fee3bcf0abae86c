"""Slopes, the unimodular action, Farey distances, and windows."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    FareyContext,
    InputError,
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
from centralizers.farey import (
    INFINITY_SLOPE,
    S_MATRIX,
    T_MATRIX,
    ZERO_SLOPE,
)
from conftest import window_symmetries
from reference import distance_to_infinity, distances, farey_edges


def slopes_strategy():
    def build(p, q):
        if q == 0:
            return INFINITY_SLOPE
        g = gcd(abs(p), q) or 1
        return Slope.make(p // g, q // g)

    return st.builds(build, st.integers(-40, 40), st.integers(0, 40))


def matrices_strategy():
    # random short words in S and T generate well-spread unimodular matrices
    def build(bits):
        m = UniMatrix(1, 0, 0, 1)
        for b in bits:
            m = m * (S_MATRIX if b else T_MATRIX)
        return m

    return st.builds(build, st.lists(st.booleans(), max_size=8))


# --- slopes and the action ---------------------------------------------------

def test_slope_parse_and_str():
    assert str(Slope.make(3, 5)) == "3/5"
    assert str(Slope.make(2, -7)) == "-2/7"
    assert Slope.make(-1, 0) == INFINITY_SLOPE
    assert Slope.make(1, -2) == Slope.make(-1, 2)  # canonical sign


def test_slope_validation():
    with pytest.raises(InputError):
        Slope(2, 4)  # not coprime
    with pytest.raises(InputError):
        Slope(1, -2)  # non-canonical sign


def test_intersection_and_adjacency():
    assert intersection_number(ZERO_SLOPE, INFINITY_SLOPE) == 1
    assert adjacent(Slope(1, 2), Slope(1, 3))
    assert not adjacent(Slope(1, 2), Slope(3, 4))
    assert intersection_number(Slope(2, 5), Slope(3, 7)) == 1


def test_act_examples():
    assert act(S_MATRIX, ZERO_SLOPE) == INFINITY_SLOPE
    assert act(S_MATRIX, INFINITY_SLOPE) == ZERO_SLOPE
    assert act(T_MATRIX, Slope(1, 1)) == Slope(2, 1)


@settings(max_examples=80, deadline=None)
@given(m1=matrices_strategy(), m2=matrices_strategy(), s=slopes_strategy())
def test_act_is_an_action(m1, m2, s):
    assert act(m1 * m2, s) == act(m1, act(m2, s))


@settings(max_examples=80, deadline=None)
@given(m=matrices_strategy(), s=slopes_strategy(), t=slopes_strategy())
def test_act_preserves_intersection_numbers(m, s, t):
    assert intersection_number(act(m, s), act(m, t)) == intersection_number(s, t)


def test_unimatrix_inverse():
    m = T_MATRIX * S_MATRIX * T_MATRIX
    assert (m * m.inverse()).entries() == (1, 0, 0, 1)
    with pytest.raises(InputError):
        UniMatrix(2, 0, 0, 1)


# --- distances ----------------------------------------------------------------

def test_farey_distance_examples():
    assert farey_distance(INFINITY_SLOPE, INFINITY_SLOPE) == 0
    assert farey_distance(INFINITY_SLOPE, Slope(7, 1)) == 1
    assert farey_distance(ZERO_SLOPE, Slope(1, 1)) == 1
    assert farey_distance(INFINITY_SLOPE, Slope(5, 2)) == 2
    assert farey_distance(Slope(0, 1), Slope(5, 7)) == 3


def test_farey_distance_symmetric():
    rng = random.Random(5)
    for _ in range(200):
        p, q = rng.randint(-30, 30), rng.randint(0, 30)
        g = gcd(abs(p), q)
        if g == 0 or (q == 0 and abs(p) != 1):
            continue
        s = Slope.make(p // g, q // g)
        t = Slope(1, 0) if rng.random() < 0.1 else Slope.make(rng.randint(-9, 9), 1)
        assert farey_distance(s, t) == farey_distance(t, s)


def test_farey_distance_across_a_window():
    # the depth-9 window is the least that holds both; it is convex
    w = build_window(9)
    u, v = w.index[Slope(34, 55)], w.index[Slope(-21, 13)]
    assert farey_distance(Slope(34, 55), Slope(-21, 13)) == distances(w.adjacency, u)[v] == 9


def test_farey_distance_deep_slope():
    # 1/5000 lies 4,999 Stern-Brocot steps below 0/1 -- 1/1; the descent
    # must not depend on the recursion limit
    assert farey_distance(Slope(1, 5000), INFINITY_SLOPE) == 2
    assert farey_distance(INFINITY_SLOPE, Slope(-4999, 5000)) == 2


@settings(max_examples=300, deadline=None)
@given(p=st.integers(-5000, 5000), q=st.integers(1, 3000))
def test_farey_distance_to_infinity_matches_mediant_walk(p, q):
    # slopes deeper than any window the tests build, against a walk that
    # takes one mediant a step where the descent takes a run at once
    g = gcd(abs(p), q)
    s = Slope(p // g, q // g)
    assert (farey_distance(s, INFINITY_SLOPE) == farey_distance(INFINITY_SLOPE, s)
            == distance_to_infinity(s.p, s.q))


def test_farey_distance_invariant_under_action():
    m = T_MATRIX * S_MATRIX * T_MATRIX * T_MATRIX
    rng = random.Random(9)
    for _ in range(50):
        q = rng.randint(1, 20)
        p = rng.randint(-20, 20)
        if gcd(abs(p), q) != 1:
            continue
        s, t = Slope(p, q), Slope.make(rng.randint(-5, 5), 1)
        assert farey_distance(act(m, s), act(m, t)) == farey_distance(s, t)


# --- finite subgroups and windows ----------------------------------------------

def test_finite_subgroups():
    assert finite_subgroup("S4").order == 4
    assert finite_subgroup("ST6").order == 6
    assert finite_subgroup("center2").order == 2
    with pytest.raises(InputError):
        finite_subgroup("bogus")


@pytest.mark.parametrize("name", ["S4", "ST6", "center2"])
def test_finite_subgroup_closed(name):
    sub = finite_subgroup(name)
    elems = set(sub.elements)
    assert UniMatrix(1, 0, 0, 1) in elems
    for m1 in elems:
        assert m1.inverse() in elems
        for m2 in elems:
            assert m1 * m2 in elems
    # the report streams list the elements in this order
    assert list(sub.elements) == sorted(elems, key=UniMatrix.entries)
    assert len(elems) == sub.order


@pytest.mark.parametrize("depth,size", [(2, 8), (3, 16), (4, 32), (5, 64)])
def test_window_sizes(depth, size):
    assert build_window(depth).size == size


@pytest.mark.parametrize("depth", range(11))
def test_window_adjacency_from_mediant_edges(depth):
    # the n^2 reference: every pair of window slopes tested for adjacency
    w = build_window(depth)
    assert w.adjacency == tuple(map(tuple, farey_edges([(s.p, s.q) for s in w.slopes])))


@pytest.mark.parametrize("depth", range(9))
def test_window_distances_are_farey_distances(depth):
    # the window is convex: every distance inside it is the ambient one
    w = build_window(depth)
    for u in range(w.size):
        row = distances(w.adjacency, u)
        for v in range(u + 1, w.size):
            assert row[v] == farey_distance(w.slopes[u], w.slopes[v])


@pytest.mark.parametrize("depth", range(7))
def test_window_automorphisms_keep_farey_distances(depth):
    # p/q -> -p/q, q/p, -q/p: three distinct permutations of the window, past
    # depth 0, where 0/1 and 1/0 are fixed by the first
    w = build_window(depth)
    perms = window_symmetries(w)
    assert len(perms) == 3
    if depth:
        assert len(set(perms)) == 3 and tuple(range(w.size)) not in perms
    for g in perms:
        assert sorted(g) == list(range(w.size))
        for u, v in itertools.combinations(range(w.size), 2):
            assert (farey_distance(w.slopes[g[u]], w.slopes[g[v]])
                    == farey_distance(w.slopes[u], w.slopes[v]))


def test_window_bfs_upper_bounds_exact_distance():
    # a window path is an ambient path; two slopes the window does not
    # connect read -1, and fail
    w = build_window(5)
    rng = random.Random(2)
    for _ in range(60):
        s, t = rng.choice(w.slopes), rng.choice(w.slopes)
        assert distances(w.adjacency, w.index[s])[w.index[t]] >= farey_distance(s, t)


def test_farey_context_exact_distances():
    w = build_window(4)
    ctx = FareyContext(w)
    d = ctx.pair_distance(0, w.size - 1)
    assert w.valid(0, w.size - 1, d) and d == farey_distance(w.slopes[0], w.slopes[w.size - 1])


def test_almost_fixed_slopes_frozen_counts():
    w = build_window(4)
    assert almost_fixed_slopes(finite_subgroup("S4"), w, Fraction(6)).size == 32
    assert almost_fixed_slopes(finite_subgroup("ST6"), w, Fraction(6)).size == 24
    # -I acts trivially on slopes: everything is exactly fixed
    afp = almost_fixed_slopes(finite_subgroup("center2"), w, Fraction(0))
    assert afp.size == w.size and afp.excluded == 0


def test_orbit_diameter_profile():
    window = build_window(4)
    afp = almost_fixed_slopes(finite_subgroup("S4"), window, Fraction(6))
    rows = orbit_diameter_profile(afp, window)
    assert afp.excluded == 0
    assert [(r.distance_from_center, r.max_orbit_diameter, r.count) for r in rows] == [
        (0, 1, 1),
        (1, 3, 9),
        (2, 5, 18),
        (3, 5, 4),
    ]
