"""Slopes, the unimodular action, Farey distances, and windows."""

import itertools
import random
from collections import deque
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    FareyContext,
    FareyWindow,
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
    assert str(Slope.parse("3/5")) == "3/5"
    assert str(Slope.parse("-2/7")) == "-2/7"
    assert Slope.parse("1/0") == INFINITY_SLOPE
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


def test_farey_distance_witness_path():
    d, path = farey_distance(Slope(34, 55), Slope(-21, 13), with_path=True)
    assert len(path) == d + 1
    assert path[0] == Slope(34, 55) and path[-1] == Slope(-21, 13)
    for u, v in zip(path, path[1:]):
        assert adjacent(u, v)


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


def test_farey_distance_agrees_with_bfs_small():
    # independent oracle: BFS over every slope with |p|, |q| <= 8
    verts = [INFINITY_SLOPE] + [
        Slope(p, q)
        for q in range(1, 9)
        for p in range(-8, 9)
        if gcd(abs(p), q) == 1
    ]
    idx = {s: i for i, s in enumerate(verts)}
    adj = [[] for _ in verts]
    for (i, s), (j, t) in itertools.combinations(enumerate(verts), 2):
        if adjacent(s, t):
            adj[i].append(j)
            adj[j].append(i)
    from collections import deque

    for i, s in enumerate(verts):
        dist = [-1] * len(verts)
        dist[i] = 0
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for j in range(i + 1, len(verts)):
            assert farey_distance(s, verts[j]) == dist[j]


# --- finite subgroups and windows ----------------------------------------------

def test_finite_subgroups():
    assert finite_subgroup("S4").order == 4
    assert finite_subgroup("ST6").order == 6
    assert finite_subgroup("center2").order == 2
    with pytest.raises(InputError):
        finite_subgroup("bogus")


def test_finite_subgroup_closed():
    sub = finite_subgroup("ST6")
    elems = set(sub.elements)
    for m1 in elems:
        for m2 in elems:
            assert m1 * m2 in elems


@pytest.mark.parametrize("depth,size", [(2, 8), (3, 16), (4, 32), (5, 64)])
def test_window_sizes(depth, size):
    assert build_window(depth).size == size


def test_window_adjacency_matches_intersection_one():
    w = build_window(4)
    for u, nbrs in enumerate(w.adjacency):
        for v in nbrs:
            assert adjacent(w.slopes[u], w.slopes[v])


def bfs_window_distance(window, s1, s2):
    """Brute-force BFS oracle inside the window (>= the ambient distance)."""
    src, dst = window.slope_id(s1), window.slope_id(s2)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            return dist[u]
        for v in window.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise AssertionError(f"{s1} and {s2} are disconnected inside the window")


def test_window_bfs_upper_bounds_exact_distance():
    w = build_window(5)
    rng = random.Random(2)
    for _ in range(60):
        s, t = rng.choice(w.slopes), rng.choice(w.slopes)
        assert bfs_window_distance(w, s, t) >= farey_distance(s, t)


def test_farey_context_exact_distances():
    w = build_window(4)
    ctx = FareyContext(w)
    d, valid = ctx.pair_distance(0, w.size - 1)
    assert valid and d == farey_distance(w.slopes[0], w.slopes[w.size - 1])


def test_almost_fixed_slopes_frozen_counts():
    w = build_window(4)
    assert almost_fixed_slopes(finite_subgroup("S4"), w, Fraction(6)).size == 32
    assert almost_fixed_slopes(finite_subgroup("ST6"), w, Fraction(6)).size == 24
    # -I acts trivially on slopes: everything is exactly fixed
    afp = almost_fixed_slopes(finite_subgroup("center2"), w, Fraction(0))
    assert afp.size == w.size and afp.excluded == 0


def test_orbit_diameter_profile():
    rows, excluded = orbit_diameter_profile(finite_subgroup("S4"), build_window(4))
    assert excluded == 0
    assert [(r.distance_from_center, r.max_orbit_diameter, r.count) for r in rows] == [
        (0, 1, 1),
        (1, 3, 9),
        (2, 5, 18),
        (3, 5, 4),
    ]
