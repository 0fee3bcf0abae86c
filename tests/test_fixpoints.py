"""Orbits, almost-fixed-point sets, and midpoint certification."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    CayleyContext,
    FareyContext,
    GroupOracle,
    InputError,
    MultiplicationTable,
    act,
    almost_fixed_set,
    almost_fixed_slopes,
    build_ball,
    build_window,
    builtin_group,
    far_pairs,
    farey_distance,
    finite_subgroup,
    midpoint_certify,
    verify_subgroup,
)
from centralizers.farey import IDENTITY_MATRIX, S_MATRIX, SUBGROUP_GENERATORS, T_MATRIX
from centralizers.fixpoints import ActionContext
from centralizers.graphs import FiniteMetricGraph

from conftest import make_subgroup
from reference import diameter, exact, midpoint_certificate, orbit, orbit_diameter
from test_groups import _s3_table, family


@pytest.fixture(scope="module")
def ctx_f2xz2(f2xz2):
    return CayleyContext(build_ball(f2xz2, 4))


@pytest.fixture(scope="module")
def h_central(f2xz2):
    return verify_subgroup(f2xz2, {f2xz2.identity, f2xz2.parse("t")})


def test_orbit_is_right_coset(ctx_f2xz2, h_central, f2xz2):
    ball = ctx_f2xz2.ball
    vid = ball.index[f2xz2.parse("a")]
    orb = orbit(ball, h_central, vid)
    assert len(orb) == 2
    labels = {str(ball.vertices[v]) for v in orb}
    assert labels == {"a", "a*t"}
    # the context's images give every vertex the same orbit, -1 where it escapes
    columns = zip(*(ctx_f2xz2.images(h) for h in h_central))
    assert [orbit(ball, h_central, v) for v in range(ball.size)] == [
        None if -1 in ids else tuple(sorted(ids)) for ids in map(set, columns)]


def test_orbit_escaping_window_is_none(ctx_f2xz2, h_central):
    ball = ctx_f2xz2.ball
    deep = max(range(ball.size), key=lambda v: ball.lengths[v])
    assert orbit(ball, h_central, deep) is None


def test_orbit_diameter_central(ctx_f2xz2, h_central, f2xz2):
    vid = ctx_f2xz2.ball.index[f2xz2.parse("a*b")]
    # d(g, g*t) = |t| = 1, central
    assert orbit_diameter(ctx_f2xz2.ball, h_central, vid) == 1


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
    assert len(afp.orbits) == afp.total
    assert all(afp.orbits[v] <= 1 for v in afp.members)
    assert afp.excluded == afp.orbits.count(None) > 0


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


# --- the orbit table against a reference from first principles ------------

def _reference_table(orbits, threshold):
    """(orbits, members, excluded, total) of a set whose orbit table is
    ``orbits``: one diameter or None per vertex."""
    members = tuple(v for v, diam in enumerate(orbits) if diam is not None and diam <= threshold)
    return tuple(orbits), members, orbits.count(None), len(orbits)


def _table(afp):
    return afp.orbits, afp.members, afp.excluded, afp.total


# built-in -> the generators of its finite factors
FINITE_FACTORS = {"F2xZ2": ("t",), "F2xZ3": ("u",), "Z2*Z2": ("r", "s"), "Z2*Z3": ("r", "s")}
THRESHOLDS = st.fractions(min_value=0, max_value=5, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cayley_orbit_table_matches_reference(data):
    # a conjugate g*H*g^-1 of a finite factor H by a ball element g: a vertex
    # v escapes iff some v*h is missing from the ball; otherwise its diameter
    # is the largest word distance over image pairs, kept iff every pair is
    # window-valid
    name = data.draw(st.sampled_from(sorted(FINITE_FACTORS)))
    oracle = builtin_group(name)
    radius = data.draw(st.integers(0, 4 if name.startswith("F2") else 7))
    ball = build_ball(oracle, radius)
    x = oracle.parse(data.draw(st.sampled_from(FINITE_FACTORS[name])))
    powers = [x]
    while not powers[-1].is_identity():
        powers.append(oracle.multiply(powers[-1], x))
    g = ball.vertices[data.draw(st.integers(0, ball.size - 1))]
    g_inv = oracle.invert(g)
    subgroup = verify_subgroup(
        oracle, {oracle.multiply(oracle.multiply(g, h), g_inv) for h in powers})
    threshold = data.draw(THRESHOLDS)
    orbits = [orbit_diameter(ball, subgroup, v) for v in range(ball.size)]
    afp = almost_fixed_set(CayleyContext(ball), subgroup, threshold)
    assert _table(afp) == _reference_table(orbits, threshold)


MATRIX_LETTERS = (S_MATRIX, T_MATRIX, T_MATRIX.inverse())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_names_the_pair_displacement(data):
    # d(x.h, x.h2) = d(x, x.k) for k = quotient(h, h2), on any elements: the
    # other side's quotient would measure the displacement of x.h instead
    name = data.draw(st.sampled_from(sorted(FINITE_FACTORS)))
    oracle = builtin_group(name)
    ctx = CayleyContext(build_ball(oracle, 0))
    x, h, h2 = (oracle.normalize(data.draw(st.lists(st.sampled_from(oracle.symbols),
                                                     max_size=6))) for _ in range(3))
    k = ctx.quotient(h, h2)
    assert oracle.distance(oracle.multiply(x, h), oracle.multiply(x, h2)) == oracle.distance(
        x, oracle.multiply(x, k))
    window = build_window(3)
    farey = FareyContext(window)
    h, h2 = (functools.reduce(operator.mul, data.draw(st.lists(
        st.sampled_from(MATRIX_LETTERS), max_size=6)), IDENTITY_MATRIX) for _ in range(2))
    k = farey.quotient(h, h2)
    for slope in window.slopes:
        assert farey_distance(act(h, slope), act(h2, slope)) == farey_distance(
            slope, act(k, slope))


KLEIN_NAMES = ["1", "k1", "k2", "k3"]
KLEIN = MultiplicationTable(KLEIN_NAMES, [[KLEIN_NAMES[i ^ j] for j in range(4)]
                                          for i in range(4)])
S3 = _s3_table("c")
# name -> (oracle, its finite factor H, the largest radius drawn); the
# factor's elements but the identity are letters of the oracle
LARGE_FACTORS = {
    "V4*Z2": (GroupOracle("free_product", tables=[KLEIN, MultiplicationTable.cyclic(2, "r")]),
              KLEIN, 6),
    "F2xV4": (GroupOracle("direct_product", ("a", "b"), [KLEIN]), KLEIN, 3),
    "S3*Z2": (family("S3*Z2"), S3, 5),
    "F2xS3": (family("F2xS3"), S3, 3),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_table_of_order_4_and_6_matches_pair_reference(data):
    # a conjugate g*H*g^-1 of a Klein four or S3 factor: the table from
    # displacements equals the all-pairs reference, with at most |H| - 1
    # distance calls per vertex
    oracle, factor, top = LARGE_FACTORS[data.draw(st.sampled_from(sorted(LARGE_FACTORS)))]
    ball = build_ball(oracle, data.draw(st.integers(0, top)))
    g = ball.vertices[data.draw(st.integers(0, ball.size - 1))]
    g_inv = oracle.invert(g)
    subgroup = verify_subgroup(oracle, {
        oracle.multiply(oracle.multiply(g, oracle.parse(h)), g_inv) for h in factor.names})
    assert subgroup.order == factor.order
    threshold = data.draw(THRESHOLDS)
    orbits = [orbit_diameter(ball, subgroup, v) for v in range(ball.size)]
    ctx = _CountingContext(ball)
    afp = almost_fixed_set(ctx, subgroup, threshold)
    assert _table(afp) == _reference_table(orbits, threshold)
    assert ctx.distance_calls <= ball.size * (subgroup.order - 1)


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("name", sorted(SUBGROUP_GENERATORS))
def test_farey_orbit_table_matches_reference(name, depth):
    # every window and subgroup: a slope escapes iff one of its images is
    # missing from the window, and otherwise its diameter is the largest
    # Farey distance over image pairs
    window = build_window(depth)
    subgroup = finite_subgroup(name)
    orbits = []
    for slope in window.slopes:
        images = [act(m, slope) for m in subgroup]
        escaped = any(w not in window.index for w in images)
        orbits.append(None if escaped else diameter(images, farey_distance))
    for threshold in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2)):
        afp = almost_fixed_slopes(subgroup, window, threshold)
        assert _table(afp) == _reference_table(orbits, threshold)


# --- midpoint certification -----------------------------------------------

def test_midpoint_certify_nonvacuous(ctx_f2xz2, h_central):
    # delta = 1/6 makes the thresholds bite: 6d = 1, 20d = 10/3, 8d = 4/3
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx_f2xz2, h_central, 6 * delta)
    done = 0
    for x, y, _ in far_pairs(ctx_f2xz2, afp.members, delta):
        cert = midpoint_certify(ctx_f2xz2, afp, x, y, delta)
        assert cert.ok and cert.certified
        assert cert.geodesics_examined >= 1
        done += 1
    assert done > 0


def test_midpoint_certify_preconditions(ctx_f2xz2, h_central):
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx_f2xz2, h_central, 6 * delta)
    x, y = afp.members[0], afp.members[1]
    d = ctx_f2xz2.pair_distance(x, y)
    if d < 20 * delta:
        with pytest.raises(InputError):
            midpoint_certify(ctx_f2xz2, afp, x, y, delta)
    with pytest.raises(InputError):
        midpoint_certify(ctx_f2xz2, afp, x, y, Fraction(-1))


class _CountingContext(CayleyContext):
    """A Cayley context that counts its distance calls and its BFS runs."""

    distance_calls = bfs_calls = 0

    def pair_distance(self, u, v):
        self.distance_calls += 1
        return super().pair_distance(u, v)

    def bfs_from(self, source):
        self.bfs_calls += 1
        return super().bfs_from(source)


def _brute_force_far_pairs(ctx, members, deltas):
    # the all-pairs screen far_pairs replaces, one list per delta
    measured = [(x, y, ctx.pair_distance(x, y))
                for i, x in enumerate(members) for y in members[i + 1:]]
    return [[(x, y, d) for x, y, d in measured
             if exact(ctx.graph, x, y, d) and d >= 20 * delta]
            for delta in deltas]


DELTAS = (Fraction(0), Fraction(1, 6), Fraction(1, 2), Fraction(5))


@pytest.mark.parametrize("name,spec,radius", [
    ("F2xZ2", "t", 5), ("F2xZ3", "u,u*u", 4), ("Z2*Z3", "s,s*s", 8), ("Z2*Z2", "r", 8),
])
def test_far_pairs_match_brute_force(name, spec, radius):
    oracle = builtin_group(name)
    ctx = _CountingContext(build_ball(oracle, radius))
    afp = almost_fixed_set(ctx, make_subgroup(oracle, spec), 1)
    # ball ids grow with length, so sorted members put every near vertex
    # first; a shuffled sample interleaves near and far ones (the identity,
    # vertex 0, is near whenever 20*delta <= R)
    rng = random.Random(radius)
    sample = [0] + rng.sample(range(1, ctx.graph.n), min(ctx.graph.n - 1, 150))
    rng.shuffle(sample)
    for members in (afp.members, tuple(sample)):
        wants = _brute_force_far_pairs(ctx, members, DELTAS)
        for delta, want in zip(DELTAS, wants):
            ctx.distance_calls = ctx.bfs_calls = 0
            assert list(far_pairs(ctx, members, delta)) == want
            if delta == 5:
                # 20*delta exceeds the radius: no near vertex, no distance
                # call and no BFS
                assert want == [] and ctx.distance_calls == ctx.bfs_calls == 0
    assert wants[1]  # the sample has far-apart pairs at delta = 1/6


def test_far_pairs_without_radius():
    # a Farey window has no radius, so every pair is measured
    window = build_window(4)
    ctx = FareyContext(window)
    members = tuple(range(window.size))
    deltas = (Fraction(0), Fraction(1, 10), Fraction(1, 6))
    for delta, want in zip(deltas, _brute_force_far_pairs(ctx, members, deltas)):
        assert list(far_pairs(ctx, members, delta)) == want
        assert want
    assert not list(far_pairs(ctx, members, 5))


def test_midpoint_certify_bfs_slot(f2xz2, h_central):
    # one context across both passes: a BFS row kept for the wrong endpoint
    # would show as a wrong record once the pairs are shuffled
    ctx = CayleyContext(build_ball(f2xz2, 5))
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx, h_central, 6 * delta)
    pairs = [(x, y) for x, y, _ in far_pairs(ctx, afp.members, delta)]
    assert len({x for x, _ in pairs}) > 1
    want = {pair: midpoint_certificate(ctx.ball, h_central, *pair, delta) for pair in pairs}
    shuffled = list(pairs)
    random.Random(0).shuffle(shuffled)
    for order in (pairs, shuffled):
        for pair in order:
            assert midpoint_certify(ctx, afp, *pair, delta).to_record() == want[pair]


def test_midpoint_certify_orbit_table(f2xz2, h_central):
    # midpoints read every orbit diameter off the almost-fixed set's table
    # and d(x, y) off the BFS row from x: no call measures a distance, in any
    # order, and each gives the certificate of a fresh context
    ball = build_ball(f2xz2, 5)
    ctx = _CountingContext(ball)
    delta = Fraction(1, 6)
    afp = almost_fixed_set(ctx, h_central, 6 * delta)
    pairs = [(x, y) for x, y, _ in far_pairs(ctx, afp.members, delta)]
    shuffled = list(pairs)
    random.Random(1).shuffle(shuffled)
    certified = set()
    for order in (pairs, shuffled):
        for pair in order:
            ctx.distance_calls = 0
            got = midpoint_certify(ctx, afp, *pair, delta)
            assert ctx.distance_calls == 0
            assert got == midpoint_certify(CayleyContext(ball), afp, *pair, delta)
            certified.update(got.certified)
    assert certified
    # the trivial subgroup's set gives the trivial subgroup's certificate:
    # every orbit is a point
    trivial = verify_subgroup(f2xz2, {f2xz2.identity})
    trivial_afp = almost_fixed_set(ctx, trivial, 0)
    cert = midpoint_certify(ctx, trivial_afp, *pairs[0], delta)
    assert cert.to_record() == midpoint_certificate(ball, trivial, *pairs[0], delta)
    assert cert.certified and all(diam == 0 for _, diam in cert.certified)
    assert cert != midpoint_certify(ctx, afp, *pairs[0], delta)
    # an endpoint whose orbit escapes has no diameter in the table, and
    # either endpoint without one gets the one message
    deep = ball.index[f2xz2.parse("a*a*a*a*a")]
    assert orbit(ball, h_central, deep) is None and afp.orbits[deep] is None
    for x, y in ((deep, 0), (0, deep)):
        with pytest.raises(InputError) as err:
            midpoint_certify(ctx, afp, x, y, delta)
        assert str(err.value) == f"endpoint {deep} has a window-invalid orbit"


class _RiggedContext(ActionContext):
    """Path graph 0..n-1; the 'group' is a list of vertex maps (dicts)."""

    def __init__(self, n):
        adj = [tuple(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]
        self.graph = FiniteMetricGraph(adjacency=tuple(adj))

    def act(self, h, vid):
        return h.get(vid, vid)

    def quotient(self, h, h2):
        # h^-1*h2 as a map; the maps here are involutions, so h^-1 = h
        n = self.graph.n
        return {v: w for v in range(n) if (w := self.act(h, self.act(h2, v))) != v}

    def pair_distance(self, u, v):
        return abs(u - v)


def test_midpoint_certify_detects_counterexample():
    # endpoints are fixed, but an interior vertex has a large orbit
    ctx = _RiggedContext(11)
    subgroup = [{}, {5: 8, 8: 5}]
    cert = midpoint_certify(ctx, almost_fixed_set(ctx, subgroup, 0), 0, 10, Fraction(0))
    assert not cert.ok
    assert any(z == 5 and diam >= 3 for z, diam in cert.counterexamples)
    # vertices off the swapped pair still certify
    assert any(z == 2 for z, _ in cert.certified)
