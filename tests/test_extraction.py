"""Constants, centralizer verification, and pigeonhole extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    BudgetError,
    CayleyContext,
    InputError,
    almost_fixed_set,
    build_ball,
    builtin_group,
    compute_constants,
    extract_centralizers,
    measure_constants,
    order_lower_bound,
    verify_centralizer,
    verify_subgroup,
)
from centralizers.extraction import _general_path, _specialized_path
from centralizers.groups import GroupOracle
from centralizers.groupfile import BUILTIN_NAMES
from conftest import make_subgroup
from reference import constant_n, distances


def test_extraction_never_derives_the_adjacency(f2xz2):
    # a whole extraction reads the step table, words and lengths only
    ball = build_ball(f2xz2, 4)
    assert "adjacency" not in vars(ball)
    ctx = CayleyContext(ball)
    subgroup = make_subgroup(f2xz2, "t")
    result = extract_centralizers(ctx, subgroup, almost_fixed_set(ctx, subgroup, 1))
    assert result.certificates and "adjacency" not in vars(ball)


def test_compute_constants_known_values():
    rep = compute_constants(3, 1, 7, 1, Fraction(0), a=1)
    assert rep.n == 1715
    assert rep.d == 1719
    rep2 = compute_constants(3, 1, 7, 1, Fraction(1, 2), a=1, formula="surface")
    assert rep2.d == 1715 + 6 + 10
    assert rep2.to_record()["D"] == "1731"


def test_compute_constants_random_cross_check():
    rng = random.Random(11)
    for _ in range(25):
        c = [rng.randint(1, 9) for _ in range(4)]
        delta = Fraction(rng.randint(0, 8), 2)
        rep = compute_constants(*c, delta)
        assert rep.n == constant_n(*c)
        assert rep.d == rep.n + 12 * delta + 4


def test_compute_constants_validation():
    with pytest.raises(InputError):
        compute_constants(0, 1, 1, 1, 0)
    with pytest.raises(InputError):
        compute_constants(1, 1, 1, 1, -1)
    with pytest.raises(InputError):
        compute_constants(1, 1, 1, 1, 0, formula="nope")


def test_compute_constants_refuses_what_cannot_print():
    # C0 = 5000 over a 6-vertex a-ball: a 3,895-digit N, which still prints
    assert len(str(compute_constants(5000, 1, 6, 1, 0).n)) == 3895
    for c0 in (99999, 10**9):  # 10**9 would build a power of gigabits
        with pytest.raises(BudgetError):
            compute_constants(c0, 1, 6, 1, 0)
    with pytest.raises(BudgetError):  # D's numerator holds delta's denominator
        compute_constants(1, 1, 1, 1, Fraction(1, 10**4400))


def brute_force_c2(ball, a):
    """The largest window a-ball over the core vertices, one BFS per vertex."""
    return max(sum(1 for d in distances(ball.adjacency, p) if 0 <= d <= a)
               for p in range(ball.size) if ball.lengths[p] + a <= ball.radius)


@pytest.mark.parametrize("family,radius", [("F2xZ2", 5), ("F2xZ3", 4),
                                           ("Z2*Z3", 8), ("Z2*Z2", 8)])
def test_measure_constants_matches_core_sweep(family, radius):
    ctx = CayleyContext(build_ball(builtin_group(family), radius))
    for a in range(radius + 1):
        assert measure_constants(ctx, a) == (1, brute_force_c2(ctx.ball, a), 1)


def test_measure_constants(f2xz2, f2xz3):
    # C1 = C3 = 1 (simply transitive action); C2 = closed a-ball size = 1 + degree
    ctx = CayleyContext(build_ball(f2xz2, 5))
    assert measure_constants(ctx, 1) == (1, 6, 1)
    ctx3 = CayleyContext(build_ball(f2xz3, 5))
    assert measure_constants(ctx3, 1) == (1, 7, 1)
    assert measure_constants(ctx3, 0) == (1, 1, 1)
    with pytest.raises(BudgetError):
        measure_constants(ctx, 6)  # no core vertex can host a 6-ball


def test_order_lower_bound(f2xz2, z2z2):
    assert order_lower_bound(f2xz2, f2xz2.parse("a")).kind == "infinite"
    rep = order_lower_bound(z2z2, z2z2.parse("r"))
    assert (rep.kind, rep.value) == ("finite", 2)
    rep2 = order_lower_bound(z2z2, z2z2.parse("r*s"), m=10)
    assert (rep2.kind, rep2.value) == ("infinite", None)
    assert order_lower_bound(f2xz2, f2xz2.parse("t")).value == 2


def power_order(oracle, z, m):
    """Reference: the least k <= m with z^k = 1, else "exceeds" m."""
    power = z
    for k in range(1, m + 1):
        if power.is_identity():
            return ("finite", k)
        power = oracle.multiply(power, z)
    return ("exceeds", m)


@pytest.mark.parametrize("name,word,m,expected", [
    ("F2xZ3", "1", 1, ("finite", 1)), ("F2xZ3", "u", 2, ("exceeds", 2)),
    ("F2xZ3", "u", 3, ("finite", 3)), ("F2", "a*b*a^-1", 64, ("infinite", None)),
    ("Z2*Z3", "s*r*s*s", 64, ("finite", 2)), ("Z2*Z3", "s*r*s", 64, ("infinite", None)),
    ("Z2*Z3", "s*r*s*r*s*s", 64, ("finite", 3)), ("Z2*Z2", "r*s*r", 1, ("exceeds", 1)),
])
def test_order_of_cyclically_reduced_words(name, word, m, expected):
    # a conjugate of a single letter has that letter's order
    oracle = builtin_group(name)
    rep = order_lower_bound(oracle, oracle.parse(word), m)
    assert (rep.kind, rep.value) == expected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_order_matches_the_power_loop(name, data):
    oracle = builtin_group(name)
    z = oracle.normalize(data.draw(st.lists(st.sampled_from(oracle.symbols), max_size=10)))
    m = data.draw(st.integers(1, 8))
    rep = order_lower_bound(oracle, z, m)
    if rep.kind == "infinite":
        # every finite order in these groups is at most 3
        assert power_order(oracle, z, 24) == ("exceeds", 24)
    else:
        assert (rep.kind, rep.value) == power_order(oracle, z, m)


def test_verify_centralizer(f2xz2, z2z3):
    h = verify_subgroup(f2xz2, {f2xz2.identity, f2xz2.parse("t")})
    assert verify_centralizer(f2xz2, f2xz2.parse("a*b"), h) is True
    hr = verify_subgroup(z2z3, {z2z3.identity, z2z3.parse("r")})
    assert verify_centralizer(z2z3, z2z3.parse("s"), hr) is False


def test_certificates_are_slotted(f2xz2):
    *_, res = run_extraction(f2xz2, "t", 3, 1)
    cert = res.certificates[1]
    for obj in (cert, cert.order):
        assert not hasattr(obj, "__dict__")
    # every certificate of infinite order holds one shared report
    infinite = {id(c.order) for c in res.certificates if c.order.kind == "infinite"}
    assert len(infinite) == 1 and len(res.nontrivial) > 2


# --- extraction --------------------------------------------------------------

def run_extraction(oracle, spec, radius, a):
    ctx = CayleyContext(build_ball(oracle, radius))
    words = [w for w in spec.split(",") if w]
    sub = verify_subgroup(
        oracle, {oracle.identity, *(oracle.parse(w) for w in words)}
    )
    afp = almost_fixed_set(ctx, sub, a)
    return ctx, sub, afp, extract_centralizers(ctx, sub, afp)


def test_members_and_certificates_are_each_sorted_once(monkeypatch, f2xz3):
    # one sort of the members, which both paths read, and one of the certificates
    ctx = CayleyContext(build_ball(f2xz3, 4))
    sub = make_subgroup(f2xz3, "u,u*u")
    afp = almost_fixed_set(ctx, sub, 1)
    calls = []
    key = GroupOracle.key

    def counted(self, x):
        calls.append(x)
        return key(self, x)

    monkeypatch.setattr(GroupOracle, "key", counted)
    res = extract_centralizers(ctx, sub, afp)
    assert len(res.certificates) > 1
    assert len(calls) == afp.size + len(res.certificates)


def reference_pigeonhole(oracle, sub, points):
    """First principles: per h, group the points by p*h*p^-1, keep the largest
    class and break a tie by the least ``oracle.key`` of a member.  Returns the
    final class in key order and whether any step tied."""
    cls, tied = list(points), False
    for h in sub:
        groups = {}
        for p in cls:
            c = oracle.multiply(oracle.multiply(p, h), oracle.invert(p))
            groups.setdefault(oracle.key(c), []).append(p)
        best = max(len(g) for g in groups.values())
        largest = [g for g in groups.values() if len(g) == best]
        tied |= len(largest) > 1
        cls = min(largest, key=lambda g: min(oracle.key(p) for p in g))
    return sorted(cls, key=oracle.key), tied


# (family, finite factor, largest radius)
FINITE_FACTORS = [("F2xZ2", "t", 4), ("F2xZ3", "u,u*u", 3), ("Z2*Z2", "r", 8),
                  ("Z2*Z2", "s", 8), ("Z2*Z3", "r", 8), ("Z2*Z3", "s,s*s", 8),
                  ("F2", "", 3)]


def test_both_paths_match_the_reference_tie_break():
    rng = random.Random(22)
    ties = 0
    for _ in range(60):
        family, spec, most = rng.choice(FINITE_FACTORS)
        oracle = builtin_group(family)
        g = rng.choice(build_ball(oracle, 2).vertices)
        sub = verify_subgroup(oracle, {
            oracle.multiply(oracle.multiply(g, h), oracle.invert(g))
            for h in make_subgroup(oracle, spec)
        })
        ctx = CayleyContext(build_ball(oracle, rng.randint(0, most)))
        afp = almost_fixed_set(ctx, sub, rng.randint(0, 3))
        if not afp.members:
            continue
        verts = ctx.ball.vertices
        want, tied = reference_pigeonhole(oracle, sub, [verts[i] for i in afp.members])
        ties += tied
        members = sorted(afp.members, key=lambda i: oracle.key(verts[i]))
        for path in (_general_path, _specialized_path):
            out, pc = path(ctx, sub, members)
            assert [p for _, p in out] == want and pc == want[0]
            assert all(z == oracle.multiply(oracle.invert(p), pc) for z, p in out)
    assert ties > 0


def test_extraction_central_factor(f2xz2):
    ctx, sub, afp, res = run_extraction(f2xz2, "t", 5, 1)
    assert res.class_size == afp.size
    assert len(res.certificates) == afp.size
    elements = {str(c.element) for c in res.certificates}
    # the centralizer here is the whole group: the generators show up
    assert {"a", "b", "t"} <= elements
    # every certificate re-verifies against the oracle directly
    for cert in res.certificates:
        for h in sub:
            assert f2xz2.multiply(cert.element, h) == f2xz2.multiply(h, cert.element)
    assert all(not c.trivial for c in res.nontrivial)


def test_extraction_certificates_sorted_distinct(f2xz2):
    _, _, _, res = run_extraction(f2xz2, "t", 4, 1)
    keys = [f2xz2.key(c.element) for c in res.certificates]
    assert keys == sorted(set(keys))


def test_extraction_reflection_subgroup(z2z2):
    ctx, sub, afp, res = run_extraction(z2z2, "r", 6, 1)
    # centralizer of a reflection in the infinite dihedral group is {1, r}
    assert {str(c.element) for c in res.certificates} == {"1", "r"}
    assert len(res.nontrivial) == 1
    assert res.nontrivial[0].order.value == 2


def test_extraction_conjugate_subgroup(z2z3):
    ctx, sub, afp, res = run_extraction(z2z3, "s*r*s*s", 6, 1)
    assert res.nontrivial
    for cert in res.nontrivial:
        for h in sub:
            assert z2z3.multiply(cert.element, h) == z2z3.multiply(h, cert.element)


def test_extraction_empty_rejected(z2z3):
    # orbit diameters are odd conjugate lengths, never 0: nothing to refine
    with pytest.raises(InputError):
        run_extraction(z2z3, "r", 6, 0)


def test_extraction_singleton_class(f2):
    ctx, sub, afp, res = run_extraction(f2, "", 0, 0)
    assert afp.size == 1
    assert res.class_size == 1 and res.nontrivial == ()


def test_extraction_provenance_quotients(f2xz3):
    ctx, sub, afp, res = run_extraction(f2xz3, "u,u*u", 4, 1)
    for cert in res.certificates:
        p_i, p_c = cert.provenance
        assert f2xz3.multiply(f2xz3.invert(p_i), p_c) == cert.element


def _coset_keys(oracle, sub, p1, cls):
    """The stabilizer-coset refinement the general path leaves out, per h: the
    keys of g_b^-1 * (g_i * h) * g_i^-1 * (g_b * h^-1) over the class, with
    g_i = p_1^-1 * p_i and b the class's least member."""
    g = {p: oracle.multiply(oracle.invert(p1), p) for p in cls}
    gb = g[cls[0]]
    out = []
    for h in sub:
        tail = oracle.multiply(gb, oracle.invert(h))
        out.append({
            oracle.key(oracle.multiply(oracle.multiply(
                oracle.multiply(oracle.invert(gb), oracle.multiply(g[p], h)),
                oracle.invert(g[p])), tail))
            for p in cls
        })
    return out


@pytest.mark.parametrize("family,spec,radii", [
    ("F2xZ2", "t", (3, 4)), ("F2xZ3", "u,u*u", (2, 3)), ("Z2*Z3", "s,s*s", (4, 7)),
    ("Z2*Z3", "r", (4, 7)), ("Z2*Z2", "r", (3, 6)), ("F2xZ2", "", (2, 3)),
    ("Z2*Z3", "", (5,)),
])
def test_free_action_needs_no_coset_stage(family, spec, radii):
    # on a Cayley graph the action is free: every h has one coset key over
    # the final class, so the left-out refinement would never split it
    oracle = builtin_group(family)
    sub = make_subgroup(oracle, spec)
    sizes = []
    for radius in radii:
        ctx = CayleyContext(build_ball(oracle, radius))
        for a in (1, 2):
            afp = almost_fixed_set(ctx, sub, a)
            assert afp.members
            members = sorted(afp.members, key=lambda i: oracle.key(ctx.ball.vertices[i]))
            out, pc = _general_path(ctx, sub, members)
            p1 = min((ctx.ball.vertices[i] for i in afp.members), key=oracle.key)
            cls = [p for _, p in out]
            assert pc == cls[0]
            assert all(len(keys) == 1 for keys in _coset_keys(oracle, sub, p1, cls))
            # the emitted z_i = p_i^-1 * p_c are pairwise distinct
            assert len({oracle.key(z) for z, _ in out}) == len(out)
            sizes.append(len(out))
    assert max(sizes) > 1
