"""Acceptance gate: one test per shipping criterion, exact tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every expected value is either trivially forced by a definition
or cross-checked here against an independent oracle (literal big-integer
loops, brute-force BFS over an independently built graph, exhaustive
enumeration).
"""

import io
import itertools
import json
import random
import time
from fractions import Fraction

from centralizers import (
    CayleyContext,
    MultiplicationTable,
    PermutationAction,
    Slope,
    UniMatrix,
    act,
    almost_fixed_set,
    almost_fixed_slopes,
    build_ball,
    build_window,
    builtin_group,
    compute_constants,
    estimate_delta,
    extract_centralizers,
    farey_distance,
    finite_subgroup,
    intersection_number,
    measure_constants,
    midpoint_certify,
    verify_multitwist_commutation,
)
from centralizers.cli import run as cli_run
from centralizers.farey import S_MATRIX, T_MATRIX

from conftest import make_subgroup
from reference import constant_n, diameter, distances, slope_grid


def report(number, detail):
    print(f"criterion {number}: PASS ({detail})")


# -- 1 -------------------------------------------------------------------------

def test_criterion_1_constant_formula():
    """N and D match an independent big-integer evaluation on random inputs."""
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(50):
        c0, c1, c2, c3 = (rng.randint(1, 12) for _ in range(4))
        delta = Fraction(rng.randint(0, 20), 2)
        rep = compute_constants(c0, c1, c2, c3, delta)
        # independent evaluation: explicit repeated multiplication
        assert rep.n == constant_n(c0, c1, c2, c3)
        assert rep.d == rep.n + 12 * delta + 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"50 random inputs exact in {elapsed:.3f}s")


# -- 2 -------------------------------------------------------------------------

CORPUS_RUNS = [
    ("F2", [""], 5),
    ("F2xZ2", ["t"], 5),
    ("F2xZ3", ["u,u*u"], 5),
    ("Z2*Z2", ["r", "s", "r*s*r"], 6),
    ("Z2*Z3", ["r", "s,s*s", "s*r*s*s"], 6),
]


def test_criterion_2_extraction_soundness():
    """100% of emitted certificates verify, corpus-wide, at R <= 8."""
    start = time.monotonic()
    emitted = failures = 0
    for name, specs, radius in CORPUS_RUNS:
        oracle = builtin_group(name)
        ctx = CayleyContext(build_ball(oracle, radius))
        for spec in specs:
            sub = make_subgroup(oracle, spec)
            for a in (1, 2):
                afp = almost_fixed_set(ctx, sub, a)
                if not afp.members:
                    continue
                result = extract_centralizers(ctx, sub, afp)
                assert result.paths_agree is True
                for cert in result.certificates:
                    emitted += 1
                    if not cert.transcript.ok:
                        failures += 1
                    # independent recheck straight through the oracle
                    for h in sub:
                        if oracle.multiply(cert.element, h) != oracle.multiply(h, cert.element):
                            failures += 1
    elapsed = time.monotonic() - start
    assert emitted > 0 and failures == 0
    assert elapsed < 300
    report(2, f"{emitted} certificates verified, 0 failures, {elapsed:.1f}s")


# -- 3 -------------------------------------------------------------------------

def test_criterion_3_quantitative_conclusion():
    """With card(P_H) >= N (measured constants), >= C0+1 distinct certificates."""
    start = time.monotonic()
    oracle = builtin_group("F2xZ3")
    ctx = CayleyContext(build_ball(oracle, 8))
    sub = make_subgroup(oracle, "u,u*u")
    c0, a = sub.order, 1
    c1, c2, c3 = measure_constants(ctx, a)
    constants = compute_constants(c0, c1, c2, c3, Fraction(0), a=a)
    assert (c1, c2, c3) == (1, 7, 1) and constants.n == 1715
    afp = almost_fixed_set(ctx, sub, a)
    assert afp.size >= constants.n
    result = extract_centralizers(ctx, sub, afp)
    distinct = {oracle.key(c.element) for c in result.certificates if c.transcript.ok}
    assert len(distinct) >= c0 + 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(3, f"card(P_H)={afp.size} >= N={constants.n}, "
              f"{len(distinct)} distinct certificates >= {c0 + 1}, {elapsed:.1f}s")


# -- 4 -------------------------------------------------------------------------

MIDPOINT_RUNS = [
    ("F2", "", 4),
    ("F2xZ2", "t", 3),
    ("F2xZ3", "u,u*u", 3),
    ("Z2*Z2", "r", 8),
    ("Z2*Z3", "s,s*s", 6),
]


def test_criterion_4_midpoint_certification():
    """Zero counterexamples over all valid far-apart pairs, per corpus group."""
    start = time.monotonic()
    total_pairs = counterexamples = 0
    for name, spec, radius in MIDPOINT_RUNS:
        oracle = builtin_group(name)
        ball = build_ball(oracle, radius)
        est = estimate_delta(ball)
        assert est.mode == "exhaustive"
        delta = Fraction(est.delta)
        ctx = CayleyContext(ball)
        sub = make_subgroup(oracle, spec)
        afp = almost_fixed_set(ctx, sub, 6 * delta)
        for i, x in enumerate(afp.members):
            for y in afp.members[i + 1:]:
                d = ctx.pair_distance(x, y)
                if not ball.valid(x, y, d) or d < 20 * delta:
                    continue
                cert = midpoint_certify(ctx, afp, x, y, delta)
                total_pairs += 1
                counterexamples += len(cert.counterexamples)
    elapsed = time.monotonic() - start
    assert counterexamples == 0
    assert total_pairs > 0  # substantive at least on the tree cases
    assert elapsed < 600
    report(4, f"{total_pairs} pairs certified, 0 counterexamples, {elapsed:.1f}s")


# -- 5 -------------------------------------------------------------------------

def test_criterion_5_delta_baselines():
    """Exactly 0 on free-group balls; nondecreasing on nested Z/2*Z/3 balls."""
    start = time.monotonic()
    for name, radii in (("F1", (3, 6)), ("F2", (2, 3, 4))):
        oracle = builtin_group(name)
        for r in radii:
            est = estimate_delta(build_ball(oracle, r))
            assert est.mode == "exhaustive" and est.delta == 0
    oracle = builtin_group("Z2*Z3")
    deltas = [estimate_delta(build_ball(oracle, r)).delta for r in (4, 5, 6)]
    assert deltas == sorted(deltas)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(5, f"trees exactly 0; nested deltas {deltas} nondecreasing, {elapsed:.1f}s")


# -- 6 -------------------------------------------------------------------------

def test_criterion_6_farey_oracle_agreement():
    """Exact distance matches brute-force BFS for all |p|, |q| <= 30."""
    start = time.monotonic()
    grid, adj = slope_grid(30)
    verts = [Slope(p, q) for p, q in grid]
    n = len(verts)
    pairs = 0
    for i in range(n):
        dist = distances(adj, i)
        for j in range(i + 1, n):
            assert farey_distance(verts[i], verts[j]) == dist[j]
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120

    # the action preserves intersection numbers: 10^4 random pairs
    rng = random.Random(6)
    matrices = [S_MATRIX, T_MATRIX, T_MATRIX.inverse()]
    for _ in range(10_000):
        m = UniMatrix(1, 0, 0, 1)
        for _ in range(rng.randint(1, 8)):
            m = m * rng.choice(matrices)
        s, t = rng.choice(verts), rng.choice(verts)
        assert intersection_number(act(m, s), act(m, t)) == intersection_number(s, t)
    report(6, f"{pairs} slope pairs agree with BFS in {elapsed:.1f}s; "
              "10000 action pairs preserve intersections")


# -- 7 -------------------------------------------------------------------------

def test_criterion_7_contrapositive_illustration():
    """<S> (finite centralizer) has an eventually constant almost-fixed-set
    diameter across window depths; <-I> (acts trivially) keeps growing."""
    start = time.monotonic()
    diam_s, diam_c = [], []
    for depth in range(4, 9):
        window = build_window(depth)
        est = estimate_delta(
            window,
            mode="exhaustive" if window.size <= 200 else "sampled",
            samples=20_000,
            seed=0,
        )
        threshold = Fraction(6 * est.delta)
        afp_s = almost_fixed_slopes(finite_subgroup("S4"), window, threshold)
        afp_c = almost_fixed_slopes(finite_subgroup("center2"), window, threshold)
        diam_s.append(diameter([window.slopes[v] for v in afp_s.members], farey_distance))
        diam_c.append(diameter([window.slopes[v] for v in afp_c.members], farey_distance))
    assert len(set(diam_s[1:])) == 1  # eventually constant
    assert all(a < b for a, b in zip(diam_c, diam_c[1:]))  # strictly growing
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(7, f"<S> diameters {diam_s} stabilize, <-I> diameters {diam_c} grow, "
              f"{elapsed:.1f}s")


# -- 8 -------------------------------------------------------------------------

def abstract_groups():
    """All groups of order <= 6, as multiplication tables."""
    tables = [MultiplicationTable.cyclic(m, "g") for m in range(1, 7)]
    v4 = MultiplicationTable(
        ["1", "a", "b", "c"],
        [["1", "a", "b", "c"], ["a", "1", "c", "b"],
         ["b", "c", "1", "a"], ["c", "b", "a", "1"]],
    )
    from centralizers.multitwist import symmetric3_action

    return tables + [v4, symmetric3_action().table]


def all_actions(table, n):
    """Every homomorphism from the table group into S_n, as an action."""
    order = table.order
    # greedy generating set and a word for every element
    gens, word = [], {0: ()}
    frontier = [0]
    while len(word) < order:
        if not frontier:
            e = next(x for x in range(order) if x not in word)
            gens.append(e)
            word[e] = (len(gens) - 1,)
            frontier = list(word)
        new = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = table.mult(x, g)
                if y not in word:
                    word[y] = word[x] + (gi,)
                    new.append(y)
        frontier = new
    perms_n = list(itertools.permutations(range(n)))
    for images in itertools.product(perms_n, repeat=len(gens)):
        phi = []
        for e in range(order):
            p = tuple(range(n))
            for gi in word[e]:
                img = images[gi]
                p = tuple(p[img[i]] for i in range(n))  # phi(x*g) = phi(x) o phi(g)
            phi.append(p)
        if all(
            tuple(phi[x][phi[y][i]] for i in range(n)) == phi[table.mult(x, y)]
            for x in range(order)
            for y in range(order)
        ):
            yield PermutationAction(
                labels=tuple(f"c{i}" for i in range(n)),
                table=table,
                perms=tuple(phi),
            )


def test_criterion_8_multitwist_commutation():
    """Every action with |A| <= 4, |H| <= 6 passes, characterization included."""
    start = time.monotonic()
    checked = 0
    for table in abstract_groups():
        for n in range(1, 5):
            for action in all_actions(table, n):
                rep = verify_multitwist_commutation(action)
                assert rep.multitwist_central, (table.names, n, rep.multitwist_failures)
                assert rep.characterization_holds, rep.characterization_witness
                assert rep.vectors_checked == 5 ** n
                checked += 1
    elapsed = time.monotonic() - start
    assert checked > 100
    assert elapsed < 60
    report(8, f"{checked} actions verified in {elapsed:.1f}s")


# -- 9 -------------------------------------------------------------------------

DETERMINISM_CONFIGS = [
    ["delta", "--family", "Z2*Z3", "--radius", "5", "--mode", "sampled",
     "--samples", "400", "--seed", "17"],
    ["extract", "--family", "F2xZ2", "--subgroup", "t", "--threshold-a", "1",
     "--c0", "2", "--radius", "4", "--seed", "3"],
    ["farey", "--depth", "5", "--subgroup-name", "ST6", "--seed", "5",
     "--delta-mode", "sampled", "--delta-samples", "500"],
    ["afp", "--family", "F2xZ3", "--subgroup", "u,u*u", "--delta", "1/6",
     "--radius", "4", "--certify"],
]


def test_criterion_9_determinism():
    """Same config and seed produce byte-identical report streams."""
    for argv in DETERMINISM_CONFIGS:
        streams = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(argv, stdout=out, stderr=err)
            assert code == 0, err.getvalue()
            streams.append(out.getvalue())
        assert streams[0] == streams[1]
        for line in streams[0].splitlines():
            json.loads(line)  # every record is one valid JSON object
    report(9, f"{len(DETERMINISM_CONFIGS)} configs byte-identical across reruns")
