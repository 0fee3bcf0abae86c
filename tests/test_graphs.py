"""Distances, geodesic enumeration and intervals, and thin-triangle delta."""

import io
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centralizers import (
    BudgetError,
    CayleyContext,
    FiniteMetricGraph,
    GraphError,
    InputError,
    all_geodesics,
    bfs_distances,
    build_ball,
    build_window,
    builtin_group,
    estimate_delta,
    geodesic_layers,
)
from centralizers import graphs
from centralizers.cli import EXIT_BUDGET, run as cli_run
from centralizers.deltascan import (
    _grow,
    _pair_interval,
    _rows_toward,
    _sample3,
    _transpose,
)
from centralizers.graphs import SphereRows, distance_matrix
from conftest import window_symmetries
from reference import (
    PairData,
    as_set,
    distance_rows,
    distances,
    exact,
    interval,
    level_sets,
    per_triangle_delta,
    per_triangle_sampled_delta,
    sampled_thinness,
    triangle_thinness,
)


def graph_from_edges(n, edges, lengths=None, radius=None):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return FiniteMetricGraph(adjacency=tuple(tuple(sorted(a)) for a in adj),
                             lengths=lengths, radius=radius)


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(k):
    return graph_from_edges(k * k, [(v, v + 1) for v in range(k * k) if (v + 1) % k]
                            + [(v, v + k) for v in range(k * k - k)])


def brute_force_geodesics(graph, x, y):
    """Independent oracle: enumerate all simple paths, keep the shortest."""
    best = None
    out = []
    stack = [(x, (x,))]
    while stack:
        u, path = stack.pop()
        if u == y:
            if best is None or len(path) < best:
                best = len(path)
                out = [path]
            elif len(path) == best:
                out.append(path)
            continue
        if best is not None and len(path) >= best:
            continue
        for v in graph.adjacency[u]:
            if v not in path:
                stack.append((v, path + (v,)))
    return sorted(out)


def assert_interval_matches(g, x, y, paths):
    """geodesic_layers covers exactly the enumerated paths, and counts them,
    as the reference interval does."""
    dy = distances(g.adjacency, y)
    layers = geodesic_layers(g, x, y, dy)
    assert set().union(*layers) == {v for p in paths for v in p}
    assert layers[-1][y] == len(paths)
    assert layers == interval(g.adjacency, distances(g.adjacency, x), dy)


def test_bfs_on_path():
    g = path_graph(6)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4, 5]
    assert bfs_distances(g, 3) == [3, 2, 1, 0, 1, 2]


def test_bfs_unreachable():
    g = FiniteMetricGraph(adjacency=((1,), (0,), ()))
    assert bfs_distances(g, 0) == [0, 1, -1]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_all_geodesics_match_brute_force_on_cycles(n):
    g = cycle_graph(n)
    for x, y in itertools.combinations(range(n), 2):
        paths, truncated = all_geodesics(g, x, y)
        assert not truncated
        assert sorted(paths) == brute_force_geodesics(g, x, y)
        assert_interval_matches(g, x, y, paths)


def test_all_geodesics_match_brute_force_on_ball(z2z3):
    ball = build_ball(z2z3, 3)
    for x in range(ball.size):
        for y in range(x + 1, ball.size):
            paths, _ = all_geodesics(ball, x, y)
            assert sorted(paths) == brute_force_geodesics(ball, x, y)
            assert_interval_matches(ball, x, y, paths)


def test_all_geodesics_cap():
    # C4 has two geodesics between antipodes; cap at 1 truncates
    paths, truncated = all_geodesics(cycle_graph(4), 0, 2, cap=1)
    assert len(paths) == 1 and truncated


def test_all_geodesics_disconnected():
    g = FiniteMetricGraph(adjacency=((), ()))
    with pytest.raises(GraphError):
        all_geodesics(g, 0, 1)


def test_window_validity_against_bfs(f2):
    ball = build_ball(f2, 3)
    assert bfs_distances(ball, 1)[0] == 1 and ball.valid(0, 1, 1)
    # two deepest vertices: the window cannot certify their distance
    deep = [v for v in range(ball.size) if ball.lengths[v] == 3]
    dist = bfs_distances(ball, deep[-1])
    assert dist[deep[0]] == 6 and not ball.valid(deep[0], deep[-1], dist[deep[0]])
    layers = geodesic_layers(ball, deep[0], deep[-1], dist)
    assert len(layers) == dist[deep[0]] + 1 and layers[-1] == {deep[-1]: 1}


def test_one_validity_predicate(f2xz2):
    # the window predicate and the scan's valid rows agree, and the word
    # metric is the window distance wherever the predicate holds
    ball = build_ball(f2xz2, 3)
    assert isinstance(ball, FiniteMetricGraph)
    assert isinstance(build_window(2), FiniteMetricGraph)
    ctx = CayleyContext(ball)
    dmat = distance_rows(ball.adjacency)
    rows = ball.valid_rows(distance_matrix(ball))
    flags = set()
    for u, v in itertools.product(range(ball.size), repeat=2):
        valid = ball.valid(u, v, dmat[u][v])
        assert valid == exact(ball, u, v, dmat[u][v])
        assert rows[u] >> v & 1 == (valid and u != v)
        if valid:
            assert ctx.pair_distance(u, v) == dmat[u][v]
        flags.add(valid)
    assert flags == {True, False}
    with pytest.raises(InputError):
        FiniteMetricGraph(adjacency=((),), radius=1)  # no lengths to test against


# --- delta estimation ---------------------------------------------------------

def test_delta_zero_on_trees(f2):
    for r in (2, 3, 4):
        est = estimate_delta(build_ball(f2, r))
        assert est.mode == "exhaustive" and est.delta == 0


@pytest.mark.parametrize("n,expected", [(4, 1), (5, 1), (6, 1), (7, 1), (8, 2), (10, 2)])
def test_delta_on_cycles(n, expected):
    est = estimate_delta(cycle_graph(n))
    assert est.delta == expected
    assert est.witness is not None


def test_delta_triangle_cactus(z2z3):
    # the free product ball is a tree of triangles: every geodesic triangle
    # is 0-thin even though the graph is not a tree
    for r in (4, 5, 6):
        assert estimate_delta(build_ball(z2z3, r)).delta == 0


def test_delta_nonzero_with_squares(f2xz2):
    # commuting generators create 4-cycles
    est = estimate_delta(build_ball(f2xz2, 3))
    assert est.delta == 1


def test_sampled_delta_is_lower_bound_and_deterministic():
    g = cycle_graph(12)
    full = estimate_delta(g)
    s1 = estimate_delta(g, mode="sampled", samples=50, seed=3)
    s2 = estimate_delta(g, mode="sampled", samples=50, seed=3)
    assert s1.delta <= full.delta
    assert s1.delta == s2.delta and s1.triangles == s2.triangles
    assert s1.mode == "sampled"


def test_delta_exact_beyond_64_geodesics():
    # corner-to-corner pairs of the 5x5 grid have C(8, 4) = 70 geodesics
    g = grid_graph(5)
    assert len(all_geodesics(g, 0, 24, cap=10**6)[0]) == 70
    dmat, spheres, outside = distance_rows(g.adjacency), distance_matrix(g), outsides(g, 8)
    for p, q in itertools.combinations(range(g.n), 2):
        paths, _ = all_geodesics(g, p, q, cap=10**6)
        worst = [max(min(row[w] for w in path) for path in paths) for row in dmat]
        assert PairData(g, dmat, p, q).far == worst
        for t in range(max(worst) + 1):
            assert far_sets(g, spheres, q, [p], t, outside[t]) == [as_set(d > t for d in worst)]
    est = estimate_delta(g)
    assert est.delta == 4
    assert est.to_record()["geodesics_capped"] is False


# --- the batched scans against the per-triangle scan --------------------------

def outsides(graph, top):
    """outside[t][v] = ~ball_t(v), the scan's far-set mask, for t = 0..top."""
    out = [[~(1 << v) for v in range(graph.n)]]
    while len(out) <= top:
        out.append(_grow(out[-1], graph.adjacency))
    return out


def far_sets(graph, spheres, q, partners, t, outside):
    """F_t(p, q) for each p in ``partners``: the scan's rows toward q, over
    the intervals from q to the partners; ``outside`` is ``outsides(...)[t]``."""
    around = [sum(1 << u for u in a) for a in graph.adjacency]
    rows = _rows_toward(q, sum(1 << p for p in partners), spheres[q], t, outside,
                        graph.adjacency, around)
    return [rows[p] for p in partners]


def assert_scan_matches_reference(graph):
    est = estimate_delta(graph)
    assert (est.delta, est.triangles, est.witness) == per_triangle_delta(graph)
    return est


@st.composite
def random_graphs(draw, max_n=11):
    n = draw(st.integers(3, max_n))
    # a random spanning tree keeps it connected; extra edges add cycles
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += draw(st.lists(pairs, max_size=2 * n))
    return n, edges


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(["random", "cycle", "grid", "union", "window"]))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 16)))
    if kind == "grid":
        return grid_graph(draw(st.integers(2, 4)))
    n, edges = draw(random_graphs())
    if kind == "union":
        m, more = draw(random_graphs(max_n=6))
        return graph_from_edges(n + m, edges + [(u + n, v + n) for u, v in more])
    if kind == "window":
        # base lengths and a radius: validity prunes pairs, as in a Cayley ball
        lengths = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        return graph_from_edges(n, edges, lengths, draw(st.integers(0, 6)))
    return graph_from_edges(n, edges)


@pytest.mark.parametrize("family,radius", [("F2xZ2", 3), ("F2xZ3", 2), ("Z2*Z3", 5),
                                           ("Z2*Z2", 6)])
def test_batched_scan_on_cayley_windows(family, radius):
    assert_scan_matches_reference(build_ball(builtin_group(family), radius))


# one graph per side of the witness triangle: a scan that read the side's
# own far row in place of one of the other two sides' rows, on side xy, xz
# or yz in turn, gets another result on that side's graph
ONE_SIDE_GRAPHS = {
    "xy": (11, [(0, 1), (0, 3), (0, 4), (0, 9), (1, 2), (2, 3), (2, 5), (3, 6), (3, 7),
                (3, 9), (4, 9), (5, 8), (6, 8), (7, 8), (9, 10)], (2, 165, (4, 5, 6))),
    "xz": (10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 9), (1, 9), (2, 7), (3, 5),
                (4, 8), (4, 9), (5, 6), (6, 8), (7, 8)], (2, 120, (1, 4, 6))),
    "yz": (11, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 7), (2, 9), (2, 10),
                (3, 9), (4, 5), (4, 6), (5, 6), (5, 7), (5, 8), (7, 8), (7, 9), (9, 10)],
           (2, 165, (5, 6, 10))),
}


@pytest.mark.parametrize("side", ONE_SIDE_GRAPHS)
def test_batched_scan_reads_the_other_two_sides(side):
    n, edges, expected = ONE_SIDE_GRAPHS[side]
    graph = graph_from_edges(n, edges)
    assert per_triangle_delta(graph) == expected
    assert_scan_matches_reference(graph)


def int8_tail_graph():
    """A 4-cycle a-b-c-d with a 128-vertex path hanging off c.

    Distances reach 130, so the far rows are int16.  Only the triangles
    through the path's last two vertices p127 = 0 and p128 = 1 are valid
    (their base length is 0, every other vertex's is out of reach).
    """
    n = 132
    p127, p128, a, b, c, d = 0, 1, 2, 3, 4, 5
    path = [c] + list(range(6, n)) + [p127, p128]
    edges = [(a, b), (b, c), (c, d), (d, a)] + list(zip(path, path[1:]))
    lengths = tuple(0 if v in (p127, p128) else 10**6 for v in range(n))
    return graph_from_edges(n, edges, lengths, radius=131)


def test_batched_scan_past_int8_distances():
    # On (a, p127, p128) = (2, 0, 1), b and d are 1 from a geodesic of side
    # a-p127 and 128 from side p127-p128: a store that wrapped 128 to -128
    # would score this, the only 1-thin triangle, 0.
    graph = int8_tail_graph()
    assert max(map(max, distance_rows(graph.adjacency))) == 130
    est = assert_scan_matches_reference(graph)
    assert (est.delta, est.triangles, est.witness) == (1, graph.n - 2, (0, 1, 2))


# --- the batched sampled scan against the per-triangle scan -------------------

def assert_sampled_scan_matches_reference(graph, samples, seed):
    est = estimate_delta(graph, mode="sampled", samples=samples, seed=seed)
    assert est.mode == "sampled" and est.seed == seed
    assert (est.delta, est.triangles, est.witness) == \
        per_triangle_sampled_delta(graph, samples, seed)
    return est


def test_sample3_draws_what_random_sample_draws():
    # both of sample's branches (a shrinking pool up to n = 21, redraws
    # above), bounds just under and over powers of two, and the same state
    # of the generator afterwards
    for n in [*range(3, 70), 128, 512, 1000, 65537]:
        for seed in range(40):
            ref, rng = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert _sample3(rng.getrandbits, n) == ref.sample(range(n), 3), (n, seed)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("family,radius,samples", [("F2xZ2", 3, 300), ("F2xZ3", 2, 200),
                                                   ("Z2*Z3", 5, 400), ("F2", 3, 100)])
def test_sampled_scan_on_cayley_windows(family, radius, samples):
    assert_sampled_scan_matches_reference(
        build_ball(builtin_group(family), radius), samples, seed=samples)


@pytest.mark.parametrize("depth", range(3, 7))
def test_sampled_scan_on_farey_windows(depth):
    # the sampled pairs' interval nodes fill n rows several times over: the
    # scan runs several batches of whole targets
    assert_sampled_scan_matches_reference(build_window(depth), 300, seed=depth)


def test_sampled_scan_past_int8_distances():
    # the only valid triangles run through the tail's last two vertices:
    # about 1 draw in 2,900, so 60,000 attempts find some
    assert assert_sampled_scan_matches_reference(int8_tail_graph(), 3000, seed=2).triangles > 0


@st.composite
def reference_cases(draw):
    """A graph for both scans, with a sample count and a seed: ``scan_cases``,
    such a graph with up to 3 vertices of degree 0 relabelled in, n in
    {0, 1, 2}, a Cayley ball or a Farey window.  Four in seven are
    ``scan_cases`` graphs, with or without lone vertices."""
    kind = draw(st.sampled_from(["scan", "scan", "scan", "lone", "tiny", "cayley", "farey"]))
    if kind == "tiny":
        n = draw(st.integers(0, 2))
        graph = graph_from_edges(n, [(0, 1)] if n == 2 and draw(st.booleans()) else [])
    elif kind == "cayley":
        family, top = draw(st.sampled_from([("F1", 8), ("F2", 3), ("F2xZ2", 2), ("F2xZ3", 2),
                                            ("Z2*Z2", 6), ("Z2*Z3", 5)]))
        graph = build_ball(builtin_group(family), draw(st.integers(0, top)))
    elif kind == "farey":
        graph = build_window(draw(st.integers(0, 3)))
    else:
        graph = draw(scan_cases())
    if kind == "lone":
        n, lone = graph.n, draw(st.integers(1, 3))
        label = draw(st.permutations(range(n + lone)))
        edges = [(label[u], label[v]) for u, around in enumerate(graph.adjacency) for v in around]
        lengths = None
        if graph.radius is not None:
            lengths = [draw(st.integers(0, 4)) for _ in range(n + lone)]
            for v in range(n):
                lengths[label[v]] = graph.lengths[v]
            lengths = tuple(lengths)
        graph = graph_from_edges(n + lone, edges, lengths, graph.radius)
    return graph, draw(st.integers(0, 60)), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(reference_cases())
def test_both_scans_match_the_per_triangle_reference(case):
    graph, samples, seed = case
    if graph.n == 0:
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(InputError):
                estimate_delta(graph, mode=mode, samples=samples, seed=seed)
        return
    assert_scan_matches_reference(graph)
    assert_sampled_scan_matches_reference(graph, samples, seed)


def test_sampled_scan_on_a_path_longer_than_the_recursion_limit(monkeypatch):
    # a diameter of 1,299 > the default recursion limit: the spheres would
    # take far more than 16 n^2 bytes, so the scan reads distance rows
    graph, matrix, made = path_graph(1300), graphs.distance_matrix, []

    def kept(g, keep=None):  # what the scan reads, built once
        made.append(matrix(g, keep))
        return made[-1]

    monkeypatch.setattr(graphs, "distance_matrix", kept)
    assert sys.getrecursionlimit() < 1299
    est = estimate_delta(graph, mode="sampled", samples=20, seed=1)
    assert (est.delta, est.triangles, est.witness) == (0, 20, None)
    [rows] = made
    assert isinstance(rows, SphereRows)


@settings(max_examples=100, deadline=None)
@given(scan_cases())
def test_sphere_rows_give_the_intervals_of_the_spheres(graph):
    spheres, rows = distance_matrix(graph), SphereRows(graph)
    dmat = distance_rows(graph.adjacency)
    for p, q in itertools.combinations(range(graph.n), 2):
        if dmat[p][q] >= 0:
            between = set().union(*interval(graph.adjacency, dmat[p], dmat[q]))
            assert rows.interval(p, q) == _pair_interval(spheres, p, q) == sum(
                1 << w for w in between)


@settings(max_examples=100, deadline=None)
@given(scan_cases(), st.lists(st.integers(-3, 9), min_size=20, max_size=20),
       st.integers(-2, 8))
def test_valid_rows_are_valid_on_every_pair(graph, lengths, radius):
    # any lengths, negative ones too, and any radius
    window = FiniteMetricGraph(adjacency=graph.adjacency, lengths=tuple(lengths[:graph.n]),
                               radius=radius)
    dmat = distance_rows(window.adjacency)
    for g in (graph, window):
        rows = g.valid_rows(distance_matrix(g))
        assert rows == [as_set(u != v and exact(g, u, v, d) for v, d in enumerate(row))
                        for u, row in enumerate(dmat)]


@settings(max_examples=100, deadline=None)
@given(reference_cases())
def test_sampled_scan_on_rows_matches_the_scan_on_spheres(case):
    # keep=-1 turns every graph with an edge over to distance rows
    graph, samples, seed = case
    assume(graph.n)  # an empty graph is an input error, either way
    spheres = estimate_delta(graph, mode="sampled", samples=samples, seed=seed)
    matrix = graphs.distance_matrix
    graphs.distance_matrix = lambda g, keep=None: matrix(g, keep=-1)
    try:
        rows = estimate_delta(graph, mode="sampled", samples=samples, seed=seed)
    finally:
        graphs.distance_matrix = matrix
    assert rows == spheres


def test_farey_delta_window_over_budget_exits_3():
    # a depth-12 window has 8,192 slopes: its n^2 triangle keys alone are
    # over the budget, so the scan stops before its first sphere
    out, err = io.StringIO(), io.StringIO()
    argv = ["farey", "--depth", "3", "--delta-depth", "12"]
    assert cli_run(argv, stdout=out, stderr=err) == EXIT_BUDGET
    assert err.getvalue().startswith("budget error:") and out.getvalue() == ""


def test_transpose_moves_bit_c_of_row_i_to_bit_i_of_row_c():
    rng = random.Random(7)
    for size in (1, 2, 4, 8, 64, 128):
        rows = [rng.getrandbits(size) for _ in range(size)]
        assert _transpose(list(rows)) == [sum((rows[i] >> c & 1) << i for i in range(size))
                                          for c in range(size)]


def test_sampled_witness_is_the_first_maximum_in_draw_order():
    # every triangle of the 8-cycle is drawn, and several are 1-thin: the
    # witness is the first of those drawn, not the least in vertex order
    graph, samples = cycle_graph(8), 56
    drawn = sampled_thinness(graph, samples, seed=4)
    values = [val for _, val in drawn]
    first = values.index(max(values))
    assert len(drawn) == samples and values.count(max(values)) > 1
    assert drawn[first][0] != min(tri for tri, val in drawn if val == max(values))
    est = estimate_delta(graph, mode="sampled", samples=samples, seed=4)
    assert (est.delta, est.triangles, est.witness) == (max(values), samples, drawn[first][0])


@pytest.mark.parametrize("graph", [cycle_graph(5), graph_from_edges(5, [(0, 1), (1, 2), (2, 0),
                                                                        (3, 4)])],
                         ids=["cycle", "triangle-and-edge"])
def test_sampled_draw_ends_once_every_triangle_is_drawn(graph):
    # 10**9 samples would allow 2 * 10**10 attempts; there are only C(5, 3) = 10
    est = estimate_delta(graph, mode="sampled", samples=10**9, seed=0)
    full = estimate_delta(graph)
    assert (est.delta, est.triangles) == (full.delta, full.triangles)


def test_sampled_budget_covers_the_sample(monkeypatch):
    # every one of the 10-cycle's C(10, 3) = 120 triangles is drawn
    graph, n, triangles = cycle_graph(10), 10, 120
    # before the draw, per triangle: a key below 2^12 with its list slot, its
    # hash and key slots in the seen set and three side-index slots
    before = triangles * (sys.getsizeof(2**12 - 1) + 8 + 16 + 3 * 8)
    # the spheres would take more than 16 n^2 bytes, so each vertex keeps a
    # row of n 2-byte distances; then the valid rows, a set of n bits each
    assert isinstance(distance_matrix(graph, keep=16 * n * n), SphereRows)
    rows = n * (sys.getsizeof(array("h")) + 2 * n + 8)
    valid = n * (sys.getsizeof(2**n - 1) + 8)
    need = before + rows + valid
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    assert estimate_delta(graph, mode="sampled", samples=10**9).triangles == triangles
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetError):
        estimate_delta(graph, mode="sampled", samples=10**9)
    # the draw itself is sized from min(samples, C(n, 3)) before it starts
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", before - 1)
    with pytest.raises(BudgetError, match="a sample of 120 triangles"):
        estimate_delta(graph, mode="sampled", samples=10**9)
    assert estimate_delta(graph, mode="sampled", samples=3).triangles == 3


# --- the bitset distance matrix against per-source BFS ------------------------

def assert_matrix_matches_bfs(graph):
    """Each vertex's spheres are its BFS distance classes, up to its
    eccentricity, and ``SphereRows`` builds the same from its rows."""
    spheres = distance_matrix(graph)
    assert isinstance(spheres, list) and len(spheres) == graph.n
    for v, row in enumerate(distance_rows(graph.adjacency)):
        assert bfs_distances(graph, v) == row
        assert spheres[v] == level_sets(row)
    rows = SphereRows(graph)
    assert [rows[v] for v in range(graph.n)] == spheres


@st.composite
def matrix_cases(draw):
    """``scan_cases`` graphs, and graphs of n in {0, 1} or at the 64-bit word
    boundaries with up to 2n random edges (disconnected, most of them); each
    gets up to 3 vertices of degree 0 relabelled in at random places."""
    if draw(st.booleans()):
        graph = draw(scan_cases())
        n, edges = graph.n, [(u, v) for u, a in enumerate(graph.adjacency) for v in a]
    else:
        n = draw(st.sampled_from([0, 1, 63, 64, 65, 129]))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.lists(pairs, max_size=2 * n)) if n else []
    lone = draw(st.integers(0, 3))
    label = draw(st.permutations(range(n + lone)))
    return graph_from_edges(n + lone, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
def test_distance_matrix_matches_per_source_bfs(graph):
    assert_matrix_matches_bfs(graph)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_distance_matrix_at_word_boundaries(n):
    # a path on n - 1 vertices, then a vertex of degree 0: n - 2 levels, and
    # the last source in the last bit of a 64-bit word, the first of one, or past it
    graph = graph_from_edges(n, [(i, i + 1) for i in range(n - 2)])
    spheres = distance_matrix(graph)
    assert_matrix_matches_bfs(graph)
    assert spheres[0][n - 2] == 1 << (n - 2) and spheres[n - 1] == [1 << (n - 1)]
    assert not any(sphere >> (n - 1) for v in range(n - 1) for sphere in spheres[v])


@pytest.mark.parametrize("depth", range(7))
def test_distance_matrix_on_farey_windows(depth):
    assert_matrix_matches_bfs(build_window(depth))


@pytest.mark.parametrize("family,radius", [("F2xZ2", 3), ("F2xZ3", 2), ("Z2*Z3", 5),
                                           ("Z2*Z2", 6), ("F2", 4)])
def test_distance_matrix_on_cayley_windows(family, radius):
    assert_matrix_matches_bfs(build_ball(builtin_group(family), radius))


def test_distance_matrix_budget_is_exact(monkeypatch):
    # a cycle on 1..98 and vertices 0 and 99 of degree 0
    n = 100
    graph = graph_from_edges(n, [(i, i % 98 + 1) for i in range(1, 99)])
    unit = sys.getsizeof(2**n - 1) + 8  # a set of n bits, with its list slot
    balls = 2 * n * unit  # the balls of the last level and of the next
    # a cycle vertex has a sphere at levels 0..49 and is counted at each of
    # levels 1..50, the last finding nothing new; a lone vertex at none
    need = balls + 98 * 50 * unit
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    assert_matrix_matches_bfs(graph)
    assert isinstance(distance_matrix(graph, keep=need), list)
    assert isinstance(distance_matrix(graph, keep=need - 1), SphereRows)
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetError):
        distance_matrix(graph)
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", balls - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as refused:
            distance_matrix(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "the distance spheres of 100 vertices" in str(refused.value)
    assert peak < n * unit  # refused before the first ball


# --- far rows by target against the per-pair rows -----------------------------

def assert_target_rows_match_pair_data(graph, thresholds=None):
    """For each target q, the rows toward q over the intervals to its valid
    partners p hold, at each threshold t, the vertices where ``PairData``'s
    far row of (p, q) exceeds t (every t up to the largest far value, or
    ``thresholds``)."""
    dmat, spheres = distance_rows(graph.adjacency), distance_matrix(graph)
    far = {(p, q): level_sets(PairData(graph, dmat, p, q).far)
           for p, q in itertools.combinations(range(graph.n), 2)
           if exact(graph, p, q, dmat[p][q])}
    if not far:
        return
    if thresholds is None:
        thresholds = range(max(map(len, far.values())))
    outside = outsides(graph, max(thresholds))
    for q in range(graph.n):
        partners = [p for p in range(graph.n) if (min(p, q), max(p, q)) in far]
        for t in thresholds:
            assert far_sets(graph, spheres, q, partners, t, outside[t]) == [
                sum(far[min(p, q), max(p, q)][t + 1:]) for p in partners]


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_target_rows_match_pair_data(graph):
    assert_target_rows_match_pair_data(graph)


@pytest.mark.parametrize("depth", range(7))
def test_target_rows_on_farey_windows(depth):
    assert_target_rows_match_pair_data(build_window(depth))


@pytest.mark.parametrize("family,radius", [("F2xZ2", 3), ("F2xZ3", 2), ("Z2*Z3", 5),
                                           ("Z2*Z2", 6), ("F2", 4)])
def test_target_rows_on_cayley_windows(family, radius):
    assert_target_rows_match_pair_data(build_ball(builtin_group(family), radius))


def test_target_rows_past_int8_distances():
    # far values up to 130: a mask or a row that wrapped past 127 would lose them
    graph = int8_tail_graph()
    assert max(map(max, distance_rows(graph.adjacency))) == 130
    assert_target_rows_match_pair_data(graph, thresholds=(0, 1, 2, 126, 127, 128, 129))


def test_target_rows_through_pairs_that_are_not_valid():
    # on the path 0-1-2-3 with |0| = 0, |1| = |2| = |3| = 5 and radius 3 the
    # valid pairs are (0, 1), (0, 2) and (0, 3): the row of (0, 3) steps
    # through (1, 3) and (2, 3), which are not valid, and still has its row
    graph = FiniteMetricGraph(adjacency=path_graph(4).adjacency, lengths=(0, 5, 5, 5),
                              radius=3)
    assert [p for p in range(1, 4) if graph.valid(0, p, p)] == [1, 2, 3]
    assert not graph.valid(1, 3, 2) and not graph.valid(2, 3, 1)
    assert_target_rows_match_pair_data(graph)


def test_exhaustive_scan_on_depth_7_farey_window():
    # 256 slopes, 32,640 pairs; the value the per-pair scan gave
    est = estimate_delta(build_window(7))
    assert (est.delta, est.triangles, est.witness) == (1, 2763520, (0, 1, 3))


def test_delta_budget_checked_before_allocation():
    # isolated vertices: no edges to walk, but n^2 int32 distances over budget
    n = 9000
    assert 4 * n * n > graphs.DELTA_MEMORY_BUDGET
    graph = FiniteMetricGraph(adjacency=((),) * n)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            estimate_delta(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_delta_budget_covers_far_rows(monkeypatch):
    # C(40, 3) = 9,880 valid triangles, more than n^2: scanned by columns
    graph, n = cycle_graph(40), 40
    unit = sys.getsizeof(2**n - 1) + 8  # a set of n bits, with its list slot
    # before the spheres: n^2 dict keys below 2^12, with their slots, as
    # many as a side index of every pair, for intervals and far sets, holds
    keys = n * n * (sys.getsizeof(2**12 - 1) + 8)
    # each vertex's spheres of radius 0..20, the valid rows, and a column of
    # 64 slots, n rounded up to a power of two, for each of the n targets
    need = (n * 21 + n) * unit + n * 64 * unit
    assert keys < need
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetError, match="the columns of 40 targets"):
        estimate_delta(graph)
    assert estimate_delta(graph, mode="sampled", samples=10).triangles == 10
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    assert estimate_delta(graph).triangles == 40 * 39 * 38 // 6
    # the keys are checked before the first sphere
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", keys - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="the exhaustive scan of 40 vertices"):
            estimate_delta(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 21 * unit  # less than the spheres


def test_delta_budget_covers_the_side_index(monkeypatch, z2z2):
    # a ball has fewer valid triangles than n^2: they are scored one by one,
    # with an interval and a far set kept per valid pair
    graph = build_ball(z2z2, 6)
    n, dmat = graph.n, distance_rows(graph.adjacency)
    delta, count, _ = per_triangle_delta(graph)
    pairs = sum(1 for p, q in itertools.combinations(range(n), 2)
                if exact(graph, p, q, dmat[p][q]))
    unit = sys.getsizeof(2**n - 1) + 8  # a set of n bits, with its list slot
    key = sys.getsizeof(2 ** (2 * n.bit_length()) - 1) + 8  # a key below n^2, likewise
    assert count <= n * n
    # the spheres of radius 0..eccentricity and the valid rows, and two dict
    # entries a valid pair: set, key and hash
    spheres = sum(max(row) + 1 for row in dmat) * unit
    need = spheres + n * unit + 2 * pairs * (unit + key + 8)
    assert n * n * key < need  # past the check of n^2 keys before the spheres
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    est = estimate_delta(graph)
    assert (est.delta, est.triangles) == (delta, count)
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetError, match=f"the exhaustive scan of {count} triangles"):
        estimate_delta(graph)


def test_negative_sample_counts_are_input_errors():
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(InputError):
            estimate_delta(cycle_graph(5), mode=mode, samples=-1)
    assert estimate_delta(cycle_graph(5), mode="sampled", samples=0).triangles == 0


def test_farey_depth_10_exceeds_delta_budget():
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(["farey", "--depth", "10"], stdout=out, stderr=err) == EXIT_BUDGET
    assert err.getvalue().startswith("budget error:") and "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


# --- the witness is least in its orbit under the graph's automorphisms --------

# The witness W, the first triangle reaching delta, is least in its orbit: an
# automorphism maps W to a valid triangle as thick, which would otherwise
# reach delta first.  Where the scan matches the reference this follows, so
# only the Farey windows past the reference's reach check it directly.

@pytest.mark.parametrize("depth", range(8))
def test_orbit_scan_on_farey_windows(depth):
    window = build_window(depth)
    est = assert_scan_matches_reference(window) if depth <= 3 else estimate_delta(window)
    n = 2 ** (depth + 1)
    assert est.triangles == n * (n - 1) * (n - 2) // 6
    dmat = distance_rows(window.adjacency)
    for g in window_symmetries(window):
        assert sorted(g) == list(range(n))
        for v in range(n):
            assert sorted(g[u] for u in window.adjacency[v]) == sorted(window.adjacency[g[v]])
        if est.witness is None:
            continue
        image = tuple(sorted(g[v] for v in est.witness))
        sides = list(itertools.combinations(image, 2))
        assert image >= est.witness
        assert all(exact(window, p, q, dmat[p][q]) for p, q in sides)
        assert triangle_thinness([PairData(window, dmat, p, q) for p, q in sides]) == est.delta


@pytest.mark.parametrize("n", range(3, 17))
def test_orbit_scan_on_cycles_with_their_dihedral_group(n):
    assert_scan_matches_reference(cycle_graph(n))


@pytest.mark.parametrize("n,radius", [(9, 3), (12, 4), (12, 6), (15, 5)])
def test_orbit_scan_on_a_cycle_window_with_its_reflection(n, radius):
    # lengths from vertex 0, which i -> -i fixes; the radius prunes pairs
    lengths = tuple(min(i, n - i) for i in range(n))
    assert_scan_matches_reference(FiniteMetricGraph(adjacency=cycle_graph(n).adjacency,
                                                    lengths=lengths, radius=radius))


@st.composite
def prism_windows(draw):
    """G x K2, relabelled at random; the two copies of G share their base
    lengths, and a radius may prune pairs."""
    n, edges = draw(random_graphs(max_n=7))
    label = draw(st.permutations(range(2 * n)))
    both = edges + [(u + n, v + n) for u, v in edges] + [(v, v + n) for v in range(n)]
    lengths = radius = None
    if draw(st.booleans()):
        base = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        lengths = [0] * (2 * n)
        for v in range(2 * n):
            lengths[label[v]] = base[v % n]
        lengths, radius = tuple(lengths), draw(st.integers(0, 7))
    return graph_from_edges(2 * n, [(label[u], label[v]) for u, v in both], lengths, radius)


@settings(max_examples=100, deadline=None)
@given(prism_windows())
def test_orbit_scan_on_prism_windows(graph):
    assert_scan_matches_reference(graph)
