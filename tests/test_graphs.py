"""Distances, geodesic enumeration and intervals, and thin-triangle delta."""

import io
import itertools
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    BudgetError,
    CayleyContext,
    FareyWindow,
    FiniteMetricGraph,
    GraphError,
    InputError,
    InvariantError,
    all_geodesics,
    bfs_distances,
    build_ball,
    build_window,
    builtin_group,
    estimate_delta,
    geodesic_layers,
)
from centralizers import graphs
from centralizers.cli import EXIT_BUDGET, EXIT_INVARIANT, run as cli_run
from centralizers.deltascan import _exhaustive_scan, _sample3, _target_rows
from centralizers.graphs import distance_matrix


def cycle_graph(n):
    return FiniteMetricGraph(
        adjacency=tuple(tuple(sorted(((i - 1) % n, (i + 1) % n))) for i in range(n))
    )


def path_graph(n):
    adj = [[] for _ in range(n)]
    for i in range(n - 1):
        adj[i].append(i + 1)
        adj[i + 1].append(i)
    return FiniteMetricGraph(adjacency=tuple(tuple(a) for a in adj))


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


def grid_graph(k):
    adj = [[] for _ in range(k * k)]
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if i + 1 < k:
                adj[v].append(v + k)
                adj[v + k].append(v)
    return FiniteMetricGraph(adjacency=tuple(tuple(sorted(a)) for a in adj))


def assert_interval_matches(g, x, y, paths):
    """geodesic_layers covers exactly the enumerated paths, and counts them."""
    layers = geodesic_layers(g, x, y, bfs_distances(g, y))
    assert set().union(*layers) == {v for p in paths for v in p}
    assert layers[-1][y] == len(paths)


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
    # the window predicate and its matrix form agree, and the word metric
    # is the window distance wherever the predicate holds
    ball = build_ball(f2xz2, 3)
    assert isinstance(ball, FiniteMetricGraph)
    assert isinstance(build_window(2), FiniteMetricGraph)
    ctx = CayleyContext(ball)
    dmat = distance_matrix(ball)
    ok = ball.valid_pairs(dmat)
    flags = set()
    for u, v in itertools.product(range(ball.size), repeat=2):
        valid = ball.valid(u, v, dmat[u, v])
        assert ok[u, v] == valid
        if valid:
            assert ctx.pair_distance(u, v) == dmat[u, v]
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
    dmat = distance_matrix(g)
    pid, far, _, _ = _target_rows(dmat, g.valid_pairs(dmat))
    for p, q in itertools.combinations(range(g.n), 2):
        paths, _ = all_geodesics(g, p, q, cap=10**6)
        worst = np.max([dmat[:, list(path)].min(axis=1) for path in paths], axis=0)
        assert np.array_equal(PairData(g, dmat, p, q).far, worst)
        assert np.array_equal(far[pid[p, q]], worst)
    est = estimate_delta(g)
    assert est.delta == 4
    assert est.to_record()["geodesics_capped"] is False


# --- the batched scans against the per-triangle scan --------------------------

class PairData:
    """Reference per-pair geodesic data for the thin-triangle scan.

    For a pair (p, q): ``verts`` is the geodesic interval of the pair, the
    vertices lying on some geodesic, and ``far`` maps every vertex v to the
    worst-case distance from v to a geodesic, max over geodesics g of d(v, g).
    ``far`` is a max-min recursion over the interval from q back to p:
    best[q] = d(., q), best[w] = min(d(., w), max of best over w's successors).
    """

    def __init__(self, graph, dmat, p, q):
        layers = geodesic_layers(graph, p, q, dmat[q].tolist())
        self.verts = np.array(sorted(w for layer in layers for w in layer), dtype=np.int64)
        best = {q: dmat[q]}
        for layer in reversed(layers[:-1]):
            above = best
            best = {}
            for w in layer:
                succ = [above[s] for s in graph.adjacency[w] if s in above]
                best[w] = np.minimum(dmat[w], succ[0] if len(succ) == 1
                                     else np.maximum.reduce(succ))
        self.far = best[p]


def triangle_thinness(sides) -> int:
    """Worst case over independent geodesic choices for the three sides: for
    a vertex v on a geodesic of one side, the adversarial distance to the
    union of the other two sides is min(far_1[v], far_2[v])."""
    worst = 0
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        v = sides[a].verts
        val = int(np.minimum(sides[b].far[v], sides[c].far[v]).max())
        if val > worst:
            worst = val
    return worst


def per_triangle_delta(graph):
    """Reference: every valid x < y < z in order, one ``triangle_thinness`` each."""
    dmat = distance_matrix(graph)

    def valid(u, v):
        return dmat[u, v] >= 0 and graph.valid(u, v, dmat[u, v])

    best, witness, count = 0, None, 0
    for x, y, z in itertools.combinations(range(graph.n), 3):
        if valid(x, y) and valid(x, z) and valid(y, z):
            val = triangle_thinness(tuple(
                PairData(graph, dmat, p, q) for p, q in ((x, y), (x, z), (y, z))))
            count += 1
            if val > best:
                best, witness = val, (x, y, z)
    return best, count, witness


def assert_scan_matches_reference(graph):
    est = estimate_delta(graph)
    assert (est.delta, est.triangles, est.witness) == per_triangle_delta(graph)


def graph_from_edges(n, edges, lengths=None, radius=None):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return FiniteMetricGraph(adjacency=tuple(tuple(sorted(a)) for a in adj),
                             lengths=lengths, radius=radius)


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


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_batched_scan_matches_per_triangle_scan(graph):
    assert_scan_matches_reference(graph)


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
    assert distance_matrix(graph).max() == 130
    est = estimate_delta(graph)
    assert (est.delta, est.triangles, est.witness) == per_triangle_delta(graph)
    assert (est.delta, est.triangles, est.witness) == (1, graph.n - 2, (0, 1, 2))


# --- the batched sampled scan against the per-triangle scan -------------------

def sampled_thinness(graph, samples, seed):
    """Reference draw: the valid triangles of a seeded sample in draw order,
    each with its ``triangle_thinness``.  It stops only on the sample count or
    on 20 * samples attempts, never on having met every triangle."""
    dmat = distance_matrix(graph)
    ok = graph.valid_pairs(dmat)
    rng = random.Random(seed)
    out, seen, attempts = [], set(), 0
    while len(out) < samples and attempts < samples * 20:
        attempts += 1
        if graph.n < 3:
            break
        tri = tuple(sorted(rng.sample(range(graph.n), 3)))
        if tri in seen:
            continue
        seen.add(tri)
        x, y, z = tri
        if ok[x, y] and ok[x, z] and ok[y, z]:
            out.append((tri, triangle_thinness(tuple(
                PairData(graph, dmat, p, q) for p, q in ((x, y), (x, z), (y, z))))))
    return out


def per_triangle_sampled_delta(graph, samples, seed):
    best, witness = 0, None
    drawn = sampled_thinness(graph, samples, seed)
    for tri, val in drawn:
        if val > best:
            best, witness = val, tri
    return best, len(drawn), witness


def assert_sampled_scan_matches_reference(graph, samples, seed):
    est = estimate_delta(graph, mode="sampled", samples=samples, seed=seed)
    assert est.mode == "sampled" and est.seed == seed
    assert (est.delta, est.triangles, est.witness) == \
        per_triangle_sampled_delta(graph, samples, seed)


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


@st.composite
def sampled_cases(draw):
    kind = draw(st.sampled_from(["scan", "scan", "scan", "tiny", "int16"]))
    if kind == "tiny":  # fewer than three vertices: nothing to draw
        graph = path_graph(draw(st.integers(1, 2)))
    elif kind == "int16":
        graph = int8_tail_graph()
    else:
        graph = draw(scan_cases())
    return graph, draw(st.integers(0, 60)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(sampled_cases())
def test_sampled_scan_matches_per_triangle_scan(case):
    assert_sampled_scan_matches_reference(*case)


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
    graph = int8_tail_graph()
    est = estimate_delta(graph, mode="sampled", samples=3000, seed=2)
    assert est.triangles > 0
    assert_sampled_scan_matches_reference(graph, 3000, seed=2)


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
    dmat = distance_matrix(graph)
    # before the draw: int8 distances and 92 bytes a triangle
    before = n * n + 92 * triangles
    # the targets' bool node marks, then int8 rows: a batch's and the two
    # buffers of the far-row blocks
    rows = n * n + 3 * n * n
    # interval index over all 45 pairs: int64 offsets and uint8 vertex ids;
    # a pair at distance d < 5 has d + 1 interval vertices, an antipodal one all 10
    intervals = 8 * 46 + 10 * (2 + 3 + 4 + 5) + 5 * 10
    # one int8 score per triangle side and vertex of its interval, held with
    # the joined index (its chunks, held with their join, take less)
    size = {d: d + 1 for d in range(5)} | {5: 10}
    scores = sum(size[dmat[p, q]] for tri in itertools.combinations(range(n), 3)
                 for p, q in itertools.combinations(tri, 2))
    assert scores > 10 * (2 + 3 + 4 + 5) + 5 * 10
    need = before + rows + intervals + scores
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
    dmat = distance_matrix(graph)
    assert dmat.dtype == np.int32 and dmat.shape == (graph.n, graph.n)
    assert dmat.tolist() == [bfs_distances(graph, s) for s in range(graph.n)]


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
    # the last source in the last bit of a word, the first of one, or past it
    graph = graph_from_edges(n, [(i, i + 1) for i in range(n - 2)])
    dmat = distance_matrix(graph)
    assert_matrix_matches_bfs(graph)
    assert dmat[0, n - 2] == n - 2 and dmat[n - 1, n - 1] == 0
    assert (dmat[n - 1, :-1] == -1).all() and (dmat[:-1, n - 1] == -1).all()


@pytest.mark.parametrize("depth", range(7))
def test_distance_matrix_on_farey_windows(depth):
    assert_matrix_matches_bfs(build_window(depth))


@pytest.mark.parametrize("family,radius", [("F2xZ2", 3), ("F2xZ3", 2), ("Z2*Z3", 5),
                                           ("Z2*Z2", 6), ("F2", 4)])
def test_distance_matrix_on_cayley_windows(family, radius):
    assert_matrix_matches_bfs(build_ball(builtin_group(family), radius))


def test_distance_matrix_budget_is_exact(monkeypatch):
    # a cycle on 1..998 and vertices 0 and 999 of degree 0: 16 words a row
    n, words = 1000, 16
    graph = graph_from_edges(n, [(i, i % 998 + 1) for i in range(1, 999)])
    matrix = 4 * n * n  # int32
    bitsets = 3 * 8 * words * n  # frontier, seen and new
    gathered = 8 * words * (2 * 998 + 2)  # a row per edge end, its own per lone vertex
    level = n * n  # one level, unpacked to a byte a pair
    need = matrix + bitsets + gathered + level
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    assert_matrix_matches_bfs(graph)
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as refused:
            distance_matrix(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "the distance matrix of 1000 vertices" in str(refused.value)
    assert peak < 8 * words * n  # refused before the first bitset


# --- far rows by target against the per-pair rows -----------------------------

def assert_target_rows_match_pair_data(graph):
    """Every valid pair's row and interval equal ``PairData``'s; no other pair has one."""
    dmat = distance_matrix(graph)
    ok = graph.valid_pairs(dmat)
    pid, far, verts, start = _target_rows(dmat, ok)
    assert np.array_equal(pid >= 0, ok & ~np.eye(graph.n, dtype=bool))
    assert np.array_equal(pid, pid.T) and len(far) == len(start) - 1 == np.triu(ok, 1).sum()
    for p, q in zip(*np.nonzero(np.triu(ok, 1))):
        ref = PairData(graph, dmat, int(p), int(q))
        i = pid[p, q]
        assert np.array_equal(far[i], ref.far)
        assert np.array_equal(verts[start[i]:start[i + 1]], ref.verts)


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
    graph = int8_tail_graph()
    dmat = distance_matrix(graph)
    assert _target_rows(dmat, graph.valid_pairs(dmat))[1].dtype == np.int16
    assert_target_rows_match_pair_data(graph)


@dataclass(frozen=True, eq=False, kw_only=True)
class PrunedGraph(FiniteMetricGraph):
    """A graph whose valid pairs leave out the pairs ``dropped``."""

    dropped: tuple = ()

    def valid_pairs(self, dmat):
        ok = super().valid_pairs(dmat)
        for u, v in self.dropped:
            ok[u, v] = ok[v, u] = False
        return ok


def test_target_rows_step_from_the_other_end_round_a_missing_sub_pair():
    # on the path 0-1-2-3, (0, 3) steps to (1, 3) from 0 or to (0, 2) from 3
    graph = PrunedGraph(adjacency=path_graph(4).adjacency, dropped=((1, 3),))
    assert_target_rows_match_pair_data(graph)


def test_a_pair_without_a_sub_pair_either_way_is_an_invariant_error():
    graph = PrunedGraph(adjacency=path_graph(4).adjacency, dropped=((1, 3), (0, 2)))
    with pytest.raises(InvariantError, match=r"\(0, 3\)|\(3, 0\)"):
        estimate_delta(graph)


def test_farey_window_missing_sub_pairs_exits_5(monkeypatch):
    # one pair at distance 2 loses every sub-pair one step closer, from both
    # ends; a scan that read a missing pair id would read the last far row
    def valid_pairs(self, dmat):
        ok = FiniteMetricGraph.valid_pairs(self, dmat)
        p, q = (int(v) for v in np.argwhere(dmat == 2)[0])
        for s in np.flatnonzero(dmat[p] == 1):
            if dmat[s, q] == 1:
                ok[s, q] = ok[q, s] = ok[p, s] = ok[s, p] = False
        return ok

    monkeypatch.setattr(FareyWindow, "valid_pairs", valid_pairs)
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(["farey", "--depth", "3"], stdout=out, stderr=err) == EXIT_INVARIANT
    assert out.getvalue() == "" and "no far row" in err.getvalue()
    assert err.getvalue().startswith("internal error:") and "Traceback" not in err.getvalue()


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
    graph = cycle_graph(40)  # 780 valid pairs of 40 int8 far values each
    fixed = (1 + 8) * 40 * 40  # int8 distance matrix and int64 pair index
    # int8 rows: one per pair, and the two n x n buffers of the far-row blocks
    rows = (780 + 2 * 40) * 40
    # interval index: int64 offsets and uint8 vertex ids, held twice (the
    # chunks and their join); a pair at distance d < 20 has d + 1 interval
    # vertices, each of the 20 antipodal pairs all 40
    intervals = 8 * 781 + 2 * (40 * sum(d + 1 for d in range(1, 20)) + 20 * 40)
    need = fixed + rows + intervals
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetError):
        estimate_delta(graph)
    assert estimate_delta(graph, mode="sampled", samples=10).triangles == 10
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", need)
    assert estimate_delta(graph).triangles == 40 * 39 * 38 // 6
    # without the interval index the rows alone fit, so the second check raises
    monkeypatch.setattr(graphs, "DELTA_MEMORY_BUDGET", fixed + rows)
    with pytest.raises(BudgetError):
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


# --- one triangle per orbit of the graph's automorphisms -----------------------

@dataclass(frozen=True, eq=False, kw_only=True)
class SymmetricGraph(FiniteMetricGraph):
    """A graph that hands the delta scan the vertex maps it is given."""

    symmetries: tuple = ()

    def automorphisms(self):
        return self.symmetries


def assert_orbit_scan_matches_full_scan(graph):
    """The scan over least triangles gives the delta, count and witness of the
    scan over every triangle."""
    dmat = distance_matrix(graph)
    full = _exhaustive_scan(dmat, graph.valid_pairs(dmat))
    est = estimate_delta(graph)
    assert (est.delta, est.triangles, est.witness) == (full.delta, full.triangles, full.witness)
    return est


@pytest.mark.parametrize("depth", range(8))
def test_orbit_scan_on_farey_windows(depth):
    est = assert_orbit_scan_matches_full_scan(build_window(depth))
    assert est.triangles == (2 ** (depth + 1)) * (2 ** (depth + 1) - 1) * (2 ** (depth + 1) - 2) // 6


def dihedral(n):
    """Every rotation and reflection of the n-cycle but the identity."""
    return tuple(tuple((k + s * i) % n for i in range(n))
                 for s in (1, -1) for k in range(n) if (s, k) != (1, 0))


@pytest.mark.parametrize("n", range(3, 17))
def test_orbit_scan_on_cycles_with_their_dihedral_group(n):
    graph = SymmetricGraph(adjacency=cycle_graph(n).adjacency, symmetries=dihedral(n))
    assert_orbit_scan_matches_full_scan(graph)


@pytest.mark.parametrize("n,radius", [(9, 3), (12, 4), (12, 6), (15, 5)])
def test_orbit_scan_on_a_cycle_window_with_its_reflection(n, radius):
    # lengths from vertex 0, which i -> -i fixes; the radius prunes pairs
    lengths = tuple(min(i, n - i) for i in range(n))
    graph = SymmetricGraph(adjacency=cycle_graph(n).adjacency, lengths=lengths,
                           radius=radius, symmetries=(tuple((-i) % n for i in range(n)),))
    assert_orbit_scan_matches_full_scan(graph)


@st.composite
def prism_windows(draw):
    """G x K2, relabelled at random, with the swap of the two copies of G;
    copies share their base lengths, and a radius may prune pairs."""
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
    swap = [0] * (2 * n)
    for v in range(2 * n):
        swap[label[v]] = label[(v + n) % (2 * n)]
    adj = [set() for _ in range(2 * n)]
    for u, v in both:
        if u != v:
            adj[label[u]].add(label[v])
            adj[label[v]].add(label[u])
    return SymmetricGraph(adjacency=tuple(tuple(sorted(a)) for a in adj), lengths=lengths,
                          radius=radius, symmetries=(tuple(swap),))


@settings(max_examples=100, deadline=None)
@given(prism_windows())
def test_orbit_scan_on_prism_windows(graph):
    assert_orbit_scan_matches_full_scan(graph)


@pytest.mark.parametrize("bad", [
    (0, 0, 2, 3, 4, 5),  # not a permutation
    (0, 1, 2, 3, 4),  # too short
    (1, 0, 2, 3, 4, 5),  # swaps two vertices with other neighbours
])
def test_a_map_that_is_no_automorphism_is_an_invariant_error(bad):
    graph = SymmetricGraph(adjacency=cycle_graph(6).adjacency, symmetries=(bad,))
    with pytest.raises(InvariantError):
        estimate_delta(graph)
    # the sampled scan reads no automorphisms
    assert estimate_delta(graph, mode="sampled", samples=5).triangles == 5


def test_an_automorphism_must_keep_window_lengths():
    # a rotation of the cycle keeps its adjacency but not lengths from vertex 0
    rotate = tuple((i + 1) % 6 for i in range(6))
    graph = SymmetricGraph(adjacency=cycle_graph(6).adjacency, lengths=(0, 1, 2, 3, 2, 1),
                           radius=3, symmetries=(rotate,))
    with pytest.raises(InvariantError):
        estimate_delta(graph)


def test_farey_window_with_a_false_automorphism_exits_5(monkeypatch):
    # a transposition of 0/1 and 1/0 alone is no automorphism of the window
    monkeypatch.setattr(FareyWindow, "automorphisms",
                        lambda self: ((1, 0) + tuple(range(2, self.n)),))
    out, err = io.StringIO(), io.StringIO()
    assert cli_run(["farey", "--depth", "3"], stdout=out, stderr=err) == EXIT_INVARIANT
    assert out.getvalue() == "" and "delta" not in err.getvalue()
    assert err.getvalue().startswith("internal error:") and "Traceback" not in err.getvalue()
