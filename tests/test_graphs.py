"""Distances, geodesic enumeration and intervals, and thin-triangle delta."""

import itertools

import numpy as np
import pytest

from centralizers import (
    FiniteMetricGraph,
    GraphError,
    all_geodesics,
    bfs_distances,
    build_ball,
    estimate_delta,
    geodesic_layers,
    safe_distance,
    set_diameter,
)
from centralizers.graphs import _PairData, distance_matrix


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
    g = ball.graph()
    for x in range(ball.size):
        for y in range(x + 1, ball.size):
            paths, _ = all_geodesics(g, x, y)
            assert sorted(paths) == brute_force_geodesics(g, x, y)
            assert_interval_matches(g, x, y, paths)


def test_all_geodesics_cap():
    # C4 has two geodesics between antipodes; cap at 1 truncates
    paths, truncated = all_geodesics(cycle_graph(4), 0, 2, cap=1)
    assert len(paths) == 1 and truncated


def test_all_geodesics_disconnected():
    g = FiniteMetricGraph(adjacency=((), ()))
    with pytest.raises(GraphError):
        all_geodesics(g, 0, 1)


def test_safe_distance_window_validity(f2):
    ball = build_ball(f2, 3)
    w = safe_distance(ball, 0, 1)
    assert w.distance == 1 and w.valid
    # two deepest vertices: the window cannot certify their distance
    deep = [v for v in range(ball.size) if ball.lengths[v] == 3]
    w2 = safe_distance(ball, deep[0], deep[-1])
    assert not w2.valid
    path = w2.path
    assert path[0] == deep[0] and path[-1] == deep[-1]
    assert len(path) == w2.distance + 1


def test_set_diameter():
    g = path_graph(7)
    diam, pair = set_diameter(g, [1, 3, 6])
    assert diam == 5 and pair == (1, 6)


# --- delta estimation ---------------------------------------------------------

def test_delta_zero_on_trees(f2):
    for r in (2, 3, 4):
        est = estimate_delta(build_ball(f2, r))
        assert est.exhaustive and est.delta == 0


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
    assert not s1.exhaustive


def test_delta_exact_beyond_64_geodesics():
    # corner-to-corner pairs of the 5x5 grid have C(8, 4) = 70 geodesics
    g = grid_graph(5)
    assert len(all_geodesics(g, 0, 24, cap=10**6)[0]) == 70
    dmat = distance_matrix(g)
    for p, q in itertools.combinations(range(g.n), 2):
        paths, _ = all_geodesics(g, p, q, cap=10**6)
        worst = np.max([dmat[:, list(path)].min(axis=1) for path in paths], axis=0)
        assert np.array_equal(_PairData(g, dmat, p, q).far, worst)
    est = estimate_delta(g)
    assert est.delta == 4
    assert est.to_record()["geodesics_capped"] is False
