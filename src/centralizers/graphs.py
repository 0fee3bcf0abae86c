"""Distances, geodesics, diameters and thin-triangle delta on finite graphs.

All graphs are undirected with unit edge lengths.  When a graph is a window
on an infinite ambient graph (a Cayley ball, carrying base-point lengths and
a radius), a distance computed inside the window is *ambient-exact* exactly
when min(|x|, |y|) + d(x, y) <= R: every ambient geodesic between the pair
then stays inside the window.  ``FiniteMetricGraph.valid`` is that predicate,
the validity flag used everywhere downstream.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphError, InputError


@dataclass(frozen=True, eq=False, kw_only=True)
class FiniteMetricGraph:
    """A finite graph; a window on an ambient graph also carries the lengths
    |v| from its base point and its radius R."""

    adjacency: tuple[tuple[int, ...], ...]
    lengths: Optional[tuple[int, ...]] = None
    radius: Optional[int] = None

    def __post_init__(self):
        if (self.lengths is None) != (self.radius is None):
            raise InputError("a window needs both base lengths and a radius")

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def valid(self, u: int, v: int, d: int) -> bool:
        """Whether the window distance d(u, v) = d is the ambient distance.

        Always true for a graph that is its own ambient (no radius); for a
        window, true iff min(|u|, |v|) + d <= R.
        """
        if self.radius is None:
            return True
        return min(self.lengths[u], self.lengths[v]) + d <= self.radius


def bfs_distances(graph: FiniteMetricGraph, source: int) -> list[int]:
    """Exact distances from source inside the window; -1 marks unreachable."""
    if not 0 <= source < graph.n:
        raise InputError(f"source {source} out of range")
    dist = [-1] * graph.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in graph.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def distance_matrix(graph: FiniteMetricGraph) -> np.ndarray:
    """All-pairs distances as int32; -1 for unreachable pairs."""
    out = np.empty((graph.n, graph.n), dtype=np.int32)
    for s in range(graph.n):
        out[s] = bfs_distances(graph, s)
    return out


@dataclass(frozen=True)
class DistanceWitness:
    pair: tuple[int, int]
    distance: int
    valid: bool
    path: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "pair": list(self.pair),
            "distance": self.distance,
            "valid": self.valid,
            "path": list(self.path),
        }


def _one_geodesic(graph: FiniteMetricGraph, x: int, y: int,
                  dist_from_y: Sequence[int]) -> tuple[int, ...]:
    # walk from x towards y, always taking the least-id descending neighbor
    path = [x]
    u = x
    while u != y:
        u = min(v for v in graph.adjacency[u] if dist_from_y[v] == dist_from_y[u] - 1)
        path.append(u)
    return tuple(path)


def safe_distance(graph: FiniteMetricGraph, x: int, y: int) -> DistanceWitness:
    """Window distance with the ambient-exactness flag ``graph.valid``.

    Valid iff min(|x|, |y|) + d(x, y) <= R, in which case the value equals
    the distance in the ambient infinite graph.
    """
    if graph.radius is None:
        raise InputError("safe_distance needs a window with base lengths and radius")
    if not (0 <= x < graph.n and 0 <= y < graph.n):
        raise InputError(f"vertices ({x}, {y}) outside the window")
    dist_from_y = bfs_distances(graph, y)
    d = dist_from_y[x]
    if d < 0:
        raise GraphError(f"pair ({x}, {y}) is disconnected inside the window")
    return DistanceWitness(
        pair=(x, y),
        distance=d,
        valid=graph.valid(x, y, d),
        path=_one_geodesic(graph, x, y, dist_from_y),
    )


def all_geodesics(graph: FiniteMetricGraph, x: int, y: int,
                  cap: int = 1000) -> tuple[list[tuple[int, ...]], bool]:
    """Enumerate shortest x-y paths via the BFS predecessor DAG.

    Paths come out in lexicographic vertex-id order.  Enumeration stops after
    ``cap`` paths; the second value reports truncation.
    """
    if not (0 <= x < graph.n and 0 <= y < graph.n):
        raise InputError(f"vertices ({x}, {y}) outside the graph")
    dist_from_y = bfs_distances(graph, y)
    if dist_from_y[x] < 0:
        raise GraphError(f"pair ({x}, {y}) is disconnected")
    paths: list[tuple[int, ...]] = []
    truncated = False
    stack = [(x, (x,))]
    while stack:
        u, path = stack.pop()
        if u == y:
            paths.append(path)
            if len(paths) >= cap:
                truncated = bool(stack)
                break
            continue
        nxt = sorted(
            (v for v in graph.adjacency[u] if dist_from_y[v] == dist_from_y[u] - 1),
            reverse=True,
        )
        for v in nxt:
            stack.append((v, path + (v,)))
    return paths, truncated


def geodesic_layers(graph: FiniteMetricGraph, x: int, y: int,
                    dist_from_y: Sequence[int]) -> list[dict[int, int]]:
    """The geodesic interval {w : d(x,w) + d(w,y) = d(x,y)}, layer by layer.

    Layer i holds the interval vertices at distance i from x, each mapped to
    its number of x-w geodesics; the count at y is the number of x-y
    geodesics.  The walk goes forward from x over the neighbours one step
    closer to y, which are exactly the next layer's vertices.
    """
    if not (0 <= x < graph.n and 0 <= y < graph.n):
        raise InputError(f"vertices ({x}, {y}) outside the graph")
    if dist_from_y[x] < 0:
        raise GraphError(f"pair ({x}, {y}) is disconnected")
    layers = [{x: 1}]
    for step in range(dist_from_y[x], 0, -1):
        nxt: dict[int, int] = {}
        for u, count in layers[-1].items():
            for v in graph.adjacency[u]:
                if dist_from_y[v] == step - 1:
                    nxt[v] = nxt.get(v, 0) + count
        layers.append(nxt)
    return layers


def set_diameter(graph: FiniteMetricGraph,
                 vertex_set: Sequence[int]) -> tuple[int, tuple[int, int]]:
    """Maximum pairwise distance over the set, with a witnessing pair."""
    vs = sorted(set(vertex_set))
    if not vs:
        raise InputError("diameter of an empty set")
    best = (0, (vs[0], vs[0]))
    for i, u in enumerate(vs):
        dist = bfs_distances(graph, u)
        for v in vs[i + 1:]:
            if dist[v] < 0:
                raise GraphError(f"pair ({u}, {v}) is disconnected")
            if dist[v] > best[0]:
                best = (dist[v], (u, v))
    return best


@dataclass(frozen=True)
class DeltaEstimate:
    delta: int
    triangles: int
    exhaustive: bool
    witness: Optional[tuple[int, int, int]]
    mode: str
    seed: Optional[int] = None

    def to_record(self) -> dict:
        return {
            "delta": self.delta,
            "triangles": self.triangles,
            "exhaustive": self.exhaustive,
            "witness": list(self.witness) if self.witness else None,
            # no geodesic is ever skipped, so this is always false; the key
            # stays because readers of the stream (perfbench/checks.py among
            # them) trust a delta witness only when it reads false
            "geodesics_capped": False,
            "mode": self.mode,
            "sample_seed": self.seed,
        }


class _PairData:
    """Per-pair geodesic data for the thin-triangle scan.

    For a pair (p, q): ``verts`` is the geodesic interval of the pair, the
    vertices lying on some geodesic, and ``far`` maps every vertex v to the
    worst-case distance from v to a geodesic, max over geodesics g of d(v, g).
    ``far`` is a max-min recursion over the interval from q back to p:
    best[q] = d(., q), best[w] = min(d(., w), max of best over w's successors).
    """

    __slots__ = ("verts", "far")

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


def _triangle_thinness(sides) -> int:
    # worst case over independent geodesic choices for the three sides:
    # for a vertex v on a geodesic of one side, the adversarial distance to
    # the union of the other two sides is min(far_1[v], far_2[v]).
    worst = 0
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        v = sides[a].verts
        val = int(np.minimum(sides[b].far[v], sides[c].far[v]).max())
        if val > worst:
            worst = val
    return worst


def estimate_delta(graph: FiniteMetricGraph, mode: str = "exhaustive",
                   samples: int = 10000, seed: int = 0) -> DeltaEstimate:
    """Thin-triangle delta over the window's valid geodesic triangles.

    Convention: delta is the least value such that each side of a geodesic
    triangle lies in the delta-neighborhood of the union of the other two,
    taking the worst case over every geodesic per side.  Exhaustive over a
    window means exact for that window.
    """
    n = graph.n
    if n == 0:
        raise InputError("empty window")
    dmat = distance_matrix(graph)

    def pair_valid(u, v):
        d = dmat[u, v]
        return d >= 0 and graph.valid(u, v, d)

    pair_cache: dict[tuple[int, int], _PairData] = {}

    def pair_data(u, v):
        k = (u, v) if u < v else (v, u)
        pd = pair_cache.get(k)
        if pd is None:
            pd = _PairData(graph, dmat, k[0], k[1])
            # a sampled pair is rarely met again; caching it only holds memory
            if mode == "exhaustive":
                pair_cache[k] = pd
        return pd

    best = 0
    witness = None
    count = 0

    def scan(x, y, z) -> None:
        nonlocal best, witness, count
        sides = (pair_data(x, y), pair_data(x, z), pair_data(y, z))
        val = _triangle_thinness(sides)
        count += 1
        if val > best:
            best = val
            witness = (x, y, z)

    if mode == "exhaustive":
        for x in range(n):
            for y in range(x + 1, n):
                if not pair_valid(x, y):
                    continue
                for z in range(y + 1, n):
                    if pair_valid(x, z) and pair_valid(y, z):
                        scan(x, y, z)
        return DeltaEstimate(best, count, True, witness, "exhaustive")

    if mode == "sampled":
        rng = random.Random(seed)
        seen = set()
        attempts = 0
        while count < samples and attempts < samples * 20:
            attempts += 1
            if n < 3:
                break
            tri = tuple(sorted(rng.sample(range(n), 3)))
            if tri in seen:
                continue
            seen.add(tri)
            x, y, z = tri
            if pair_valid(x, y) and pair_valid(x, z) and pair_valid(y, z):
                scan(x, y, z)
        return DeltaEstimate(best, count, False, witness, "sampled", seed)

    raise InputError(f"unknown delta mode {mode!r}")
