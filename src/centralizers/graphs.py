"""Distances, geodesics and thin-triangle delta on finite graphs.

All graphs are undirected with unit edge lengths.  When a graph is a window
on an infinite ambient graph (a Cayley ball, carrying base-point lengths and
a radius), a distance computed inside the window is *ambient-exact* exactly
when min(|x|, |y|) + d(x, y) <= R: every ambient geodesic between the pair
then stays inside the window.  ``FiniteMetricGraph.valid`` is that predicate,
the validity flag used everywhere downstream.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetError, GraphError, InputError

# bytes the delta scan may hold in its tables, each vertex set counted at
# ``_set_bytes``: the distance spheres, the valid rows, and also the
# columns or the triangle list when exhaustive, the draw and the side index
# when sampled
DELTA_MEMORY_BUDGET = 256 * 2**20


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
        # a window's lengths count its vertices without reading its adjacency
        return len(self.lengths or self.adjacency)

    size = n  # the name the reports read

    def valid(self, u: int, v: int, d: int) -> bool:
        """Whether the window distance d(u, v) = d is the ambient distance.

        Always true for a graph that is its own ambient (no radius); for a
        window, true iff min(|u|, |v|) + d <= R.
        """
        if self.radius is None:
            return True
        return min(self.lengths[u], self.lengths[v]) + d <= self.radius

    def valid_rows(self, spheres) -> list[int]:
        """``valid`` over each vertex's spheres, from ``distance_matrix``: row
        u is the set of v != u with valid(u, v, d(u, v)).  Sphere k of u is
        valid whole while k <= R - |u|; past that, just its v with |v| <= R - k.
        """
        lengths = self.lengths or (0,) * self.n
        order = sorted(range(self.n), key=lengths.__getitem__)
        keys, short = [lengths[v] for v in order], [0]  # short[i]: order[:i]
        for v in order:
            short.append(short[-1] | 1 << v)
        rows = []
        for u, length in enumerate(lengths):
            row = 0
            for k, sphere in enumerate(spheres[u]):
                if self.radius is None or k <= self.radius - length:
                    row |= sphere
                elif self.radius - k >= keys[0]:
                    row |= sphere & short[bisect_right(keys, self.radius - k)]
                else:
                    break
            rows.append(row & ~(1 << u))
        return rows


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


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > DELTA_MEMORY_BUDGET:
        raise BudgetError(
            f"{what} would take {-(-nbytes // 2**20)} MiB, over the delta scan's "
            f"{DELTA_MEMORY_BUDGET // 2**20} MiB budget"
        )


def _set_bytes(bits: int) -> int:
    """What an int of up to ``bits`` bits takes, with its 8-byte slot in a list."""
    return sys.getsizeof((1 << bits) - 1) + 8


def _rows_bytes(n: int) -> int:
    """What ``SphereRows`` holds for n vertices: a row of 2-byte ints each."""
    return n * (sys.getsizeof(array("h")) + 2 * n + 8)


def _table_bytes(spheres, n: int) -> int:
    """What ``distance_matrix``'s result holds, as its budget counts it."""
    if isinstance(spheres, SphereRows):
        return _rows_bytes(n)
    return sum(map(len, spheres)) * _set_bytes(n)


class SphereRows:
    """Each vertex's distances as a row of 2-byte ints (-1 for unreachable),
    and its spheres, as ``distance_matrix`` gives them, built from the row
    each time they are read."""

    def __init__(self, graph: FiniteMetricGraph):
        self.rows = [array("h", bfs_distances(graph, v)) for v in range(graph.n)]

    def interval(self, p: int, q: int) -> int:
        """The geodesic interval {w : d(p, w) + d(w, q) = d(p, q)}, read off
        the two rows."""
        rp, rq = self.rows[p], self.rows[q]
        d = rp[q]
        return sum(1 << w for w, (a, b) in enumerate(zip(rp, rq)) if a + b == d)

    def __getitem__(self, v: int) -> list[int]:
        row = self.rows[v]
        spheres = [0] * (max(row) + 1)
        for u, d in enumerate(row):
            if d >= 0:
                spheres[d] |= 1 << u
        return spheres


def distance_matrix(graph: FiniteMetricGraph, keep: Optional[int] = None):
    """Each vertex's distance spheres: ``spheres[v][k]`` is the set of
    vertices at distance k from v, bit u for vertex u, for k up to v's
    eccentricity in its component; a vertex outside it is in none.

    One BFS from every source at once, on bitsets (Then et al., "The More the
    Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014):
    ball_k(v) is ball_{k-1}(v) ORed with ball_{k-1}(u) for each neighbour u,
    and its new bits are sphere k.  A vertex whose ball stops growing is done.
    Before each level its spheres are counted at ``_set_bytes(n)`` each, on
    top of the two lists of n balls, against ``DELTA_MEMORY_BUDGET``.  If
    ``keep`` is given and the spheres would take more than ``keep`` bytes,
    the distances are kept as rows instead, in a ``SphereRows``.
    """
    n, adj = graph.n, graph.adjacency
    unit = _set_bytes(n)
    need = 2 * n * unit
    _check_budget(need, f"the distance spheres of {n} vertices")
    ball = [1 << v for v in range(n)]
    spheres = [[b] for b in ball]
    active = [v for v in range(n) if adj[v]]
    while active:
        need += len(active) * unit
        if keep is not None and need > keep:
            _check_budget(_rows_bytes(n), f"the distance rows of {n} vertices")
            return SphereRows(graph)
        _check_budget(need, f"the distance spheres of {n} vertices")
        grown, still = ball[:], []
        for v in active:
            b = old = ball[v]
            for u in adj[v]:
                b |= ball[u]
            if b != old:
                grown[v] = b
                spheres[v].append(b ^ old)
                still.append(v)
        ball, active = grown, still
    return spheres


def all_geodesics(graph: FiniteMetricGraph, x: int, y: int,
                  cap: int = 1000) -> tuple[list[tuple[int, ...]], bool]:
    """Enumerate shortest x-y paths, walked over the ``geodesic_layers``.

    Paths come out in lexicographic vertex-id order.  Enumeration stops after
    ``cap`` paths (at least one); the second value says whether more remained,
    read off the layers' geodesic count.
    """
    layers = geodesic_layers(graph, x, y, bfs_distances(graph, y))
    keep = max(cap, 1)
    paths: list[tuple[int, ...]] = []
    stack = [(x,)]
    while stack and len(paths) < keep:
        path = stack.pop()
        if len(path) == len(layers):
            paths.append(path)
            continue
        nxt = layers[len(path)]
        stack.extend(path + (v,) for v in sorted(graph.adjacency[path[-1]], reverse=True)
                     if v in nxt)
    return paths, layers[-1][y] > keep


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


@dataclass(frozen=True)
class DeltaEstimate:
    delta: int
    triangles: int
    witness: Optional[tuple[int, int, int]]
    mode: str
    seed: Optional[int] = None

    def to_record(self) -> dict:
        return {
            "delta": self.delta,
            "triangles": self.triangles,
            "exhaustive": self.mode == "exhaustive",
            "witness": list(self.witness) if self.witness else None,
            # no geodesic is ever skipped, so this is always false; the key
            # stays because readers of the stream (perfbench/checks.py among
            # them) trust a delta witness only when it reads false
            "geodesics_capped": False,
            "mode": self.mode,
            "sample_seed": self.seed,
        }


def estimate_delta(graph: FiniteMetricGraph, mode: str = "exhaustive",
                   samples: int = 10000, seed: int = 0) -> DeltaEstimate:
    """Thin-triangle delta over the window's valid geodesic triangles.

    Convention: delta is the least value such that each side of a geodesic
    triangle lies in the delta-neighborhood of the union of the other two,
    taking the worst case over every geodesic per side.  Exhaustive over a
    window means exact for that window.  The tables of the scan are held to
    ``DELTA_MEMORY_BUDGET`` bytes; a window over it raises ``BudgetError``.
    """
    if graph.n == 0:
        raise InputError("empty window")
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown delta mode {mode!r}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    # the scans load here, outside the distance matrix's time
    from .deltascan import _exhaustive_scan, _sampled_scan

    if mode == "exhaustive":
        return _exhaustive_scan(graph)
    return _sampled_scan(graph, samples, seed)
