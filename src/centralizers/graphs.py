"""Distances, geodesics and thin-triangle delta on finite graphs.

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

from .errors import BudgetError, GraphError, InputError

# bytes the delta scan may hold in its n^2-or-larger arrays: the distance
# matrix, and in exhaustive mode also the pair index, the ``far`` rows, the
# interval index and the rows of one target's pass
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
        return len(self.adjacency)

    def valid(self, u: int, v: int, d: int) -> bool:
        """Whether the window distance d(u, v) = d is the ambient distance.

        Always true for a graph that is its own ambient (no radius); for a
        window, true iff min(|u|, |v|) + d <= R.
        """
        if self.radius is None:
            return True
        return min(self.lengths[u], self.lengths[v]) + d <= self.radius

    def valid_pairs(self, dmat: np.ndarray) -> np.ndarray:
        """``valid`` over a whole distance matrix; unreachable pairs are false."""
        ok = dmat >= 0
        if self.radius is not None:
            lengths = np.asarray(self.lengths, dtype=dmat.dtype)
            reach = np.minimum.outer(lengths, lengths)
            reach += dmat
            ok &= reach <= self.radius
        return ok


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


def distance_matrix(graph: FiniteMetricGraph) -> np.ndarray:
    """All-pairs distances as int32; -1 for unreachable pairs."""
    _check_budget(4 * graph.n * graph.n, f"the distance matrix of {graph.n} vertices")
    out = np.empty((graph.n, graph.n), dtype=np.int32)
    for s in range(graph.n):
        out[s] = bfs_distances(graph, s)
    return out


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


def _target_rows(dmat, ok):
    """``pid``, ``far`` rows and intervals of the valid pairs p < q, by target q:
    ``_PairData``'s recursion reads only neighbours one step closer to q, which
    stay in I(p, q), so one pass over q's intervals gives far(p, q) = best[p]."""
    n = len(dmat)
    qs, ps = np.nonzero(np.tril(ok, -1))  # grouped by target q
    bounds = np.searchsorted(qs, np.arange(n + 1))
    targets = [(q, ps[bounds[q]:bounds[q + 1]]) for q in np.flatnonzero(np.diff(bounds)).tolist()]
    src, dst = np.nonzero(dmat == 1)  # every edge, both ways round
    # far values are window distances or -1, so the narrowest signed type
    # that holds -max - 1 never wraps; vertex ids take the narrowest unsigned
    dtype, vtype = np.min_scalar_type(-int(dmat.max()) - 1), np.min_scalar_type(n - 1)
    # rows: one per pair, one per vertex for q's pass, and one per edge that
    # a level gathers (an edge is "closer" one way at most)
    need = dmat.nbytes + 8 * n * n + (len(ps) + n + len(src) // 2) * n * dtype.itemsize
    _check_budget(need, what := f"the exhaustive scan of {len(ps)} pairs")
    # pair i's interval is verts[start[i]:start[i + 1]], ascending
    start = np.cumsum(np.concatenate([[0]] + [np.count_nonzero(
        dmat[P] + dmat[q] == dmat[P, q, None], axis=1) for q, P in targets]))
    _check_budget(need + start.nbytes + int(start[-1]) * vtype.itemsize, what)
    pid = np.full((n, n), -1, dtype=np.int64)
    pid[ps, qs] = pid[qs, ps] = np.arange(len(ps))
    far, best = np.empty((len(ps), n), dtype=dtype), np.empty((n, n), dtype=dtype)
    verts = np.empty(int(start[-1]), dtype=vtype)
    for q, P in targets:
        on = dmat[P] + dmat[q] == dmat[P, q, None]
        verts[start[bounds[q]]:start[bounds[q + 1]]] = np.nonzero(on)[1]
        dq = best[q] = dmat[q]
        e = np.flatnonzero(on.any(axis=0)[src] & (dq[dst] == dq[src] - 1))  # closer edges
        ws, ss, lv = src[e], dst[e], dq[src[e]]
        for level in range(1, int(dq[P].max()) + 1):  # the edges of a level, by w
            w, s = ws[lv == level], ss[lv == level]
            heads = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
            best[w[heads]] = np.minimum(dmat[w[heads]], np.maximum.reduceat(best[s], heads))
        far[bounds[q]:bounds[q + 1]] = best[P]
    return pid, far, verts, start


def _exhaustive_scan(dmat, ok) -> DeltaEstimate:
    """Every valid triangle x < y < z, all (y, z) of an x in a few passes, each
    side read only on its interval; the witness is the first triangle in
    (x, y, z) order that reaches the final delta."""
    n = len(dmat)
    pid, far, verts, start = _target_rows(dmat, ok)
    flat, size = far.ravel(), np.diff(start)
    # 3 * block sides of <= max(size) vertices: index arrays of <= n^2 entries
    block = max(1, n * n // (3 * int(size.max(initial=1))))
    best, witness, count = 0, None, 0
    for x in range(n):
        ys = np.flatnonzero(ok[x, x + 1:]) + (x + 1)
        iy, iz = np.nonzero(np.triu(ok[np.ix_(ys, ys)], 1))  # (y, z) in order
        count += iy.size
        for a in range(0, iy.size, block):
            y, z = ys[iy[a:a + block]], ys[iz[a:a + block]]
            xy, xz, yz = pid[x, y], pid[x, z], pid[y, z]
            # as in _triangle_thinness: max over a side of min(far of the others)
            side, f, g = (np.concatenate(t) for t in ((xy, xz, yz), (xz, xy, xy), (yz, yz, xz)))
            m = size[side]
            seg = np.cumsum(m) - m
            v = verts[np.repeat(start[side] - seg, m) + np.arange(seg[-1] + m[-1])]
            low = np.minimum(flat[np.repeat(f * n, m) + v], flat[np.repeat(g * n, m) + v])
            thin = np.maximum.reduceat(low, seg).reshape(3, -1).max(axis=0)
            j = int(thin.argmax())
            if thin[j] > best:
                best, witness = int(thin[j]), (x, int(y[j]), int(z[j]))
    return DeltaEstimate(best, count, True, witness, "exhaustive")


def estimate_delta(graph: FiniteMetricGraph, mode: str = "exhaustive",
                   samples: int = 10000, seed: int = 0) -> DeltaEstimate:
    """Thin-triangle delta over the window's valid geodesic triangles.

    Convention: delta is the least value such that each side of a geodesic
    triangle lies in the delta-neighborhood of the union of the other two,
    taking the worst case over every geodesic per side.  Exhaustive over a
    window means exact for that window.  The arrays of the scan are held to
    ``DELTA_MEMORY_BUDGET`` bytes; a window over it raises ``BudgetError``.
    """
    n = graph.n
    if n == 0:
        raise InputError("empty window")
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown delta mode {mode!r}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    dmat = distance_matrix(graph)
    ok = graph.valid_pairs(dmat)
    if mode == "exhaustive":
        return _exhaustive_scan(dmat, ok)

    # a sampled pair is rarely met again, so its data is built on demand
    rng = random.Random(seed)
    best = 0
    witness = None
    count = 0
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
        if ok[x, y] and ok[x, z] and ok[y, z]:
            val = _triangle_thinness(tuple(
                _PairData(graph, dmat, p, q) for p, q in ((x, y), (x, z), (y, z))))
            count += 1
            if val > best:
                best = val
                witness = tri
    return DeltaEstimate(best, count, False, witness, "sampled", seed)
