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
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BudgetError, GraphError, InputError, InvariantError

# numpy is imported by the functions that use it, on the first delta call:
# the other subcommands never load it
if TYPE_CHECKING:
    import numpy as np

# bytes the delta scan may hold in its n^2-or-larger arrays: the distance
# matrix with its BFS bitsets, the rows of one target's pass and the interval
# index, and also the pair index and ``far`` rows when exhaustive, the
# sample's arrays when sampled
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
        import numpy as np

        ok = dmat >= 0
        if self.radius is not None:
            lengths = np.asarray(self.lengths, dtype=dmat.dtype)
            reach = np.minimum.outer(lengths, lengths)
            reach += dmat
            ok &= reach <= self.radius
        return ok

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Vertex maps, each the tuple of vertex images, that the exhaustive
        delta scan checks to be automorphisms and then uses; none by default."""
        return ()


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
    """All-pairs distances as int32; -1 for unreachable pairs.

    One BFS from every source at once, on bitsets (Then et al., "The More the
    Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014): bit
    s of vertex v's row says that v was reached from s.  A level ORs the
    frontier rows of each vertex's neighbours, keeps the bits not seen yet
    and writes them, unpacked, into the matrix.  Every array is counted
    against ``DELTA_MEMORY_BUDGET`` before the first is allocated.
    """
    n, words = graph.n, -(-graph.n // 64)
    # an isolated vertex reads its own row, as reduceat would misread an empty
    # segment: what a vertex hands itself was seen a level earlier
    sizes = [len(a) or 1 for a in graph.adjacency]
    # the matrix, the frontier, seen and new bitsets, the gathered neighbour
    # rows and one unpacked level
    _check_budget(4 * n * n + 8 * words * (3 * n + sum(sizes)) + n * n,
                  f"the distance matrix of {n} vertices")
    import numpy as np

    nbr = np.fromiter((u for v, a in enumerate(graph.adjacency) for u in a or (v,)),
                      dtype=np.intp, count=sum(sizes))
    heads = np.cumsum([0] + sizes[:-1])  # where each vertex's neighbours begin
    out = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(out, 0)
    # little-endian words, so that bit s of a row is bit s % 8 of its byte s // 8
    seen = np.zeros((n, words), dtype="<u8")
    v = np.arange(n)
    seen.view(np.uint8)[v, v >> 3] = 1 << (v & 7)
    frontier, new = seen.copy(), np.empty_like(seen)
    gathered = np.empty((len(nbr), words), dtype=seen.dtype)
    for level in range(1, n):
        np.take(frontier, nbr, axis=0, out=gathered)
        np.bitwise_or.reduceat(gathered, heads, axis=0, out=new)
        new |= seen
        new ^= seen  # the bits reached first at this level
        if not new.any():
            break
        seen |= new
        np.copyto(out, level, where=np.unpackbits(new.view(np.uint8), axis=1, count=n,
                                                 bitorder="little").view(bool))
        frontier, new = new, frontier
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


def _ragged(starts, lengths):
    """The ranges starts[i] : starts[i] + lengths[i], one after another."""
    import numpy as np

    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum(), dtype=ends.dtype)


def _target_passes(dmat, ps, bounds, need, what, rows=0, uses=0):
    """The target passes over the pairs (ps[i], q), bounds[q] <= i < bounds[q + 1].

    First yields the pairs' intervals, pair i's verts[start[i]:start[i + 1]]
    in ascending order, and the dtype of far values.  Before storing them it
    holds to the budget ``need`` bytes, ``rows`` far rows, the passes' rows
    (one per vertex, one per edge a level gathers), the intervals and
    ``uses[i]`` far values per vertex of pair i's interval.  Then yields, per
    target q in ascending order, q once ``best[p]`` is far(p, q) for each of
    its pairs: the worst case over p-q geodesics g of d(., g).  The max-min
    recursion best[q] = d(., q), best[w] = min(d(., w), max of best over w's
    neighbours one step closer to q) stays in I(p, q), so one pass over q's
    BFS levels serves every p.
    """
    import numpy as np

    n, (src, dst) = len(dmat), np.nonzero(dmat == 1)  # every edge, both ways round
    # far values are distances or -1: the narrowest type that holds -max - 1
    dtype, vtype = np.min_scalar_type(-int(dmat.max()) - 1), np.min_scalar_type(n - 1)
    need += (rows + n + len(src) // 2) * n * dtype.itemsize
    _check_budget(need, what)

    def on(q):
        P = ps[bounds[q]:bounds[q + 1]]
        return dmat[P] + dmat[q] == dmat[P, q, None]

    targets = np.flatnonzero(np.diff(bounds)).tolist()
    start = np.cumsum(np.concatenate([[0]] + [np.count_nonzero(on(q), axis=1) for q in targets]))
    _check_budget(need + start.nbytes + int(start[-1]) * vtype.itemsize
                  + int((np.diff(start) * uses).sum()) * dtype.itemsize, what)
    del uses  # a per-pair count the caller need not keep
    verts = np.empty(int(start[-1]), dtype=vtype)
    for q in targets:
        verts[start[bounds[q]]:start[bounds[q + 1]]] = np.nonzero(on(q))[1]
    yield verts, start, dtype
    best, inside = np.empty((n, n), dtype=dtype), np.zeros(n, dtype=bool)
    for q in targets:
        lo, hi = bounds[q], bounds[q + 1]
        inside[:] = False
        inside[verts[start[lo]:start[hi]]] = True
        dq = best[q] = dmat[q]
        e = np.flatnonzero(inside[src] & (dq[dst] == dq[src] - 1))  # closer edges
        e = e[np.argsort(dq[src[e]], kind="stable")]  # by level, then by w
        ws, ss = src[e], dst[e]
        bound = np.flatnonzero(np.concatenate(([True], ws[1:] != ws[:-1], [True])))
        heads, many = bound[:-1], np.diff(bound)  # each w once, by level
        cut = np.searchsorted(dq[ws[heads]], np.arange(1, int(dq[ps[lo:hi]].max()) + 2))
        for a, b in zip(cut[:-1].tolist(), cut[1:].tolist()):  # a level's w's
            h, k = heads[a:b], many[a:b]
            far = best[ss[h]]
            for r in range(1, int(k.max())):  # the r-th closer neighbour, where w has one
                i = np.flatnonzero(k > r)
                far[i] = np.maximum(far[i], best[ss[h[i] + r]])
            best[ws[h]] = np.minimum(far, dmat[ws[h]], out=far, casting="unsafe")
        yield q, best


def _target_rows(dmat, ok):
    """``pid``, ``far`` rows and intervals of the valid pairs p < q."""
    import numpy as np

    n = len(dmat)
    qs, ps = np.nonzero(np.tril(ok, -1))  # grouped by target q
    bounds = np.searchsorted(qs, np.arange(n + 1))
    # besides the passes: the int64 pair index and one far row per pair
    passes = _target_passes(dmat, ps, bounds, dmat.nbytes + 8 * n * n,
                            f"the exhaustive scan of {len(ps)} pairs", rows=len(ps))
    verts, start, dtype = next(passes)
    pid = np.full((n, n), -1, dtype=np.int64)
    pid[ps, qs] = pid[qs, ps] = np.arange(len(ps))
    far = np.empty((len(ps), n), dtype=dtype)
    for q, best in passes:
        far[bounds[q]:bounds[q + 1]] = best[ps[bounds[q]:bounds[q + 1]]]
    return pid, far, verts, start


def _checked_automorphisms(graph: FiniteMetricGraph) -> tuple:
    """``graph.automorphisms()``, once each is checked to permute the vertices,
    to map every adjacency list onto its image's and, on a window with a
    radius, to keep ``lengths``; any other map raises ``InvariantError``."""
    perms, adj, lengths = graph.automorphisms(), graph.adjacency, graph.lengths
    for g in perms:
        if sorted(g) != list(range(graph.n)) or any(
                sorted(g[u] for u in adj[v]) != sorted(adj[g[v]])
                or graph.radius is not None and lengths[g[v]] != lengths[v]
                for v in range(graph.n)):
            raise InvariantError("a vertex map from automorphisms() is not an automorphism")
    return perms


def _exhaustive_scan(dmat, ok, perms=()) -> DeltaEstimate:
    """Every valid triangle x < y < z, all (y, z) of an x in a few passes, each
    side read only on its interval; the witness is the first triangle in
    (x, y, z) order that reaches the final delta.

    Every valid triangle is counted, but with automorphisms ``perms`` only the
    *least* ones are scored: those no greater, in (x, y, z) order, than the
    sorted image of the triangle under any g in ``perms``.  An automorphism
    keeps distances, validity and geodesic intervals, so a triangle and its
    images are valid together and equally thin.  The least triangle of an
    orbit of the group the perms generate is least, so the maximum over
    least triangles is delta.  The witness W, the first triangle reaching
    delta, is least as well: an image smaller than W would be a valid
    triangle reaching delta before it.  So the first scored triangle reaching
    delta is W.  An x with g(x) < x for some g starts no least triangle, as
    the sorted image of any x < y < z then begins below x.
    """
    import numpy as np

    n = len(dmat)
    pid, far, verts, start = _target_rows(dmat, ok)
    flat, size = far.ravel(), np.diff(start)
    # 3 * block sides of <= max(size) vertices: index arrays of <= n^2 entries
    block = max(1, n * n // (3 * int(size.max(initial=1))))
    perms = np.array(perms, dtype=np.intp).reshape(-1, n)
    starts = (perms >= np.arange(n)).all(axis=0)  # the x that may start a least triangle
    best, witness, count = 0, None, 0
    for x in range(n):
        ys = np.flatnonzero(ok[x, x + 1:]) + (x + 1)
        pairs = np.triu(ok[np.ix_(ys, ys)], 1)
        if not starts[x]:
            count += int(np.count_nonzero(pairs))
            continue
        iy, iz = np.nonzero(pairs)  # (y, z) in order
        count += iy.size
        ys, zs = ys[iy], ys[iz]
        key, least = (x * n + ys) * n + zs, np.ones(ys.size, dtype=bool)
        for h in perms:
            a, b, c = h[x], h[ys], h[zs]
            lo, hi = np.minimum(np.minimum(b, c), a), np.maximum(np.maximum(b, c), a)
            least &= key <= (lo * n + (a + b + c - lo - hi)) * n + hi
        ys, zs = ys[least], zs[least]
        for a in range(0, ys.size, block):
            y, z = ys[a:a + block], zs[a:a + block]
            xy, xz, yz = pid[x, y], pid[x, z], pid[y, z]
            # a side's thinness: max over its interval of min(far of the others)
            side, f, g = (np.concatenate(t) for t in ((xy, xz, yz), (xz, xy, xy), (yz, yz, xz)))
            m = size[side]
            v = verts[_ragged(start[side], m)]
            low = np.minimum(flat[np.repeat(f * n, m) + v], flat[np.repeat(g * n, m) + v])
            thin = np.maximum.reduceat(low, np.cumsum(m) - m).reshape(3, -1).max(axis=0)
            j = int(thin.argmax())
            if thin[j] > best:
                best, witness = int(thin[j]), (x, int(y[j]), int(z[j]))
    return DeltaEstimate(best, count, witness, "exhaustive")


def _sampled_scan(dmat, ok, samples, seed) -> DeltaEstimate:
    """Up to ``samples`` distinct valid triangles x < y < z drawn at random,
    each side scored as in ``_exhaustive_scan`` from far rows gathered during
    the target passes of the sampled pairs; the witness is the first triangle
    in draw order that reaches the final delta."""
    import numpy as np

    n = len(dmat)
    total = n * (n - 1) * (n - 2) // 6
    # per triangle: its int64 draw key and, per side, its int32 pair id,
    # interval length and score offset, and the int32 pair ids and pass-order
    # places of the two sides that score it
    need = dmat.nbytes + (8 + 4 * 3 * 7) * min(samples, total)
    _check_budget(need, what := f"a sample of {min(samples, total)} triangles")
    rng, seen, drawn, attempts = random.Random(seed), set(), [], 0
    # a triangle is met at most once, so the draw ends once every one has been
    while len(drawn) < samples and attempts < samples * 20 and len(seen) < total:
        attempts += 1
        x, y, z = sorted(rng.sample(range(n), 3))
        key = (x * n + y) * n + z
        if key not in seen:
            seen.add(key)
            if ok[x, y] and ok[x, z] and ok[y, z]:
                drawn.append(key)
    if not drawn:
        return DeltaEstimate(0, 0, None, "sampled", seed)
    tri = np.array(drawn)
    del seen, ok, drawn
    x, y, z = np.unravel_index(tri, (n, n, n))
    # entry 3t + a is side a (xy, xz or yz) of triangle t; a pair keyed by
    # target first, the sorted pairs come grouped by target
    pairs, side = np.unique(np.stack([y * n + x, z * n + x, z * n + y], axis=1),
                            return_inverse=True)
    del x, y, z
    qs, ps = (v.astype(np.int32) for v in np.divmod(pairs, n))
    side = side.ravel().astype(np.int32)
    passes = _target_passes(dmat, ps, np.searchsorted(qs, np.arange(n + 1)), need, what,
                            uses=np.bincount(side, minlength=len(ps)))
    verts, start, dtype = next(passes)
    size = np.diff(start).astype(np.int32)[side]
    off = np.concatenate(([0], np.cumsum(size, dtype=np.int32)))
    # an entry scores the min of its two other sides' far rows on its interval:
    # item 2e + b reads the b-th of them, at the target pass of its pair
    other = side.reshape(-1, 3)[:, [1, 2, 0, 2, 0, 1]].ravel()
    order = np.argsort(qs[other]).astype(np.int32)
    at = np.searchsorted(qs[other[order]], np.arange(n + 1))
    low = np.full(int(off[-1]), np.iinfo(dtype).max, dtype=dtype)
    for q, best in passes:
        i = order[at[q]:at[q + 1]]
        e = i // 2
        k = size[e]
        got = best[np.repeat(ps[other[i]], k), verts[_ragged(start[side[e]], k)]]
        np.minimum.at(low, _ragged(off[e], k), got)
    thin = np.maximum.reduceat(low, off[:-1]).reshape(-1, 3).max(axis=1)
    j = int(thin.argmax())
    witness = tuple(map(int, np.unravel_index(tri[j], (n, n, n)))) if thin[j] > 0 else None
    return DeltaEstimate(int(thin[j]), len(thin), witness, "sampled", seed)


def estimate_delta(graph: FiniteMetricGraph, mode: str = "exhaustive",
                   samples: int = 10000, seed: int = 0) -> DeltaEstimate:
    """Thin-triangle delta over the window's valid geodesic triangles.

    Convention: delta is the least value such that each side of a geodesic
    triangle lies in the delta-neighborhood of the union of the other two,
    taking the worst case over every geodesic per side.  Exhaustive over a
    window means exact for that window; it skips every triangle that a map of
    the checked ``graph.automorphisms()`` takes to a smaller one.  The arrays
    of the scan are held to ``DELTA_MEMORY_BUDGET`` bytes; a window over it
    raises ``BudgetError``.
    """
    if graph.n == 0:
        raise InputError("empty window")
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown delta mode {mode!r}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    dmat = distance_matrix(graph)
    if mode == "exhaustive":
        return _exhaustive_scan(dmat, graph.valid_pairs(dmat), _checked_automorphisms(graph))
    return _sampled_scan(dmat, graph.valid_pairs(dmat), samples, seed)
