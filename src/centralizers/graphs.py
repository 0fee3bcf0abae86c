"""Distances, geodesics and thin-triangle delta on finite graphs.

All graphs are undirected with unit edge lengths.  When a graph is a window
on an infinite ambient graph (a Cayley ball, carrying base-point lengths and
a radius), a distance computed inside the window is *ambient-exact* exactly
when min(|x|, |y|) + d(x, y) <= R: every ambient geodesic between the pair
then stays inside the window.  ``FiniteMetricGraph.valid`` is that predicate,
the validity flag used everywhere downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BudgetError, GraphError, InputError, InvariantError

# numpy is imported by the functions that use it and with ``deltascan``, on
# the first delta call: the other subcommands never load it
if TYPE_CHECKING:
    import numpy as np

# bytes the delta scan may hold in its n^2-or-larger arrays: the distance
# matrix with its BFS bitsets, the two buffers of the far-row blocks and the
# interval index, and also the pair index and ``far`` rows when exhaustive,
# the node marks, a batch's rows and the sample's arrays when sampled
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

    size = n  # the name the reports read

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
    # the scans and numpy load here, outside the distance matrix's time
    from .deltascan import _distances, _exhaustive_scan, _sampled_scan

    if mode == "exhaustive":
        return _exhaustive_scan(*_distances(graph), _checked_automorphisms(graph))
    return _sampled_scan(graph, samples, seed)
