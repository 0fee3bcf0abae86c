"""The thin-triangle delta scans behind ``graphs.estimate_delta``, on int bitsets.

A vertex set is a Python int, bit v for vertex v.  ``graphs.distance_matrix``
gives each vertex's distance spheres, and the scans ask, for t = 0, 1, ...,
whether some valid triangle has a side thicker than t: delta is the first t
for which none has.  Side (p, q) of a triangle with third vertex r is thicker
than t iff some w on a p-q geodesic lies in F_t(p, r) and in F_t(q, r),
where F_t(w, r) is the set of vertices v with far(w, r)[v] > t and
far(w, r)[v] is the worst case, over the w-r geodesics g, of d(v, g):

- F_t(r, r) = {v : d(v, r) > t};
- F_t(w, r) = {v : d(v, w) > t} & the union of F_t(s, r) over the
  neighbours s of w one step closer to r.

far is symmetric, so F_t(w, r) = F_t(r, w).  The rows F_t(w, r) toward a
target r are built layer by layer outward from r, over the union of the
intervals to the partners r needs them for, which the same call walks
first.  A pass at threshold t scores:

- a list of triangles side by side, grouped by opposite vertex: a sample,
  and the first PROBE triangles before a pass by columns;
- the valid triangles one by one, with each pair's far set kept, and its
  interval, found when that far set is first built and kept for every t,
  when there are at most n^2 of them;
- more valid triangles by columns, many third vertices at once.

``estimate_delta`` imports this module on its first call, so the subcommands
that never scan for delta do not compile the scans.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import islice

from . import graphs
from .errors import InvariantError
from .graphs import DeltaEstimate, FiniteMetricGraph, _check_budget, _set_bytes, _table_bytes

# the triangles tested directly, in order, before each pass by columns: a
# pass at a threshold below delta usually stops here
PROBE = 32


def _members(x: int) -> list[int]:
    """The vertices of the set x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _distance(spheres: list[int], v: int) -> int:
    """d(u, v), from u's spheres; v must be in u's component."""
    for k, sphere in enumerate(spheres):
        if sphere >> v & 1:
            return k
    raise InvariantError(f"vertex {v} is in no sphere")


def _interval(sp: list[int], sq: list[int], d: int) -> int:
    """The geodesic interval {w : d(p, w) + d(w, q) = d} of p and q, d = d(p, q)."""
    out = 0
    for k in range(d + 1):
        out |= sp[k] & sq[d - k]
    return out


def _pair_interval(spheres, p: int, q: int) -> int:
    """The geodesic interval of p and q, from ``distance_matrix``'s result."""
    if isinstance(spheres, list):
        sp = spheres[p]
        return _interval(sp, spheres[q], _distance(sp, q))
    return spheres.interval(p, q)


def _count(valid: list[int]) -> int:
    """The number of valid triangles x < y < z."""
    count = 0
    for x, row in enumerate(valid):
        for y in _members(row >> x + 1):
            y += x + 1
            count += ((row & valid[y]) >> y + 1).bit_count()
    return count


def _triangles(valid: list[int]):
    """The keys (x * n + y) * n + z of the valid triangles x < y < z, in order."""
    n = len(valid)
    for x, row in enumerate(valid):
        for y in _members(row >> x + 1):
            y += x + 1
            base = (x * n + y) * n + y + 1
            for z in _members((row & valid[y]) >> y + 1):
                yield base + z


def _vertices(key: int, n: int) -> tuple[int, int, int]:
    xy, z = divmod(key, n)
    return (*divmod(xy, n), z)


def _grow(outside: list[int], adjacency) -> list[int]:
    """The complements of the balls one step wider: ~ball_{t+1}(v), from
    ~ball_t of v and of its neighbours."""
    out = []
    for far, neighbours in zip(outside, adjacency):
        for u in neighbours:
            far &= outside[u]
        out.append(far)
    return out


def _rows_toward(r: int, ends: int, sr: list[int], t: int, outside, adjacency,
                 around) -> list[int]:
    """F_t(w, r) for the w in the span of ``ends``, built layer by layer
    outward from r, as a list indexed by w that is empty elsewhere.  The span
    is the union of the geodesic intervals from r to the vertices of ``ends``,
    walked inward from r's last sphere: a vertex at distance k from r is in it
    if it is an end or a neighbour of a vertex in it at distance k + 1.  So it
    holds every vertex one step closer to r of each of its members.
    ``outside[w]`` is ~ball_t(w) and ``around[v]`` the set of v's neighbours."""
    span = near = 0
    for sphere in reversed(sr):
        layer = sphere & (ends | near)
        span |= layer
        near = 0
        while layer:
            low = layer & -layer
            near |= around[low.bit_length() - 1]
            layer ^= low
    rows = [0] * len(outside)
    for sphere in sr[t + 1:]:
        rows[r] |= sphere
    for layer in sr[1:]:
        layer &= span
        if not layer:
            break
        # a neighbour of w in the same layer or further out has no row yet
        ws, new = _members(layer), []
        for w in ws:
            far = 0
            for s in adjacency[w]:
                far |= rows[s]
            new.append(far & outside[w])
        for w, far in zip(ws, new):
            rows[w] = far
    return rows


def _ordered_first(n, spheres, valid, t, outside, adjacency, around, intervals) -> int | None:
    """The key of the first valid triangle in (x, y, z) order thicker than t,
    or None, triangle by triangle.  F_t(p, q) is kept for every valid p below
    q, all of a target q's rows built at once when first read; the interval
    of each such pair goes into ``intervals``, which every threshold shares,
    when its far row is first built."""
    far, filled = {}, bytearray(n)

    def fill(q):
        ends, sq = valid[q] & ((1 << q) - 1), spheres[q]
        rows = _rows_toward(q, ends, sq, t, outside, adjacency, around)
        for d, sphere in enumerate(sq):
            for p in _members(sphere & ends):
                pq = p * n + q
                far[pq] = rows[p]
                if pq not in intervals:
                    intervals[pq] = _interval(spheres[p], sq, d)
        filled[q] = 1

    for x, row in enumerate(valid):
        for y in _members(row >> x + 1):
            y += x + 1
            xy = x * n + y
            if not filled[y]:
                fill(y)
            fxy, ixy = far[xy], intervals[xy]
            for z in _members((row & valid[y]) >> y + 1):
                z += y + 1
                if not filled[z]:
                    fill(z)
                fxz, fyz = far[x * n + z], far[y * n + z]
                if ixy & fxz & fyz or fxy & (intervals[x * n + z] & fyz | intervals[y * n + z] & fxz):
                    return xy * n + z
    return None


def _transpose(rows: list[int]) -> list[int]:
    """The transpose of a 2^k x 2^k bit matrix, in place: bit c of row i
    becomes bit i of row c.  Each round swaps the off-diagonal blocks of
    every 2j x 2j block at once, for j = 2^(k-1), ..., 1 (Warren, *Hacker's
    Delight*, 2nd ed., section 7-3)."""
    j = len(rows) >> 1
    mask = (1 << j) - 1  # the low j bits of every 2j-bit block
    while j:
        for k in range(0, len(rows), 2 * j):
            for i in range(k, k + j):
                a, b = rows[i], rows[i + j]
                x = ((a >> j) ^ b) & mask
                if x:
                    rows[i], rows[i + j] = a ^ (x << j), b ^ x
        j >>= 1
        mask ^= mask << j
    return rows


def _dense_first(n, spheres, valid, t, outside, adjacency, around):
    """The key of the least valid triangle thicker than t, or None, by columns.

    For each target q its rows F_t(r, q) = F_t(q, r), r a valid partner, are
    turned into columns C_q[w] = {r : w in F_t(q, r)}.  A valid pair p < q has
    a side thicker than t opposite every r in the union of C_p[w] & C_q[w]
    over its interval; both columns hold only valid partners, so each such r
    closes a valid triangle, and the least r the least one through the pair."""
    size, cols, best = 1 << (n - 1).bit_length(), [None] * n, None
    for q in range(n):
        if not valid[q]:
            continue
        sq = spheres[q]
        rows = _rows_toward(q, valid[q], sq, t, outside, adjacency, around)
        partner = format(valid[q], f"0{size}b")[::-1]
        col = cols[q] = _transpose([row if bit == "1" else 0 for row, bit in zip(rows, partner)]
                                   + [0] * (size - n))
        for d, sphere in enumerate(sq):
            for p in _members(sphere & valid[q] & ((1 << q) - 1)):
                # an end is in none of its own far sets
                interval = _interval(spheres[p], sq, d) & ~(1 << p | 1 << q)
                other, hit = cols[p], 0
                while interval:
                    low = interval & -interval
                    w = low.bit_length() - 1
                    hit |= other[w] & col[w]
                    interval ^= low
                if hit:
                    r = (hit & -hit).bit_length() - 1
                    x, y, z = sorted((p, q, r))
                    key = (x * n + y) * n + z
                    if best is None or key < best:
                        best = key
    return best


def _least_thin(graph, *passes) -> tuple[int, int | None]:
    """delta, and the key of the witness: t grows from 0 while one of the
    ``passes``, each ``pass(t, outside) -> key or None`` with ``outside[v]``
    = ~ball_t(v), finds a triangle thicker than t, the first pass first; the
    last triangle found is the witness."""
    outside = [~(1 << v) for v in range(graph.n)]
    t, witness = 0, None
    while True:
        for scan in passes:
            key = scan(t, outside)
            if key is not None:
                break
        else:
            return t, witness
        t, witness, outside = t + 1, key, _grow(outside, graph.adjacency)


def _grouped_pass(tris: list[int], n, spheres, adjacency, around):
    """The pass over the triangle list ``tris``, side by side, grouped by
    opposite vertex: it gives the first triangle of the list thicker than t,
    or None.  Its side index lists the triangles by each of their vertices,
    which is opposite one of their sides; the rows toward r are built once
    for r's group, over the intervals from r to the group's other vertices,
    and with ``SphereRows`` from r's spheres, built once."""
    groups: dict = {}
    for i, key in enumerate(tris):
        for v in _vertices(key, n):
            groups.setdefault(v, []).append(i)

    def first(t, outside):
        first = len(tris)
        for r, group in groups.items():
            sides, ends = [], 0
            for i in group:
                if i < first:
                    xy, z = divmod(tris[i], n)
                    x, y = divmod(xy, n)
                    a, b = (y, z) if r == x else (x, z) if r == y else (x, y)
                    sides.append((a, b, i))
                    ends |= 1 << a | 1 << b
            if not sides:
                continue
            rows = _rows_toward(r, ends, spheres[r], t, outside, adjacency, around)
            for a, b, i in sides:
                if i < first:
                    far = rows[a] & rows[b]
                    if far and _pair_interval(spheres, a, b) & far:
                        first = i
        return tris[first] if first < len(tris) else None
    return first


def _exhaustive_scan(graph: FiniteMetricGraph) -> DeltaEstimate:
    """Every valid triangle x < y < z; the witness is the first one in
    (x, y, z) order that is thicker than delta - 1.

    With at most n^2 valid triangles they are scored one by one, with each
    valid pair's interval and far set kept, a dict entry each; with more,
    by columns.  Before the spheres, n^2 such entries' keys must fit the
    budget."""
    n, key = graph.n, _set_bytes(2 * graph.n.bit_length())
    _check_budget(n * n * key, f"the exhaustive scan of {n} vertices")
    spheres = graphs.distance_matrix(graph)  # looked up there, where perfbench's tracer wraps it
    valid = graph.valid_rows(spheres)
    count, unit = _count(valid), _set_bytes(n)
    held = _table_bytes(spheres, n) + n * unit  # and the valid rows
    around = [sum(1 << u for u in a) for a in graph.adjacency]
    if count > n * n:
        size = 1 << (n - 1).bit_length()
        _check_budget(held + n * size * unit, f"the columns of {n} targets")
        head = list(islice(_triangles(valid), PROBE))
        dense = partial(_dense_first, n, spheres, valid, adjacency=graph.adjacency, around=around)
        passes = [_grouped_pass(head, n, spheres, graph.adjacency, around), dense]
    else:
        # per valid pair, a dict entry for its interval and one for its far
        # set: the set, the key and the hash
        pairs = sum(map(int.bit_count, valid)) // 2
        _check_budget(held + 2 * pairs * (unit + key + 8),
                      f"the exhaustive scan of {count} triangles")
        passes = [partial(_ordered_first, n, spheres, valid, adjacency=graph.adjacency,
                          around=around, intervals={})]
    delta, witness = _least_thin(graph, *passes)
    return DeltaEstimate(delta, count, None if witness is None else _vertices(witness, n),
                         "exhaustive")


def _sample3(bits, n):
    """``rng.sample(range(n), 3)`` for n >= 3, drawn from ``bits``, the
    generator's ``getrandbits``, exactly as ``sample`` draws: each pick below
    a bound m takes k-bit ints, k = m.bit_length(), until one is below m.
    For n <= 21 ``sample`` picks from a pool that shrinks by one, its last
    member moving into the gap; above, it draws again while a pick repeats."""
    if n <= 21:
        pool, picks = list(range(n)), []
        for m in range(n, n - 3, -1):
            k = m.bit_length()
            j = bits(k)
            while j >= m:
                j = bits(k)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
        return picks
    k, x, y, z = n.bit_length(), n, n, n
    while x >= n:
        x = bits(k)
    while y >= n or y == x:
        y = bits(k)
    while z >= n or z == x or z == y:
        z = bits(k)
    return [x, y, z]


def _sampled_scan(graph: FiniteMetricGraph, samples: int, seed: int) -> DeltaEstimate:
    """Up to ``samples`` distinct valid triangles x < y < z drawn at random,
    scanned side by side, grouped by opposite vertex.  The witness is the
    first triangle in draw order that is thicker than delta - 1.

    The spheres are kept while they take at most 16 n^2 bytes, four times
    an n x n matrix of 4-byte ints; past that, a long-diameter window, each
    vertex keeps a row of distances, and a group builds its vertices'
    spheres from their rows."""
    n = graph.n
    total = n * (n - 1) * (n - 2) // 6
    # per triangle: its key in the draw list and the seen set, and its three
    # side-index slots
    need = min(samples, total) * (_set_bytes(3 * n.bit_length()) + 16 + 3 * 8)
    _check_budget(need, what := f"a sample of {min(samples, total)} triangles")
    spheres = graphs.distance_matrix(graph, keep=16 * n * n)
    _check_budget(need + _table_bytes(spheres, n) + n * _set_bytes(n), what)  # and the valid rows
    valid = graph.valid_rows(spheres)
    bits, seen, drawn, attempts = random.Random(seed).getrandbits, set(), [], 0
    # a triangle is met at most once, so the draw ends once every one has been
    while len(drawn) < samples and attempts < samples * 20 and len(seen) < total:
        attempts += 1
        x, y, z = sorted(_sample3(bits, n))
        key = (x * n + y) * n + z
        if key not in seen:
            seen.add(key)
            if valid[x] >> y & 1 and valid[x] >> z & 1 and valid[y] >> z & 1:
                drawn.append(key)
    del seen
    around = [sum(1 << u for u in a) for a in graph.adjacency]
    delta, witness = _least_thin(graph, _grouped_pass(drawn, n, spheres, graph.adjacency, around))
    return DeltaEstimate(delta, len(drawn), None if witness is None else _vertices(witness, n),
                         "sampled", seed)
