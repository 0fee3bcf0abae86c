"""The thin-triangle delta scans behind ``graphs.estimate_delta``, on numpy arrays.

``estimate_delta`` imports this module on its first call, so the subcommands
that never scan for delta neither load numpy nor compile the scans.
"""

from __future__ import annotations

import random

import numpy as np

from . import graphs
from .errors import InvariantError
from .graphs import DeltaEstimate, FiniteMetricGraph, _check_budget


def _ragged(starts, lengths):
    """The ranges starts[i] : starts[i] + lengths[i], one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum(), dtype=ends.dtype)


def _narrow(dmat):
    """``dmat`` in the far type, the narrowest that holds -max - 1 (a far
    value is a distance or -1); no copy if it has that type already."""
    return dmat.astype(np.min_scalar_type(-int(dmat.max()) - 1), copy=False)


def _distances(graph: FiniteMetricGraph):
    """The distance matrix in the far type, and ``graph.valid_pairs`` of it."""
    dmat = graphs.distance_matrix(graph)  # looked up there, where perfbench's tracer wraps it
    return _narrow(dmat), graph.valid_pairs(dmat)


def _intervals(dmat, ps, qs, need, what, union=None):
    """Pair i's geodesic interval {w : d(p, w) + d(w, q) = d(p, q)} as
    verts[start[i]:start[i + 1]], ascending, in the narrowest unsigned ids,
    from one mask per n pairs (p, q) = (ps[i], qs[i]); ``union[q]``, if
    given, gets the union of q's intervals.  The chunks and their join are
    held, with ``need`` bytes, to the budget."""
    n, vtype = len(dmat), np.min_scalar_type(len(dmat) - 1)
    start, chunks = np.zeros(len(ps) + 1, dtype=np.int64), []
    need += start.nbytes
    for a in range(0, len(ps), n):
        p, q = ps[a:a + n], qs[a:a + n]
        # d(p, q) - d(p, w) wraps only past the largest distance, to no distance
        i, w = np.divmod(np.flatnonzero(dmat[q] == dmat[p, q, None] - dmat[p]), n)
        need += 2 * len(w) * vtype.itemsize
        _check_budget(need, what)
        start[a + 1:a + 1 + len(p)] = np.bincount(i, minlength=len(p))
        chunks.append(w.astype(vtype))
        if union is not None:
            union[q[i], w] = True
    return np.concatenate(chunks or [np.empty(0, vtype)]), np.cumsum(start, out=start)


def _far_rows(dmat):
    """``fill(rows, w, q, find)`` sets rows[i] to far(w[i], q[i]), the worst
    case over w-q geodesics g of d(., g), by distance d(w[i], q[i]) >= 1 and
    in blocks of at most n nodes: far(q, q) = d(., q) and far(w, q) is the
    min of d(., w) and the max of far(s, q) over the neighbours s of w with
    d(s, q) = d(w, q) - 1.  ``find(s, q)`` is the row of far(s, q), or -1.
    far is symmetric, so a node that misses a row steps from q towards w
    instead; a miss then too raises ``InvariantError``.  A block's rows are
    kept in two buffers of the far type, grown to the largest block.
    """
    n = len(dmat)
    src, nbr = np.nonzero(dmat == 1)  # every edge, both ways round, by end
    heads, deg = np.searchsorted(src, np.arange(n)), np.bincount(src, minlength=n)
    buffers = np.empty((2, 0, n), dtype=dmat.dtype)

    def closer(w, q, k, find):
        """The rows of the nodes' closer sub-pairs, node by node, and where
        each node's begin; a node that misses one is turned round in place."""
        for turn in (False, True):
            j = np.repeat(np.arange(len(w)), deg[w])
            s = nbr[_ragged(heads[w], deg[w])]
            keep = dmat[s, q[j]] == k - 1
            ids, j = find(s[keep], q[j[keep]]), j[keep]
            missed = j[ids < 0]
            if not missed.size:
                return ids, np.searchsorted(j, np.arange(len(w) + 1))
            if turn:
                raise InvariantError(f"a sub-pair of ({w[missed[0]]}, {q[missed[0]]}) one "
                                     "step closer from either end has no far row")
            w[missed], q[missed] = q[missed], w[missed]

    def fill(rows, w, q, find):
        nonlocal buffers
        d = dmat[w, q]
        count = np.bincount(d, minlength=2)
        if len(buffers[0]) < min(n, count[1:].max()):
            buffers = np.empty((2, min(n, count[1:].max()), n), dtype=dmat.dtype)
        order, ends = np.argsort(d, kind="stable"), np.cumsum(count).tolist()
        for k in range(1, len(ends)):
            for a in range(ends[k - 1], ends[k], n):
                at = order[a:min(a + n, ends[k])]
                ww, qq, (out, got) = w[at], q[at], buffers[:, :len(at)]
                if k == 1:  # q is the one closer neighbour
                    np.take(dmat, qq, axis=0, out=out, mode="clip")
                else:  # round r takes each node's r-th closer row, if it has one
                    ids, first = closer(ww, qq, k, find)
                    many = np.diff(first)
                    np.take(rows, ids[first[:-1]], axis=0, out=out, mode="clip")
                    for r in range(1, int(many.max())):
                        i = np.flatnonzero(many > r)
                        np.take(rows, ids[first[i] + r], axis=0, out=got[:len(i)], mode="clip")
                        out[i] = np.maximum(out[i], got[:len(i)])
                np.minimum(out, np.take(dmat, ww, axis=0, out=got, mode="clip"), out=out)
                rows[at] = out

    return fill


def _target_rows(dmat, ok):
    """``pid``, ``far`` rows and intervals of the valid pairs p < q.

    ``far`` is the whole state of ``_far_rows``: a closer sub-pair of a valid
    pair is valid.  On a window with base lengths and radius R, a pair (p, q)
    is valid when min(|p|, |q|) + d(p, q) <= R.  If |q| <= |p|, a neighbour s
    of p one step closer to q has min(|s|, |q|) + d(s, q) < |q| + d(p, q) <= R.
    Otherwise |s| <= |p| + 1, as base lengths are distances from a point, so
    |s| + d(s, q) <= |p| + 1 + d(p, q) - 1 <= R.  For other lengths the
    first case still holds stepping from the end of larger length, and
    ``_far_rows`` steps from q wherever stepping from p misses a valid pair.
    Without a radius every connected pair is valid.
    """
    dmat, n = _narrow(dmat), len(dmat)
    qs, ps = np.nonzero(np.tril(ok, -1))  # grouped by target q
    what = f"the exhaustive scan of {len(ps)} pairs"
    # the int64 pair index, a far row per pair and _far_rows' two buffers
    need = dmat.nbytes + 8 * n * n + (len(ps) + 2 * n) * n * dmat.itemsize
    _check_budget(need, what)
    verts, start = _intervals(dmat, ps, qs, need, what)
    pid = np.full((n, n), -1, dtype=np.int64)
    pid[ps, qs] = pid[qs, ps] = np.arange(len(ps))
    far = np.empty((len(ps), n), dtype=dmat.dtype)
    _far_rows(dmat)(far, ps, qs, lambda s, q: pid[s, q])
    return pid, far, verts, start


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
    n = len(dmat)
    pid, far, verts, start = _target_rows(dmat, ok)
    flat, size = far.ravel(), np.diff(start)
    # 3 * block sides of <= max(size) vertices: index arrays of <= n^2 entries
    block = max(1, n * n // (3 * int(size.max(initial=1))))
    # the orbit filter's chunks of <= n^2 / 4 pairs: its int64 temporaries,
    # about 8 arrays at once, hold about two of the scoring's index arrays
    chunk = max(1, n * n // 4)
    perms = np.array(perms, dtype=np.intp).reshape(-1, n)
    starts = (perms >= np.arange(n)).all(axis=0)  # the x that may start a least triangle
    best, witness, count = 0, None, 0
    for x in range(n):
        ys = np.flatnonzero(ok[x, x + 1:]) + (x + 1)
        pairs = np.triu(ok[np.ix_(ys, ys)], 1)
        if not starts[x]:
            count += int(np.count_nonzero(pairs))
            continue
        ys, zs = (ys[i] for i in np.nonzero(pairs))  # (y, z) in order
        count += ys.size
        if len(perms):  # keep the least triangles, chunk by chunk
            least = np.ones(ys.size, dtype=bool)
            for e in range(0, ys.size, chunk):
                y, z, keep = ys[e:e + chunk], zs[e:e + chunk], least[e:e + chunk]
                key = (x * n + y) * n + z
                for h in perms:
                    a, b, c = h[x], h[y], h[z]
                    lo, hi = np.minimum(np.minimum(b, c), a), np.maximum(np.maximum(b, c), a)
                    keep &= key <= (lo * n + (a + b + c - lo - hi)) * n + hi
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


def _sampled_scan(graph, samples, seed) -> DeltaEstimate:
    """Up to ``samples`` distinct valid triangles x < y < z drawn at random,
    each side scored as in ``_exhaustive_scan`` from far values gathered
    batch by batch.  A batch is as many targets q as fit their nodes (w, q),
    w on the interval of one of q's sampled pairs, into n rows; the nodes
    are closed under the step of ``_far_rows``, which fills the rows.  The
    witness is the first triangle in draw order that reaches the final delta."""
    (dmat, ok), n = _distances(graph), graph.n
    total = n * (n - 1) * (n - 2) // 6
    # per triangle: its int64 draw key and, per side, its int32 pair id,
    # interval length and score offset, and the int32 pair ids and batch-order
    # places of the two sides that score it
    need = dmat.nbytes + (8 + 4 * 3 * 7) * min(samples, total)
    _check_budget(need, what := f"a sample of {min(samples, total)} triangles")
    bits, seen, drawn, attempts = random.Random(seed).getrandbits, set(), [], 0
    # a triangle is met at most once, so the draw ends once every one has been
    while len(drawn) < samples and attempts < samples * 20 and len(seen) < total:
        attempts += 1
        x, y, z = sorted(_sample3(bits, n))
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
    del pairs
    side = side.ravel().astype(np.int32)
    # an entry scores the min of its two other sides' far rows on its interval:
    # item 2e + b reads the b-th of them, in the batch of its pair's target
    other = side.reshape(-1, 3)[:, [1, 2, 0, 2, 0, 1]].ravel()
    order = np.argsort(qs[other]).astype(np.int32)
    at = np.searchsorted(qs[other[order]], np.arange(n + 1))
    # the union of each target's intervals, a batch's rows, _far_rows' two buffers
    need += n * n * (1 + 3 * dmat.itemsize)
    _check_budget(need, what)
    fill, nodes = _far_rows(dmat), np.zeros((n, n), dtype=bool)
    verts, start = _intervals(dmat, ps, qs, need, what, nodes)
    size = np.diff(start).astype(np.int32)[side]
    off = np.concatenate(([0], np.cumsum(size, dtype=np.int32)))
    # one far value per side and vertex of its interval
    _check_budget(need + start.nbytes + verts.nbytes + int(off[-1]) * dmat.itemsize, what)
    targets = qs[np.flatnonzero(np.diff(qs, prepend=-1))]
    nodes[targets, targets] = False  # far(q, q) = d(., q) needs no row
    rows = np.empty((n, n), dtype=dmat.dtype)
    ends = np.concatenate(([0], np.cumsum(np.count_nonzero(nodes, axis=1)[targets])))
    low = np.full(int(off[-1]), np.iinfo(dmat.dtype).max, dtype=dmat.dtype)

    def find(s, q):  # the batch's row of node (s, q), or -1
        i = np.searchsorted(keys, q * n + s)
        return np.where(keys[np.minimum(i, len(keys) - 1)] == q * n + s, i, -1)

    a = 0
    while a < len(targets):
        b = int(np.searchsorted(ends, ends[a] + n, side="right")) - 1
        t, w = np.nonzero(nodes[targets[a:b]])
        t = targets[a:b][t]
        keys = t * n + w  # ascending: row r of the batch is node keys[r]
        fill(rows, w, t, find)
        i = order[at[targets[a]]:at[targets[b - 1] + 1]]
        e = i // 2
        k = size[e]
        got = rows[np.repeat(find(ps[other[i]], qs[other[i]]), k),
                   verts[_ragged(start[side[e]], k)]]
        np.minimum.at(low, _ragged(off[e], k), got)
        a = b
    thin = np.maximum.reduceat(low, off[:-1]).reshape(-1, 3).max(axis=1)
    j = int(thin.argmax())
    witness = tuple(map(int, np.unravel_index(tri[j], (n, n, n)))) if thin[j] > 0 else None
    return DeltaEstimate(int(thin[j]), len(thin), witness, "sampled", seed)
