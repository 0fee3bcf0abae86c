"""First-principles references that the tests compare the toolkit against.

Each is written from the definitions, in plain Python, and reads only a
window's plain data (``adjacency``, ``lengths``, ``radius``, ``vertices``,
``index`` and ``slopes``) and, on a Cayley ball, the group oracle's
``normalize`` and ``parse`` and its ``inverse`` map.  None calls the code it
checks: validity is recomputed here, distances come from the one BFS below,
and the word metric is read off normal forms.
"""

import random
from collections import deque
from itertools import combinations, compress, count
from math import gcd


# --- distances, validity and other plain quantities -------------------------

def distances(adjacency, source):
    """Breadth-first distances from ``source``; -1 for a vertex it cannot reach."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance_rows(adjacency):
    """Every vertex's ``distances`` row."""
    return [distances(adjacency, s) for s in range(len(adjacency))]


def exact(graph, u, v, d):
    """Whether the window distance d = d(u, v) is the ambient one: u reaches v,
    and min(|u|, |v|) + d <= R on a window with a radius R."""
    return d >= 0 and (graph.radius is None
                       or min(graph.lengths[u], graph.lengths[v]) + d <= graph.radius)


def farey_edges(slopes):
    """The Farey graph's adjacency lists among ``slopes``, given as (p, q)
    pairs: p/q and r/s are adjacent iff |ps - qr| = 1."""
    adjacency = [[] for _ in slopes]
    for (i, (p, q)), (j, (r, s)) in combinations(enumerate(slopes), 2):
        if abs(p * s - q * r) == 1:
            adjacency[i].append(j)
            adjacency[j].append(i)
    return adjacency


def slope_grid(k):
    """The slopes p/q in lowest terms with |p| <= k and 1 <= q <= k, after 1/0,
    as (p, q) pairs, and their ``farey_edges``."""
    slopes = [(1, 0)] + [(p, q) for q in range(1, k + 1) for p in range(-k, k + 1)
                         if gcd(abs(p), q) == 1]
    return slopes, farey_edges(slopes)


def interval(adjacency, dx, dy):
    """The geodesic interval {w : d(x, w) + d(w, y) = d(x, y)} of x and y, from
    their distance rows ``dx`` and ``dy``, layer by layer: layer i maps each
    of its vertices at distance i from x to its number of x-w geodesics.
    Every x-w geodesic of an interval vertex w stays in the interval, so the
    count is the sum over w's neighbours in the layer before."""
    d = dx[dy.index(0)]
    layers = [{} for _ in range(d + 1)]
    for w, (a, b) in enumerate(zip(dx, dy)):
        if a >= 0 and a + b == d:
            layers[a][w] = 0
    for i, layer in enumerate(layers):
        for w in layer:
            layer[w] = 1 if i == 0 else sum(layers[i - 1].get(u, 0) for u in adjacency[w])
    return layers


def constant_n(c0, c1, c2, c3):
    """N = ((C0 + 1) * C3^C0 + 1) * C1 * C2^C0, the powers by repeated
    multiplication."""
    pow_c3 = pow_c2 = 1
    for _ in range(c0):
        pow_c3 *= c3
        pow_c2 *= c2
    return ((c0 + 1) * pow_c3 + 1) * c1 * pow_c2


def diameter(points, distance):
    """The largest ``distance`` over pairs of ``points`` (0 for fewer than two),
    or None as soon as a pair's distance is None."""
    best = 0
    for u, v in combinations(points, 2):
        d = distance(u, v)
        if d is None:
            return None
        best = max(best, d)
    return best


def as_set(flags):
    """The int bitset of the positions whose flag is true."""
    return sum(1 << v for v in compress(count(), flags))


def level_sets(row):
    """The int bitsets {v : row[v] = k} for k = 0..max(row); a vertex with a
    negative entry is in none."""
    levels = [0] * (max(row) + 1)
    for v, d in enumerate(row):
        if d >= 0:
            levels[d] |= 1 << v
    return levels


# --- the thin-triangle scan ---------------------------------------------------

class PairData:
    """Per-pair geodesic data for the thin-triangle scan.

    For a pair (p, q) with distance rows ``rows``: ``verts`` is the sorted
    geodesic interval, and ``far`` maps every vertex v to the worst-case
    distance from v to a geodesic, max over p-q geodesics g of d(v, g).
    ``far`` is a max-min recursion over the interval from q back to p:
    best[q] = d(., q), best[w] = min(d(., w), max of best over w's successors).
    """

    def __init__(self, graph, rows, p, q):
        layers = interval(graph.adjacency, rows[p], rows[q])
        self.verts = sorted(w for layer in layers for w in layer)
        best = {q: rows[q]}
        for layer in reversed(layers[:-1]):
            above, best = best, {}
            for w in layer:
                succ = [above[s] for s in graph.adjacency[w] if s in above]
                worst = succ[0] if len(succ) == 1 else list(map(max, *succ))
                best[w] = list(map(min, rows[w], worst))
        self.far = best[p]


def triangle_thinness(sides) -> int:
    """Worst case over independent geodesic choices for the three sides: for
    a vertex v on a geodesic of one side, the adversarial distance to the
    union of the other two sides is min(far_1[v], far_2[v])."""
    worst = 0
    for a in range(3):
        b, c = sides[(a + 1) % 3].far, sides[(a + 2) % 3].far
        worst = max(worst, max(min(b[v], c[v]) for v in sides[a].verts))
    return worst


def _triangles(graph):
    """Whether each side of a triangle x < y < z is ``exact``, and its
    thinness, each side's ``PairData`` built once."""
    rows = distance_rows(graph.adjacency)
    ok = [[exact(graph, u, v, d) for v, d in enumerate(row)] for u, row in enumerate(rows)]
    sides = {}

    def sides_exact(x, y, z):
        return ok[x][y] and ok[x][z] and ok[y][z]

    def thinness(x, y, z):
        for pair in ((x, y), (x, z), (y, z)):
            if pair not in sides:
                sides[pair] = PairData(graph, rows, *pair)
        return triangle_thinness((sides[x, y], sides[x, z], sides[y, z]))

    return sides_exact, thinness


def _first_maximum(scored):
    """(delta, the count, the first triangle reaching delta or None) over
    (triangle, thinness) pairs."""
    best, witness = 0, None
    for tri, val in scored:
        if val > best:
            best, witness = val, tri
    return best, len(scored), witness


def per_triangle_delta(graph):
    """Every valid x < y < z in order, one ``triangle_thinness`` each."""
    sides_exact, thinness = _triangles(graph)
    return _first_maximum([(tri, thinness(*tri)) for tri in
                           combinations(range(len(graph.adjacency)), 3) if sides_exact(*tri)])


def sampled_thinness(graph, samples, seed):
    """The valid triangles of a seeded sample in draw order, each with its
    ``triangle_thinness``.  It stops only on the sample count or on
    20 * samples attempts, never on having met every triangle."""
    sides_exact, thinness = _triangles(graph)
    n, rng = len(graph.adjacency), random.Random(seed)
    out, seen, attempts = [], set(), 0
    while len(out) < samples and attempts < samples * 20 and n >= 3:
        attempts += 1
        tri = tuple(sorted(rng.sample(range(n), 3)))
        if tri not in seen:
            seen.add(tri)
            if sides_exact(*tri):
                out.append((tri, thinness(*tri)))
    return out


def per_triangle_sampled_delta(graph, samples, seed):
    """``per_triangle_delta`` over ``sampled_thinness``."""
    return _first_maximum(sampled_thinness(graph, samples, seed))


# --- orbits and midpoints on a Cayley ball ------------------------------------

def word_distance(oracle, u, v):
    """d(u, v) = |v u^-1| in the Cayley graph whose edges join x and s*x: the
    length of the normal form of v's word followed by u's word reversed, in
    inverse letters."""
    return len(oracle.normalize(tuple(v) + tuple(oracle.inverse[s] for s in reversed(u))))


def orbit(ball, subgroup, v):
    """The vertex ids of v*h for h in H, sorted; None if one lies outside the ball."""
    word, normalize = ball.vertices[v], ball.oracle.normalize
    ids = {ball.index.get(normalize(word + h)) for h in subgroup}
    return None if None in ids else tuple(sorted(ids))


def orbit_diameter(ball, subgroup, v):
    """The diameter of v's orbit in the word metric; None if the orbit leaves
    the ball or the ball cannot certify one of its distances."""
    def distance(a, b):
        d = word_distance(ball.oracle, ball.vertices[a], ball.vertices[b])
        return d if exact(ball, a, b, d) else None

    vids = orbit(ball, subgroup, v)
    return None if vids is None else diameter(vids, distance)


def midpoint_certificate(ball, subgroup, x, y, delta):
    """The midpoint record of the pair (x, y): every vertex of their geodesic
    interval at distance >= 6*delta + 1 from both ends, certified when its
    orbit diameter is at most 8*delta, a counterexample when larger, and
    excluded when it has none."""
    adjacency = ball.adjacency
    layers = interval(adjacency, distances(adjacency, x), distances(adjacency, y))
    dxy = len(layers) - 1
    certified, counterexamples, excluded = [], [], 0
    for i, layer in enumerate(layers):
        if min(i, dxy - i) >= 6 * delta + 1:
            for z in layer:
                diam = orbit_diameter(ball, subgroup, z)
                if diam is None:
                    excluded += 1
                else:
                    (certified if diam <= 8 * delta else counterexamples).append([z, diam])
    return {
        "endpoints": [x, y],
        "distance": dxy,
        "geodesics_examined": layers[-1][y],
        "certified": sorted(certified),
        "counterexamples": sorted(counterexamples),
        "window_excluded": excluded,
        "truncated": False,
    }
