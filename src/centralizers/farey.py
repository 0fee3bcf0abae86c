"""The Farey graph with its integral 2x2 matrix action.

Vertices are primitive slopes p/q (1/0 is the slope at infinity), edges join
slopes with |p*q' - q*p'| = 1.  This is the curve graph of the once-punctured
torus, a desk-scale analogue: the graph is locally infinite, so finite
windows are generated by mediant expansion, never by enumerating neighbor
sets.  Distances, however, are globally exact: ``farey_distance`` descends
through Farey parents (a continued-fraction pivot descent), counting the
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BudgetError, InputError, InvariantError
from .fixpoints import ActionContext, AlmostFixedSet, almost_fixed_set
from .graphs import FiniteMetricGraph
from .groups import FiniteSubgroup

# slopes a window may hold: a depth-d window has 2^(d+1), so depth 16 (about
# 4 s and 116 MB to build on a 2-core machine) is the deepest allowed
WINDOW_SLOPE_BUDGET = 2**17


@dataclass(frozen=True, order=True)
class Slope:
    """A primitive integer pair; canonical sign q > 0, or (p, q) = (1, 0)."""

    p: int
    q: int

    def __post_init__(self):
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise InputError(f"slope {self.p}/{self.q} is not primitive")
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise InputError(f"slope {self.p}/{self.q} is not in canonical form")

    @classmethod
    def make(cls, p: int, q: int) -> "Slope":
        """Canonicalize the sign of an arbitrary primitive pair."""
        if p == 0 and q == 0:
            raise InputError("0/0 is not a slope")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


INFINITY_SLOPE = Slope(1, 0)
ZERO_SLOPE = Slope(0, 1)


def intersection_number(s1: Slope, s2: Slope) -> int:
    """|p*q' - q*p'|; zero iff the slopes are equal."""
    return abs(s1.p * s2.q - s1.q * s2.p)


def adjacent(s1: Slope, s2: Slope) -> bool:
    return intersection_number(s1, s2) == 1


@dataclass(frozen=True)
class UniMatrix:
    """An integral matrix [[a, b], [c, d]] with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise InputError("matrix determinant must be 1")

    def __mul__(self, other: "UniMatrix") -> "UniMatrix":
        return UniMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UniMatrix":
        return UniMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY_MATRIX = UniMatrix(1, 0, 0, 1)
S_MATRIX = UniMatrix(0, -1, 1, 0)
T_MATRIX = UniMatrix(1, 1, 0, 1)
NEG_IDENTITY = UniMatrix(-1, 0, 0, -1)


def act(matrix: UniMatrix, s: Slope) -> Slope:
    """(p, q) -> (a p + b q, c p + d q), recanonicalized.

    Intersection numbers are preserved exactly, so this is a graph isometry.
    """
    return Slope.make(matrix.a * s.p + matrix.b * s.q, matrix.c * s.p + matrix.d * s.q)


SUBGROUP_GENERATORS = {  # name -> (generator, order)
    "S4": (S_MATRIX, 4),
    "ST6": (S_MATRIX * T_MATRIX, 6),
    "center2": (NEG_IDENTITY, 2),
}


def finite_subgroup(name: str) -> FiniteSubgroup:
    """Built-in finite matrix groups, all cyclic: <S> of order 4, <ST> of
    order 6, <-I>; the elements are the generator's powers in ``entries`` order."""
    if name not in SUBGROUP_GENERATORS:
        raise InputError(f"unknown finite subgroup name {name!r}")
    generator, expected = SUBGROUP_GENERATORS[name]
    powers = [IDENTITY_MATRIX]
    for _ in range(expected):
        powers.append(powers[-1] * generator)
    # g^expected = I with distinct lower powers: g has order exactly `expected`
    if powers.pop() != IDENTITY_MATRIX or len(set(powers)) != expected:
        raise InvariantError(f"{name}'s generator does not have order {expected}")
    return FiniteSubgroup(tuple(sorted(powers, key=UniMatrix.entries)))


def _descend_to_infinity(s: Slope) -> int:
    """The distance from s, a slope other than 1/0, to 1/0 by parent descent.

    Any path to infinity must exit through one of the two Farey parents of s
    (tessellation edges do not cross), so d(s, oo) = 1 + min over the two
    parents.  The parents of each mediant on the Stern-Brocot path from
    (k/1, (k+1)/1), k = floor(s), down to s are the ends of its interval, so
    one loop down that path settles every distance on the way.  The loop
    takes a run of equal turns at once: in a run the interval keeps one end
    f while its mediants are m_j = j*f + g, and d(m_1) >= d(f) because f and
    g are adjacent, so every m_j past the first is 1 + d(f).
    """
    sp, sq = s.p, s.q
    if sq == 1:
        return 1
    # the ends a < s < b of the current interval, each with its distance to 1/0
    ap, aq, da = sp // sq, 1, 1
    bp, bq, db = ap + 1, 1, 1
    while True:
        # s - a = above / (sq * aq) and b - s = below / (sq * bq), so s <= j*a + b
        # iff j*above <= below, and s >= a + j*b iff j*below <= above, with
        # equality iff s is that mediant
        above, below = sp * aq - sq * ap, sq * bp - sp * bq
        if above <= below:
            j = below // above
            d = 1 + (da if j > 1 else min(da, db))
            if j * above == below:
                return d
            bp, bq, db = j * ap + bp, j * aq + bq, d
        else:
            j = above // below
            d = 1 + (db if j > 1 else min(da, db))
            if j * below == above:
                return d
            ap, aq, da = ap + j * bp, aq + j * bq, d


def farey_distance(s1: Slope, s2: Slope) -> int:
    """Exact Farey-graph distance via continued-fraction pivot descent: a
    determinant-1 matrix, an isometry, moves s2 to infinity, and the image
    of s1 descends through its parents."""
    if s1 == s2:
        return 0
    # rows (x, y) and (-q2, p2) with x*p2 + y*q2 = 1; x = 1 for 1/0
    p2, q2 = s2.p, s2.q
    x = pow(p2, -1, q2) if q2 else 1
    mover = UniMatrix(x, (1 - x * p2) // (q2 or 1), -q2, p2)
    return _descend_to_infinity(act(mover, s1))


@dataclass(frozen=True, eq=False, kw_only=True)
class FareyWindow(FiniteMetricGraph):
    """A finite mediant-generated window on the (locally infinite) Farey graph.

    It carries no radius because it is convex: it is bounded by Farey edges,
    each of which separates the graph, so a geodesic between two of its
    slopes never leaves it and its distances are the Farey distances.
    """

    slopes: tuple[Slope, ...]
    index: dict


def build_window(depth: int) -> FareyWindow:
    """Mediant expansion from the base edge 0/1 -- 1/0.

    Each round adds, for every tessellation edge (u, v) the last round found,
    the two slopes adjacent to both endpoints (their mediant and co-mediant);
    an older edge's two are in the window already.  The window is an ideal
    polygon triangulated by the edges found, so they are all of its Farey
    edges and give its adjacency.  A window of more than
    ``WINDOW_SLOPE_BUDGET`` slopes raises ``BudgetError`` before it is built.
    """
    if depth < 0:
        raise InputError("depth must be >= 0")
    if depth + 1 >= WINDOW_SLOPE_BUDGET.bit_length():  # 2^(depth+1) > budget
        raise BudgetError(f"a depth-{depth} window has 2^{depth + 1} slopes, over the "
                          f"{WINDOW_SLOPE_BUDGET}-slope budget")
    slopes = {ZERO_SLOPE, INFINITY_SLOPE}
    edges = {(ZERO_SLOPE, INFINITY_SLOPE)}
    new_edges = set(edges)
    for _ in range(depth):
        last, new_edges = new_edges, set()
        for u, v in last:
            for w in (
                Slope.make(u.p + v.p, u.q + v.q),
                Slope.make(u.p - v.p, u.q - v.q),
            ):
                if w not in slopes:
                    slopes.add(w)
                    new_edges.add((u, w))
                    new_edges.add((v, w))
        edges |= new_edges
    ordered = tuple(sorted(slopes, key=lambda s: (s.q, s.p)))
    index = {s: i for i, s in enumerate(ordered)}
    adjacency = [[] for _ in ordered]
    for u, v in edges:
        i, j = index[u], index[v]
        adjacency[i].append(j)
        adjacency[j].append(i)
    return FareyWindow(
        slopes=ordered,
        index=index,
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )


class FareyContext(ActionContext):
    """Farey window acted on by unimodular matrices; distances are exact."""

    def __init__(self, window: FareyWindow):
        self.window = self.graph = window

    def act(self, matrix: UniMatrix, vid: int) -> int:
        return self.window.index.get(act(matrix, self.window.slopes[vid]), -1)

    def quotient(self, matrix: UniMatrix, matrix2: UniMatrix) -> UniMatrix:
        return matrix.inverse() * matrix2

    def pair_distance(self, u: int, v: int) -> int:
        return farey_distance(self.window.slopes[u], self.window.slopes[v])


def almost_fixed_slopes(subgroup: FiniteSubgroup, window: FareyWindow,
                        threshold) -> AlmostFixedSet:
    """Slopes whose whole H-orbit stays in the window with diameter <= threshold."""
    return almost_fixed_set(FareyContext(window), subgroup.elements, threshold)


@dataclass(frozen=True)
class ProfileRow:
    distance_from_center: int
    max_orbit_diameter: int
    count: int


def orbit_diameter_profile(afp: AlmostFixedSet, window: FareyWindow) -> list[ProfileRow]:
    """Max orbit diameter per distance from the center 0/1, read off the
    orbit table of an almost-fixed set on ``window``; the slopes whose orbit
    escapes are the set's ``excluded`` (Farey distances are always exact)."""
    rows: dict[int, list[int]] = {}
    for vid, diam in enumerate(afp.orbits):
        if diam is not None:
            r = farey_distance(ZERO_SLOPE, window.slopes[vid])
            rows.setdefault(r, []).append(diam)
    return [ProfileRow(r, max(ds), len(ds)) for r, ds in sorted(rows.items())]
