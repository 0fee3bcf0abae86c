"""The Farey graph with its integral 2x2 matrix action.

Vertices are primitive slopes p/q (1/0 is the slope at infinity), edges join
slopes with |p*q' - q*p'| = 1.  This is the curve graph of the once-punctured
torus, a desk-scale analogue: the graph is locally infinite, so finite
windows are generated by mediant expansion, never by enumerating neighbor
sets.  Distances, however, are globally exact: ``farey_distance`` descends
through Farey parents (a continued-fraction pivot descent) and returns a
checked geodesic witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .errors import InputError, WindowError
from .fixpoints import ActionContext, AlmostFixedSet, almost_fixed_set, orbit, orbit_diameter
from .graphs import FiniteMetricGraph

INFINITY_SLOPE: "Slope"


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

    @classmethod
    def parse(cls, text: str) -> "Slope":
        try:
            p_str, q_str = text.strip().split("/")
            return cls.make(int(p_str), int(q_str))
        except ValueError as exc:
            raise InputError(f"cannot parse slope {text!r}") from exc

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

    def __str__(self) -> str:
        return f"[{self.a},{self.b};{self.c},{self.d}]"


IDENTITY_MATRIX = UniMatrix(1, 0, 0, 1)
S_MATRIX = UniMatrix(0, -1, 1, 0)
T_MATRIX = UniMatrix(1, 1, 0, 1)
NEG_IDENTITY = UniMatrix(-1, 0, 0, -1)


def act(matrix: UniMatrix, s: Slope) -> Slope:
    """(p, q) -> (a p + b q, c p + d q), recanonicalized.

    Intersection numbers are preserved exactly, so this is a graph isometry.
    """
    return Slope.make(matrix.a * s.p + matrix.b * s.q, matrix.c * s.p + matrix.d * s.q)


@dataclass(frozen=True)
class FiniteMatrixGroup:
    name: str
    elements: tuple[UniMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _close_under_products(gens: Iterable[UniMatrix]) -> tuple[UniMatrix, ...]:
    elems = {IDENTITY_MATRIX.entries(): IDENTITY_MATRIX}
    frontier = list(gens)
    while frontier:
        m = frontier.pop()
        if m.entries() in elems:
            continue
        elems[m.entries()] = m
        if len(elems) > 64:
            raise InputError("matrix group closure exceeds the finite budget")
        for e in list(elems.values()):
            frontier.append(m * e)
            frontier.append(e * m)
    return tuple(sorted(elems.values(), key=lambda m: m.entries()))


def finite_subgroup(name: str) -> FiniteMatrixGroup:
    """Built-in finite matrix groups: <S> of order 4, <ST> of order 6, <-I>."""
    gens = {
        "S4": ([S_MATRIX], 4),
        "ST6": ([S_MATRIX * T_MATRIX], 6),
        "center2": ([NEG_IDENTITY], 2),
    }
    if name not in gens:
        raise InputError(f"unknown finite subgroup name {name!r}")
    generators, expected = gens[name]
    elements = _close_under_products(generators)
    if len(elements) != expected:
        raise AssertionError(f"closure of {name} has unexpected order {len(elements)}")
    return FiniteMatrixGroup(name=name, elements=elements)


def _parents(p: int, q: int) -> tuple[Slope, Slope]:
    # the two Farey neighbors of p/q with strictly smaller denominator
    b = pow(p % q, -1, q)
    a = (p * b - 1) // q
    return Slope.make(a, b), Slope.make(p - a, q - b)


def _descend_to_infinity(s: Slope, memo: dict) -> tuple[int, tuple[Slope, ...]]:
    """Distance and one geodesic from s to 1/0 by parent descent.

    Any path to infinity must exit through a parent (tessellation edges do
    not cross), so d(s, oo) = 1 + min over the two parents.
    """
    cached = memo.get(s)
    if cached is not None:
        return cached
    if s.q == 0:
        result = (0, (s,))
    elif s.q == 1:
        result = (1, (s, INFINITY_SLOPE))
    else:
        best = None
        for parent in sorted(_parents(s.p, s.q), key=lambda t: (t.q, t.p)):
            d, path = _descend_to_infinity(parent, memo)
            if best is None or d < best[0]:
                best = (d, path)
        result = (best[0] + 1, (s,) + best[1])
    memo[s] = result
    return result


_DESCENT_MEMO: dict = {}


def farey_distance(s1: Slope, s2: Slope,
                   with_path: bool = False):
    """Exact Farey-graph distance via continued-fraction pivot descent.

    Moves s2 to infinity by a determinant-1 matrix, descends through parents,
    and maps the geodesic back.  The witness path is verified edge by edge.
    """
    if s1 == s2:
        return (0, (s1,)) if with_path else 0
    # rows (x, y) and (-q2, p2) with x*p2 + y*q2 = 1
    g, x, y = _extended_gcd(s2.p, s2.q)
    mover = UniMatrix(x, y, -s2.q, s2.p)
    moved = act(mover, s1)
    d, path = _descend_to_infinity(moved, _DESCENT_MEMO)
    if not with_path:
        return d
    back = mover.inverse()
    mapped = tuple(act(back, v) for v in path)
    for u, v in zip(mapped, mapped[1:]):
        if not adjacent(u, v):
            raise AssertionError(f"descent produced a non-edge {u} -- {v}")
    if mapped[0] != s1 or mapped[-1] != s2:
        raise AssertionError("descent endpoints do not match")
    return d, mapped


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True, eq=False)
class FareyWindow:
    """A finite mediant-generated window on the (locally infinite) Farey graph."""

    center: Slope
    depth: int
    slopes: tuple[Slope, ...]
    index: dict
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.slopes)

    def __contains__(self, s: Slope) -> bool:
        return s in self.index

    def slope_id(self, s: Slope) -> int:
        try:
            return self.index[s]
        except KeyError:
            raise InputError(f"slope {s} is not in the window")

    def graph(self) -> FiniteMetricGraph:
        return FiniteMetricGraph(adjacency=self.adjacency)


def build_window(depth: int) -> FareyWindow:
    """Mediant expansion from the base edge 0/1 -- 1/0.

    Each round adds, for every tessellation edge (u, v) found so far, the two
    slopes adjacent to both endpoints (their mediant and co-mediant).
    """
    if depth < 0:
        raise InputError("depth must be >= 0")
    slopes = {ZERO_SLOPE, INFINITY_SLOPE}
    edges = {(ZERO_SLOPE, INFINITY_SLOPE)}
    for _ in range(depth):
        new_edges = set()
        for u, v in edges:
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
    for i, u in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            if adjacent(u, ordered[j]):
                adjacency[i].append(j)
                adjacency[j].append(i)
    return FareyWindow(
        center=ZERO_SLOPE,
        depth=depth,
        slopes=ordered,
        index=index,
        adjacency=tuple(tuple(a) for a in adjacency),
    )


class FareyContext(ActionContext):
    """Farey window acted on by unimodular matrices; distances are exact."""

    def __init__(self, window: FareyWindow):
        self.window = window
        self.graph = window.graph()

    def act(self, matrix: UniMatrix, vid: int) -> int:
        image = act(matrix, self.window.slopes[vid])
        j = self.window.index.get(image)
        if j is None:
            raise WindowError(
                f"image {image} of slope {self.window.slopes[vid]} escapes the window"
            )
        return j

    def pair_distance(self, u: int, v: int) -> tuple[int, bool]:
        # globally exact, no truncation caveat
        return farey_distance(self.window.slopes[u], self.window.slopes[v]), True


def almost_fixed_slopes(subgroup: FiniteMatrixGroup, window: FareyWindow,
                        threshold) -> AlmostFixedSet:
    """Slopes whose whole H-orbit stays in the window with diameter <= threshold."""
    return almost_fixed_set(FareyContext(window), subgroup.elements, threshold)


@dataclass(frozen=True)
class ProfileRow:
    distance_from_center: int
    max_orbit_diameter: int
    count: int


def orbit_diameter_profile(subgroup: FiniteMatrixGroup,
                           window: FareyWindow) -> tuple[list[ProfileRow], int]:
    """Max orbit diameter per distance-from-center; excluded slopes counted."""
    ctx = FareyContext(window)
    rows: dict[int, list[int]] = {}
    excluded = 0
    for vid in range(window.size):
        try:
            orb = orbit(ctx, subgroup.elements, vid)
        except WindowError:
            excluded += 1
            continue
        diam, _ = orbit_diameter(ctx, orb)
        r = farey_distance(window.center, window.slopes[vid])
        rows.setdefault(r, []).append(diam)
    table = [
        ProfileRow(r, max(ds), len(ds)) for r, ds in sorted(rows.items())
    ]
    return table, excluded
