"""Orbits, almost-fixed-point sets, and midpoint certification.

An action context bundles a finite graph window with an action of group
elements on its vertices by isometries; an image outside the window is -1.
Membership in an almost-fixed set is decided soundly: a vertex whose orbit
leaves the window, or whose orbit pairwise distances are not ambient-exact,
has no diameter (None); it is excluded and counted, never guessed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor
from typing import Iterable, Iterator, Optional

from .errors import BudgetError, InputError
from . import graphs
from .graphs import FiniteMetricGraph, geodesic_layers
from .groups import CayleyBall, GroupElement

# far pairs one far_pairs call may yield: `afp --family F2xZ2 --subgroup t
# --delta 1/6 --certify` meets 4,050 at radius 6, 78,480 at 8, 300,258 at 9
CERTIFY_PAIR_BUDGET = 100_000


class ActionContext:
    """Graph window plus a vertex action by graph isomorphisms."""

    graph: FiniteMetricGraph
    # (source, BFS row) of the last bfs_from call; a class-level default, so
    # a context needs no __init__ of this class to hold it
    _bfs_row: tuple = (None, None)

    def bfs_from(self, source: int) -> list[int]:
        """Window BFS distances from source, reusing the last row computed."""
        last, row = self._bfs_row
        if last != source:
            # looked up there, where perfbench's tracer wraps it
            row = graphs.bfs_distances(self.graph, source)
            self._bfs_row = (source, row)
        return row

    def act(self, h, vid: int) -> int:
        """The image's vertex id, or -1 if it lies outside the window."""
        raise NotImplementedError

    def images(self, h) -> list[int]:
        """``act`` of h on every vertex, in id order."""
        return [self.act(h, vid) for vid in range(self.graph.n)]

    def quotient(self, h, h2):
        """The k with d(x.h, x.h2) = d(x, x.k) for every vertex x: h2*h^-1
        for a right action, h^-1*h2 for a left one."""
        raise NotImplementedError

    def pair_distance(self, u: int, v: int) -> int:
        """The ambient distance d(u, v); ``graph.valid`` alone judges whether
        it is also the window distance."""
        raise NotImplementedError


class CayleyContext(ActionContext):
    """A Cayley ball acted on by right multiplication (an isometric action).

    Distances use the exact word metric d(u, v) = |v * u^-1|, which agrees
    with window BFS wherever the window is valid.
    """

    def __init__(self, ball: CayleyBall):
        self.ball = self.graph = ball
        self.oracle = ball.oracle

    def act(self, h: GroupElement, vid: int) -> int:
        return self.ball.index.get(self.oracle.multiply(self.ball.vertices[vid], h), -1)

    def images(self, h: GroupElement) -> list[int]:
        """Every v*h read off the step table: with v = f*p for its first
        letter f, (f*p)*h = f*(p*h), whose id is ``step[f]`` at the id of p*h,
        found earlier as p = f^-1*v comes before v.  Only where p*h has left
        the ball does ``act`` form v*h with the oracle."""
        ball, oracle = self.ball, self.oracle
        vertices, index, step = ball.vertices, ball.index, ball.step
        first = oracle.index
        back = [step[first[oracle.inverse[s]]] for s in oracle.symbols]
        out = [index.get(h, -1)]
        for v in range(1, ball.n):
            f = first[vertices[v][0]]
            q = out[back[f][v]]
            out.append(step[f][q] if q >= 0 else self.act(h, v))
        return out

    def quotient(self, h: GroupElement, h2: GroupElement) -> GroupElement:
        return self.oracle.multiply(h2, self.oracle.invert(h))

    def pair_distance(self, u: int, v: int) -> int:
        return self.oracle.distance(self.ball.vertices[u], self.ball.vertices[v])


@dataclass(frozen=True)
class AlmostFixedSet:
    threshold: Fraction
    members: tuple[int, ...]
    # per window vertex: its orbit diameter, or None if the orbit leaves the
    # window or a distance in it is not ambient-exact
    orbits: tuple[Optional[int], ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def excluded(self) -> int:
        return self.orbits.count(None)

    @property
    def total(self) -> int:
        return len(self.orbits)

    def to_record(self) -> dict:
        return {
            "threshold": str(self.threshold),
            "members": list(self.members),
            "size": self.size,
            "excluded_window_invalid": self.excluded,
            "window_size": self.total,
        }


def _displacement_classes(ctx: ActionContext, subgroup: list) -> list:
    """The pairs i < j of ``subgroup`` as (k, pairs): each pair's orbit
    distance d(x.h_i, x.h_j) is the displacement d(x, x.h_k).

    The action is by isometries, so d(x.h, x.h2) = d(x, x.k) for the pair's
    quotient k (Bridson & Haefliger, *Metric Spaces of Non-Positive
    Curvature*, II.6), and the reversed pair's quotient k^-1 has the same
    displacement, d(x, x.k^-1) = d(x.k, x).  A class is named by the earlier
    of k and k^-1 in ``subgroup``, found by equality."""
    classes: dict[int, list[tuple[int, int]]] = {}
    try:
        for i, h in enumerate(subgroup):
            for j in range(i + 1, len(subgroup)):
                h2 = subgroup[j]
                k = min(subgroup.index(ctx.quotient(h, h2)),
                        subgroup.index(ctx.quotient(h2, h)))
                classes.setdefault(k, []).append((i, j))
    except ValueError:
        raise InputError("the subgroup is not closed under products") from None
    return list(classes.items())


def almost_fixed_set(ctx: ActionContext, subgroup: Iterable, threshold) -> AlmostFixedSet:
    """All window vertices whose whole orbit stays valid with diameter <= threshold.

    Every vertex's orbit is measured here, once, into ``orbits``.  A vertex
    whose images all lie in the window has, per displacement class, one
    distance d(x, x.k), measured with ``pair_distance`` unless x.k = x; each
    pair of the class is then valid iff the window's predicate holds for its
    two images at that distance, and the diameter is the largest distance.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    subgroup = list(subgroup)
    cut = floor(threshold)  # diameters are integers
    classes = _displacement_classes(ctx, subgroup)
    images = [ctx.images(h) for h in subgroup]
    valid = ctx.graph.valid
    orbits = []
    for x in range(ctx.graph.n):
        orbit = [image[x] for image in images]
        if -1 in orbit:
            orbits.append(None)
            continue
        diam = 0
        for k, pairs in classes:
            y = images[k][x]
            d = 0 if y == x else ctx.pair_distance(x, y)
            if not all(valid(orbit[i], orbit[j], d) for i, j in pairs):
                diam = None
                break
            diam = max(diam, d)
        orbits.append(diam)
    members = tuple(v for v, diam in enumerate(orbits) if diam is not None and diam <= cut)
    return AlmostFixedSet(threshold=threshold, members=members, orbits=tuple(orbits))


@dataclass(frozen=True)
class MidpointCertificate:
    endpoints: tuple[int, int]
    distance: int
    geodesics_examined: int
    certified: tuple[tuple[int, int], ...]  # (vertex, orbit diameter)
    counterexamples: tuple[tuple[int, int], ...]
    window_excluded: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_record(self) -> dict:
        return {
            "endpoints": list(self.endpoints),
            "distance": self.distance,
            "geodesics_examined": self.geodesics_examined,
            "certified": [list(c) for c in self.certified],
            "counterexamples": [list(c) for c in self.counterexamples],
            "window_excluded": self.window_excluded,
            # every geodesic is scanned, so this is always false; the key
            # stays so that the record schema is unchanged for its readers
            "truncated": False,
        }


def far_pairs(ctx: ActionContext, members: tuple[int, ...],
              delta) -> Iterator[tuple[int, int, int]]:
    """The window-valid pairs of members at distance >= 20*delta, as (x, y, d).

    Pairs come in the order i < j over ``members``.  A valid pair on a window
    of radius R has min(|x|, |y|) + d <= R, so when d >= 20*delta one of its
    endpoints lies in the near set {v : |v| + 20*delta <= R}; pairs with no
    near endpoint are skipped without a distance call.  The rest are read off
    one BFS from x, the row ``midpoint_certify`` then reuses: a window distance
    flagged valid is the ambient one.  On a graph without a radius every
    member is near and every window distance is valid.  Past
    ``CERTIFY_PAIR_BUDGET`` pairs it raises BudgetError.
    """
    twenty = 20 * Fraction(delta)
    need = max(ceil(twenty), 0)  # distances are integers, -1 is unreachable
    graph = ctx.graph
    if graph.radius is not None:
        cut = floor(graph.radius - twenty)
        near = [j for j, v in enumerate(members) if graph.lengths[v] <= cut]
    else:
        near = list(range(len(members)))
    is_near = set(near)
    pairs = 0
    for i, x in enumerate(members):
        later = range(i + 1, len(members)) if i in is_near else near[bisect_right(near, i):]
        row = ctx.bfs_from(x) if later else None
        for j in later:
            y = members[j]
            d = row[y]
            if d >= need and graph.valid(x, y, d):
                pairs += 1
                if pairs > CERTIFY_PAIR_BUDGET:
                    raise BudgetError(
                        f"far-pair budget {CERTIFY_PAIR_BUDGET} exceeded")
                yield x, y, d


@lru_cache(maxsize=8)
def _midpoint_cutoffs(delta) -> tuple[int, int, int, int]:
    """``midpoint_certify``'s cut-offs at delta, worked out once per delta:
    diameters and distances are integers, so each bound is cut to one.
    Returns floor(6*delta), floor(8*delta), the interior cut (d >= 6*delta + 1
    iff d >= ceil(6*delta) + 1) and ceil(20*delta)."""
    delta = Fraction(delta)
    if delta < 0:
        raise InputError("delta must be >= 0")
    return floor(6 * delta), floor(8 * delta), ceil(6 * delta) + 1, ceil(20 * delta)


def midpoint_certify(ctx: ActionContext, afp: AlmostFixedSet, x: int, y: int,
                     delta) -> MidpointCertificate:
    """Certify small orbits at deep interior vertices of x-y geodesics.

    ``afp`` is an almost-fixed set of the subgroup on this context; its orbit
    table gives every diameter below.  Preconditions: x and y are almost fixed
    at threshold 6*delta with a valid window, and d(x, y) >= 20*delta.  The
    whole geodesic interval is scanned: each vertex z on some x-y geodesic
    with d(x, z) >= 6*delta + 1 and d(z, y) >= 6*delta + 1 must have orbit
    diameter <= 8*delta.  A violation is reported as a counterexample record
    (it would falsify the window or the delta input), never raised.  The
    interval is symmetric in x and y, so it is read off one BFS from x, which
    consecutive pairs sharing x reuse; d(x, y) is read off that row too.

    That window distance is the ambient one when valid: with |x| <= |y| on a
    radius-R window, every w on an ambient x-y geodesic has |w| <= |x| +
    d(x, y), so ``valid`` holds for the ambient distance iff it holds for the
    (never smaller) window distance, and then the two are equal.  A Farey
    window has no radius and is convex.
    """
    six, eight, interior, far = _midpoint_cutoffs(delta)
    for end in (x, y):
        diam = afp.orbits[end]
        if diam is None:
            raise InputError(f"endpoint {end} has a window-invalid orbit")
        if diam > six:
            raise InputError(
                f"endpoint {end} is not almost fixed: orbit diameter {diam} > 6*delta"
            )
    row = ctx.bfs_from(x)
    dxy = row[y]
    if not ctx.graph.valid(x, y, dxy):
        raise InputError(f"pair ({x}, {y}) is not window-valid")
    if dxy < far:
        raise InputError(f"d(x, y) = {dxy} < 20*delta = {20 * Fraction(delta)}")

    # layers by distance from y; the interior cut is symmetric
    layers = geodesic_layers(ctx.graph, y, x, row)
    certified = {}
    counterexamples = {}
    window_excluded = 0
    for layer in layers[interior:dxy + 1 - interior]:
        for z in layer:
            diam = afp.orbits[z]
            if diam is None:
                window_excluded += 1
            elif diam <= eight:
                certified[z] = diam
            else:
                counterexamples[z] = diam
    return MidpointCertificate(
        endpoints=(x, y),
        distance=dxy,
        geodesics_examined=layers[-1][x],
        certified=tuple(sorted(certified.items())),
        counterexamples=tuple(sorted(counterexamples.items())),
        window_excluded=window_excluded,
    )
