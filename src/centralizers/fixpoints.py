"""Orbits, almost-fixed-point sets, and midpoint certification.

An action context bundles a finite graph window with an action of group
elements on its vertices.  Membership in an almost-fixed set is decided
soundly: a vertex whose orbit leaves the window, or whose orbit pairwise
distances are not ambient-exact, is excluded and counted, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, WindowError
from .graphs import FiniteMetricGraph, bfs_distances, geodesic_layers
from .groups import CayleyBall, GroupElement


class ActionContext:
    """Graph window plus a vertex action by graph isomorphisms."""

    graph: FiniteMetricGraph

    @property
    def n(self) -> int:
        return self.graph.n

    def act(self, h, vid: int) -> int:
        raise NotImplementedError

    def pair_distance(self, u: int, v: int) -> tuple[int, bool]:
        """(distance, ambient-exactness flag) inside the window."""
        raise NotImplementedError


class CayleyContext(ActionContext):
    """A Cayley ball acted on by right multiplication (an isometric action).

    Distances use the exact word metric d(u, v) = |v * u^-1|, which agrees
    with window BFS wherever the window is valid; the validity flag still
    applies the window predicate so downstream checks never rely on vertices
    the ball cannot certify.
    """

    def __init__(self, ball: CayleyBall):
        self.ball = ball
        self.oracle = ball.oracle
        self.graph = ball.graph()

    def act(self, h: GroupElement, vid: int) -> int:
        image = self.oracle.multiply(self.ball.vertices[vid], h)
        j = self.ball.index.get(image)
        if j is None:
            raise WindowError(
                f"image of vertex {vid} under {h} escapes the radius-"
                f"{self.ball.radius} ball"
            )
        return j

    def pair_distance(self, u: int, v: int) -> tuple[int, bool]:
        d = self.oracle.distance(self.ball.vertices[u], self.ball.vertices[v])
        lo = min(self.ball.lengths[u], self.ball.lengths[v])
        return d, lo + d <= self.ball.radius


def orbit(ctx: ActionContext, subgroup: Iterable, vid: int) -> tuple[int, ...]:
    """{v * h : h in H} as sorted vertex ids; WindowError if an image escapes."""
    out = {ctx.act(h, vid) for h in subgroup}
    return tuple(sorted(out))


def orbit_diameter(ctx: ActionContext, vids: tuple[int, ...]) -> tuple[int, bool]:
    """(max pairwise distance, all pairwise windows valid)."""
    diam = 0
    valid = True
    for i, u in enumerate(vids):
        for v in vids[i + 1:]:
            d, ok = ctx.pair_distance(u, v)
            valid = valid and ok
            if d > diam:
                diam = d
    return diam, valid


@dataclass(frozen=True)
class AlmostFixedSet:
    threshold: Fraction
    members: tuple[int, ...]
    diameters: dict
    excluded: int
    total: int

    @property
    def size(self) -> int:
        return len(self.members)

    def to_record(self) -> dict:
        return {
            "threshold": str(self.threshold),
            "members": list(self.members),
            "size": self.size,
            "excluded_window_invalid": self.excluded,
            "window_size": self.total,
        }


def almost_fixed_set(ctx: ActionContext, subgroup: Iterable, threshold) -> AlmostFixedSet:
    """All window vertices whose whole orbit stays valid with diameter <= threshold."""
    threshold = Fraction(threshold)
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    subgroup = list(subgroup)
    members = []
    diameters = {}
    excluded = 0
    for vid in range(ctx.n):
        try:
            orb = orbit(ctx, subgroup, vid)
        except WindowError:
            excluded += 1
            continue
        diam, valid = orbit_diameter(ctx, orb)
        if not valid:
            excluded += 1
            continue
        if diam <= threshold:
            members.append(vid)
            diameters[vid] = diam
    return AlmostFixedSet(
        threshold=threshold,
        members=tuple(members),
        diameters=diameters,
        excluded=excluded,
        total=ctx.n,
    )


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


def midpoint_certify(ctx: ActionContext, subgroup: Iterable, x: int, y: int,
                     delta) -> MidpointCertificate:
    """Certify small orbits at deep interior vertices of x-y geodesics.

    Preconditions: x and y are almost fixed at threshold 6*delta with a valid
    window, and d(x, y) >= 20*delta.  The whole geodesic interval is scanned:
    each vertex z on some x-y geodesic with d(x, z) >= 6*delta + 1 and
    d(z, y) >= 6*delta + 1 must have orbit diameter <= 8*delta.  A violation
    is reported as a counterexample record (it would falsify the window or the
    delta input), never raised.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise InputError("delta must be >= 0")
    subgroup = list(subgroup)
    six, eight, twenty = 6 * delta, 8 * delta, 20 * delta
    interior_cut = six + 1

    for end in (x, y):
        try:
            orb = orbit(ctx, subgroup, end)
        except WindowError as exc:
            raise InputError(f"endpoint {end} has a window-invalid orbit: {exc}")
        diam, valid = orbit_diameter(ctx, orb)
        if not valid:
            raise InputError(f"endpoint {end} has window-invalid orbit distances")
        if diam > six:
            raise InputError(
                f"endpoint {end} is not almost fixed: orbit diameter {diam} > 6*delta"
            )
    dxy, valid = ctx.pair_distance(x, y)
    if not valid:
        raise InputError(f"pair ({x}, {y}) is not window-valid")
    if dxy < twenty:
        raise InputError(f"d(x, y) = {dxy} < 20*delta = {twenty}")

    layers = geodesic_layers(ctx.graph, x, y, bfs_distances(ctx.graph, y))
    certified = {}
    counterexamples = {}
    window_excluded = 0
    for i, layer in enumerate(layers):
        if i < interior_cut or (dxy - i) < interior_cut:
            continue
        for z in layer:
            try:
                orb = orbit(ctx, subgroup, z)
            except WindowError:
                window_excluded += 1
                continue
            diam, ok = orbit_diameter(ctx, orb)
            if not ok:
                window_excluded += 1
            elif diam <= eight:
                certified[z] = diam
            else:
                counterexamples[z] = diam
    return MidpointCertificate(
        endpoints=(x, y),
        distance=dxy,
        geodesics_examined=layers[-1][y],
        certified=tuple(sorted(certified.items())),
        counterexamples=tuple(sorted(counterexamples.items())),
        window_excluded=window_excluded,
    )
