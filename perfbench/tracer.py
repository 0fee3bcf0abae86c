"""Spans and counters around the package's layer functions, for traced rounds.

A wrapper goes where the caller looks the name up -- a module global or a class
attribute -- so calls between layers are timed without touching the package.
Spans nest: a span's self time is its duration minus the time covered by the
spans it encloses.  The self times of a round therefore telescope to the time
of its outermost spans, the ``cli.run`` calls, and sum to at most its wall time
by construction.  What a layer without a wrapper would raise is ``cli.self_s``;
``trace.uncovered_s`` is the round's time outside every span.
"""

from __future__ import annotations

import time
from collections import defaultdict

import centralizers.cli as cli
import centralizers.extraction as extraction
import centralizers.farey as farey
import centralizers.fixpoints as fixpoints
import centralizers.graphs as graphs

# span name -> per-layer metric stem; "cli.run" reports its self time as cli.self_s
SPANS = (
    "cli.run",
    "groups.build_ball",
    "fixpoints.almost_fixed_set",
    "fixpoints.pair_distance",
    "fixpoints.midpoint_certify",
    "extraction.measure_constants",
    "extraction.extract_centralizers",
    "graphs.estimate_delta",
    "graphs.distance_matrix",
    "graphs.all_geodesics",
    "graphs.bfs",
    "farey.build_window",
    "farey.farey_distance",
    "farey.almost_fixed_slopes",
    "farey.orbit_diameter_profile",
)
CALL_COUNTS = {
    "fixpoints.pair_distance": "fixpoints.pair_distance_calls",
    "fixpoints.midpoint_certify": "fixpoints.midpoint_calls",
    "graphs.bfs": "graphs.bfs_calls",
    "farey.farey_distance": "farey.farey_distance_calls",
}
COUNTS = (
    "extraction.certificates", "groups.ball_vertices", "groups.multiply_calls",
    "groups.normalize_calls", "fixpoints.afp_members", "fixpoints.geodesics_examined",
    "graphs.triangles", "graphs.pair_builds", "farey.window_size",
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # [name, time covered by child spans] per open span

    def span(self, name, fn, on_result=None):
        clock, stack = time.perf_counter, self._open

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.total[name] += dt
                self.own[name] += dt - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(result, parent)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name, amount):
        self.counts[name] += amount

    def install(self):
        span, add = self.span, self.add
        builtin_group = cli.builtin_group

        def counted_oracle(name):
            # counted on the oracle the workload uses; the inner free-group
            # oracle of a direct product is another object and is not counted
            oracle = builtin_group(name)
            oracle.multiply = self.counter("groups.multiply_calls", oracle.multiply)
            oracle.normalize = self.counter("groups.normalize_calls", oracle.normalize)
            return oracle

        def pair_build(_result, parent):
            if parent == "graphs.estimate_delta":
                add("graphs.pair_builds", 1)

        def midpoint(result, _parent):
            add("fixpoints.geodesics_examined", result.geodesics_examined)

        afs = span("fixpoints.almost_fixed_set", fixpoints.almost_fixed_set,
                   lambda r, _: add("fixpoints.afp_members", r.size))
        geodesics = span("graphs.all_geodesics", graphs.all_geodesics, pair_build)
        bfs = span("graphs.bfs", graphs.bfs_distances)

        cli.run = span("cli.run", cli.run)
        cli.builtin_group = counted_oracle
        cli.build_ball = span("groups.build_ball", cli.build_ball,
                              lambda r, _: add("groups.ball_vertices", r.size))
        cli.almost_fixed_set = farey.almost_fixed_set = afs
        cli.midpoint_certify = span("fixpoints.midpoint_certify", cli.midpoint_certify, midpoint)
        cli.measure_constants = span("extraction.measure_constants", cli.measure_constants)
        cli.extract_centralizers = span(
            "extraction.extract_centralizers", cli.extract_centralizers,
            lambda r, _: add("extraction.certificates", len(r.certificates)))
        cli.estimate_delta = span("graphs.estimate_delta", cli.estimate_delta,
                                  lambda r, _: add("graphs.triangles", r.triangles))
        fixpoints.CayleyContext.pair_distance = span(
            "fixpoints.pair_distance", fixpoints.CayleyContext.pair_distance)
        fixpoints.all_geodesics = graphs.all_geodesics = geodesics
        extraction.bfs_distances = graphs.bfs_distances = bfs
        graphs.distance_matrix = span("graphs.distance_matrix", graphs.distance_matrix)
        farey.build_window = span("farey.build_window", farey.build_window,
                                  lambda r, _: add("farey.window_size", r.size))
        farey.farey_distance = span("farey.farey_distance", farey.farey_distance)
        farey.almost_fixed_slopes = span("farey.almost_fixed_slopes", farey.almost_fixed_slopes)
        farey.orbit_diameter_profile = span("farey.orbit_diameter_profile",
                                            farey.orbit_diameter_profile)

    def summary(self, wall_s: float) -> dict:
        """Per-layer figures of one traced round; layers it never entered read 0."""
        out = {"cli.self_s": self.own["cli.run"]}
        for name in SPANS[1:]:
            out[f"{name}_s"] = self.total[name]
            out[f"{name}_self_s"] = self.own[name]
        for name, metric in CALL_COUNTS.items():
            out[metric] = self.calls[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        delta_s = self.total["graphs.estimate_delta"]
        triangles, builds = self.counts["graphs.triangles"], self.counts["graphs.pair_builds"]
        out["graphs.triangles_per_s"] = triangles / delta_s if delta_s else 0.0
        out["graphs.pair_reuse"] = 3 * triangles / builds if builds else 0.0
        self_sum = sum(self.own[name] for name in SPANS)
        out["trace.self_sum_s"] = self_sum
        out["trace.uncovered_s"] = wall_s - self_sum
        out["trace.wall_s"] = wall_s
        return out
