"""Correctness checks for the benchmark's CLI reports, recomputed independently.

Nothing here imports the package under test.  Group arithmetic, Cayley-ball
enumeration, almost-fixed sets, Farey windows, Farey distances and triangle
thinness are written out again from their definitions, so a check passes only
when the program and this file agree.

Each ``check_*`` function takes the CLI call's flags (a dict) and its parsed
report records, and returns an ordered dict ``{check name: (ok, detail)}``.
The set of names depends only on the flags, never on the report, so every
round of a workload attempts the same number of checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb, gcd

import numpy as np

# -- group arithmetic --------------------------------------------------------

_FREE_INV = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}


class F2xZ2:
    """F2 x Z2; an element is (freely reduced word over a, b, parity of t)."""

    alphabet = ("a", "a^-1", "b", "b^-1", "t")  # the program's generator order
    identity = ((), 0)

    def parse(self, text):
        word, parity = (), 0
        for s in ([] if text == "1" else text.split("*")):
            if s == "t":
                parity ^= 1
            elif s in _FREE_INV:
                word = self.mul((word, 0), ((s,), 0))[0]
            else:
                raise ValueError(f"unknown F2xZ2 symbol {s!r}")
        return word, parity

    def mul(self, x, y):
        u, v = x[0], y[0]
        k = 0
        while k < len(u) and k < len(v) and u[-1 - k] == _FREE_INV[v[k]]:
            k += 1
        return u[:len(u) - k] + v[k:], x[1] ^ y[1]

    def inv(self, x):
        return tuple(_FREE_INV[s] for s in reversed(x[0])), x[1]

    def length(self, x):
        return len(x[0]) + x[1]

    def distance(self, x, y):
        """|y * x^-1|: the free parts cancel along their common suffix."""
        u, v = x[0], y[0]
        k = 0
        while k < len(u) and k < len(v) and u[-1 - k] == v[-1 - k]:
            k += 1
        return len(u) + len(v) - 2 * k + (x[1] ^ y[1])

    def show(self, x):
        return "*".join(x[0] + (("t",) if x[1] else ())) or "1"


_ORDER = {"r": 2, "s": 3}
_SYLLABLE = {"r": ("r", 1), "s": ("s", 1), "s2": ("s", 2)}
_NAME = {v: k for k, v in _SYLLABLE.items()}


class Z2FreeZ3:
    """Z2 * Z3 = <r> * <s>; an element is its tuple of (factor, exponent) syllables."""

    alphabet = ("r", "s", "s2")
    identity = ()

    def parse(self, text):
        out = ()
        for s in ([] if text == "1" else text.split("*")):
            if s not in _SYLLABLE:
                raise ValueError(f"unknown Z2*Z3 symbol {s!r}")
            out = self.mul(out, (_SYLLABLE[s],))
        return out

    def mul(self, x, y):
        out = list(x)
        for f, e in y:
            if out and out[-1][0] == f:
                e = (out.pop()[1] + e) % _ORDER[f]
                if e:
                    out.append((f, e))
            else:
                out.append((f, e))
        return tuple(out)

    def inv(self, x):
        return tuple((f, _ORDER[f] - e) for f, e in reversed(x))

    def length(self, x):
        return len(x)

    def distance(self, x, y):
        return len(self.mul(y, self.inv(x)))

    def show(self, x):
        return "*".join(_NAME[s] for s in x) or "1"


GROUPS = {"F2xZ2": F2xZ2(), "Z2*Z3": Z2FreeZ3()}

# The centralizer of each benchmarked subgroup, known from the group structure:
# t is central in F2 x Z2, and <s> is its own centralizer in Z2 * Z3.
CENTRALIZER = {("F2xZ2", "t"): "infinite", ("Z2*Z3", "s,s*s"): "finite"}


def subgroup(group, spec):
    return sorted({group.identity} | {group.parse(w) for w in spec.split(",") if w},
                  key=group.show)


def cayley_ball(group, radius):
    """Vertices in the program's documented id order: BFS from the identity,
    each frontier vertex v followed by s*v for the generators s in order."""
    gens = [group.parse(s) for s in group.alphabet]
    verts = [group.identity]
    index = {group.identity: 0}
    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for g in gens:
                w = group.mul(g, v)
                if w not in index:
                    index[w] = len(verts)
                    verts.append(w)
                    nxt.append(w)
        frontier = nxt
    return verts, index


def orbit_diameter(group, index, radius, v, h_elems):
    """(diameter, valid) of {v*h}, or None when an image leaves the ball."""
    orb = [group.mul(v, h) for h in h_elems]
    if any(o not in index for o in orb):
        return None
    diam, valid = 0, True
    for i, u in enumerate(orb):
        for w in orb[i + 1:]:
            d = group.distance(u, w)
            valid = valid and min(group.length(u), group.length(w)) + d <= radius
            diam = max(diam, d)
    return diam, valid


def almost_fixed(group, verts, index, radius, h_elems, threshold):
    members, excluded = [], 0
    for vid, v in enumerate(verts):
        res = orbit_diameter(group, index, radius, v, h_elems)
        if res is None or not res[1]:
            excluded += 1
        elif res[0] <= threshold:
            members.append(vid)
    return members, excluded


def _afp_check(rec, members, excluded, total):
    ok = (rec is not None and rec["members"] == members and rec["size"] == len(members)
          and rec["excluded_window_invalid"] == excluded and rec["window_size"] == total)
    return ok, f"{len(members)} members, {excluded} excluded of {total}"


def _one(records, kind):
    found = [r for r in records if r.get("record") == kind]
    return found[0] if len(found) == 1 else None


# -- extract -----------------------------------------------------------------

def extract_names(flags):
    kind = CENTRALIZER[(flags["family"], flags["subgroup"])]
    tail = (("threshold_reached_true", "nontrivial_certificates") if kind == "infinite"
            else ("threshold_reached_false", "afp_is_subgroup", "certificates_in_subgroup"))
    return ("constants_N", "C2_is_one_ball", "almost_fixed_set", "certificate_elements",
            "certificate_commutation") + tail


def check_extract(flags, records):
    group = GROUPS[flags["family"]]
    kind = CENTRALIZER[(flags["family"], flags["subgroup"])]
    radius, a, c0 = int(flags["radius"]), Fraction(flags["threshold_a"]), int(flags["c0"])
    delta = Fraction(flags.get("delta", "0"))
    h_elems = subgroup(group, flags["subgroup"])
    out = {}
    k = _one(records, "constants") or {}
    summary = _one(records, "extraction_summary") or {}
    certs = [r for r in records if r.get("record") == "centralizer_certificate"]

    # N = ((C0+1)*C3^C0 + 1)*C1*C2^C0 by repeated multiplication
    c1, c2, c3 = k.get("C1", 0), k.get("C2", 0), k.get("C3", 0)
    p2 = p3 = 1
    for _ in range(c0):
        p2 *= c2
        p3 *= c3
    n = ((c0 + 1) * p3 + 1) * c1 * p2
    out["constants_N"] = (
        k.get("C0") == c0 and k.get("a") == int(a) and k.get("N") == n
        and k.get("D") == str(n + 12 * delta + 4), f"N = {n}")
    out["C2_is_one_ball"] = (
        c1 == 1 and c3 == 1 and c2 == 1 + len(group.alphabet),
        f"C2 = {c2}, expected {1 + len(group.alphabet)}")

    verts, index = cayley_ball(group, radius)
    members, excluded = almost_fixed(group, verts, index, radius, h_elems, a)
    out["almost_fixed_set"] = _afp_check(_one(records, "almost_fixed_set"),
                                         members, excluded, len(verts))

    member_set = {verts[i] for i in members}
    elems_ok, comm_ok = bool(certs), bool(certs)
    bases = set()
    for c in certs:
        pi, pc = (group.parse(w) for w in c["provenance"])
        z = group.mul(group.inv(pi), pc)
        bases.add(pc)
        elems_ok = (elems_ok and group.show(z) == c["element"] and pi in member_set
                    and c["trivial"] == (z == group.identity))
        shown = group.parse(c["element"])
        comm_ok = comm_ok and c["verified"] is True and all(
            group.mul(shown, h) == group.mul(h, shown) for h in h_elems)
    nontrivial = {c["element"] for c in certs if c["element"] != "1"}
    elems_ok = (elems_ok and len(bases) == 1 and summary.get("certificates") == len(certs)
                and summary.get("nontrivial") == len(nontrivial))
    out["certificate_elements"] = elems_ok, f"{len(certs)} certificates, p_i^-1 * p_c"
    out["certificate_commutation"] = comm_ok, f"commute with all {len(h_elems)} h"

    reached = summary.get("threshold_reached")
    if kind == "infinite":
        out["threshold_reached_true"] = reached is True and len(members) >= n, \
            f"|P_H| = {len(members)} vs N = {n}"
        out["nontrivial_certificates"] = len(nontrivial) >= c0 + 1, \
            f"{len(nontrivial)} distinct nontrivial, need {c0 + 1}"
    else:
        h_names = {group.show(h) for h in h_elems}
        out["threshold_reached_false"] = reached is False and len(members) < n, \
            f"|P_H| = {len(members)} vs N = {n}"
        reported = (_one(records, "almost_fixed_set") or {}).get("members", [])
        out["afp_is_subgroup"] = {group.show(verts[i]) for i in reported} == h_names, \
            "almost-fixed set equals H"
        out["certificates_in_subgroup"] = bool(certs) and all(
            c["element"] in h_names for c in certs), "every certificate lies in H"
    return out


# -- afp --certify -----------------------------------------------------------

def afp_names(flags):
    return ("almost_fixed_set", "far_pairs", "no_counterexamples", "certified_on_geodesic")


def check_afp(flags, records):
    group = GROUPS[flags["family"]]
    radius, delta = int(flags["radius"]), Fraction(flags["delta"])
    h_elems = subgroup(group, flags["subgroup"])
    verts, index = cayley_ball(group, radius)
    members, excluded = almost_fixed(group, verts, index, radius, h_elems, 6 * delta)
    out = {"almost_fixed_set": _afp_check(_one(records, "almost_fixed_set"),
                                          members, excluded, len(verts))}

    expected = []
    for i, x in enumerate(members):
        vx = verts[x]
        lx = group.length(vx)
        for y in members[i + 1:]:
            vy = verts[y]
            d = group.distance(vx, vy)
            if min(lx, group.length(vy)) + d <= radius and d >= 20 * delta:
                expected.append((x, y, d))
    certs = [r for r in records if r.get("record") == "midpoint_certificate"]
    got = [(c["endpoints"][0], c["endpoints"][1], c["distance"]) for c in certs]
    out["far_pairs"] = got == expected, f"{len(expected)} valid pairs at d >= 20*delta"
    out["no_counterexamples"] = bool(certs) and all(not c["counterexamples"] for c in certs), \
        "no counterexamples"

    cut = 6 * delta + 1
    ok, seen = bool(certs), 0
    for c in certs:
        vx, vy = (verts[e] for e in c["endpoints"])
        for z, diam in c["certified"]:
            vz = verts[z]
            dxz, dzy = group.distance(vx, vz), group.distance(vz, vy)
            res = orbit_diameter(group, index, radius, vz, h_elems)
            ok = (ok and dxz + dzy == c["distance"] and dxz >= cut and dzy >= cut
                  and res is not None and res[1] and res[0] == diam and diam <= 8 * delta)
            seen += 1
    out["certified_on_geodesic"] = ok and seen > 0, f"{seen} certified vertices"
    return out


# -- farey -------------------------------------------------------------------

def _canon(p, q):
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def farey_window(depth):
    """Slopes of the mediant window, in the program's (q, p) id order."""
    slopes = {(0, 1), (1, 0)}
    edges = {((0, 1), (1, 0))}
    for _ in range(depth):
        new = set()
        for u, v in edges:
            for w in (_canon(u[0] + v[0], u[1] + v[1]), _canon(u[0] - v[0], u[1] - v[1])):
                if w not in slopes:
                    slopes.add(w)
                    new |= {(u, w), (v, w)}
        edges |= new
    return sorted(slopes, key=lambda s: (s[1], s[0]))


def _s4():
    """The matrix group generated by S = [[0,-1],[1,0]], closed by products."""
    def mul(m, n):
        return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
                m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])
    elems, m = [(1, 0, 0, 1)], (0, -1, 1, 0)
    while m not in elems:
        elems.append(m)
        m = mul(m, (0, -1, 1, 0))
    return elems


def _act(m, s):
    return _canon(m[0] * s[0] + m[1] * s[1], m[2] * s[0] + m[3] * s[1])


def _adjacency(slopes):
    p = np.array([s[0] for s in slopes], dtype=np.int64)
    q = np.array([s[1] for s in slopes], dtype=np.int64)
    return np.abs(np.outer(p, q) - np.outer(q, p)) == 1  # intersection number 1


def _bfs_rows(adj, sources):
    """Distances from each source to every vertex, by level-synchronous BFS."""
    a = adj.astype(np.float32)
    dist = np.full((len(sources), adj.shape[0]), -1, dtype=np.int32)
    rows = np.arange(len(sources))
    dist[rows, sources] = 0
    frontier = dist == 0
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(np.float32) @ a) > 0) & (dist < 0)
        dist[frontier] = level
    return dist


def ambient_distances(slopes):
    """Farey distances from every window slope, by BFS over the box of all
    primitive slopes with |p|, q <= K, K the window's largest entry plus a margin
    (the acceptance suite checks box BFS against farey_distance the same way)."""
    k = max(max(abs(p), q) for p, q in slopes) + 6
    box = [(1, 0)] + [(p, q) for q in range(1, k + 1) for p in range(-k, k + 1)
                      if gcd(p, q) == 1]
    col = {s: i for i, s in enumerate(box)}
    dist = _bfs_rows(_adjacency(box), np.array([col[s] for s in slopes]))
    return lambda i, s: int(dist[i, col[s]])


def _geodesics(adj_list, dist_to_y, x, y):
    out, stack = [], [(x, (x,))]
    while stack:
        u, path = stack.pop()
        if u == y:
            out.append(path)
            continue
        for v in adj_list[u]:
            if dist_to_y[v] == dist_to_y[u] - 1:
                stack.append((v, path + (v,)))
    return out


def triangle_thinness(adj, tri):
    """Worst case over every choice of one geodesic per side of the triangle:
    the largest distance from a point of one side to the union of the others."""
    adj_list = [np.flatnonzero(row).tolist() for row in adj]
    corners = list(tri)
    dist = dict(zip(corners, _bfs_rows(adj, np.array(corners))))
    sides = [_geodesics(adj_list, dist[y], x, y)
             for x, y in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))]
    on_sides = sorted({v for side in sides for g in side for v in g})
    dist = dict(zip(on_sides, _bfs_rows(adj, np.array(on_sides))))
    worst = 0
    for choice in product(*sides):
        for i, g in enumerate(choice):
            others = [w for j, h in enumerate(choice) if j != i for w in h]
            for v in g:
                worst = max(worst, min(int(dist[v][w]) for w in others))
    return worst, [len(s) for s in sides]


def farey_names(flags):
    return ("window", "triangles", "delta_witness", "almost_fixed_slopes",
            "orbit_profile", "profile_counts")


def check_farey(flags, records):
    depth = int(flags["depth"])
    sampled = flags.get("delta_mode") == "sampled"
    slopes = farey_window(depth)
    n = len(slopes)
    win = _one(records, "farey_window") or {}
    est = _one(records, "delta_estimate") or {}
    afs = _one(records, "almost_fixed_slopes") or {}
    prof = _one(records, "orbit_diameter_profile") or {}
    out = {"window": (win.get("size") == n and win.get("depth") == depth,
                      f"{n} slopes after {depth} mediant rounds")}

    if sampled:
        want = int(flags["delta_samples"])
        ok = (est.get("triangles") == want and est.get("exhaustive") is False
              and est.get("sample_seed") == int(flags["seed"]))
    else:
        want = comb(n, 3)
        ok = est.get("triangles") == want and est.get("exhaustive") is True
    out["triangles"] = ok, f"{want} triangles"

    adj = _adjacency(slopes)
    witness = est.get("witness")
    if witness and len(witness) == 3 and est.get("geodesics_capped") is False:
        thin, counts = triangle_thinness(adj, witness)
        out["delta_witness"] = thin == est.get("delta"), \
            f"witness {witness} thinness {thin} over {counts} geodesics per side"
    else:
        out["delta_witness"] = False, "no uncapped witness triangle"

    dist = ambient_distances(slopes)
    index = {s: i for i, s in enumerate(slopes)}
    group = _s4()
    threshold = Fraction(6 * est.get("delta", 0))
    members, rows, excluded = [], {}, 0
    for i, s in enumerate(slopes):
        orb = sorted({_act(m, s) for m in group})
        if any(o not in index for o in orb):
            excluded += 1
            continue
        diam = max((dist(index[u], w) for u in orb for w in orb), default=0)
        if diam <= threshold:
            members.append(f"{s[0]}/{s[1]}")
        rows.setdefault(dist(i, (0, 1)), []).append(diam)
    out["almost_fixed_slopes"] = (
        afs.get("members") == members and afs.get("size") == len(members)
        and afs.get("threshold") == str(threshold)
        and afs.get("excluded_window_invalid") == excluded,
        f"{len(members)} slopes within {threshold}")
    table = [{"distance": r, "max_orbit_diameter": max(ds), "count": len(ds)}
             for r, ds in sorted(rows.items())]
    got_rows = prof.get("rows", [])
    out["orbit_profile"] = got_rows == table and prof.get("excluded") == excluded, \
        f"{len(table)} distance rows"
    total = sum(r.get("count", 0) for r in got_rows)
    out["profile_counts"] = total == n - excluded, f"counts sum to {total} of {n - excluded}"
    return out


CHECKERS = {
    "extract": (extract_names, check_extract),
    "afp": (afp_names, check_afp),
    "farey": (farey_names, check_farey),
}


def flags_of(argv):
    """{'radius': '7', ...} from a CLI argv; a bare flag maps to True."""
    flags, i = {"subcommand": argv[0]}, 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags[key] = argv[i + 1]
            i += 2
        else:
            flags[key] = True
            i += 1
    return flags


def check_call(argv, exit_code, stream):
    """Run every check of one CLI call.  Returns (call_ok, {name: (ok, detail)}).

    A call that did not exit 0, or whose output is not lines of JSON objects,
    fails, and so does every check of it."""
    flags = flags_of(argv)
    names, checker = CHECKERS[flags["subcommand"]]
    try:
        records = [json.loads(line) for line in stream.splitlines()]
        call_ok = exit_code == 0 and bool(records) and all(isinstance(r, dict) for r in records)
    except ValueError:
        call_ok = False
    if not call_ok:
        return False, {name: (False, f"call exited {exit_code}") for name in names(flags)}
    try:
        results = checker(flags, records)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        results = {name: (False, f"malformed report: {exc!r}") for name in names(flags)}
    if tuple(results) != names(flags):
        raise RuntimeError(f"check names drifted for {argv}")
    return True, results
