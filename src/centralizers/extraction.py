"""Pigeonhole extraction of centralizing elements, with explicit constants.

The quantitative threshold is N = ((C0+1) * C3^C0 + 1) * C1 * C2^C0, where
C0 bounds finite-subgroup orders, C1 counts vertex orbits of the action,
C2 bounds vertex counts of a-balls and C3 bounds vertex stabilizers.  Once
an almost-fixed set reaches cardinality N, refining it by pigeonhole yields
at least C0+1 elements commuting with every element of H, hence an infinite
centralizer.  The extraction below realizes that refinement exactly on a
Cayley graph, where the action is free and transitive (C1 = C3 = 1): the
orbit and stabilizer-coset stages split nothing, so only the transporter
pigeonhole runs.  Each element's certificate holds its commutation
transcript, and the report stream records whether it ``verified``.

Convention note: the group acts on its Cayley graph by right multiplication
(see groups module), so the transporter taking p_1 to p_i is g_i = p_1^-1 *
p_i, the pigeonhole key for h is the vertex p_i * h * g_i^-1 (equivalently
the conjugate p_i * h * p_i^-1), and certificates take the form g_i^-1 * g_c
= p_i^-1 * p_c.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetError, InputError, InvariantError
from .fixpoints import ActionContext, AlmostFixedSet, CayleyContext
from .groups import FiniteSubgroup, GroupElement, GroupOracle

ORDER_CHECK_BOUND = 64  # default m of the order check z^k = 1, k <= m


@dataclass(frozen=True)
class ConstantsReport:
    c0: int
    c1: int
    c2: int
    c3: int
    a: int
    delta: Fraction
    n: int
    d: Fraction
    formula: str  # "cayley" (D = N + 12*delta + 4) or "surface" (+ 10)

    def to_record(self) -> dict:
        return {
            "C0": self.c0,
            "C1": self.c1,
            "C2": self.c2,
            "C3": self.c3,
            "a": self.a,
            "delta": str(self.delta),
            "N": self.n,
            "D": str(self.d),
            "formula": self.formula,
        }


def printable_bits() -> int:
    """The most bits an int may have and still print in decimal, at most
    ``sys.get_int_max_str_digits()`` digits (4,300, the default, when that is
    0 or missing): an int below 2^b has no more for b <= digits * log2(10)."""
    digits = getattr(sys, "get_int_max_str_digits", int)() or 4300
    return digits * 3321928 // 10**6


def compute_constants(c0: int, c1: int, c2: int, c3: int, delta,
                      a: int = 0, formula: str = "cayley") -> ConstantsReport:
    """Exact N = ((C0+1)*C3^C0 + 1)*C1*C2^C0 and D = N + 12*delta + offset."""
    for name, value in (("C0", c0), ("C1", c1), ("C2", c2), ("C3", c3)):
        if not isinstance(value, int) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")
    delta = Fraction(delta)
    if delta < 0:
        raise InputError("delta must be >= 0")
    if formula not in ("cayley", "surface"):
        raise InputError(f"unknown D formula {formula!r}")
    # N > (C2*C3)^C0 >= 2^(C0 * (bits(C2*C3) - 1)): refused before the powers
    # are built when that alone is too long to print
    bits = printable_bits()
    too_long = BudgetError(f"N or D would take more than {bits} bits, too long to print")
    if c0 * ((c2 * c3).bit_length() - 1) >= bits:
        raise too_long
    n = ((c0 + 1) * c3 ** c0 + 1) * c1 * c2 ** c0
    d = n + 12 * delta + (4 if formula == "cayley" else 10)
    if max(n.bit_length(), d.numerator.bit_length(), d.denominator.bit_length()) > bits:
        raise too_long
    return ConstantsReport(
        c0=c0, c1=c1, c2=c2, c3=c3, a=a, delta=delta,
        n=n, d=d, formula=formula,
    )


def measure_constants(ctx: ActionContext, a: int) -> tuple[int, int, int]:
    """(C1, C2, C3) for the window's action.

    C2 is the largest vertex count of an a-ball around a core vertex p, one
    with |p| + a <= R, whose window a-ball is its ambient a-ball.  For Cayley
    contexts the action is simply transitive, so C1 = C3 = 1 structurally,
    and right multiplication carries every ambient a-ball isometrically onto
    the one at the identity: C2 = #{v : |v| <= a}.  The core is nonempty
    iff a <= R.
    """
    if a < 0:
        raise InputError("a must be >= 0")
    if not isinstance(ctx, CayleyContext):
        raise InputError(
            "measure_constants supports Cayley contexts only; the Farey window's "
            "matrix action has infinite vertex stabilizers"
        )
    ball = ctx.ball
    if a > ball.radius:
        raise BudgetError(
            f"window radius {ball.radius} too small to measure a={a} balls",
            radius_reached=ball.radius,
        )
    return 1, sum(1 for length in ball.lengths if length <= a), 1


@dataclass(frozen=True, slots=True)
class OrderReport:
    kind: str  # "finite" | "exceeds" | "infinite"
    value: Optional[int]

    def to_record(self) -> dict:
        return {"kind": self.kind, "value": self.value}


def order_lower_bound(oracle: GroupOracle, z: GroupElement,
                      m: int = ORDER_CHECK_BOUND) -> OrderReport:
    """The exact order of z: "finite" k when k <= m, "exceeds" m for a finite
    order past m, and "infinite".

    Conjugating z by its last letter while that letter merges with the first
    leaves a cyclically reduced word of the same order.  One of length >= 2
    has infinite order, and a single letter has the order of its powers in
    its own factor, infinite for a free letter (Lyndon & Schupp,
    *Combinatorial Group Theory*, IV.1).  A letter of B merges only with
    letters of B, so a direct-product word with a nontrivial free part stays
    at two letters or more, or at one free letter: infinite.
    """
    if m < 1:
        raise InputError("order-check bound must be >= 1")
    merge, word = oracle._merge, list(z)
    while len(word) > 1 and (c := merge[word[-1]].get(word[0])) is not None:
        # t * (s ... t) * t^-1 = (t*s) ..., without t*s when that is 1
        word.pop()
        word[:1] = [c] if c else []
    if len(word) > 1:
        return OrderReport("infinite", None)
    k, power = 1, word[0] if word else ""
    while power:
        power = merge[power].get(word[0])
        if power is None:
            return OrderReport("infinite", None)
        k += 1
    return OrderReport("finite", k) if k <= m else OrderReport("exceeds", m)


@dataclass(frozen=True, slots=True)
class Transcript:
    entries: tuple[tuple[GroupElement, GroupElement, GroupElement, bool], ...]

    @property
    def ok(self) -> bool:
        return all(e[3] for e in self.entries)


def verify_centralizer(oracle: GroupOracle, z: GroupElement,
                       subgroup: FiniteSubgroup) -> Transcript:
    """Per-h commutation check by canonical forms; all-pass means z centralizes H.

    Where z*h = h*z, the entry holds the one product twice."""
    entries = []
    for h in subgroup:
        zh = oracle.multiply(z, h)
        hz = oracle.multiply(h, z)
        equal = zh == hz
        entries.append((h, zh, zh if equal else hz, equal))
    return Transcript(tuple(entries))


@dataclass(frozen=True, slots=True)
class CentralizerCertificate:
    element: GroupElement
    provenance: tuple[GroupElement, GroupElement]  # (p_i, p_c)
    transcript: Transcript
    order: OrderReport
    trivial: bool

    def to_record(self) -> dict:
        return {
            "element": str(self.element),
            "provenance": [str(p) for p in self.provenance],
            "verified": self.transcript.ok,
            "order": self.order.to_record(),
            "trivial": self.trivial,
        }


@dataclass(frozen=True)
class ExtractionResult:
    certificates: tuple[CentralizerCertificate, ...]
    class_size: int
    paths_agree: Optional[bool]

    @property
    def nontrivial(self) -> tuple[CentralizerCertificate, ...]:
        return tuple(c for c in self.certificates if not c.trivial)


def _general_path(ctx: CayleyContext, subgroup: FiniteSubgroup,
                  members: list[int]) -> tuple[list[GroupElement], GroupElement]:
    """Full refinement: orbit class, then the transporter pigeonhole.

    ``members`` come in canonical (``oracle.key``) order.  Grouping walks the
    current class in that order, so every class lists its members in that
    order, and dict insertion order puts the class holding the least member
    first.  ``max`` keeps the first of equally long classes, so each step keeps
    the largest class, ties going to the class with the least member, and the
    final class's first member is p_c.

    The threshold's stabilizer-coset refinement (the C3^C0 factor) splits no
    class on a Cayley graph, where the action is free (C3 = 1), so it is not
    run.  After steps (2)-(3) every member i of the final class has, for each
    h, the same p_i*h*g_i^-1 = (p_i*h*p_i^-1)*p_1, so c_h = p_i*h*p_i^-1
    is one element across the class.  With g_i = p_1^-1*p_i the coset word
    g_b^-1*(g_i*h)*g_i^-1*(g_b*h^-1) is p_b^-1*c_h*p_b*h^-1, the same for
    every i: one coset per h, and the class stays whole.
    """
    oracle = ctx.oracle
    verts = ctx.ball.vertices

    # (1) partition by G-orbit: right multiplication is transitive, one class.
    p1_inv = oracle.invert(verts[members[0]])
    # g_i^-1, with g_i = p_1^-1 * p_i the transporter
    inverse = {i: oracle.invert(oracle.multiply(p1_inv, verts[i])) for i in members}

    # (2)-(3) refine by the pigeonhole value p_i * h_t * g_i^-1 in B(p_1, a);
    # it is p_1 for every member at h = 1, which splits nothing
    cls = members
    for h in subgroup:
        if h.is_identity():
            continue
        groups: dict = {}
        for i in cls:
            value = oracle.multiply(oracle.multiply(verts[i], h), inverse[i])
            groups.setdefault(value, []).append(i)
        cls = max(groups.values(), key=len)

    # (4) emit g_i^-1 * g_c over the final class.
    gc = oracle.multiply(p1_inv, verts[cls[0]])
    out = [(oracle.multiply(inverse[i], gc), verts[i]) for i in cls]
    return out, verts[cls[0]]


def _specialized_path(ctx: CayleyContext, subgroup: FiniteSubgroup,
                      members: list[int]) -> tuple[list[GroupElement], GroupElement]:
    """Free Cayley shortcut: group by the conjugation vector (p*h*p^-1)_h.

    Refinement is greedy per coordinate over the same canonically ordered
    members, with the same tie-breaks as the general path, so the two must
    select the same pigeonhole class.
    """
    oracle = ctx.oracle
    verts = ctx.ball.vertices
    inverse = {i: oracle.invert(verts[i]) for i in members}
    cls = members
    for h in subgroup:
        # the conjugate by h = 1 is 1 for every member, which splits nothing
        if h.is_identity():
            continue
        groups: dict = {}
        for i in cls:
            conj = oracle.multiply(oracle.multiply(verts[i], h), inverse[i])
            groups.setdefault(conj, []).append(i)
        cls = max(groups.values(), key=len)
    pc = verts[cls[0]]
    out = [(oracle.multiply(inverse[i], pc), verts[i]) for i in cls]
    return out, pc


def extract_centralizers(ctx: ActionContext, subgroup: FiniteSubgroup, afp: AlmostFixedSet,
                         m: int = ORDER_CHECK_BOUND) -> ExtractionResult:
    """Run both refinement paths, assert agreement, verify every certificate.

    An empty result (final class a singleton) is a valid outcome: the window
    simply did not contain enough coherent almost-fixed points.
    """
    if not isinstance(ctx, CayleyContext):
        raise InputError("extraction is defined for Cayley contexts")
    if not afp.members:
        raise InputError("the almost-fixed set is empty")
    oracle = ctx.oracle
    verts = ctx.ball.vertices

    # both paths read the members in one canonical order (keys are distinct)
    members = sorted(afp.members, key=lambda i: oracle.key(verts[i]))
    general, pc_general = _general_path(ctx, subgroup, members)
    special, pc_special = _specialized_path(ctx, subgroup, members)
    agree = general == special and pc_general == pc_special
    if not agree:
        raise InvariantError(
            "general and specialized extraction paths disagree on a Cayley input"
        )

    if len(general) <= 1:
        return ExtractionResult(certificates=(), class_size=len(general), paths_agree=agree)

    # z_i = g_i^-1 * g_c = p_i^-1 * p_c: distinct members emit distinct elements
    certificates = []
    for z, origin in general:
        transcript = verify_centralizer(oracle, z, subgroup)
        if not transcript.ok:
            raise InvariantError(
                f"extracted element {z} failed commutation verification"
            )
        certificates.append(
            CentralizerCertificate(
                element=z,
                provenance=(origin, pc_general),
                transcript=transcript,
                order=order_lower_bound(oracle, z, m),
                trivial=z.is_identity(),
            )
        )
    certificates.sort(key=lambda c: oracle.key(c.element))
    return ExtractionResult(
        certificates=tuple(certificates),
        class_size=len(general),
        paths_agree=agree,
    )
