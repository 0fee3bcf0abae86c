"""Exact semidirect-product model of a multitwist commuting with H.

A finite group H permutes a finite curve family A.  Twists about the curves
generate a free abelian group Z^A, and conjugation by h permutes twist
coordinates: h * t_alpha * h^-1 = t_{h.alpha}.  The model is therefore the
semidirect product Z^A x| H with multiplication

    (v, h) * (w, k) = (v + h.w, h*k),      (h.w)[h(i)] = w[i].

The full multitwist T is the all-ones vector; its coordinate vector is
invariant under every permutation, so T commutes with all of H, and the
pure twists commuting with all of H are exactly the H-invariant vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .errors import BudgetError, InputError, ParseError
from .groupfile import Directives
from .groups import MultiplicationTable

# verify_multitwist_commutation walks the vectors of [-EXPONENT_RANGE,
# EXPONENT_RANGE]^A, 5 choices per curve, and at most 5^8 of them: 8 curves
EXPONENT_RANGE = 2
MULTITWIST_VECTOR_BUDGET = 5 ** 8


@dataclass(frozen=True, eq=False)
class PermutationAction:
    """A finite group (by table) acting on curve labels by permutations."""

    labels: tuple[str, ...]
    table: MultiplicationTable
    perms: tuple[tuple[int, ...], ...]  # perms[e][i] = image of label i under e

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("curve labels must be distinct")
        if not self.labels:
            raise InputError("curve family must be nonempty")
        n = len(self.labels)
        if len(self.perms) != self.table.order:
            raise InputError("one permutation per group element is required")
        for name, perm in zip(self.table.names, self.perms):
            if sorted(perm) != list(range(n)):
                raise InputError(f"images of {name!r} are not a permutation")
        if self.perms[0] != tuple(range(n)):
            raise InputError("the identity must act trivially")
        for g in range(self.table.order):
            for h in range(self.table.order):
                composed = tuple(self.perms[g][self.perms[h][i]] for i in range(n))
                if composed != self.perms[self.table.mult(g, h)]:
                    raise InputError(
                        "not a homomorphism: perm(g*h) != perm(g) o perm(h) at "
                        f"({self.table.names[g]}, {self.table.names[h]})"
                    )

    @property
    def family_size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SemidirectElement:
    """(exponent vector, group part) with exact integer arithmetic."""

    action: PermutationAction
    vector: tuple[int, ...]
    part: int  # index into the group table

    def __post_init__(self):
        if len(self.vector) != self.action.family_size:
            raise InputError("exponent vector length must match the curve family")
        if not 0 <= self.part < self.action.table.order:
            raise InputError("group part out of range")

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        if other.action is not self.action:
            raise InputError("elements belong to different actions")
        moved = _permute(self.action.perms[self.part], other.vector)
        vector = tuple(a + b for a, b in zip(self.vector, moved))
        return SemidirectElement(self.action, vector, self.action.table.mult(self.part, other.part))

    def inverse(self) -> "SemidirectElement":
        inv = self.action.table.inverse_index[self.part]
        moved = _permute(self.action.perms[inv], self.vector)
        return SemidirectElement(self.action, tuple(-a for a in moved), inv)

    def is_identity(self) -> bool:
        return self.part == 0 and not any(self.vector)


def _permute(perm: tuple[int, ...], vector: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(vector)
    for i, v in enumerate(vector):
        out[perm[i]] = v
    return tuple(out)


def group_part(action: PermutationAction, element: int) -> SemidirectElement:
    return SemidirectElement(action, (0,) * action.family_size, element)


def pure_twist(action: PermutationAction, vector: Iterable[int]) -> SemidirectElement:
    return SemidirectElement(action, tuple(vector), 0)


def build_T(action: PermutationAction) -> SemidirectElement:
    """The full multitwist: one right twist about every curve of the family."""
    return pure_twist(action, (1,) * action.family_size)


def commutes(x: SemidirectElement, y: SemidirectElement) -> bool:
    return x * y == y * x


def is_invariant_vector(action: PermutationAction, vector: tuple[int, ...]) -> bool:
    """Whether vector[perm[i]] == vector[i] for every perm and label: read off
    the perms, not through the ``_permute`` that ``commutes`` checks."""
    return all(vector[perm[i]] == v for perm in action.perms for i, v in enumerate(vector))


@dataclass(frozen=True)
class Lemma59Report:
    family_size: int
    group_order: int
    multitwist_central: bool
    multitwist_failures: tuple[str, ...]
    characterization_holds: bool
    characterization_witness: Optional[tuple[tuple[int, ...], str]]
    vectors_checked: int

    @property
    def ok(self) -> bool:
        return self.multitwist_central and self.characterization_holds

    def to_record(self) -> dict:
        return asdict(self)


def verify_multitwist_commutation(action: PermutationAction) -> Lemma59Report:
    """Check that the full multitwist is central over H, and the converse
    characterization: a pure twist commutes with all of H iff its vector is
    H-invariant (exhausted over exponents in [-EXPONENT_RANGE, EXPONENT_RANGE]).
    BudgetError if that is more than ``MULTITWIST_VECTOR_BUDGET`` vectors."""
    n = action.family_size
    vectors = (2 * EXPONENT_RANGE + 1) ** n
    if vectors > MULTITWIST_VECTOR_BUDGET:
        raise BudgetError(f"{vectors} exponent vectors exceed the budget of "
                          f"{MULTITWIST_VECTOR_BUDGET}")
    T = build_T(action)
    failures = []
    for e in range(action.table.order):
        if not commutes(T, group_part(action, e)):
            failures.append(action.table.names[e])

    witness = None
    checked = 0
    for vec in itertools.product(range(-EXPONENT_RANGE, EXPONENT_RANGE + 1), repeat=n):
        checked += 1
        twist = pure_twist(action, vec)
        commutes_all = all(
            commutes(twist, group_part(action, e)) for e in range(action.table.order)
        )
        if commutes_all != is_invariant_vector(action, vec):
            kind = "commutes-but-not-invariant" if commutes_all else "invariant-but-not-central"
            witness = (vec, kind)
            break
    return Lemma59Report(
        family_size=n,
        group_order=action.table.order,
        multitwist_central=not failures,
        multitwist_failures=tuple(failures),
        characterization_holds=witness is None,
        characterization_witness=witness,
        vectors_checked=checked,
    )


# built-in demonstration actions

def cyclic_rotation_action(cycle_length: int, fixed: int = 0) -> PermutationAction:
    """Z/n rotating n curve labels, optionally with extra fixed labels."""
    table = MultiplicationTable.cyclic(cycle_length, "g")
    labels = tuple(f"a{i}" for i in range(cycle_length)) + tuple(
        f"f{i}" for i in range(fixed)
    )
    n = len(labels)
    perms = []
    for k in range(cycle_length):
        perm = [(i + k) % cycle_length for i in range(cycle_length)]
        perm += list(range(cycle_length, n))
        perms.append(tuple(perm))
    return PermutationAction(labels=labels, table=table, perms=tuple(perms))


def symmetric3_action() -> PermutationAction:
    """S_3 permuting three curves naturally."""
    perms = tuple(sorted(itertools.permutations(range(3))))  # identity first
    names = ["id"] + ["".join(str(i) for i in p) for p in perms[1:]]
    idx = {p: i for i, p in enumerate(perms)}
    rows = [[names[idx[tuple(p[q[i]] for i in range(3))]] for q in perms] for p in perms]
    table = MultiplicationTable(names, rows)
    return PermutationAction(labels=("x", "y", "z"), table=table, perms=perms)


def parse_action(text: str) -> PermutationAction:
    """Parse the curve-family action format:

        labels x y z
        elements 1 g g2      # first name is the identity
        table
        1 g g2
        g g2 1
        g2 1 g
        end
        perm g x->y y->z z->x
        perm g2 x->z y->x z->y

    A file has one ``labels``, ``elements`` and ``table`` line each and at
    most one ``perm`` line per element, which maps each label at most once; a
    repeated line or mapping is a ``ParseError``.
    """
    labels: Optional[tuple[str, ...]] = None
    names: Optional[list[str]] = None
    table: Optional[MultiplicationTable] = None
    perm_lines: dict[str, tuple[int, dict[str, str]]] = {}  # name -> (line, images)
    seen = set()
    lines = Directives(text)
    for parts in lines:
        i = lines.line
        if parts == ["perm"]:
            raise ParseError("perm needs a group element name", line=i)
        directive = " ".join(parts[:2]) if parts[0] == "perm" else parts[0]
        if directive in seen:
            raise ParseError(f"duplicate {directive} line", line=i)
        seen.add(directive)
        if parts[0] == "labels":
            labels = tuple(parts[1:])
        elif parts[0] == "elements":
            names = parts[1:]
        elif parts[0] == "table":
            table = lines.table(names)
        elif parts[0] == "perm":
            images = {}
            for chunk in parts[2:]:
                if "->" not in chunk:
                    raise ParseError(f"bad mapping {chunk!r}", line=i)
                src, dst = chunk.split("->", 1)
                if src in images:
                    raise ParseError(f"label {src!r} mapped twice", line=i)
                images[src] = dst
            perm_lines[parts[1]] = (i, images)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line=i)
    if labels is None or table is None:
        raise ParseError("action file needs labels, elements and a table")
    label_idx = {name: j for j, name in enumerate(labels)}
    perms = [tuple(range(len(labels)))]
    for name in table.names[1:]:
        if name not in perm_lines:
            raise ParseError(f"missing perm line for element {name!r}")
        line, images = perm_lines[name]
        perm = list(range(len(labels)))  # unmentioned labels are fixed
        for src, dst in images.items():
            if src not in label_idx or dst not in label_idx:
                raise ParseError(f"unknown label in {src}->{dst}", line=line)
            perm[label_idx[src]] = label_idx[dst]
        perms.append(tuple(perm))
    for name, (line, _) in perm_lines.items():  # in file order
        if name not in table.names[1:]:
            raise ParseError(f"perm line for unknown element {name!r}", line=line)
    return PermutationAction(labels=labels, table=table, perms=tuple(perms))
