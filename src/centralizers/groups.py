"""Exact group arithmetic via one normal-form oracle, and finite Cayley balls.

Every family is a special case of one group, (F_k * A_1 * ... * A_m) x B:
a free group on named generators and finite groups A_i given by
multiplication tables, in a free product, times a finite central factor B.
By the normal form theorem for free products (Lyndon & Schupp,
*Combinatorial Group Theory*, Ch. IV) an element has one canonical word,
a sequence of letters in which no two adjacent letters lie in one finite
factor and no free letter stands next to its inverse; one letter of B may
follow at the end.  ``FAMILIES`` says which parts each family takes:

* free (F_k): generators and no table; the freely reduced word;
* finite (one A_1): one table; a single table element;
* free_product (A_1 * ... * A_m): two tables or more; alternating
  nontrivial syllables;
* direct_product (F_k x B): generators and one table, which is B; the
  reduced free word, then B's element.

Two raw words are equal in the group iff they normalize identically.  The
normal-form rule is the checked entry point and the reference; products and
inverses of canonical words are computed at the seam, because two canonical
words can only change where they meet.

Convention (fixed globally): edges of the Cayley graph join x and s*x for
generators s; the group acts on vertices by RIGHT multiplication x -> x*g,
which is an isometry of that graph.  Consequently d(u, v) = |v * u^-1|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import BudgetError, ClosureError, InputError
from .graphs import FiniteMetricGraph

# array is imported by build_ball, so that a run without a Cayley ball (the
# Farey and multitwist subcommands) does not map its extension module
if TYPE_CHECKING:
    from array import array

DEFAULT_BALL_BUDGET = 2_000_000


def inverse_name(symbol: str) -> str:
    return symbol[:-3] if symbol.endswith("^-1") else symbol + "^-1"


class GroupElement(tuple):
    """A canonical normal-form word: the tuple of its letters, so that hashing
    and equality are tuple's own.  The identity is the empty word."""

    __slots__ = ()

    def is_identity(self) -> bool:
        return not self

    def __str__(self) -> str:
        return "*".join(self) if self else "1"


IDENTITY = GroupElement(())


# family -> (whether it takes free generators, then at least one; the least
# and the most number of finite tables, None for no bound; whether its tables
# are the central factor B rather than free factors A_i)
FAMILIES = {
    "free": (True, 0, 0, False),
    "finite": (False, 1, 1, False),
    "free_product": (False, 2, None, False),
    "direct_product": (True, 1, 1, True),
}

_COUNTS = ("zero", "one", "two")


class GroupOracle:
    """(F_k * A_1 * ... * A_m) x B for one of the ``FAMILIES``: free
    ``generators``, and finite ``tables`` that are the factors A_i, or B
    when the family is central.  Parts that do not fit the family, or an
    unknown family, raise InputError.

    ``symbols`` lists each generator and its inverse, then the non-identity
    names of each table in table order; that order fixes the vertex ids of a
    ball and ``key``.  ``inverse`` pairs each symbol with its inverse and
    ``index`` gives its position.  ``_merge[a]`` maps each letter b that a
    merges with to the letter a*b, or to "" when a*b = 1: the letters of
    a's own finite table, or only its inverse for a free letter.
    """

    def __init__(self, family: str, generators: Sequence[str] = (),
                 tables: Sequence[MultiplicationTable] = ()):
        if family not in FAMILIES:
            raise InputError(f"unknown family {family!r}")
        takes_generators, least, most, central = FAMILIES[family]
        if takes_generators and not generators:
            raise InputError(f"the {family} family needs a generators line")
        if generators and not takes_generators:
            raise InputError(f"the {family} family takes no generators")
        n = len(tables)
        if n < least or most is not None and n > most:
            bound = "exactly" if least == most else "at least"
            raise InputError(f"the {family} family takes {bound} {_COUNTS[least]} "
                             f"table{'s' * (least != 1)}, not {n}")
        self.family = family
        symbols: list[str] = []
        inverse: dict[str, str] = {}
        merge: dict[str, dict[str, str]] = {}
        for g in generators:
            gi = inverse_name(g)
            symbols += (g, gi)
            inverse[g], inverse[gi] = gi, g
            merge[g], merge[gi] = {gi: ""}, {g: ""}
        for t in tables:
            letters = t.names[1:]
            spelled = ("",) + letters  # table index -> letter, 1 spelled ""
            symbols += letters
            for i, a in enumerate(letters, 1):
                inverse[a] = t.names[t.inverse_index[i]]
                merge[a] = {b: spelled[t.mult(i, j)] for j, b in enumerate(letters, 1)}
        # each inverse comes from a generator pair or a validated table, so
        # with distinct symbols it is in the alphabet and an involution
        if len(set(symbols)) != len(symbols):
            raise InputError(f"duplicate symbols in alphabet: {tuple(symbols)}")
        # words print their letters joined by "*" and the identity as "1",
        # and --subgroup splits its words on ","
        for s in symbols:
            if s == "1" or "*" in s or "," in s or s.split() != [s]:
                raise InputError(f"symbol {s!r} cannot be spelled in a word")
        self.symbols = tuple(symbols)
        self.inverse = inverse
        self.index = {s: i for i, s in enumerate(symbols)}
        self._merge = merge
        self._center = frozenset(tables[-1].names[1:] if central else ())

    identity = IDENTITY

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        # one stack pass; B's letters commute with every other letter, so
        # they are multiplied together apart, in order, into the last letter
        merge, center = self._merge, self._center
        stack: list[str] = []
        tail = ""
        for s in raw:
            if s in center:
                tail = merge[tail][s] if tail else s
            elif stack and (m := merge[stack[-1]].get(s)) is not None:
                if m:
                    stack[-1] = m
                else:
                    stack.pop()
            else:
                stack.append(s)
        if tail:
            stack.append(tail)
        return GroupElement(stack) if stack else IDENTITY

    def normalize(self, raw: Sequence[str]) -> GroupElement:
        """Canonical form of a raw word; InputError on an unknown symbol."""
        for s in raw:
            if s not in self.index:
                raise InputError(f"unknown symbol {s!r} for {self.family} oracle")
        return self._normal_form(raw)

    # canonical words spell only alphabet symbols, so these skip the check
    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        """x*y, merging the two words only where they meet."""
        if not (x and y):  # a product by 1 is the other factor, not a copy
            return x or y
        xw, yw, merge, center = x, y, self._merge, self._center
        tail = ""
        if center:
            if xw and xw[-1] in center:
                xw, tail = xw[:-1], xw[-1]
            if yw and yw[-1] in center:
                yw, b = yw[:-1], yw[-1]
                tail = merge[tail][b] if tail else b
        i, j, m = len(xw), 0, len(yw)
        seam = ()
        while i and j < m:
            c = merge[xw[i - 1]].get(yw[j])
            if c is None:
                break
            i -= 1
            j += 1
            if c:  # a nontrivial product within one factor ends the seam
                seam = (c,)
                break
        word = xw[:i] + seam + yw[j:]
        return GroupElement(word + (tail,) if tail else word)

    def invert(self, x: GroupElement) -> GroupElement:
        """The reversed word of inverse letters, with B's letter kept last."""
        inv = self.inverse
        if x and x[-1] in self._center:
            return GroupElement(tuple(inv[s] for s in reversed(x[:-1])) + (inv[x[-1]],))
        return GroupElement(inv[s] for s in reversed(x))

    def length(self, x: GroupElement) -> int:
        # Canonical words spell one generator per letter.
        return len(x)

    def key(self, x: GroupElement):
        """Lexicographic sort key under the fixed alphabet order."""
        return tuple(map(self.index.__getitem__, x))

    def distance(self, u: GroupElement, v: GroupElement) -> int:
        """Word metric of the left-multiplication Cayley graph: |v * u^-1|."""
        return self.length(self.multiply(v, self.invert(u)))

    def parse(self, text: str) -> GroupElement:
        """Parse a word like ``a*b^-1*t`` (also space-separated); ``1`` = identity."""
        text = text.strip()
        if text in ("", "1"):
            return self.identity
        raw = tuple(s for s in text.replace("*", " ").split() if s)
        return self.normalize(raw)


class MultiplicationTable:
    """A finite group given by a table of element names; names[0] is the identity."""

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[str]]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InputError(f"duplicate element names: {self.names}")
        n = len(self.names)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("multiplication table is not square")
        idx = {s: i for i, s in enumerate(self.names)}
        try:
            self.table = tuple(tuple(idx[s] for s in row) for row in rows)
        except KeyError as exc:
            raise InputError(f"table entry {exc.args[0]!r} is not an element") from exc
        self._validate()

    def _validate(self) -> None:
        n = len(self.names)
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise InputError(f"{self.names[0]!r} is not an identity in the table")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    inv[i] = j
            if inv[i] is None:
                raise InputError(f"element {self.names[i]!r} has no inverse")
        self.inverse_index = tuple(inv)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise InputError(
                            "table is not associative at "
                            f"({self.names[i]}, {self.names[j]}, {self.names[k]})"
                        )

    @property
    def order(self) -> int:
        return len(self.names)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    @classmethod
    def cyclic(cls, m: int, symbol: str) -> "MultiplicationTable":
        if m < 1:
            raise InputError("cyclic order must be >= 1")
        names = ["1"] + [symbol if i == 1 else f"{symbol}{i}" for i in range(1, m)]
        rows = [[names[(i + j) % m] for j in range(m)] for i in range(m)]
        return cls(names, rows)


@dataclass(frozen=True, eq=False)
class FiniteSubgroup:
    """A closure-verified finite set of group elements: canonical words, or
    the unimodular matrices of a Farey subgroup."""

    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def verify_subgroup(oracle: GroupOracle,
                    elements: Iterable[GroupElement]) -> FiniteSubgroup:
    """Check closure under products and membership of the identity.

    A finite nonempty subset closed under products is a subgroup: x^-1 is a
    power of x.  Pairs are checked in canonical word order, so a ClosureError
    names the first violating pair in that order, whatever the hash seed.
    Returns the verified subgroup with elements in canonical word order
    (identity first).
    """
    elems = {oracle.normalize(x) for x in elements}
    if not elems:
        raise InputError("a subgroup must be a nonempty set")
    if oracle.identity not in elems:
        raise InputError("identity is missing from the set")
    ordered = tuple(sorted(elems, key=oracle.key))
    for x in ordered:
        for y in ordered:
            p = oracle.multiply(x, y)
            if p not in elems:
                raise ClosureError(x, y, p)
    return FiniteSubgroup(ordered)


@dataclass(frozen=True, eq=False, kw_only=True)
class CayleyBall(FiniteMetricGraph):
    """The radius-R ball of a Cayley graph, with lengths and induced adjacency.

    The ball is the graph window itself: its ``lengths`` are word lengths and
    ``valid`` flags which of its distances are ambient word distances.
    ``step[s][v]`` is the id of s*v for the symbol of index s, or -1 when s*v
    lies outside the ball; ``adjacency`` is built from it when first read.
    """

    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    oracle: GroupOracle
    vertices: tuple[GroupElement, ...]
    index: dict
    step: tuple[array, ...]

    def __getattr__(self, name: str):
        if name != "adjacency":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # v's neighbours are the u with some step[s][u] = v (s*u = v iff s^-1*v = u),
        # met in increasing order, each once, as index's ints (no new int objects);
        # each list gives way to its tuple in place, so the two are never all held
        adjacency = [[] for _ in self.vertices]
        for u, column in zip(self.index.values(), zip(*self.step)):
            for j in column:
                if j >= 0:
                    adjacency[j].append(u)
        for v, around in enumerate(adjacency):
            adjacency[v] = tuple(around)
        object.__setattr__(self, "adjacency", tuple(adjacency))
        return self.adjacency


def build_ball(oracle: GroupOracle, radius: int,
               budget: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """BFS from the identity over generator left-multiplication, filling the
    step table without an oracle product.

    Vertex ids are BFS discovery order (generators in alphabet order), so
    identical inputs build identical balls.  Vertices are processed in id
    order, the radius-R shell too, and each fills its entry of every
    ``step[s]``; its neighbours are the entries other than -1.  Write a
    vertex v = f*p, with f its first letter and p the rest, a normal form of
    length |v| - 1 whose entries are filled already.  Then s*v is:

    * (sf)*p when s merges with f (s and f lie in one finite factor, or s is
      the free letter f^-1).  p's first letter merges with no letter of f's
      factor, so this is p itself when sf = 1 and otherwise the normal form
      whose id is ``step[sf][p]``.
    * f*(s*p) when s lies in the central factor B and v ends in a letter of
      B.  Then f is not in B, s*p = p's word with its last letter b replaced
      by sb (or dropped) has length at most |p|, and f merges with neither
      the first letter of v's word between f and b nor a letter of B, so the
      id is ``step[f][step[s][p]]``, of a word of length at most |v|.
    * one letter longer otherwise, as nothing merges: s before v's word, or
      after it for s in B.  That is -1 at radius R; below R the word is
      formed once and looked up, and is a new vertex if missing.  A word
      (w, b) ending in B has two lower neighbours, w and (w[1:], b), so it
      may be found already.

    The first two cases read ids of words no longer than v, which exist; the
    third sees each edge to the next sphere once, in the order in which the
    oracle's products would have found it, so the ids are unchanged.
    """
    from array import array

    if radius < 0:
        raise InputError("radius must be >= 0")
    symbols, center = oracle.symbols, oracle._center
    letters = [(s,) for s in symbols]
    central = [s in center for s in symbols]
    # seams[f][s]: the index of s*f for a letter s that merges with f, -1
    # when s*f = 1, None when the two do not merge
    seams = {f: tuple(None if (c := oracle._merge[s].get(f)) is None
                      else oracle.index[c] if c else -1 for s in symbols)
             for f in symbols}
    step = tuple(array("i") for _ in symbols)
    vertices = [oracle.identity]
    index = {oracle.identity: 0}
    v = 0
    while v < len(vertices):
        word = vertices[v]
        if word:
            rule, f, p = seams[word[0]], oracle.index[word[0]], index[word[1:]]
            ends_in_b = word[-1] in center
        else:
            rule, ends_in_b = (None,) * len(symbols), False
        for s, c in enumerate(rule):
            if c is not None:
                j = p if c < 0 else step[c][p]
            elif ends_in_b and central[s]:
                j = step[f][step[s][p]]
            elif len(word) < radius:
                w = GroupElement(word + letters[s] if central[s] else letters[s] + word)
                j = index.get(w)
                if j is None:
                    if len(vertices) + 1 > budget:
                        raise BudgetError(
                            f"ball budget {budget} exceeded after radius {len(word)}",
                            radius_reached=len(word),
                        )
                    j = index[w] = len(vertices)
                    vertices.append(w)
            else:
                j = -1
            step[s].append(j)
        v += 1
    return CayleyBall(
        oracle=oracle,
        radius=radius,
        vertices=tuple(vertices),
        index=index,
        step=step,
        lengths=tuple(map(len, vertices)),
    )
