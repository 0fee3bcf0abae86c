"""Exact group arithmetic via normal-form oracles, and finite Cayley balls.

Elements are canonical words over a fixed generator alphabet.  Each oracle
family owns one normal-form rule:

* free groups: free reduction;
* free products of finite groups: alternating nontrivial syllables, each a
  table element of its factor;
* direct products (free x finite): reduced free word followed by the finite
  component's table element;
* finite groups: a single table element.

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
from typing import Iterable, Sequence

from .errors import BudgetError, ClosureError, InputError
from .graphs import FiniteMetricGraph

DEFAULT_BALL_BUDGET = 2_000_000


def inverse_name(symbol: str) -> str:
    return symbol[:-3] if symbol.endswith("^-1") else symbol + "^-1"


@dataclass(frozen=True)
class GeneratorAlphabet:
    """Ordered generator symbols with an involutive inverse pairing."""

    symbols: tuple[str, ...]
    inverse: dict[str, str] = field(compare=False)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"duplicate symbols in alphabet: {self.symbols}")
        for s in self.symbols:
            t = self.inverse.get(s)
            if t is None or t not in set(self.symbols):
                raise InputError(f"symbol {s!r} has no inverse in the alphabet")
            if self.inverse[t] != s:
                raise InputError(f"inverse pairing is not an involution at {s!r}")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.symbols)}
        )

    @property
    def index(self) -> dict[str, int]:
        return self._index

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index


@dataclass(frozen=True, order=False)
class GroupElement:
    """A canonical normal-form word.  The identity is the empty word."""

    word: tuple[str, ...]

    def is_identity(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        return "*".join(self.word) if self.word else "1"

    def __len__(self) -> int:
        return len(self.word)


IDENTITY = GroupElement(())


class GroupOracle:
    """Base oracle: a retraction ``normalize`` onto canonical forms.

    Subclasses implement ``_normal_form`` on words whose symbols are known to
    be in the alphabet, and ``multiply`` on canonical words, which must equal
    ``_normal_form(x.word + y.word)``.
    """

    alphabet: GeneratorAlphabet
    family: str

    @property
    def identity(self) -> GroupElement:
        return IDENTITY

    def _check_symbols(self, raw: Sequence[str]) -> None:
        for s in raw:
            if s not in self.alphabet:
                raise InputError(f"unknown symbol {s!r} for {self.family} oracle")

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        raise NotImplementedError

    def normalize(self, raw: Sequence[str]) -> GroupElement:
        """Canonical form of a raw word; InputError on an unknown symbol."""
        self._check_symbols(raw)
        return self._normal_form(raw)

    # canonical words spell only alphabet symbols, so these skip the check
    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        raise NotImplementedError

    def invert(self, x: GroupElement) -> GroupElement:
        # the reversed word of inverse symbols is canonical for the free,
        # free-product and finite families; the direct product overrides this
        inv = self.alphabet.inverse
        return GroupElement(tuple(inv[s] for s in reversed(x.word)))

    def length(self, x: GroupElement) -> int:
        # Canonical forms of every family spell one generator per letter.
        return len(x.word)

    def key(self, x: GroupElement):
        """Lexicographic sort key under the fixed alphabet order."""
        idx = self.alphabet.index
        return tuple(idx[s] for s in x.word)

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


def _table_alphabet(tables: Sequence[MultiplicationTable],
                    extra: tuple[str, ...] = ()) -> GeneratorAlphabet:
    symbols = list(extra)
    inverse = {}
    for s in extra:
        inverse[s] = inverse_name(s)
    for t in tables:
        for i, name in enumerate(t.names):
            if i == 0:
                continue
            symbols.append(name)
            inverse[name] = t.names[t.inverse_index[i]]
    return GeneratorAlphabet(tuple(symbols), inverse)


class FreeGroupOracle(GroupOracle):
    """Free group on named generators; normal form is the freely reduced word."""

    family = "free"

    def __init__(self, generators: Sequence[str]):
        gens = tuple(generators)
        if not gens:
            raise InputError("free group needs at least one generator")
        symbols = []
        inverse = {}
        for g in gens:
            gi = inverse_name(g)
            symbols.extend((g, gi))
            inverse[g] = gi
            inverse[gi] = g
        self.generators = gens
        self.alphabet = GeneratorAlphabet(tuple(symbols), inverse)

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        return GroupElement(self.reduce(raw))

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return GroupElement(self.cancel(x.word, y.word))

    def cancel(self, xw: tuple[str, ...], yw: tuple[str, ...]) -> tuple[str, ...]:
        """Product of two reduced words: x's suffix cancels y's prefix."""
        inv = self.alphabet.inverse
        i, j, m = len(xw), 0, len(yw)
        while i and j < m and xw[i - 1] == inv[yw[j]]:
            i -= 1
            j += 1
        return xw[:i] + yw[j:]

    def reduce(self, raw: Sequence[str]) -> tuple[str, ...]:
        """Free reduction of a word whose symbols are already checked."""
        inv = self.alphabet.inverse
        stack: list[str] = []
        for s in raw:
            if stack and stack[-1] == inv[s]:
                stack.pop()
            else:
                stack.append(s)
        return tuple(stack)


class FiniteGroupOracle(GroupOracle):
    """A single finite group; the canonical word is one table element (or empty)."""

    family = "finite"

    def __init__(self, table: MultiplicationTable):
        self.table = table
        self.alphabet = _table_alphabet([table])
        self._idx = {name: i for i, name in enumerate(table.names)}

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        acc = 0
        for s in raw:
            acc = self.table.mult(acc, self._idx[s])
        return GroupElement(() if acc == 0 else (self.table.names[acc],))

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        idx = self._idx
        a = self.table.mult(idx[x.word[0]] if x.word else 0,
                            idx[y.word[0]] if y.word else 0)
        return GroupElement(() if a == 0 else (self.table.names[a],))


class FreeProductOracle(GroupOracle):
    """Free product of finite groups; alternating nontrivial syllables."""

    family = "free_product"

    def __init__(self, tables: Sequence[MultiplicationTable]):
        if len(tables) < 2:
            raise InputError("free product needs at least two factors")
        self.tables = tuple(tables)
        self.alphabet = _table_alphabet(self.tables)
        # symbol -> (factor index, element index within its table)
        self._where: dict[str, tuple[int, int]] = {}
        for f, t in enumerate(self.tables):
            for i in range(1, t.order):
                self._where[t.names[i]] = (f, i)

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        out: list[tuple[int, int]] = []
        for s in raw:
            f, i = self._where[s]
            while True:
                if out and out[-1][0] == f:
                    pf, pi = out.pop()
                    i = self.tables[f].mult(pi, i)
                    if i == 0:
                        break
                    # combined syllable may now merge with the new top
                    continue
                out.append((f, i))
                break
            # when i became identity nothing is appended; continue with next symbol
        return GroupElement(tuple(self.tables[f].names[i] for f, i in out))

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        # merge x's last syllable into y's first while both lie in one factor
        xw, yw, where = x.word, y.word, self._where
        i, j, m = len(xw), 0, len(yw)
        while i and j < m:
            f, a = where[xw[i - 1]]
            g, b = where[yw[j]]
            if f != g:
                break
            c = self.tables[f].mult(a, b)
            if c:
                return GroupElement(xw[:i - 1] + (self.tables[f].names[c],) + yw[j + 1:])
            i -= 1
            j += 1
        return GroupElement(xw[:i] + yw[j:])


class DirectProductOracle(GroupOracle):
    """F_k x A for a finite group A; componentwise normal form (A is a direct factor)."""

    family = "direct_product"

    def __init__(self, generators: Sequence[str], table: MultiplicationTable):
        self.free = FreeGroupOracle(generators)
        self.table = table
        self.alphabet = _table_alphabet([table], extra=self.free.alphabet.symbols)
        self._finite_idx = {name: i for i, name in enumerate(table.names)}
        self._free_symbols = set(self.free.alphabet.symbols)

    def _normal_form(self, raw: Sequence[str]) -> GroupElement:
        free_part = [s for s in raw if s in self._free_symbols]
        acc = 0
        for s in raw:
            if s not in self._free_symbols:
                acc = self.table.mult(acc, self._finite_idx[s])
        word = self.free.reduce(free_part)
        if acc != 0:
            word = word + (self.table.names[acc],)
        return GroupElement(word)

    def _split(self, w: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
        """(free part, finite table index) of a canonical word."""
        if w and w[-1] not in self._free_symbols:
            return w[:-1], self._finite_idx[w[-1]]
        return w, 0

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        xf, a = self._split(x.word)
        yf, b = self._split(y.word)
        word = self.free.cancel(xf, yf)
        c = self.table.mult(a, b)
        return GroupElement(word + (self.table.names[c],) if c else word)

    def invert(self, x: GroupElement) -> GroupElement:
        xf, a = self._split(x.word)
        inv = self.alphabet.inverse
        word = tuple(inv[s] for s in reversed(xf))
        if a:
            word += (self.table.names[self.table.inverse_index[a]],)
        return GroupElement(word)

    def free_projection(self, x: GroupElement) -> GroupElement:
        return GroupElement(self._split(x.word)[0])


@dataclass(frozen=True, eq=False)
class FiniteSubgroup:
    """A closure-verified finite set of canonical elements, identity first."""

    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def verify_subgroup(oracle: GroupOracle,
                    elements: Iterable[GroupElement]) -> FiniteSubgroup:
    """Check closure under products and inverses and membership of the identity.

    Raises ClosureError naming a violating pair; returns the verified subgroup
    with elements sorted by canonical word order (identity first).
    """
    elems = {oracle.normalize(x.word) for x in elements}
    if not elems:
        raise InputError("a subgroup must be a nonempty set")
    if oracle.identity not in elems:
        raise InputError("identity is missing from the set")
    for x in elems:
        inv = oracle.invert(x)
        if inv not in elems:
            raise ClosureError(x, x, inv)
    for x in elems:
        for y in elems:
            p = oracle.multiply(x, y)
            if p not in elems:
                raise ClosureError(x, y, p)
    ordered = tuple(sorted(elems, key=oracle.key))
    return FiniteSubgroup(ordered)


@dataclass(frozen=True, eq=False, kw_only=True)
class CayleyBall(FiniteMetricGraph):
    """The radius-R ball of a Cayley graph, with lengths and induced adjacency.

    The ball is the graph window itself: its ``lengths`` are word lengths and
    ``valid`` flags which of its distances are ambient word distances.
    """

    oracle: GroupOracle
    vertices: tuple[GroupElement, ...]
    index: dict

    @property
    def size(self) -> int:
        return len(self.vertices)

    def vertex_id(self, x: GroupElement) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise InputError(f"element {x} is not in the radius-{self.radius} ball")


def build_ball(oracle: GroupOracle, radius: int,
               budget: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """BFS from the identity over generator left-multiplication.

    Vertex ids are BFS discovery order (generators in alphabet order), so
    identical inputs build identical balls.  Each vertex's neighbours are
    recorded as it is processed; the radius-R shell is processed too but
    discovers nothing, so every (vertex, generator) costs one product.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    gens = [GroupElement((s,)) for s in oracle.alphabet.symbols]
    multiply = oracle.multiply
    vertices = [oracle.identity]
    index = {oracle.identity: 0}
    lengths = [0]
    adjacency = []
    frontier = [oracle.identity]
    depth = 0
    while frontier:
        grow = depth < radius
        nxt = []
        for v in frontier:
            nbrs = []
            for g in gens:
                w = multiply(g, v)  # edge v -- s*v
                j = index.get(w)
                if j is None:
                    if not grow:
                        continue
                    if len(vertices) + 1 > budget:
                        raise BudgetError(
                            f"ball budget {budget} exceeded after radius {depth}",
                            radius_reached=depth,
                        )
                    j = index[w] = len(vertices)
                    vertices.append(w)
                    lengths.append(depth + 1)
                    nxt.append(w)
                nbrs.append(j)  # s*v != v, as no generator is the identity
            # frontiers run in id order, so this is vertex v's entry
            adjacency.append(tuple(sorted(nbrs)))
        frontier = nxt
        depth += 1
    return CayleyBall(
        oracle=oracle,
        radius=radius,
        vertices=tuple(vertices),
        index=index,
        adjacency=tuple(adjacency),
        lengths=tuple(lengths),
    )
