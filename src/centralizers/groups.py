"""Exact group arithmetic via normal-form oracles, and finite Cayley balls.

Elements are canonical words over a fixed generator alphabet.  Each oracle
family owns one normal-form rule:

* free groups: free reduction;
* free products of finite groups: alternating nontrivial syllables, each a
  table element of its factor;
* direct products (free x finite): reduced free word followed by the finite
  component's table element;
* finite groups: a single table element.

Multiplication and inversion are derived from the normal-form rule, so two
raw words are equal in the group iff they normalize identically.

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
    be in the alphabet; everything else is derived.
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
        return self._normal_form(x.word + y.word)

    def invert(self, x: GroupElement) -> GroupElement:
        inv = self.alphabet.inverse
        return self._normal_form(tuple(inv[s] for s in reversed(x.word)))

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

    def free_projection(self, x: GroupElement) -> GroupElement:
        return GroupElement(
            self.free.reduce([s for s in x.word if s in self._free_symbols])
        )


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
    identical inputs build identical balls.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    gens = [GroupElement((s,)) for s in oracle.alphabet.symbols]
    vertices = [oracle.identity]
    index = {oracle.identity: 0}
    lengths = [0]
    frontier = [oracle.identity]
    depth = 0
    while depth < radius and frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = oracle.multiply(g, v)  # edge v -- s*v
                if w not in index:
                    if len(vertices) + 1 > budget:
                        raise BudgetError(
                            f"ball budget {budget} exceeded after radius {depth}",
                            radius_reached=depth,
                        )
                    index[w] = len(vertices)
                    vertices.append(w)
                    lengths.append(depth + 1)
                    nxt.append(w)
        frontier = nxt
        depth += 1
    adjacency = []
    for v in vertices:
        nbrs = set()
        for g in gens:
            w = oracle.multiply(g, v)
            j = index.get(w)
            if j is not None and w != v:
                nbrs.add(j)
        adjacency.append(tuple(sorted(nbrs)))
    return CayleyBall(
        oracle=oracle,
        radius=radius,
        vertices=tuple(vertices),
        index=index,
        adjacency=tuple(adjacency),
        lengths=tuple(lengths),
    )
