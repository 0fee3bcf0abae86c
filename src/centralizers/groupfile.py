"""Plain-text group definition files and built-in families.

Format (``#`` starts a comment)::

    family free
    generators a b

    family finite
    elements 1 r        # first name is the identity
    table
    1 r
    r 1
    end

    family free_product
    factor
    elements 1 r
    table
    1 r
    r 1
    end
    factor
    elements 1 s s2
    table
    1 s s2
    s s2 1
    s2 1 s
    end

    family direct_product
    generators a b
    factor
    elements 1 t
    table
    1 t
    t 1
    end

Table row i lists the products (row element) * (column element) as names, in
the order of the ``elements`` line.  Non-identity element names, generators and
their inverses ``g^-1`` must all differ, and none may be ``1`` or contain ``*``
or ``,``, which the word syntax reserves.  A file has at most one ``generators``
line; a line its family has no use for is a ``ParseError``, and so are an
``elements`` line that no ``table`` follows and parts that do not fit
``groups.FAMILIES``.
"""

from __future__ import annotations

from .errors import InputError, ParseError
from .groups import FAMILIES, GroupOracle, MultiplicationTable


class Directives:
    """The non-blank lines of a definition text, '#' comments stripped, as
    word lists; ``line`` is the 1-based number of the line last read."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self.line = 0

    def __iter__(self):
        while self.line < len(self._lines):
            words = self._lines[self.line].split("#", 1)[0].split()
            self.line += 1
            if words:
                yield words

    def table(self, names) -> MultiplicationTable:
        """The group table over the ``elements`` list ``names`` whose rows
        follow a ``table`` line, up to its ``end`` line; a missing list or a
        table that is not a group raises ``ParseError``."""
        if names is None:
            raise ParseError("table before an elements line", line=self.line)
        rows = []
        for words in self:
            if words == ["end"]:
                try:
                    return MultiplicationTable(names, rows)
                except InputError as exc:
                    raise ParseError(str(exc), line=self.line) from None
            rows.append(words)
        raise ParseError("unterminated table (missing 'end')", line=self.line)


def parse_group(text: str) -> GroupOracle:
    lines = Directives(text)
    family = None
    generators: list[str] = []
    tables: list[MultiplicationTable] = []
    pending_elements = None
    pending_line = 0  # the line of the elements list no table has used yet
    first: dict[str, int] = {}  # directive -> the line of its first use
    for parts in lines:
        i = lines.line
        if parts[0] == "family":
            if family is not None:
                raise ParseError("duplicate family line", line=i)
            if len(parts) != 2:
                raise ParseError("family needs exactly one value", line=i)
            family = parts[1]
        elif parts[0] == "generators":
            if "generators" in first:
                raise ParseError("duplicate generators line", line=i)
            generators = parts[1:]
        elif parts[0] in ("factor", "elements"):
            if pending_elements is not None:
                raise ParseError("elements line with no table after it", line=pending_line)
            if parts[0] == "elements":
                pending_elements, pending_line = parts[1:], i
        elif parts[0] == "table":
            tables.append(lines.table(pending_elements))
            pending_elements = None
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line=i)
        first.setdefault(parts[0], i)
    if pending_elements is not None:
        raise ParseError("elements line with no table after it", line=pending_line)

    if family is None:
        raise ParseError("missing family line")
    # a line the family has no use for is an error, not silently dropped;
    # an unknown family is the oracle's error
    if family in FAMILIES:
        takes_generators, _, most, _ = FAMILIES[family]
        unused = (() if takes_generators else ("generators",)) + (
            ("factor", "elements", "table") if most == 0 else ())
        stray = min(((first[d], d) for d in unused if d in first), default=None)
        if stray:
            raise ParseError(f"the {family} family takes no {stray[1]} line", line=stray[0])
    try:
        return GroupOracle(family, generators, tables)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def read_text(path: str) -> str:
    """A file's UTF-8 text; undecodable bytes raise ``InputError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_group(path: str) -> GroupOracle:
    return parse_group(read_text(path))


# built-in name -> (family, generators, cyclic tables as (order, symbol))
_BUILTINS = {
    "F1": ("free", ("a",), ()),
    "F2": ("free", ("a", "b"), ()),
    "F2xZ2": ("direct_product", ("a", "b"), ((2, "t"),)),
    "F2xZ3": ("direct_product", ("a", "b"), ((3, "u"),)),
    "Z2*Z2": ("free_product", (), ((2, "r"), (2, "s"))),
    "Z2*Z3": ("free_product", (), ((2, "r"), (3, "s"))),
}
_ALIASES = {"Z": "F1", "D_inf": "Z2*Z2", "Dinf": "Z2*Z2"}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_group(name: str) -> GroupOracle:
    """Built-in corpus families, by conventional name."""
    key = name.replace(" ", "")
    try:
        family, generators, cyclic = _BUILTINS[_ALIASES.get(key, key)]
    except KeyError:
        raise ParseError(f"unknown built-in family {name!r}") from None
    return GroupOracle(family, generators,
                       [MultiplicationTable.cyclic(m, s) for m, s in cyclic])
