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
the order of the ``elements`` line.  Non-identity element names must be
unique across factors (they become generator symbols).  A file has at most one
``generators`` line, and a line its family has no use for is a ``ParseError``.
"""

from __future__ import annotations

from .errors import InputError, ParseError
from .groups import (
    DirectProductOracle,
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    GroupOracle,
    MultiplicationTable,
)


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
        elif parts[0] == "factor":
            pending_elements = None
        elif parts[0] == "elements":
            pending_elements = parts[1:]
        elif parts[0] == "table":
            tables.append(lines.table(pending_elements))
            pending_elements = None
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line=i)
        first.setdefault(parts[0], i)

    if family is None:
        raise ParseError("missing family line")
    # a line the family has no use for is an error, not silently dropped
    unused = {"free": ("factor", "elements", "table"), "finite": ("generators",),
              "free_product": ("generators",)}.get(family, ())
    stray = min(((first[d], d) for d in unused if d in first), default=None)
    if stray:
        raise ParseError(f"the {family} family takes no {stray[1]} line", line=stray[0])
    try:
        if family == "free":
            if not generators:
                raise ParseError("free family needs a generators line")
            return FreeGroupOracle(generators)
        if family == "finite":
            if len(tables) != 1:
                raise ParseError("finite family needs exactly one table")
            return FiniteGroupOracle(tables[0])
        if family == "free_product":
            return FreeProductOracle(tables)
        if family == "direct_product":
            if not generators or len(tables) != 1:
                raise ParseError(
                    "direct_product needs a generators line and one finite factor"
                )
            return DirectProductOracle(generators, tables[0])
    except ParseError:
        raise
    except InputError as exc:
        raise ParseError(str(exc))
    raise ParseError(f"unknown family {family!r}")


def read_text(path: str) -> str:
    """A file's UTF-8 text; undecodable bytes raise ``InputError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_group(path: str) -> GroupOracle:
    return parse_group(read_text(path))


def builtin_group(name: str) -> GroupOracle:
    """Built-in corpus families, by conventional name."""
    key = name.replace(" ", "")
    if key in ("F1", "Z"):
        return FreeGroupOracle(["a"])
    if key == "F2":
        return FreeGroupOracle(["a", "b"])
    if key == "F2xZ2":
        return DirectProductOracle(["a", "b"], MultiplicationTable.cyclic(2, "t"))
    if key == "F2xZ3":
        return DirectProductOracle(["a", "b"], MultiplicationTable.cyclic(3, "u"))
    if key in ("Z2*Z2", "D_inf", "Dinf"):
        return FreeProductOracle(
            [MultiplicationTable.cyclic(2, "r"), MultiplicationTable.cyclic(2, "s")]
        )
    if key == "Z2*Z3":
        return FreeProductOracle(
            [MultiplicationTable.cyclic(2, "r"), MultiplicationTable.cyclic(3, "s")]
        )
    raise ParseError(f"unknown built-in family {name!r}")


BUILTIN_NAMES = ("F1", "F2", "F2xZ2", "F2xZ3", "Z2*Z2", "Z2*Z3")
