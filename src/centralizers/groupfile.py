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
unique across factors (they become generator symbols).
"""

from __future__ import annotations

from .errors import ParseError
from .groups import (
    DirectProductOracle,
    FiniteGroupOracle,
    FreeGroupOracle,
    FreeProductOracle,
    GroupOracle,
    MultiplicationTable,
)


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_group(text: str) -> GroupOracle:
    lines = text.splitlines()
    family = None
    generators: list[str] = []
    tables: list[MultiplicationTable] = []
    i = 0
    pending_elements = None
    while i < len(lines):
        line = _strip(lines[i])
        i += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] == "family":
            if family is not None:
                raise ParseError("duplicate family line", line=i)
            if len(parts) != 2:
                raise ParseError("family needs exactly one value", line=i)
            family = parts[1]
        elif parts[0] == "generators":
            generators = parts[1:]
        elif parts[0] == "factor":
            pending_elements = None
        elif parts[0] == "elements":
            pending_elements = parts[1:]
        elif parts[0] == "table":
            if pending_elements is None:
                raise ParseError("table before an elements line", line=i)
            rows = []
            while i < len(lines):
                row = _strip(lines[i])
                i += 1
                if row == "end":
                    break
                if row:
                    rows.append(row.split())
            else:
                raise ParseError("unterminated table (missing 'end')", line=i)
            try:
                tables.append(MultiplicationTable(pending_elements, rows))
            except Exception as exc:
                raise ParseError(str(exc), line=i)
            pending_elements = None
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line=i)

    if family is None:
        raise ParseError("missing family line")
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
    except Exception as exc:
        raise ParseError(str(exc))
    raise ParseError(f"unknown family {family!r}")


def load_group(path: str) -> GroupOracle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group(fh.read())


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
