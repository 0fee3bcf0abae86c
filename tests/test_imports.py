"""Every module reads each name it imports."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "centralizers")
TESTS = os.path.join(ROOT, "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads.

    ``__future__`` imports bind nothing to read, and a dotted ``import a.b``
    binds ``a``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def modules():
    for folder, skip in ((PACKAGE, "__init__.py"), (TESTS, None)):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py") and name != skip:
                yield os.path.join(folder, name)


def test_scan_sees_plain_dotted_aliased_and_from_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import gcd, lcm\nx: gcd = os.path.join(j.dumps(1))\n")
    assert unused_imports(source) == ["lcm"]


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for path in modules():
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}
