"""Group definition files and the built-in family registry."""

import pytest

from centralizers import ParseError, parse_group
from centralizers.groupfile import BUILTIN_NAMES, builtin_group, load_group

FREE_TEXT = """
family free
generators a b
"""

FINITE_TEXT = """
family finite
elements 1 r    # first name is the identity
table
1 r
r 1
end
"""

FREE_PRODUCT_TEXT = """
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
"""

DIRECT_PRODUCT_TEXT = """
family direct_product
generators a b
factor
elements 1 t
table
1 t
t 1
end
"""

Z2_FACTOR = "factor\nelements 1 {0}\ntable\n1 {0}\n{0} 1\nend\n"


def test_parse_free():
    oracle = parse_group(FREE_TEXT)
    assert oracle.family == "free"
    assert str(oracle.parse("a*b^-1*b")) == "a"


def test_parse_finite():
    oracle = parse_group(FINITE_TEXT)
    assert oracle.multiply(oracle.parse("r"), oracle.parse("r")).is_identity()


def test_parse_free_product(z2z3):
    oracle = parse_group(FREE_PRODUCT_TEXT)
    w = "r*s*r*s2"
    assert str(oracle.parse(w)) == str(z2z3.parse(w))


def test_parse_direct_product(f2xz2):
    oracle = parse_group(DIRECT_PRODUCT_TEXT)
    assert str(oracle.parse("t*a*t")) == str(f2xz2.parse("t*a*t")) == "a"


def test_load_group(tmp_path):
    path = tmp_path / "group.txt"
    path.write_text(FREE_PRODUCT_TEXT)
    assert load_group(str(path)).family == "free_product"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("generators a\n", "missing family"),
        ("family free\nfamily free\ngenerators a\n", "duplicate"),
        ("family bogus\ngenerators a\n", "unknown family"),
        ("family free\n", "needs a generators line"),
        ("family finite\n", "exactly one table"),
        ("family free\nwhatever a\n", "unknown directive"),
        ("family finite\ntable\n1\nend\n", "table before"),
        ("family finite\nelements 1 r\ntable\n1 r\nr 1\n", "unterminated"),
        ("family finite\nelements 1 r\ntable\n1 r\nr r\nend\n", ""),
        # a line the family has no use for is rejected, not dropped
        (FREE_TEXT + "elements 1 r\ntable\n1 r\nr 1\nend\n",
         "line 4: the free family takes no elements line"),
        (FINITE_TEXT + "generators a\n", "line 8: the finite family takes no generators line"),
        (FREE_PRODUCT_TEXT.replace("factor", "generators a\nfactor", 1),
         "line 3: the free_product family takes no generators line"),
        (DIRECT_PRODUCT_TEXT.replace("family", "generators c\nfamily"),
         "line 4: duplicate generators line"),
        # parts that do not fit the family
        ("family free_product\n" + Z2_FACTOR.format("r"), "takes at least two tables, not 1"),
        (DIRECT_PRODUCT_TEXT + Z2_FACTOR.format("s"), "takes exactly one table, not 2"),
        ("family free_product\n" + 2 * Z2_FACTOR.format("r"), "duplicate symbols"),
        ("family free\ngenerators a a^-1\n", "duplicate symbols"),
        ("family free extra\ngenerators a\n", "line 1: family needs exactly one value"),
        # an elements line that no table follows is rejected, not dropped
        ("family free_product\nfactor\nelements 1 r\n" + Z2_FACTOR.format("s")
         + Z2_FACTOR.format("u"), "line 3: elements line with no table after it"),
        (FINITE_TEXT + "elements 1 x y\n", "line 8: elements line with no table after it"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_group(text)
    assert fragment in str(err.value)


def test_builtins():
    for name in BUILTIN_NAMES:
        oracle = builtin_group(name)
        assert oracle.identity.is_identity()
    assert builtin_group("D_inf").family == builtin_group("Z2*Z2").family
    with pytest.raises(ParseError):
        builtin_group("F3xQ8")
