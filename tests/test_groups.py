"""Normal forms, group axioms, subgroup checks, and ball construction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    BudgetError,
    ClosureError,
    GroupElement,
    GroupOracle,
    InputError,
    MultiplicationTable,
    build_ball,
    builtin_group,
    parse_group,
    verify_subgroup,
)
from centralizers.groupfile import BUILTIN_NAMES
from centralizers.groups import inverse_name
from reference import distances, exact


def words(oracle, max_size=8):
    symbols = st.sampled_from(oracle.symbols)
    return st.lists(symbols, max_size=max_size).map(oracle.normalize)


# --- normal forms -----------------------------------------------------------

def test_free_reduction(f2):
    assert str(f2.parse("a*a^-1")) == "1"
    assert str(f2.parse("a*b*b^-1*a")) == "a*a"
    assert str(f2.parse("b^-1*a*a^-1*b")) == "1"
    assert f2.length(f2.parse("a*b*a^-1")) == 3


def test_free_product_syllables(z2z3):
    assert str(z2z3.parse("r*r")) == "1"
    assert str(z2z3.parse("s*s*s")) == "1"
    assert str(z2z3.parse("s*s")) == "s2"
    # junction collapse propagates: r s s2 r = r r = 1
    assert str(z2z3.parse("r*s*s2*r")) == "1"
    assert str(z2z3.parse("r*s*r*s")) == "r*s*r*s"


def test_direct_product_central_factor(f2xz2):
    x = f2xz2.parse("a*t*b*t")
    assert str(x) == "a*b"  # t^2 = 1 and t is central
    assert str(f2xz2.parse("t*a")) == "a*t"
    assert f2xz2.length(f2xz2.parse("a*t")) == 2


def test_elements_are_slotted_tuples(f2xz2):
    x = f2xz2.parse("b^-1*a*t")
    y = f2xz2.multiply(f2xz2.parse("b^-1"), f2xz2.parse("a*t"))
    assert not hasattr(x, "__dict__")
    assert x == y and hash(x) == hash(y) and x is not y
    assert isinstance(x, tuple) and tuple(x) == ("b^-1", "a", "t")
    assert str(x) == "b^-1*a*t" and str(f2xz2.identity) == "1"
    assert f2xz2.identity.is_identity() and not x.is_identity()


def test_finite_oracle_table():
    oracle = GroupOracle("finite", tables=[MultiplicationTable.cyclic(4, "g")])
    g = oracle.parse("g")
    assert str(oracle.multiply(g, g)) == "g2"
    assert oracle.multiply(oracle.parse("g3"), g).is_identity()
    assert str(oracle.invert(g)) == "g3"


def test_parse_rejects_unknown_symbol(f2, f2xz2, z2z3):
    with pytest.raises(InputError):
        f2.parse("a*q")
    with pytest.raises(InputError):
        f2xz2.parse("t*a*q")  # the direct product checks its symbols once, up front
    with pytest.raises(InputError):
        z2z3.parse("s*q")
    with pytest.raises(InputError):
        GroupOracle("finite", tables=[MultiplicationTable.cyclic(3, "u")]).parse("u*q")
    # multiply and invert skip the check, but a subgroup's words are
    # normalized, and so checked, on the way in
    with pytest.raises(InputError):
        verify_subgroup(f2, {f2.identity, GroupElement(("q",))})


def test_family_parts_are_checked():
    with pytest.raises(InputError, match="unknown family"):
        GroupOracle("bogus")
    with pytest.raises(InputError, match="needs a generators line"):
        GroupOracle("free")


@pytest.mark.parametrize("symbol", ["1", "a*b", "a,b", "a b", ""])
def test_symbols_the_word_syntax_cannot_spell(symbol):
    # words print their letters joined by "*", the identity as "1", and
    # --subgroup splits on ","
    with pytest.raises(InputError, match="cannot be spelled in a word"):
        GroupOracle("free", [symbol])
    table = MultiplicationTable(["e", symbol], [["e", symbol], [symbol, "e"]])
    with pytest.raises(InputError, match="cannot be spelled in a word"):
        GroupOracle("finite", tables=[table])


# --- seam arithmetic against the normal-form reference -----------------------

def _table_text(names, product):
    rows = [" ".join(names[product(i, j)] for j in range(len(names)))
            for i in range(len(names))]
    return "elements " + " ".join(names) + "\ntable\n" + "\n".join(rows) + "\nend\n"


def _s3(prefix):
    # S3 as permutations of three points, identity first; not abelian
    perms = list(itertools.permutations(range(3)))
    names = ["1"] + [f"{prefix}{i}" for i in range(1, 6)]

    def product(i, j):
        return perms.index(tuple(perms[i][perms[j][k]] for k in range(3)))

    return names, product


def _s3_text(prefix):
    return _table_text(*_s3(prefix))


GROUP_FILES = {
    "S3": "family finite\n" + _s3_text("c"),
    "S3*Z2": ("family free_product\nfactor\n" + _s3_text("c")
              + "factor\n" + _table_text(["1", "r"], lambda i, j: (i + j) % 2)),
    "F2xS3": "family direct_product\ngenerators a b\nfactor\n" + _s3_text("c"),
}


def family(name):
    return builtin_group(name) if name in BUILTIN_NAMES else parse_group(GROUP_FILES[name])


def test_group_files_are_non_abelian():
    for name in GROUP_FILES:
        oracle = family(name)
        c1, c3 = oracle.parse("c1"), oracle.parse("c3")
        assert oracle.multiply(c1, c3) != oracle.multiply(c3, c1)


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(GROUP_FILES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_seam_arithmetic_matches_normal_form(name, data):
    oracle = family(name)
    inv = oracle.inverse
    x = data.draw(words(oracle))
    x_inv = tuple(inv[s] for s in reversed(x))
    # y starts with k letters of x^-1, so up to all of x cancels at the seam
    k = data.draw(st.integers(0, len(x_inv)))
    tail = data.draw(st.lists(st.sampled_from(oracle.symbols), max_size=6))
    y = oracle.normalize(x_inv[:k] + tuple(tail))
    assert oracle.multiply(x, y) == oracle._normal_form(x + y)
    assert oracle.multiply(y, x) == oracle._normal_form(y + x)
    assert oracle.invert(x) == oracle._normal_form(x_inv)
    assert oracle.multiply(x, oracle.invert(x)) == oracle.identity
    assert oracle.multiply(x, oracle.identity) == x == oracle.multiply(oracle.identity, x)
    assert oracle.invert(oracle.identity) == oracle.identity


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(GROUP_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printed_words_parse_back(name, data):
    oracle = family(name)
    w = data.draw(words(oracle))
    assert oracle.parse(str(w)) == w and "," not in str(w)


# --- normalize against a naive rewrite ---------------------------------------

def _s3_table(prefix):
    names, product = _s3(prefix)
    return MultiplicationTable(names, [[names[product(i, j)] for j in range(6)]
                                       for i in range(6)])


# each family as (F_k * A_1 * ... * A_m) x B: (generators, factors A_i, B)
PARTS = {
    "F1": (("a",), (), None),
    "F2": (("a", "b"), (), None),
    "F2xZ2": (("a", "b"), (), MultiplicationTable.cyclic(2, "t")),
    "F2xZ3": (("a", "b"), (), MultiplicationTable.cyclic(3, "u")),
    "Z2*Z2": ((), (MultiplicationTable.cyclic(2, "r"),
                   MultiplicationTable.cyclic(2, "s")), None),
    "Z2*Z3": ((), (MultiplicationTable.cyclic(2, "r"),
                   MultiplicationTable.cyclic(3, "s")), None),
    "S3": ((), (_s3_table("c"),), None),
    "S3*Z2": ((), (_s3_table("c"), MultiplicationTable.cyclic(2, "r")), None),
    "F2xS3": (("a", "b"), (), _s3_table("c")),
}


def naive_normal_form(parts, raw):
    """Rewrite until nothing changes: cancel a free letter against its
    inverse, multiply two adjacent letters of one finite table, and move a
    letter of the central factor B right past any other letter."""
    generators, factors, center = parts
    tables = factors + ((center,) if center else ())
    free = {s for g in generators for s in (g, inverse_name(g))}
    where = {name: (t, i) for t in tables for i, name in enumerate(t.names) if i}
    central = set(center.names[1:]) if center else set()
    w = list(raw)
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a in free:
                if b == inverse_name(a):
                    w[k:k + 2] = []
                    changed = True
            elif a in central and b not in central:
                w[k:k + 2] = [b, a]
                changed = True
            elif b in where and where[a][0] is where[b][0]:
                t, i = where[a]
                p = t.mult(i, where[b][1])
                w[k:k + 2] = [t.names[p]] if p else []
                changed = True
            if changed:
                break
    return tuple(w)


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(GROUP_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_normalize_matches_naive_rewrite(name, data):
    oracle, parts = family(name), PARTS[name]
    generators, factors, center = parts
    # the alphabet order: generators and inverses, factor names, then B's
    tables = factors + ((center,) if center else ())
    assert oracle.symbols == tuple(
        [s for g in generators for s in (g, inverse_name(g))]
        + [s for t in tables for s in t.names[1:]])
    letters = st.sampled_from(oracle.symbols)
    if center:  # draw B's letters often, anywhere in the word
        letters = st.one_of(letters, st.sampled_from(center.names[1:]))
    raw = data.draw(st.lists(letters, max_size=12))
    assert oracle.normalize(raw) == naive_normal_form(parts, raw)


def test_central_letters_keep_their_order():
    oracle = family("F2xS3")
    a, c1, c3 = (oracle.parse(s) for s in ("a", "c1", "c3"))
    assert oracle.parse("c1*a*c3") == oracle.multiply(a, oracle.multiply(c1, c3))
    assert oracle.parse("c1*a*c3") != oracle.multiply(a, oracle.multiply(c3, c1))


# --- group axioms (property-based) ------------------------------------------

@pytest.mark.parametrize("name", ["F2", "F2xZ3", "Z2*Z3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_axioms(name, data):
    oracle = builtin_group(name)
    x = data.draw(words(oracle))
    y = data.draw(words(oracle))
    z = data.draw(words(oracle))
    # associativity, inverses, identity
    assert oracle.multiply(oracle.multiply(x, y), z) == oracle.multiply(
        x, oracle.multiply(y, z)
    )
    assert oracle.multiply(x, oracle.invert(x)).is_identity()
    # a product by the identity is the other factor itself, not a copy
    assert oracle.multiply(x, oracle.identity) is x
    assert oracle.multiply(oracle.identity, x) is x
    # normalize is idempotent and length is the word length
    assert oracle.normalize(x) == x
    assert oracle.length(x) == len(x)


@pytest.mark.parametrize("name", ["F2", "F2xZ2", "Z2*Z2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_word_metric_axioms(name, data):
    oracle = builtin_group(name)
    u = data.draw(words(oracle, 5))
    v = data.draw(words(oracle, 5))
    w = data.draw(words(oracle, 5))
    assert oracle.distance(u, v) == oracle.distance(v, u)
    assert (oracle.distance(u, v) == 0) == (u == v)
    assert oracle.distance(u, w) <= oracle.distance(u, v) + oracle.distance(v, w)
    # right-invariance: d(ug, vg) = d(u, v)
    g = data.draw(words(oracle, 3))
    assert oracle.distance(oracle.multiply(u, g), oracle.multiply(v, g)) == oracle.distance(u, v)


# --- tables and subgroups ----------------------------------------------------

def test_bad_table_rejected():
    for names, rows, message in [
        (["1", "x"], [["1", "x"], ["x", "x"]], "element 'x' has no inverse"),
        (["1", "x", "x"], [["1"]], "duplicate element names"),
        (["1", "x"], [["1", "x"]], "multiplication table is not square"),
        (["1", "x"], [["1", "x"], ["x"]], "multiplication table is not square"),
        (["1", "x"], [["1", "x"], ["x", "y"]], "table entry 'y' is not an element"),
        (["1", "x"], [["x", "1"], ["1", "x"]], "'1' is not an identity in the table"),
        # every element has an inverse, but (a*b)*b = 1 and a*(b*b) = a
        (["1", "a", "b"], [["1", "a", "b"], ["a", "1", "b"], ["b", "b", "1"]],
         "table is not associative at (a, b, b)"),
    ]:
        with pytest.raises(InputError) as err:
            MultiplicationTable(names, rows)
        assert str(err.value).startswith(message), names


def test_verify_subgroup(f2xz2, z2z3):
    t = f2xz2.parse("t")
    sub = verify_subgroup(f2xz2, {f2xz2.identity, t})
    assert sub.order == 2
    with pytest.raises(ClosureError):
        verify_subgroup(z2z3, {z2z3.identity, z2z3.parse("s")})  # missing s2
    with pytest.raises(InputError):
        verify_subgroup(f2xz2, {t})  # identity missing


def test_conjugate_subgroup(z2z3):
    w = z2z3.parse("s*r*s*s")
    sub = verify_subgroup(z2z3, {z2z3.identity, w})
    assert sub.order == 2


# --- Cayley balls -------------------------------------------------------------

def free_ball_size(radius):
    # |B(R)| in F2: 1 + 4 * (3^R - 1) / 2
    return 2 * 3 ** radius - 1 if radius else 1


@pytest.mark.parametrize("radius", range(5))
def test_f2_ball_sizes(f2, radius):
    assert build_ball(f2, radius).size == free_ball_size(radius)


def test_product_ball_sizes(f2xz2, f2xz3):
    # central Z/m factor multiplies in (m-1) copies of the next smaller ball
    assert build_ball(f2xz2, 3).size == free_ball_size(3) + free_ball_size(2)
    assert build_ball(f2xz3, 3).size == free_ball_size(3) + 2 * free_ball_size(2)


def test_free_product_ball_sizes(z2z2, z2z3):
    assert build_ball(z2z2, 3).size == 7  # D_inf: 2R + 1
    assert [build_ball(z2z3, r).size for r in (4, 5, 6)] == [22, 34, 50]


def test_ball_lengths_match_bfs(z2z3):
    ball = build_ball(z2z3, 5)
    depths = distances(ball.adjacency, 0)
    assert list(ball.lengths) == depths


def test_ball_vertices_are_distinct_normal_forms(f2xz3):
    ball = build_ball(f2xz3, 3)
    keys = {f2xz3.key(v) for v in ball.vertices}
    assert len(keys) == ball.size
    assert all(f2xz3.normalize(v) == v for v in ball.vertices)


def test_word_metric_matches_ball_bfs(f2xz2):
    # exact check: for pairs within the validity window the oracle distance
    # equals BFS distance inside the ball
    ball = build_ball(f2xz2, 4)
    for u in range(0, ball.size, 7):
        dist = distances(ball.adjacency, u)
        for v in range(0, ball.size, 11):
            d = f2xz2.distance(ball.vertices[u], ball.vertices[v])
            if exact(ball, u, v, d):
                assert dist[v] == d


def two_pass_ball(oracle, radius):
    """The reference: BFS discovery, then a second product per adjacency."""
    gens = [GroupElement((s,)) for s in oracle.symbols]
    vertices, index, lengths = [oracle.identity], {oracle.identity: 0}, [0]
    frontier = [oracle.identity]
    depth = 0
    while depth < radius and frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = oracle.multiply(g, v)
                if w not in index:
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
    return tuple(vertices), index, tuple(lengths), tuple(adjacency)


@pytest.mark.parametrize("name,radius", [
    ("F2", 5), ("F2xZ2", 5), ("F2xZ3", 4), ("Z2*Z3", 10), ("Z2*Z2", 8),
    ("S3*Z2", 5), ("F2xS3", 2), ("S3", 4), ("F2", 0), ("Z2*Z3", 0),
])
def test_one_pass_ball_matches_two_pass(name, radius):
    oracle = family(name)
    ball = build_ball(oracle, radius)
    assert (ball.vertices, ball.index, ball.lengths, ball.adjacency) == two_pass_ball(
        oracle, radius)


@pytest.mark.parametrize("name", BUILTIN_NAMES + tuple(GROUP_FILES))
@settings(max_examples=10, deadline=None)
@given(radius=st.integers(0, 4))
def test_step_table_matches_oracle(name, radius):
    # every entry is the oracle's s*v looked up in the ball, -1 outside it
    oracle = family(name)
    ball = build_ball(oracle, radius)
    assert len(ball.step) == len(oracle.symbols)
    for s, row in zip(oracle.symbols, ball.step):
        g = GroupElement((s,))
        assert list(row) == [ball.index.get(oracle.multiply(g, v), -1) for v in ball.vertices]


def test_ball_budget(f2):
    with pytest.raises(BudgetError) as err:
        build_ball(f2, 9, budget=100)
    assert err.value.radius_reached < 9


def test_ball_holds_step_as_its_one_edge_table(f2xz2):
    # size reads the vertices and not the adjacency, which is derived from the
    # step table when first read, and kept
    ball = build_ball(f2xz2, 3)
    assert ball.size == ball.n == len(ball.vertices)
    assert "adjacency" not in vars(ball)
    assert ball.adjacency is ball.adjacency
    assert "adjacency" in vars(ball)
    with pytest.raises(AttributeError):
        ball.missing


def test_adjacency_is_sorted_and_symmetric(z2z3):
    ball = build_ball(z2z3, 4)
    for u, nbrs in enumerate(ball.adjacency):
        assert list(nbrs) == sorted(nbrs)
        assert u not in nbrs
        for v in nbrs:
            assert u in ball.adjacency[v]
