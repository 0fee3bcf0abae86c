"""The semidirect-product multitwist model and its commutation checks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralizers import (
    InputError,
    ParseError,
    PermutationAction,
    SemidirectElement,
    build_T,
    commutes,
    parse_action,
    verify_multitwist_commutation,
)
from centralizers import multitwist
from centralizers.groups import MultiplicationTable
from centralizers.multitwist import (
    cyclic_rotation_action,
    group_part,
    is_invariant_vector,
    pure_twist,
    symmetric3_action,
)

ACTION = symmetric3_action()


def elements(action=ACTION):
    return st.builds(
        lambda v, p: SemidirectElement(action, tuple(v), p),
        st.lists(st.integers(-5, 5), min_size=action.family_size,
                 max_size=action.family_size),
        st.integers(0, action.table.order - 1),
    )


@settings(max_examples=80, deadline=None)
@given(x=elements(), y=elements(), z=elements())
def test_semidirect_group_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert (x * x.inverse()).is_identity()
    assert x * group_part(ACTION, 0) == x
    assert group_part(ACTION, 0) * x == x


@settings(max_examples=50, deadline=None)
@given(x=elements(), y=elements())
def test_commutes_symmetric(x, y):
    assert commutes(x, y) == commutes(y, x)


def test_semidirect_multiplication_example():
    rot = cyclic_rotation_action(3)
    g = group_part(rot, 1)  # rotate labels by one step
    tw = pure_twist(rot, (1, 0, 0))
    assert (g * tw).vector == (0, 1, 0)  # conjugation moves the twist
    assert (tw * g).vector == (1, 0, 0)
    assert not commutes(g, tw)


def test_full_multitwist_is_central():
    for action in (cyclic_rotation_action(3), cyclic_rotation_action(4, fixed=1),
                   symmetric3_action()):
        T = build_T(action)
        assert all(
            commutes(T, group_part(action, e)) for e in range(action.table.order)
        )


def test_invariant_vector_characterization():
    rot = cyclic_rotation_action(3)
    assert is_invariant_vector(rot, (2, 2, 2))
    assert not is_invariant_vector(rot, (1, 0, 0))
    rep = verify_multitwist_commutation(rot)
    assert rep.ok and rep.vectors_checked == 5 ** 3
    assert rep.to_record()["characterization_witness"] is None


def test_characterization_catches_a_broken_permute(monkeypatch):
    # with conjugation reduced to the identity every pure twist commutes with
    # H; the invariance side must not go through the same broken _permute
    monkeypatch.setattr(multitwist, "_permute", lambda perm, vector: tuple(vector))
    rep = verify_multitwist_commutation(symmetric3_action())
    assert not rep.characterization_holds
    assert rep.characterization_witness[1] == "commutes-but-not-invariant"
    # the record writes the witness's vector and tuple as JSON lists
    vector, kind = rep.characterization_witness
    record = json.loads(json.dumps(rep.to_record()))
    assert record["characterization_witness"] == [list(vector), kind]


def test_nonfaithful_action():
    # Z/2 acting trivially: every pure twist is central
    table = MultiplicationTable.cyclic(2, "g")
    action = PermutationAction(labels=("x", "y"), table=table,
                               perms=((0, 1), (0, 1)))
    rep = verify_multitwist_commutation(action)
    assert rep.ok and rep.multitwist_central


def cycle_decomposition(action, element):
    """Disjoint cycles covering the family, each starting at its least label."""
    perm = action.perms[element]
    seen = set()
    cycles = []
    for start in range(action.family_size):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur]
        cycles.append(tuple(cycle))
    return cycles


def test_cycle_decomposition():
    rot = cyclic_rotation_action(4, fixed=2)
    assert cycle_decomposition(rot, 1) == [(0, 1, 2, 3), (4,), (5,)]
    assert cycle_decomposition(rot, 2) == [(0, 2), (1, 3), (4,), (5,)]


def test_action_validation():
    table = MultiplicationTable.cyclic(2, "g")
    for labels, perms, message in [
        (("x",), ((0,),), "one permutation per group element is required"),
        # g must act by an involution for the map to be a homomorphism
        (("x", "y", "z"), ((0, 1, 2), (1, 2, 0)), "not a homomorphism"),
        (("x", "x"), ((0, 1), (1, 0)), "curve labels must be distinct"),
        ((), ((), ()), "curve family must be nonempty"),
        (("x", "y"), ((0, 1), (0, 0)), "images of 'g' are not a permutation"),
        (("x", "y"), ((1, 0), (1, 0)), "the identity must act trivially"),
    ]:
        with pytest.raises(InputError) as err:
            PermutationAction(labels=labels, table=table, perms=perms)
        assert str(err.value).startswith(message), labels


def test_semidirect_element_validation():
    action = cyclic_rotation_action(3)
    for vector, part, message in [
        ((0, 0), 0, "exponent vector length must match the curve family"),
        ((0, 0, 0), 3, "group part out of range"),
        ((0, 0, 0), -1, "group part out of range"),
    ]:
        with pytest.raises(InputError, match=message):
            SemidirectElement(action, vector, part)


def test_mixed_action_elements_rejected():
    a1, a2 = cyclic_rotation_action(3), cyclic_rotation_action(3)
    with pytest.raises(InputError):
        group_part(a1, 0) * group_part(a2, 0)


ACTION_TEXT = """
labels x y z
elements 1 g g2
table
1 g g2
g g2 1
g2 1 g
end
perm g x->y y->z z->x
perm g2 x->z y->x z->y
"""


def test_parse_action_round_trip():
    action = parse_action(ACTION_TEXT)
    assert action.labels == ("x", "y", "z")
    assert action.perms[1] == (1, 2, 0)
    assert verify_multitwist_commutation(action).ok


def test_parse_action_unmentioned_labels_fixed():
    text = ACTION_TEXT.replace("perm g2 x->z y->x z->y",
                               "perm g2 x->z z->x")  # y fixed? not a hom
    with pytest.raises(InputError):
        parse_action(text)


def test_parse_action_errors():
    with pytest.raises(ParseError):
        parse_action("labels x\nelements 1\n")  # no table
    with pytest.raises(ParseError):
        parse_action("labels x\ntable\n1\nend\n")  # table before elements
    with pytest.raises(ParseError):
        parse_action(ACTION_TEXT.replace("perm g x->y y->z z->x\n", ""))
    with pytest.raises(ParseError):
        parse_action(ACTION_TEXT.replace("x->y", "x=>y"))
    with pytest.raises(ParseError):
        parse_action(ACTION_TEXT.replace("end\n", ""))
    # a repeated line is rejected at its line, not replaced or blamed on the
    # homomorphism; a table that is not a group is rejected at its end line
    for text, line in [
        (ACTION_TEXT.replace("elements", "labels x y z\nelements"), 3),
        (ACTION_TEXT.replace("table", "elements 1 g g2\ntable"), 4),
        (ACTION_TEXT.replace("perm g x", "perm g x->z y->x z->y\nperm g x"), 10),
        (ACTION_TEXT + "table\n1 g g2\ng g2 1\ng2 1 g\nend\n", 11),
        (ACTION_TEXT.replace("g g2 1\n", "g g2 g2\n"), 8),  # g has no inverse,
        # a bad perm line is rejected at its line
        (ACTION_TEXT.replace("perm g x->y", "perm g x->w"), 9),
        (ACTION_TEXT + "perm h x->y\n", 11),
        # a label mapped twice, which once read as the trivial action
        ("labels x y\nelements 1 g\ntable\n1 g\ng 1\nend\nperm g x->y x->x\n", 7),
    ]:
        with pytest.raises(ParseError) as err:
            parse_action(text)
        assert err.value.line == line
