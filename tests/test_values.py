"""Value semantics of the immutable geometry types: equality and hashing by
their defining fields, whatever spanning sets built them, and no assignment
after construction."""

from functools import cached_property

import pytest

from phangeo.field import make_field
from phangeo.forms import HermitianForm
from phangeo.linalg import Flag, Subspace
from phangeo.phan import PhanFamily, PhanSpec

from conftest import normalized_points

F5 = make_field(5, 1)

# two spanning sets each of the line <e_0> and of F_5^3
SPANNING = {
    "echelon": ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "redundant": ([(2, 0, 0), (3, 0, 0)], [(1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 2, 1)]),
}


def _values(spanning: str) -> dict:
    """A t = 1 spec on F_5^3 with V_1 = <e_0>, and the values it is made of,
    built from one of the spanning sets."""
    line_vectors, top_vectors = SPANNING[spanning]
    line = Subspace.span(F5, 3, line_vectors)
    top = Subspace.span(F5, 3, top_vectors)
    flag = Flag((Subspace.zero(F5, 3), line, top))
    form = HermitianForm(F5, top, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    spec = PhanSpec(flag, (HermitianForm(F5, line, ((1,),)), form))
    return {"Subspace": line, "Flag": flag, "HermitianForm": form, "PhanSpec": spec,
            "PhanFamily": PhanFamily((spec,))}


@pytest.mark.parametrize("kind", ["Subspace", "Flag", "HermitianForm", "PhanSpec",
                                  "PhanFamily"])
def test_equal_values_from_different_spanning_sets(kind):
    a = _values("echelon")[kind]
    b = _values("redundant")[kind]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert a != object()


def test_unequal_values_differ():
    line = Subspace.span(F5, 3, [(1, 0, 0)])
    assert line != Subspace.span(F5, 3, [(0, 1, 0)])
    assert line != Subspace.span(make_field(7, 1), 3, [(1, 0, 0)])
    top = Subspace.full(F5, 3)
    assert (HermitianForm(F5, top, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
            != HermitianForm(F5, top, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_values_are_immutable():
    values = _values("echelon")
    fields = {"Subspace": ("field", "ambient", "basis", "point_mask"),
              "Flag": ("members",), "HermitianForm": ("field", "domain", "gram"),
              "PhanSpec": ("flag", "forms"),
              "PhanFamily": ("specs",)}
    for kind, names in fields.items():
        value = values[kind]
        for name in names + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(value, name)
    line = values["Subspace"]
    bit = normalized_points(F5, 3).index((1, 0, 0))
    assert line.basis == ((1, 0, 0),) and line.point_mask == 1 << bit


def test_point_mask_is_computed_once():
    assert isinstance(vars(Subspace)["point_mask"], cached_property)
    s = Subspace.span(F5, 3, [(1, 2, 0), (0, 0, 1)])
    assert "point_mask" not in vars(s)
    mask = s.point_mask
    assert vars(s)["point_mask"] == mask and mask.bit_count() == 6
