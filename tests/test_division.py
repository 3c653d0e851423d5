"""Exact right division (scalarfield.div_right) on both backings.

One elimination loop divides PBW elements of the 2x2 quantum matrices and
elements of a rank-3 quantum torus; each test runs on both, drawing its
elements from the strategies of the backing's own tests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.bicharacter import ExpMatrix
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.qtorus import TorusElement
from qcluster.scalarfield import div_right
import test_orealgebra as pbw
import test_qtorus as torus

ELEMENTS = {"pbw": pbw.small_elements, "torus": torus.nonzero}
ONE = {"pbw": pbw.PRES.one(), "torus": torus.one()}
BACKINGS = pytest.mark.parametrize("backing", sorted(ELEMENTS))


@BACKINGS
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_quotients(backing, data):
    a, b = data.draw(ELEMENTS[backing]), data.draw(ELEMENTS[backing])
    assert div_right(a * b, b) == a
    assert div_right(a - a, b).is_zero


@BACKINGS
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_inexact_quotients_raise(backing, data):
    """a * b + 1 = c * b would make b a unit, (c - a) * b = 1; a unit of
    either domain has one term, since leading and lowest terms multiply."""
    a = data.draw(ELEMENTS[backing])
    b = data.draw(ELEMENTS[backing].filter(lambda b: len(b.terms) > 1))
    with pytest.raises(ValueError, match="right division is not exact"):
        div_right(a * b + ONE[backing], b)


@BACKINGS
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_zero_divisor_raises(backing, data):
    a = data.draw(ELEMENTS[backing])
    with pytest.raises(ZeroDivisionError):
        div_right(a, a - a)


OTHER_BASE = ExpMatrix.from_upper(3, {(0, 1): 1, (1, 2): -1})
FOREIGN = {
    "presentations": (pbw.PRES.gen(0), quantum_matrix_preset(1, 4).gen(0)),
    "tori": (torus.Y((1, 0, 0)),
             TorusElement.basis(OTHER_BASE, torus.ROOT, (1, 0, 0))),
    "roots": (torus.Y((1, 0, 0)),
              TorusElement.basis(torus.BASE, 2 * torus.ROOT, (1, 0, 0))),
    "backings": (pbw.PRES.gen(0), torus.Y((1, 0, 0))),
}


@pytest.mark.parametrize("pair", FOREIGN.values(), ids=list(FOREIGN))
def test_elements_of_different_algebras(pair):
    a, b = pair
    assert a != b and not a == b
    if type(a) is not type(b):
        return
    for op in (a.__add__, a.__sub__, a.__mul__, lambda b: div_right(a, b)):
        with pytest.raises(ValueError, match="elements of different algebras"):
            op(b)


def test_torus_quotient_stops_below_the_box():
    """(Y^2 + 1) / (Y + 1) eliminates Y^2 and Y to leave the remainder 2,
    whose quotient key Y^-1 lies below the box, min(a) - min(b) = 0, where
    the Laurent series of the quotient would go on for ever."""
    y = torus.Y((1, 0, 0))
    with pytest.raises(ValueError, match="right division is not exact"):
        div_right(y * y + torus.one(), y + torus.one())
