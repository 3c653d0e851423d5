"""PBW arithmetic in iterated skew polynomial presentations.

The quantum matrix preset doubles as the main fixture: its relations are
known in closed form, so products, normal forms, and division have
independent cross-checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import primeseq
from qcluster.orealgebra import (
    Presentation,
    _CERTIFIED,
    apply_sigma_delta,
    check_cgl,
    leading_term,
    pbw_mul,
    presentation_from_dict,
    quantum_matrix_preset,
    weight_of,
)
from qcluster.primeseq import rescale_generators
from qcluster.scalarfield import Coeff, div_right
from test_cli import serialize

PRES = quantum_matrix_preset(2, 2)
Q = Coeff.q_power(1, PRES.root)

monomials = st.tuples(*[st.integers(0, 2) for _ in range(4)])
small_elements = st.builds(
    lambda ms: PRES.element([(m, 1) for m in ms]),
    st.lists(monomials, min_size=1, max_size=3, unique=True),
)


def test_generator_names_and_eta():
    assert PRES.names == ("t11", "t12", "t21", "t22")
    assert PRES.eta == (0, 1, -1, 0)
    p33 = quantum_matrix_preset(3, 3)
    assert p33.eta == (0, 1, 2, -1, 0, 1, -2, -1, 0)


def test_quantum_matrix_relations():
    a, b, c, d = (PRES.gen(k) for k in range(4))
    # same row / same column pairs q-commute
    assert pbw_mul(a, b) == pbw_mul(b, a).scaled(Q)
    assert pbw_mul(a, c) == pbw_mul(c, a).scaled(Q)
    assert pbw_mul(b, d) == pbw_mul(d, b).scaled(Q)
    assert pbw_mul(c, d) == pbw_mul(d, c).scaled(Q)
    # antidiagonal pair commutes
    assert pbw_mul(b, c) == pbw_mul(c, b)
    # diagonal pair: ad - da = (q - q^-1) bc
    lhs = pbw_mul(a, d) - pbw_mul(d, a)
    assert lhs == pbw_mul(b, c).scaled(Q - Q.inv())


def test_monomial_basis_is_ordered():
    a, d = PRES.gen(0), PRES.gen(3)
    prod = pbw_mul(d, a)
    # normal form rewrites da into ad plus the correction term
    assert prod.terms[(1, 0, 0, 1)] == Coeff.one(PRES.root)
    assert prod.terms[(0, 1, 1, 0)] == -(Q - Q.inv())
    assert PRES.monomial((1, 0, 0, 1), 0) == PRES.zero()
    with pytest.raises(ValueError, match="^exponent tuple has wrong length$"):
        PRES.monomial((1, 0, 0))


def test_reprs_print_the_terms_highest_first():
    x = [PRES.gen(k) for k in range(4)]
    elem = pbw_mul(pbw_mul(x[0], x[0]), x[3]) - x[1].scaled(Q + 1) - x[2] + PRES.one()
    assert repr(elem) == "t11^2*t22 - t21 + (-q - 1)*t12 + 1"
    assert repr(PRES.zero()) == "0" and repr(PRES) == "Presentation(4 generators, root 2)"


def test_a_scalar_multiplies_through_scaled_only():
    """* is the algebra's product: a scalar operand, on either side, is a
    TypeError, and scaled() by zero is the zero element."""
    x = PRES.gen(0)
    for op in (lambda: x * 2, lambda: 2 * x, lambda: x * Q, lambda: Q * x):
        with pytest.raises(TypeError):
            op()
    assert x.scaled(0) == PRES.zero() and x != "x" and not x == "x"


@given(monomials, monomials, monomials)
@settings(max_examples=40, deadline=None)
def test_multiplication_is_associative(f, g, h):
    a, b, c = (PRES.monomial(x) for x in (f, g, h))
    assert pbw_mul(pbw_mul(a, b), c) == pbw_mul(a, pbw_mul(b, c))


@given(monomials, monomials)
@settings(max_examples=40, deadline=None)
def test_leading_exponents_add(f, g):
    prod = pbw_mul(PRES.monomial(f), PRES.monomial(g))
    lt, coeff = leading_term(prod)
    assert lt == tuple(x + y for x, y in zip(f, g))
    assert coeff.is_monomial


@given(small_elements, small_elements)
@settings(max_examples=40, deadline=None)
def test_right_division_inverts_multiplication(a, b):
    assert div_right(pbw_mul(a, b), b) == a


def test_right_division_rejects_inexact():
    with pytest.raises(ValueError):
        div_right(PRES.gen(0), PRES.gen(1))
    with pytest.raises(ZeroDivisionError):
        div_right(PRES.gen(0), PRES.zero())


def test_division_example_with_correction_terms():
    # (t11 t22 - q t12 t21) is the quantum determinant; multiplying by t11
    # and dividing back must return it exactly.
    det = PRES.element([((1, 0, 0, 1), 1), ((0, 1, 1, 0), -Q)])
    assert div_right(pbw_mul(det, PRES.gen(0)), PRES.gen(0)) == det
    assert div_right(pbw_mul(PRES.gen(0), det), det) == PRES.gen(0)


def test_weights():
    assert weight_of(PRES.gen(0)) == (1, 0, -1, 0)
    assert weight_of(PRES.gen(3)) == (0, 1, 0, -1)
    prod = pbw_mul(PRES.gen(0), PRES.gen(3))
    assert weight_of(prod) == (1, 1, -1, -1)
    with pytest.raises(ValueError):
        weight_of(PRES.gen(0) + PRES.gen(1))
    with pytest.raises(ValueError, match="^weight of zero is undefined$"):
        weight_of(PRES.zero())
    with pytest.raises(ValueError, match="^leading term of zero$"):
        leading_term(PRES.zero())


def test_sigma_delta_skew_leibniz():
    """delta_k(ab) = delta_k(a) b + sigma_k(a) delta_k(b)."""
    k = 3
    for fa, fb in (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 1, 0), (1, 0, 0, 0))):
        a, b = PRES.monomial(fa), PRES.monomial(fb)
        sig_a, del_a = apply_sigma_delta(PRES, k, a)
        sig_b, del_b = apply_sigma_delta(PRES, k, b)
        ab = pbw_mul(a, b)
        sig_ab, del_ab = apply_sigma_delta(PRES, k, ab)
        assert sig_ab == pbw_mul(sig_a, sig_b)
        assert del_ab == pbw_mul(del_a, b) + pbw_mul(sig_a, del_b)


def test_sigma_delta_requires_lower_support():
    with pytest.raises(ValueError):
        apply_sigma_delta(PRES, 1, PRES.gen(2))
    with pytest.raises(ValueError, match="^element from a different presentation$"):
        apply_sigma_delta(PRES, 3, quantum_matrix_preset(2, 2).gen(0))


def test_round_trip_through_dict():
    rebuilt = presentation_from_dict(serialize(PRES))
    assert rebuilt.lam == PRES.lam
    assert rebuilt.names == PRES.names
    assert rebuilt.weights == PRES.weights
    for f, g in (((1, 0, 0, 1), (0, 1, 1, 0)), ((0, 0, 1, 2), (2, 1, 0, 0))):
        want = pbw_mul(PRES.monomial(f), PRES.monomial(g))
        got = pbw_mul(rebuilt.monomial(f), rebuilt.monomial(g))
        assert sorted(got.terms.items()) == sorted(want.terms.items())


def test_absent_null_or_empty_delta_means_no_derivations():
    data = serialize(quantum_matrix_preset(1, 3))
    for delta in (None, {}):
        assert presentation_from_dict({**data, "delta": delta}).delta == {}
    del data["delta"]
    assert presentation_from_dict(data).delta == {}


def test_from_dict_rejects_bad_shapes():
    data = serialize(PRES)
    data["lambda"] = [["0", "1"], ["-1", "0"]]
    with pytest.raises(ValueError):
        presentation_from_dict(data)
    for key, value, message in (
        ("root", 0, "root must be a positive integer"),
        ("delta", {"1,1": []}, r"bad derivation key \(1,1\)"),
        ("delta", {"3,0": [[[0, 1, 1], {"0": "1"}]]}, r"bad monomial \(0, 1, 1\) in delta\[3,0\]"),
        ("delta", {"2,0": [[[0, 0, 0, 1], {"0": "1"}]]}, r"delta\[2,0\] monomial \(0, 0, 0, 1\) not supported below 2"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            presentation_from_dict({**serialize(PRES), key: value})
    with pytest.raises(ValueError, match="^matrix shape must be positive$"):
        quantum_matrix_preset(0, 2)
    # the constructor checks what a library caller passes it, too
    with pytest.raises(ValueError, match="^root must be a positive integer$"):
        Presentation(PRES.lam, {}, PRES.weights, PRES.lam_diag, root=0)
    with pytest.raises(ValueError, match="^ragged weight vectors$"):
        Presentation(PRES.lam, {}, [(1, 0), (1,), (0, 1), (0, 1)], PRES.lam_diag)


def test_presets_pass_the_overlap_certificate(monkeypatch):
    """The built-in presets and their rescalings are code, recorded as
    certified by construction, so no request certifies them; this runs the
    whole CGL certificate, the overlap check included, on every shape up to
    5x5 instead of every load."""
    def unexpected(pres):
        raise AssertionError(f"{pres} certified on use")

    monkeypatch.setattr(primeseq, "check_cgl", unexpected)
    presets = [quantum_matrix_preset(m, n) for m in range(1, 6) for n in range(1, 6)]
    rescaled = [rescale_generators(p)[0] for p in map(quantum_matrix_preset, (2, 3), (3, 3))]
    for pres in presets + rescaled:
        assert pres in _CERTIFIED
        check_cgl(pres)


def test_the_preset_proof_premises_hold_up_to_8x8():
    """The premises of the proof in quantum_matrix_preset's docstring, on
    every shape up to 8x8.  Each pair j < k has the commutation exponent
    and the delta term of its own cells in the preset on its rows and
    columns (which raises where a delta monomial leaves them); each delta
    monomial has the rows and columns of its pair, so every h_(r,c) =
    a_r + b_c lies in check_cgl's space V, and delta_k vanishes on it; and
    stage k's h = -[r = r_k] - [c = c_k] meets lam and lambda_diag."""
    small = {}
    for m in range(1, 9):
        for n in range(1, 9):
            pres = quantum_matrix_preset(m, n)
            cells = [divmod(t, n) for t in range(pres.n)]
            for k, (rk, ck) in enumerate(cells):
                h = [-(r == rk) - (c == ck) for r, c in cells]
                assert h[k] == pres.lam_diag[k] == -2
                for j in range(k):
                    (rj, cj) = cells[j]
                    assert h[j] == pres.lam.entry(k, j)
                    rows, cols = sorted({rj, rk}), sorted({cj, ck})
                    shape = (len(rows), len(cols))
                    sub = small.setdefault(shape, quantum_matrix_preset(*shape))
                    local = lambda t: rows.index(cells[t][0]) * len(cols) + cols.index(cells[t][1])
                    assert pres.lam.entry(k, j) == sub.lam.entry(local(k), local(j))
                    terms = [
                        (sorted(local(t) for t, x in enumerate(f) for _ in range(x)), c)
                        for f, c in pres.delta.get((k, j), ())
                    ]
                    want = [
                        ([t for t, x in enumerate(f) for _ in range(x)], c)
                        for f, c in sub.delta.get((local(k), local(j)), ())
                    ]
                    assert terms == want, (m, n, k, j)
                    for f, _ in pres.delta.get((k, j), ()):
                        moved = [cells[t] for t, x in enumerate(f) for _ in range(x)]
                        assert sorted(r for r, _ in moved) == sorted((rj, rk))
                        assert sorted(c for _, c in moved) == sorted((cj, ck))
                        assert not any(x and (k, t) in pres.delta for t, x in enumerate(f))


@pytest.mark.parametrize("e", ["300000", str(10**15), "-1"])
def test_torus_condition_pins_the_diagonal_scalar(e):
    """At the derivation stage 3 of the 2x2 preset the torus element is
    forced, h_3 = h_1 + h_2 - h_0 = -2, so any other lambda_diag[3] is
    rejected at load, before a recursion could invert q^e - 1."""
    data = serialize(PRES)
    data["lambda_diag"][3] = e
    with pytest.raises(ValueError, match=f"^stage 3: torus condition fails: .* h_3 = {e}$"):
        presentation_from_dict(data)


def test_overlap_certificate_names_the_first_failing_triple():
    data = serialize(PRES)
    # x1 (t12) no longer q-commutes with x0 (t11): the overlap (3,1,0) of
    # the derivation delta_3(x0) = -(q - q^-1) x1 x2 no longer resolves
    data["lambda"][0][1], data["lambda"][1][0] = "0", "0"
    with pytest.raises(ValueError, match=r"overlap \(3,1,0\) does not resolve"):
        presentation_from_dict(data)
