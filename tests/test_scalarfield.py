"""Field arithmetic for q-powers and rational coefficients."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.scalarfield import _UNIT, Coeff, _div_laurent, _poly_str, coeff_div
from oracles import poly_str, quotient_by_inverse

ROOT = 2

exponents = st.fractions(
    min_value=-4, max_value=4, max_denominator=ROOT
)


def laurent(pairs):
    return Coeff(ROOT, {k: Fraction(v) for k, v in pairs})


coeffs = st.builds(
    laurent,
    st.lists(
        st.tuples(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3)),
        max_size=3,
    ),
)
nonzero_coeffs = coeffs.filter(lambda c: not c.is_zero)


@given(exponents, exponents)
def test_q_power_is_a_homomorphism(a, b):
    qa = Coeff.q_power(a, ROOT)
    qb = Coeff.q_power(b, ROOT)
    assert qa * qb == Coeff.q_power(a + b, ROOT)
    assert qa.q_exponent() == a and isinstance(qa.q_exponent(), Fraction)


def test_q_power_rejects_bad_denominator():
    with pytest.raises(ValueError):
        Coeff.q_power(Fraction(1, 3), ROOT)


def test_coeff_constructors():
    one = Coeff.one(ROOT)
    assert one.is_one and not one.is_zero
    assert Coeff.zero(ROOT).is_zero
    assert Coeff.from_fraction(Fraction(2, 3), ROOT) * 3 == 2
    # normalization: (2u)/(2) reduces to u, and a negative denominator
    # moves its sign and content into the numerator
    assert Coeff(ROOT, {1: 2}, {0: 2}) == Coeff(ROOT, {1: 1})
    assert hash(Coeff(ROOT, {1: 2}, {0: 2})) == hash(Coeff(ROOT, {1: 1}))
    assert Coeff(ROOT, {1: 2}, {0: -4}) == Coeff(ROOT, {1: "-1/2"})


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Coeff.zero(ROOT)
    assert a * Coeff.one(ROOT) == a


@given(nonzero_coeffs, nonzero_coeffs)
@settings(max_examples=60)
def test_exact_division(a, b):
    assert coeff_div(a, b) * b == a
    assert (a / b) * b == a
    assert b.inv() * b == Coeff.one(ROOT)


@given(nonzero_coeffs, st.integers(-3, 3))
@settings(max_examples=40)
def test_integer_powers(a, m):
    prod = Coeff.one(ROOT)
    base = a if m >= 0 else a.inv()
    for _ in range(abs(m)):
        prod = prod * base
    assert a ** m == prod


def test_denominators_normalize():
    # (q^2 - 1)/(q - 1) = q + 1, all through u = q^(1/2)
    num = Coeff(ROOT, {4: 1, 0: -1})
    den = Coeff(ROOT, {2: 1, 0: -1})
    q = Coeff.q_power(1, ROOT)
    assert num / den == q + 1
    assert (num / den).is_laurent


def test_repr_is_stable():
    q = Coeff.q_power(1, ROOT)
    assert repr(q) == "q"
    assert repr(q ** 2 - 1) == "q^2 - 1"
    assert repr(-q + q.inv()) == "-q + q^-1"
    assert repr(Coeff.q_power(Fraction(1, 2), ROOT)) == "q^(1/2)"
    assert repr(Coeff.zero(ROOT)) == "0"


def test_monomial_predicates():
    q = Coeff.q_power(1, ROOT)
    assert q.is_monomial
    assert not (q + 1).is_monomial
    with pytest.raises(ValueError):
        (q + 1).q_exponent()


@given(st.fractions(max_denominator=50), st.integers(1, 6))
def test_a_constant_hashes_as_its_value(c, root):
    """A zero or constant Coeff equals its Fraction value, so the two hash
    alike and a set or dict key holds them once."""
    k = Coeff.from_fraction(c, root)
    assert k == c and hash(k) == hash(c)
    assert len({k, c}) == 1
    assert len({Coeff.one(2), 1}) == len({Coeff.zero(2), 0}) == 1
    assert {Coeff.from_fraction(Fraction(1, 2), 2): "half"}[Fraction(1, 2)] == "half"
    q = Coeff.q_power(1, root)
    assert hash((q + c) - q) == hash(c)
    assert len({q, q * 1, Coeff.q_power(1, root)}) == 1


def test_mixed_roots_rejected():
    with pytest.raises(ValueError):
        Coeff.one(2) + Coeff.one(4)


# -- oracle: a miniature of the dict-of-Fraction Coeff the integer form
# replaced.  Its normal form has den(0) = 1; the integer form has den(0) > 0
# and integer coefficients with gcd 1, so the two agree after dividing the
# integer form by den(0).


def _ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def _ref_mul(a, b):
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out = _ref_add(out, {ka + kb: va * vb})
    return out


def _ref_divmod(a, b):
    db = max(b)
    rem, quo = dict(a), {}
    while rem and max(rem) >= db:
        dr = max(rem)
        c = quo[dr - db] = rem[dr] / b[db]
        rem = _ref_add(rem, {dr - db + k: -c * v for k, v in b.items()})
    return quo, rem


def _ref_normalize(num, den):
    if not num:
        return {}, {0: Fraction(1)}
    vn, vd = min(num), min(den)
    n = {k - vn: v for k, v in num.items()}
    d = {k - vd: v for k, v in den.items()}
    a, b = n, d
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    n, d = _ref_divmod(n, a)[0], _ref_divmod(d, a)[0]
    c = d[0]
    return {k + vn - vd: v / c for k, v in n.items()}, {k: v / c for k, v in d.items()}


class RefCoeff:
    def __init__(self, num, den=None):
        num = {k: Fraction(v) for k, v in num.items() if v}
        den = {k: Fraction(v) for k, v in (den or {0: 1}).items() if v}
        self.num, self.den = _ref_normalize(num, den)

    def __add__(self, o):
        return RefCoeff(
            _ref_add(_ref_mul(self.num, o.den), _ref_mul(o.num, self.den)),
            _ref_mul(self.den, o.den),
        )

    def __neg__(self):
        return RefCoeff({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RefCoeff(_ref_mul(self.num, o.num), _ref_mul(self.den, o.den))

    def __truediv__(self, o):
        return RefCoeff(_ref_mul(self.num, o.den), _ref_mul(self.den, o.num))

    def inv(self):
        return RefCoeff({0: 1}) / self

    def __pow__(self, m):
        out = RefCoeff({0: 1})
        for _ in range(abs(m)):
            out = out * (self if m > 0 else self.inv())
        return out

    def __repr__(self):
        if not self.num:
            return "0"
        num = _ref_poly_str(self.num)
        if self.den == {0: 1}:
            return num
        return f"({num})/({_ref_poly_str(self.den)})"


def _ref_poly_str(p):
    parts = []
    for k in sorted(p, reverse=True):
        v, e = p[k], Fraction(k, ROOT)
        mono = "q" if e == 1 else f"q^({e})" if e.denominator != 1 else f"q^{e}"
        if e == 0:
            parts.append(str(v))
        else:
            parts.append(mono if v == 1 else f"-{mono}" if v == -1 else f"{v}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def agrees(c, r):
    """c is in the integer normal form, and equals r in the old one."""
    d = c.den[0]
    assert min(c.den) == 0 and d > 0
    assert all(type(v) is int for v in [*c.num.values(), *c.den.values()])
    if c.num:
        assert gcd(*c.num.values(), *c.den.values()) == 1
    assert {k: Fraction(v, d) for k, v in c.num.items()} == r.num
    assert {k: Fraction(v, d) for k, v in c.den.items()} == r.den
    assert repr(c) == repr(r)
    return True


poly_terms = st.lists(
    st.tuples(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    max_size=3,
)
den_terms = st.lists(
    st.tuples(st.integers(0, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    min_size=1,
    max_size=3,
).filter(lambda ts: any(v for _, v in ts))


@st.composite
def paired(draw, laurent):
    """The same element of Q(u) as a Coeff and as a RefCoeff."""
    num = {}
    for k, v in draw(poly_terms):
        num[k] = num.get(k, 0) + v
    den = {0: draw(st.fractions(min_value=1, max_value=6, max_denominator=3))}
    if not laurent:
        den = {}
        for k, v in draw(den_terms):
            den[k] = den.get(k, 0) + v
        if not any(den.values()):
            den = {0: 1}
    return Coeff(ROOT, num, den), RefCoeff(num, den)


pairs = st.one_of(paired(True), paired(False))


@given(pairs, pairs)
@settings(max_examples=150, deadline=None)
def test_coeff_matches_fraction_reference(x, y):
    (a, ra), (b, rb) = x, y
    agrees(a, ra)
    agrees(a + b, ra + rb)
    agrees(a - b, ra - rb)
    agrees(a * b, ra * rb)
    agrees(-a, -ra)
    if not b.is_zero:
        agrees(a / b, ra / rb)
        agrees(b.inv(), rb.inv())
        agrees(b ** -2, rb ** -2)
    agrees(a ** 3, ra ** 3)


@given(pairs, pairs)
@settings(max_examples=60, deadline=None)
def test_normal_form_across_routes(x, y):
    (a, _), (b, _) = x, y
    if not b.is_zero:
        back = (a * b) / b
        assert back == a and hash(back) == hash(a)
        back = (a / b) * b
        assert back == a and hash(back) == hash(a)


def test_rational_content_example():
    # (2u + 1)/(3u - 6): content and sign go into the denominator's form
    c = Coeff(ROOT, {1: 2, 0: 1}, {1: 3, 0: -6})
    assert c.num == {1: -2, 0: -1} and c.den == {1: -3, 0: 6}
    assert repr(c) == "(-1/3*q^(1/2) - 1/6)/(-1/2*q^(1/2) + 1)"
    assert c * Coeff(ROOT, {1: 3, 0: -6}) == Coeff(ROOT, {1: 2, 0: 1})


@given(pairs)
@settings(max_examples=40)
def test_unit_product_is_the_other_factor(x):
    c, _ = x
    one = Coeff.one(ROOT)
    assert c * one is c
    assert one * c is c
    assert c * Coeff.from_fraction(1, ROOT) is c
    assert c * Coeff.q_power(0, ROOT) is c


def _random_poly(rng, span):
    """A seeded sparse polynomial with exponents in -span..span and nonzero
    rational values, most of them +-1, +-2 over 1, 2 or 3."""
    return {
        rng.randint(-span, span): Fraction(rng.choice((-2, -1, 1, 2)) * rng.randint(1, 3),
                                           rng.randint(1, 3))
        for _ in range(rng.randint(1, 4))
    }


def test_poly_str_matches_the_fraction_route():
    """_poly_str formats integers, reducing each value and exponent with
    gcd; the oracle, its earlier form, builds two Fractions per term.  The
    seeded Coeffs have roots 1-12, negative exponents, a constant
    denominator d != 1 or one that is not constant."""
    rng = random.Random(26)
    seen = set()
    for _ in range(600):
        root = rng.randint(1, 12)
        c = Coeff(root, _random_poly(rng, 3 * root),
                  _random_poly(rng, 2) if rng.random() < 0.3 else None)
        d = c.den[0]
        seen.add((c.is_laurent, d != 1))
        for p in (c.num, c.den):
            assert _poly_str(p, root, d) == poly_str(p, root, d), (c.num, c.den, root)
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_div_laurent_matches_the_inverse_route():
    """_div_laurent divides by a binomial s = u^(a+l) - u^a with one exact
    _pdivmod; the oracle multiplies by s^-1 and reduces through a gcd.
    Seeded numerators are divided as drawn (s rarely divides them), times
    s (it always does), and over a denominator that is not constant (the
    quotient is never Laurent): a quotient is refused (None) exactly when
    the oracle's is not Laurent, and is otherwise the oracle's."""
    rng = random.Random(26)
    refused = accepted = 0
    for _ in range(300):
        root = rng.randint(1, 6)
        a, l = rng.randint(-6, 6), rng.choice((-3, -2, -1, 1, 2, 3)) * rng.randint(1, 2)
        s = {a + l: 1, a: -1}
        n = Coeff(root, _random_poly(rng, 6))
        for c in (n, n * Coeff(root, s), n / Coeff(root, {0: 1, rng.randint(1, 3): 1})):
            got, want = _div_laurent(c, s), quotient_by_inverse(c, s)
            assert got == want, (c, s)
            refused += got is None
            accepted += got is not None
    assert refused > 300 and accepted > 300


@pytest.mark.parametrize("root", [1, 2, 4])
def test_inverse_of_a_unit_monomial_is_the_quotients_normal_form(root):
    """inv takes +-u**k to +-u**-k directly: the numerator and denominator
    coeff_div gives, the shared unit numerator _UNIT only for 1."""
    one = Coeff.one(root)
    for k in (0, 3, -3):
        for sign in (1, -1):
            c = sign * Coeff.q_power(Fraction(k, root), root)
            inv, want = c.inv(), coeff_div(one, c)
            assert (inv.root, inv.num, inv.den) == (want.root, want.num, want.den)
            assert inv.den is _UNIT
            assert (inv.num is _UNIT) == (k == 0 and sign == 1)
            assert inv * c == one
