"""Exponent matrices and the multiplicative pairing they induce.

omega(E, f, g) is the exponent f^T E g; symmetrization(E, f) collects the
ordering factors q^(-sum_{j<k} E_jk f_j f_k) that turn an ordered monomial
into its symmetrized form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.bicharacter import ExpMatrix, exp_mat_product, omega, symmetrization
from oracles import permuted, restricted

N = 4


@st.composite
def skew_matrices(draw, n=N):
    upper = {}
    for j in range(n):
        for k in range(j + 1, n):
            upper[(j, k)] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    return ExpMatrix.from_upper(n, upper)


vectors = st.tuples(*[st.integers(-3, 3) for _ in range(N)])


def test_rejects_non_skew():
    with pytest.raises(ValueError):
        ExpMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        ExpMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        ExpMatrix([[0, 1], [-1, 0], [0, 0]])


def test_entry_and_from_upper():
    e = ExpMatrix.from_upper(3, {(0, 1): Fraction(1, 2), (1, 2): -1})
    assert e.entry(0, 1) == Fraction(1, 2)
    assert e.entry(1, 0) == Fraction(-1, 2)
    assert e.entry(2, 2) == 0
    assert e == ExpMatrix([[0, Fraction(1, 2), 0], [Fraction(-1, 2), 0, -1], [0, 1, 0]])


@given(skew_matrices(), vectors, vectors, vectors)
@settings(max_examples=50)
def test_omega_is_biadditive(e, f, g, h):
    fg = tuple(a + b for a, b in zip(f, g))
    assert omega(e, fg, h) == omega(e, f, h) + omega(e, g, h)
    assert omega(e, h, fg) == omega(e, h, f) + omega(e, h, g)
    assert isinstance(omega(e, f, h), Fraction)


@given(skew_matrices(), vectors, vectors)
@settings(max_examples=50)
def test_omega_is_alternating(e, f, g):
    assert omega(e, f, g) == -omega(e, g, f)
    assert omega(e, f, f) == 0


@given(skew_matrices(), vectors, vectors)
@settings(max_examples=50)
def test_symmetrization_cocycle(e, f, g):
    """S(f+g) = S(f) S(g) q^(-sum_{j<k} E_jk (f_j g_k + g_j f_k))."""
    fg = tuple(a + b for a, b in zip(f, g))
    cross = Fraction(0)
    for j in range(len(f)):
        for k in range(j + 1, len(f)):
            cross += e.rows[j][k] * (f[j] * g[k] + g[j] * f[k])
    assert symmetrization(e, fg) == symmetrization(e, f) + symmetrization(e, g) - cross
    assert isinstance(symmetrization(e, fg), Fraction)


def test_symmetrization_on_unit_vectors():
    e = ExpMatrix.from_upper(2, {(0, 1): 3})
    assert symmetrization(e, (1, 0)) == 0
    assert symmetrization(e, (1, 1)) == -3
    assert symmetrization(e, (2, 1)) == -6


@given(skew_matrices())
@settings(max_examples=30)
def test_permuted_matches_entries(e):
    perm = (2, 0, 3, 1)
    p = permuted(e, perm)
    for k in range(N):
        for j in range(N):
            assert p.rows[k][j] == e.rows[perm[k]][perm[j]]


def test_restricted():
    e = ExpMatrix.from_upper(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    r = restricted(e, (0, 2))
    assert r == ExpMatrix.from_upper(2, {(0, 1): 2})


def test_exp_mat_product_is_congruence():
    e = ExpMatrix.from_upper(2, {(0, 1): 1})
    # columns (1,1) and (0,1): congruent matrix has pairing of the images
    mat = [[1, 0], [1, 1]]
    out = exp_mat_product(e, mat)
    f1, f2 = (1, 1), (0, 1)
    assert out.entry(0, 1) == omega(e, f1, f2)


@given(skew_matrices(), st.fractions(min_value=-2, max_value=2, max_denominator=2))
@settings(max_examples=30)
def test_scaled(e, c):
    s = e.scaled(c)
    for k in range(N):
        for j in range(N):
            assert s.rows[k][j] == e.rows[k][j] * c


def lowest_terms(e):
    return e.den >= 1 and gcd(e.den, *(x for row in e.num for x in row)) == 1


@st.composite
def skew_integer_matrices(draw, n=N):
    num = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            num[j][k] = draw(st.integers(-6, 6))
            num[k][j] = -num[j][k]
    return num


@given(skew_integer_matrices())
@settings(max_examples=50)
def test_normal_form_across_denominators(num):
    thirds = ExpMatrix([[Fraction(x, 3) for x in row] for row in num])
    sixths = ExpMatrix([[Fraction(2 * x, 6) for x in row] for row in num])
    strings = ExpMatrix([[f"{2 * x}/6" for x in row] for row in num])
    assert thirds == sixths == strings
    assert hash(thirds) == hash(sixths) == hash(strings)
    assert lowest_terms(thirds)
    assert (thirds.num, thirds.den) == (sixths.num, sixths.den)


@given(skew_matrices(), st.permutations(range(N)))
@settings(max_examples=50)
def test_normal_form_across_routes(e, perm):
    inv = [0] * N
    for k, p in enumerate(perm):
        inv[p] = k
    for other in (e.scaled(2).scaled(Fraction(1, 2)), permuted(permuted(e, perm), inv)):
        assert other == e and hash(other) == hash(e)
        assert (other.num, other.den) == (e.num, e.den)
    for derived in (e.scaled(Fraction(3, 2)), permuted(e, perm), restricted(e, (1, 3))):
        assert lowest_terms(derived)


@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=6, max_size=6))
@settings(max_examples=50)
def test_rows_are_the_fraction_entries(upper):
    keys = [(j, k) for j in range(N) for k in range(j + 1, N)]
    e = ExpMatrix.from_upper(N, dict(zip(keys, upper)))
    rows = [[Fraction(0)] * N for _ in range(N)]
    for (j, k), x in zip(keys, upper):
        rows[j][k], rows[k][j] = x, -x
    assert e.rows == tuple(tuple(row) for row in rows)
    assert all(isinstance(x, Fraction) for row in e.rows for x in row)
    assert all(e.entry(k, j) == rows[k][j] for k in range(N) for j in range(N))
    assert repr(e) == "ExpMatrix[" + "; ".join(" ".join(str(x) for x in row) for row in rows) + "]"


@given(
    skew_matrices(),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=N, max_size=N),
)
@settings(max_examples=50)
def test_exp_mat_product_matches_fraction_reference(e, mat):
    out = exp_mat_product(e, mat)
    want = [
        [
            sum(mat[k][i] * e.rows[k][l] * mat[l][j] for k in range(N) for l in range(N))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert out.rows == tuple(tuple(Fraction(x) for x in row) for row in want)
    assert lowest_terms(out)
