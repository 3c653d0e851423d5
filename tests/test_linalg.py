"""The fraction-free kernel against a plain Fraction Gauss-Jordan reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.exchangesolver import btilde_for_tau
from qcluster.linalg import det, inverse, rank, solve
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.xicombinatorics import frame_for_tau, gamma_chain
from symmetrizers import primitive


def reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction on the first ncols columns.

    Returns the reduced rows, the pivot columns and the determinant
    factor (product of pivots times the sign of the row swaps).
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots, factor = [], Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            factor = -factor
        factor *= rows[r][c]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, factor


def reference_solve_column(a, col):
    """The unique x with A x = col, one right-hand side at a time."""
    n = len(a[0]) if a else 0
    rows, pivots, _ = reference_rref([list(r) + [b] for r, b in zip(a, col)], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("solution is not unique")
    return [rows[i][n] for i in range(n)]


def reference_det(a):
    n = len(a)
    _, pivots, factor = reference_rref(a, n)
    return factor if len(pivots) == n else Fraction(0)


entries = st.integers(-4, 4)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def matrices(elements, rows, cols):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def low_rank(draw, elements):
    """An m x n product of m x r and r x n factors, so rank <= r."""
    m, n, r = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    u = draw(matrices(elements, m, r))
    v = draw(matrices(elements, r, n))
    return [[sum((u[i][t] * v[t][j] for t in range(r)), 0) for j in range(n)]
            for i in range(m)]


@st.composite
def any_matrix(draw):
    elements = draw(st.sampled_from([entries, rationals]))
    if draw(st.booleans()):
        return draw(low_rank(elements))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(matrices(elements, m, n))


@st.composite
def square(draw):
    elements = draw(st.sampled_from([entries, rationals]))
    if draw(st.booleans()):
        a = draw(low_rank(elements))
        n = min(len(a), len(a[0]))
        return [row[:n] for row in a[:n]]
    n = draw(st.integers(0, 5))
    return draw(matrices(elements, n, n))


@st.composite
def systems(draw):
    """(A, B): A any shape and rank, B one to three right-hand sides."""
    a = draw(any_matrix())
    k = draw(st.integers(1, 3))
    elements = draw(st.sampled_from([entries, rationals]))
    if draw(st.booleans()):
        # right-hand sides in the column space of A: always consistent
        x = draw(matrices(elements, len(a[0]), k))
        b = [[sum((row[t] * x[t][j] for t in range(len(x))), 0) for j in range(k)]
             for row in a]
    else:
        b = draw(matrices(elements, len(a), k))
    return a, b


@given(systems())
@settings(max_examples=300)
def test_solve_matches_reference(system):
    a, b = system
    outcomes = []
    for j in range(len(b[0])):
        try:
            outcomes.append(reference_solve_column(a, [row[j] for row in b]))
        except ValueError as e:
            outcomes.append(str(e))
    errors = [o for o in outcomes if isinstance(o, str)]
    if errors:
        want = (
            "inconsistent system"
            if "inconsistent system" in errors
            else "solution is not unique"
        )
        with pytest.raises(ValueError, match=want):
            solve(a, b)
    else:
        x = solve(a, b)
        assert x == [list(row) for row in zip(*outcomes)]


@given(any_matrix())
@settings(max_examples=300)
def test_rank_matches_reference(a):
    assert rank(a) == len(reference_rref(a, len(a[0]))[1])


@given(square())
@settings(max_examples=300)
def test_det_matches_reference(a):
    assert det(a) == reference_det(a)


@given(square())
@settings(max_examples=300)
def test_inverse_matches_reference(a):
    n = len(a)
    if reference_det(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    rows, _, _ = reference_rref([list(r) + e for r, e in zip(a, identity)], n)
    assert inverse(a) == [row[n:] for row in rows]


def test_shape_errors():
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        inverse([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve([[1, 1]], [[1], [2]])


def test_non_integral_solution_stays_exact():
    assert solve([[2, 0], [0, 3]], [[1], [1]]) == [[Fraction(1, 2)], [Fraction(1, 3)]]
    assert solve([[Fraction(1, 2)]], [[Fraction(1, 3)]]) == [[Fraction(2, 3)]]


@given(
    st.lists(st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)), min_size=1)
)
def test_primitive_is_the_smallest_integer_multiple(values):
    ints = primitive(values)
    assert all(x > 0 for x in ints) and gcd(*ints) == 1
    ratio = Fraction(ints[0]) / values[0]
    assert all(x == ratio * v for x, v in zip(ints, values))


def frame_system(tp, l):
    """The pairing and grading rows of column l, one right-hand side."""
    emat, n = tp.frame.emat, tp.frame.emat.n
    rows = [[emat.rows[i][j] for i in range(n)] for j in range(n)]
    rhs = [tp.pres.lam_star[l] / 2 if j == l else 0 for j in range(n)]
    for t in range(len(tp.image_weights[0])):
        rows.append([tp.image_weights[k][t] for k in range(n)])
        rhs.append(0)
    return rows, rhs


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_btilde_matches_column_by_column_reference(shape):
    pres = quantum_matrix_preset(*shape)
    for tau in gamma_chain(pres.n):
        tp = frame_for_tau(pres, tau)
        bmat = btilde_for_tau(tp)
        assert bmat.ex == tuple(sorted(tp.ex))
        for l in tp.ex:
            col = reference_solve_column(*frame_system(tp, l))
            assert bmat.cols[l] == tuple(col), (tau, l)
