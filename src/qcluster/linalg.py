"""Exact linear algebra over the rationals by fraction-free elimination.

Every routine scales its input (ints or Fractions) once by the lcm of the
denominators and then works over the integers with the fraction-free
Gauss-Jordan form of Bareiss elimination: after pivot step k every entry
is, up to sign, a minor of order k + 1 of the scaled matrix, so each
division by the previous pivot is exact and no entry outgrows those
minors.  Reference: E. H. Bareiss, Sylvester's identity and multistep
integer-preserving Gaussian elimination, Math. Comp. 22 (1968).  The
package reads solutions as integer numerators over one d (:func:`_solve`);
solve, det and inverse, the API edge, import ``fractions`` to return them.
"""

from __future__ import annotations

from math import lcm

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import List, Sequence, Tuple

Matrix = "Sequence[Sequence]"  # rows of ints or Fractions


def _integer_rows(rows: Matrix) -> Tuple[List[List[int]], int]:
    """The rows times the lcm of their denominators, and that lcm."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    return ints, scale


def _eliminate(mat: List[List[int]], ncols: int) -> Tuple[List[int], int, int]:
    """Fraction-free Gauss-Jordan on the first ncols columns, in place.

    Returns the pivot columns, the last pivot and the sign of the row
    permutation.  Afterwards pivot row i holds the last pivot in its own
    pivot column and zero in the others, and every later row is zero in
    the first ncols columns.
    """
    pivots: List[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            sign = -sign
        prow = mat[r]
        piv = prow[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
        pivots.append(c)
    return pivots, prev, sign


def _square(a: Matrix) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return n


def _solve(a: Matrix, b: Matrix) -> Tuple[List[List[int]], int]:
    """The unique X with A X = B as integer numerators over one d > 0: A is
    m x n, B is m x k, both by rows.

    All k right-hand sides share one elimination.  Raises ValueError
    ("inconsistent system") when some column of B lies outside the
    column space of A, else ValueError ("solution is not unique") when A
    has rank below n.
    """
    if len(a) != len(b):
        raise ValueError("one right-hand side row per row required")
    n = len(a[0]) if a else 0
    mat, _ = _integer_rows([list(ra) + list(rb) for ra, rb in zip(a, b)])
    pivots, d, _ = _eliminate(mat, n)
    if any(any(row[n:]) for row in mat[len(pivots):]):
        raise ValueError("inconsistent system")
    if len(pivots) != n:
        raise ValueError("solution is not unique")
    s = 1 if d > 0 else -1
    return [[s * x for x in row[n:]] for row in mat[:n]], s * d


def solve(a: Matrix, b: Matrix) -> List[List[Fraction]]:
    """The unique X with A X = B, as Fractions (see :func:`_solve`)."""
    from fractions import Fraction
    num, d = _solve(a, b)
    return [[Fraction(x, d) for x in row] for row in num]


def rank(a: Matrix) -> int:
    """Rank of A over the rationals."""
    mat, _ = _integer_rows(a)
    return len(_eliminate(mat, len(mat[0]) if mat else 0)[0])


def det(a: Matrix) -> Fraction:
    """Determinant of a square matrix."""
    n = _square(a)
    mat, scale = _integer_rows(a)
    pivots, d, sign = _eliminate(mat, n)
    from fractions import Fraction
    if len(pivots) != n:
        return Fraction(0)
    return Fraction(sign * d, scale**n)


def inverse(a: Matrix) -> List[List[Fraction]]:
    """Inverse of a square matrix; ValueError when it is singular."""
    n = _square(a)
    try:
        return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])
    except ValueError:
        raise ValueError("matrix is singular") from None

