"""Skew-symmetric exponent matrices and the bicharacter they induce.

A multiplicatively skew-symmetric scalar matrix with entries q**E[k][j] is
stored through its additive exponent matrix E (rational entries, E[k][k] = 0,
E[j][k] = -E[k][j]).  The entries are kept as integer numerators ``num``
over one common denominator ``den`` in lowest terms, so every pairing below
is integer arithmetic and equal matrices have equal (num, den).

A q-power is its exponent.  The induced pairing on integer vectors is
q ** omega(E, f, g) and the symmetrization scalar of a monomial exponent f
is q ** symmetrization(E, f), with

    omega(E, f, g) = f^T E g,
    symmetrization(E, f) = - sum_{j<k} E[j][k] f_j f_k,

and :meth:`ExpMatrix.entry` is E[k][j].  Inside the package an exponent
stays an integer numerator over den: :func:`pairing_row`, :func:`_pairing`
and :func:`_symmetrization` return them, and products hand them to
``scalarfield._q_power``.  Fractions are the API edge, which alone imports
``fractions``: ``rows``, ``entry``, omega, symmetrization, and entries
other than ints.

Vectors are plain tuples/lists of ints indexed 0..N-1.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, List, Sequence


class ExpMatrix:
    """Skew-symmetric matrix of q-exponents, immutable.

    Entry (k, j) is num[k][j] / den with den >= 1 and no common factor of
    den and all numerators.  ``rows`` is the same matrix as Fractions,
    built on first use.
    """

    __slots__ = ("n", "num", "den", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        # an int is its own numerator over 1; any other entry a Fraction
        mat = [list(row) for row in rows]
        if any(type(x) is not int for row in mat for x in row):
            from fractions import Fraction
            mat = [[x if type(x) is int else Fraction(x) for x in row] for row in mat]
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise ValueError("exponent matrix must be square")
        # the lcm of the entry denominators is already the lowest common one
        den = lcm(*(x.denominator for row in mat for x in row))
        num = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in mat
        )
        for k in range(n):
            if num[k][k] != 0:
                raise ValueError(f"nonzero diagonal exponent at {k}")
            for j in range(k):
                if num[k][j] != -num[j][k]:
                    raise ValueError(f"not skew-symmetric at ({k},{j})")
        self.n = n
        self.num = num
        self.den = den
        self._rows = None

    @classmethod
    def _make(cls, num, den: int) -> "ExpMatrix":
        # internal: num is a skew-symmetric integer matrix (tuple of tuples)
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
        obj = object.__new__(cls)
        obj.n = len(num)
        obj.num = num
        obj.den = den
        obj._rows = None
        return obj

    # perfbench/tracer.py reads rows (its presentation key); keep the name
    @property
    def rows(self):
        """The entries as a tuple of tuples of Fractions."""
        if self._rows is None:
            from fractions import Fraction
            den = self.den
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in self.num)
        return self._rows

    @classmethod
    def zero(cls, n: int) -> "ExpMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_upper(cls, n: int, upper: dict) -> "ExpMatrix":
        """Build from {(j, k): exponent} entries with j < k."""
        rows = [[0] * n for _ in range(n)]
        for (j, k), e in upper.items():
            if not j < k:
                raise ValueError("from_upper expects j < k keys")
            rows[j][k] = e
            rows[k][j] = -e
        return cls(rows)

    def entry(self, k: int, j: int) -> Fraction:
        from fractions import Fraction
        return Fraction(self.num[k][j], self.den)

    def scaled(self, c) -> "ExpMatrix":
        if type(c) is not int:
            from fractions import Fraction
            c = Fraction(c)
        a = c.numerator
        return ExpMatrix._make(
            tuple(tuple(x * a for x in row) for row in self.num),
            self.den * c.denominator,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"ExpMatrix[{body}]"


def _pairing(emat: ExpMatrix, f: Sequence[int], g: Sequence[int]) -> int:
    """den * f^T E g: the exponent of omega(E, f, g) in units 1/den."""
    num = emat.num
    gs = [(j, gj) for j, gj in enumerate(g) if gj]
    total = 0
    for k, fk in enumerate(f):
        if fk:
            row = num[k]
            total += fk * sum(row[j] * gj for j, gj in gs)
    return total


def omega(emat: ExpMatrix, f: Sequence[int], g: Sequence[int]) -> Fraction:
    """The exponent f^T E g of the pairing q ** (f^T E g)."""
    from fractions import Fraction
    return Fraction(_pairing(emat, f, g), emat.den)


def pairing_row(emat: ExpMatrix, f: Sequence[int]) -> List[int]:
    """den * f^T E: the pairings of f with every direction, in units 1/den."""
    num = emat.num
    row = [0] * emat.n
    for k, fk in enumerate(f):
        if fk:
            row = [a + fk * x for a, x in zip(row, num[k])]
    return row


def _symmetrization(emat: ExpMatrix, f: Sequence[int]) -> int:
    """den * symmetrization(E, f): its exponent in units 1/den."""
    num = emat.num
    support = [(j, fj) for j, fj in enumerate(f) if fj]
    total = 0
    for a, (j, fj) in enumerate(support):
        row = num[j]
        total -= fj * sum(row[k] * fk for k, fk in support[a + 1 :])
    return total


def symmetrization(emat: ExpMatrix, f: Sequence[int]) -> Fraction:
    """Exponent of the symmetrization scalar of the monomial x^f."""
    from fractions import Fraction
    return Fraction(_symmetrization(emat, f), emat.den)

