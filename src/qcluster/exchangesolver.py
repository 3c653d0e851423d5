"""Exchange matrices as unique solutions of pairing and grading equations.

A column b at an exchangeable index l is characterized by three exact
conditions: its pairing against every other lattice direction under the
frame exponent matrix vanishes, the pairing against its own direction has
the prescribed square, and the weight of the frame value M(b) is zero.
This module solves that linear system for all columns of a frame with one
exact elimination (:mod:`linalg`), asserts integrality and uniqueness,
assembles full exchange matrices, and carries the independent closed-form
pattern for quantum matrices used to cross-check the solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from .linalg import primitive, solve
from .mutation import ExchangeMatrix, compatibility_check, skew_symmetrizable
from .xicombinatorics import TauPresentation


class LinearSystem:
    """Dense rational system A X = rhs, solved exactly by :mod:`linalg`.

    Entries are ints or Fractions.  rhs is one vector, or a matrix given
    by rows for many right-hand sides sharing one elimination; the
    solution has the same shape.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence):
        self.rows = rows
        self.many = bool(rhs) and isinstance(rhs[0], (list, tuple))
        self.rhs = rhs if self.many else [[b] for b in rhs]
        if len(self.rows) != len(self.rhs):
            raise ValueError("one right-hand side entry per row required")

    def solve_unique(self) -> List:
        """The unique solution; raises ValueError if none or many exist."""
        sol = solve(self.rows, self.rhs)
        return sol if self.many else [x for (x,) in sol]


def btilde_for_tau(tau_pres: TauPresentation) -> ExchangeMatrix:
    """Full exchange matrix for a reordered frame, verified on the spot.

    The column b at an exchangeable index l (original labels) pairs with
    direction j under the frame exponent matrix as q^(lam*_l / 2) when
    j == l and trivially otherwise, and M(b) has total weight zero.  The
    columns share these coefficients, so one elimination solves them all;
    each must be unique and integral.  Then the compatible-pair conditions
    and skew-symmetrizability, with symmetrizers read off the squared
    scalars, are checked.  Raises ValueError on any failure: each one
    means the input data does not come from a valid normalized
    presentation.
    """
    pres = tau_pres.pres
    emat = tau_pres.frame.emat
    ex = tau_pres.ex
    if not ex:
        return ExchangeMatrix(pres.n, {})
    for l in ex:
        lam_star = pres.lam_star[l]
        if lam_star is None or lam_star.e == 0:
            raise ValueError(f"index {l} lacks a nontrivial squared scalar")
    # rows of den * R_tau^T give den times the pairings with each
    # direction, then one row per weight coordinate
    rows = list(zip(*emat.num)) + list(zip(*tau_pres.image_weights))
    rhs = [
        [pres.lam_star[l].e * emat.den / 2 if j == l else 0 for l in ex]
        for j in range(len(rows))
    ]
    sol = LinearSystem(rows, rhs).solve_unique()
    cols = {}
    for c, l in enumerate(ex):
        col = [row[c] for row in sol]
        if any(x.denominator != 1 for x in col):
            raise ValueError(f"column at {l} is not integral: {col}")
        cols[l] = tuple(int(x) for x in col)
    bmat = ExchangeMatrix(pres.n, cols)
    compatibility_check(emat, bmat)
    if not skew_symmetrizable(bmat, symmetrizers_from_scalars(pres, ex)):
        raise ValueError("principal part is not skew-symmetrizable")
    return bmat


def symmetrizers_from_scalars(pres, ex: Sequence[int]) -> Dict[int, int]:
    """Positive integers proportional to the squared-scalar exponents.

    The exponents must be constant on level sets and of one sign; the
    common rescaling to smallest positive integers is returned per
    exchangeable index.
    """
    exps: Dict[int, Fraction] = {}
    for l in ex:
        lam_star = pres.lam_star[l]
        if lam_star is None or lam_star.e == 0:
            raise ValueError(f"index {l} lacks a squared scalar")
        exps[l] = lam_star.e
    if len({e > 0 for e in exps.values()}) > 1:
        raise ValueError("squared-scalar exponents of mixed sign")
    return dict(zip(exps, primitive([abs(e) for e in exps.values()])))


def quantum_matrix_btilde(m: int, n: int) -> ExchangeMatrix:
    """Closed-form exchange matrix of the standard quantum-matrix frame.

    Generators sit on an m x n grid, label (r, c) -> r*n + c, and a column
    at an interior cell has +1 at its north, west, and southeast
    neighbours, -1 at its south, east, and northwest neighbours (entries
    falling off the grid are dropped).  Kept independent of the solver as
    an oracle for tests.
    """
    def label(r, c):
        return r * n + c

    cols = {}
    for r in range(m - 1):
        for c in range(n - 1):
            col = [0] * (m * n)
            for dr, dc, val in (
                (-1, 0, 1),
                (0, -1, 1),
                (1, 1, 1),
                (1, 0, -1),
                (0, 1, -1),
                (-1, -1, -1),
            ):
                rr, cc = r + dr, c + dc
                if 0 <= rr < m and 0 <= cc < n:
                    col[label(rr, cc)] = val
            cols[label(r, c)] = tuple(col)
    return ExchangeMatrix(m * n, cols)


def first_column_crosscheck(pres, i: int) -> bool:
    """Compare the leading exponent of a one-step difference element with
    the combination of chain vectors prescribed by the exchange column.

    The window from i to s(i) is treated as a standalone algebra; the
    column at its bottom index determines the leading exponent through
    the window's trailing interior primes.  Returns True on agreement.
    """
    from .primeseq import compute_primes, pi_f_data, restrict_presentation
    from .xicombinatorics import frame_for_tau

    seq = compute_primes(pres)
    top = seq.eta_data.succ_power(i, 1)
    _, f_big = pi_f_data(pres, i, 1)
    sub = restrict_presentation(pres, i, top)
    sub_tau = frame_for_tau(sub, range(sub.n))
    bmat = btilde_for_tau(sub_tau)
    sub_seq = compute_primes(sub)
    ed = sub_seq.eta_data
    col = bmat.cols[0]
    if col[sub.n - 1] != 1:
        return False
    combo = [0] * sub.n
    for l in range(1, sub.n - 1):
        if ed.s[l] is None:
            if col[l]:
                for t, x in enumerate(ed.ebar[l]):
                    combo[t] -= col[l] * x
        elif col[l]:
            return False
    f_window = list(f_big[i : top + 1])
    return combo == f_window
