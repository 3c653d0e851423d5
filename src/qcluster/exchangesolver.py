"""Exchange matrices as unique solutions of pairing and grading equations.

A column b at an exchangeable index l is characterized by three exact
conditions: its pairing against every other lattice direction under the
frame exponent matrix vanishes, the pairing against its own direction has
the prescribed square, and the weight of the frame value M(b) is zero.
This module solves that linear system for all columns of a frame with one
exact elimination (:mod:`linalg`), asserts integrality and uniqueness,
certifies a candidate matrix against the system without eliminating,
assembles full exchange matrices, and carries the independent closed-form
pattern for quantum matrices used to cross-check the solver.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence

from .linalg import solve
from .mutation import ExchangeMatrix
from .primeseq import _check_range, _primes, window
from .xicombinatorics import TauPresentation, _span_frame, _window_spans


# perfbench/tracer.py times solve_unique by name; keep the class and method
class LinearSystem:
    """Dense rational system A X = rhs, solved exactly by :mod:`linalg`.

    Entries are ints or Fractions.  rhs is a matrix given by rows, one
    column per right-hand side, and the columns share one elimination.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence[Sequence]):
        if len(rows) != len(rhs):
            raise ValueError("one right-hand side row per row required")
        self.rows, self.rhs = rows, rhs

    def solve_unique(self) -> List[List]:
        """The unique solution, by rows; raises ValueError if none or many
        exist."""
        return solve(self.rows, self.rhs)


def btilde_for_tau(tau_pres: TauPresentation) -> ExchangeMatrix:
    """Full exchange matrix for a reordered frame, verified on the spot.

    The column b at an exchangeable index l (original labels) pairs with
    direction j under the frame exponent matrix as q^(lam*_l / 2) when
    j == l and trivially otherwise, and M(b) has total weight zero.  The
    columns share these coefficients, so one elimination solves them all;
    each must be unique and integral, and the squared scalars of the
    exchangeable labels must share one sign.  The solved pairing rows make
    the pair compatible and the one sign makes it skew-symmetrizable
    (certify_btilde's docstring), so neither is checked again.  Raises
    ValueError on any failure: each one means the input data does not come
    from a valid normalized presentation.
    """
    return _solve_btilde(
        tau_pres.frame.emat, tau_pres.image_weights, tau_pres.ex,
        tau_pres.pres.lam_star,
    )


def _btilde_system(emat, image_weights, ex, lam_star):
    """The system that the exchange matrix of a frame solves, as (rows, rhs).

    The rows of den * R^T give den times the pairings with each direction,
    then come one row per weight coordinate; the right-hand side holds one
    column per exchangeable label l, lam*_l * den / 2 at row l and 0
    elsewhere.
    """
    for l in ex:
        if not lam_star[l]:
            raise ValueError(f"index {l} lacks a nontrivial squared scalar")
    rows = list(zip(*emat.num)) + list(zip(*image_weights))
    rhs = [
        [lam_star[l] * emat.den / 2 if j == l else 0 for l in ex]
        for j in range(len(rows))
    ]
    return rows, rhs


def _solve_btilde(emat, image_weights, ex, lam_star) -> ExchangeMatrix:
    """btilde_for_tau on a frame's exponent matrix and image weights, with
    its exchangeable labels and the squared-scalar exponents lam_star by
    label."""
    if not ex:
        return ExchangeMatrix(emat.n, {})
    rows, rhs = _btilde_system(emat, image_weights, ex, lam_star)
    sol = LinearSystem(rows, rhs).solve_unique()
    cols = {}
    for c, l in enumerate(ex):
        col = [row[c] for row in sol]
        if any(x.denominator != 1 for x in col):
            raise ValueError(f"column at {l} is not integral: {col}")
        cols[l] = tuple(int(x) for x in col)
    _require_one_sign(lam_star, ex)
    return ExchangeMatrix(emat.n, cols)


def certify_btilde(tau_pres: TauPresentation, bmat: ExchangeMatrix) -> ExchangeMatrix:
    """Confirm that bmat is the exchange matrix of a chain frame, without
    an elimination; returns bmat, raises ValueError otherwise.

    bmat must solve btilde_for_tau's system exactly, checked in integers
    row by row, and the squared scalars of the exchangeable labels must
    share one sign.  The pairing rows already make the pair compatible:
    the pairings of the columns with the exchangeable directions form a
    diagonal matrix with the nonzero entries lam*_l / 2, so the columns
    are independent and bmat has full column rank.  With the one sign they
    also make bmat skew-symmetrizable, so that is not checked: the rows
    say (B^T R B)_kj = (lam*_k / 2) b_kj for exchangeable k, j, and
    B^T R B is skew because R is, so lam*_k b_kj = -lam*_j b_jk, and the
    |lam*_l| are positive symmetrizers.

    Uniqueness is what lets a solution stand for the solution.  Along the
    chain, frame t+1 is frame t mutated at some k: R_{t+1} = E^T R_t E and
    W_{t+1} = W_t E for the weight matrix W (image weights as columns),
    where E is the identity but for column k, which is -e_k + [b_k]_+ with
    b_k the frame-t column at k.  E is unimodular (det E = -1).  For a
    compatible pair mutate_emat gives the same R_{t+1} with [-b_k]_+ in
    place of [b_k]_+, and W_t b_k = 0 gives the same W_{t+1}.  So the
    system matrices satisfy A_{t+1} = diag(c E^T, I) A_t E, with c > 0 the
    ratio of the denominators of R_{t+1} and R_t, and have the same rank.
    At the identity frame, btilde_for_tau's solve proves full column rank,
    so every chain frame's system has at most one solution: a certified
    bmat is exactly what btilde_for_tau would return on that frame.  The
    caller must have checked the mutation of R and W (cli's chain walk
    does); on its own the certificate proves existence, not uniqueness.
    """
    emat, ex = tau_pres.frame.emat, tau_pres.ex
    lam_star = tau_pres.pres.lam_star
    if bmat.n_rows != emat.n or bmat.ex != ex:
        raise ValueError("matrix has other columns than the frame's exchangeable labels")
    rows, rhs = _btilde_system(emat, tau_pres.image_weights, ex, lam_star)
    for j, (row, want) in enumerate(zip(rows, rhs)):
        for c, l in enumerate(ex):
            if sum(map(mul, row, bmat.cols[l])) != want[c]:
                raise ValueError(f"column at {l} fails row {j} of the system")
    _require_one_sign(lam_star, ex)
    return bmat


def _require_one_sign(lam_star, ex: Sequence[int]):
    """Raise ValueError unless the squared-scalar exponents lam*_l of the
    exchangeable labels l share one sign; certify_btilde's docstring shows
    that this makes a solution of the system skew-symmetrizable."""
    if len({lam_star[l] > 0 for l in ex}) > 1:
        raise ValueError("squared-scalar exponents of mixed sign")


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


def _window(pres, i: int):
    """The window R_[i,top], top = s(i), inside pres, indexed from i.

    Its level-set data come from the ranged prime recursion, its frame and
    image weights from the chain spans of interval_frame(pres, i, 1), and
    its exchange matrix is solved with its own squared scalars and labels,
    so an error reads as on the window presented on its own.  The frame is
    the window's identity frame when the window's level sets are the
    algebra's, as in a CGL extension; other level sets are a ValueError.
    Returns (level-set data, frame, matrix).
    """
    ed = _primes(pres, 0, pres.n - 1).eta_data
    top = ed.succ_power(i, 1)
    _check_range(pres, i, top)
    wed = _primes(pres, i, top).eta_data
    inside = tuple(None if p is None or p < i else p - i for p in ed.p[i : top + 1])
    if wed.p != inside:
        raise ValueError(f"window [{i},{top}] has other level sets than the algebra")
    frame, weights = _span_frame(pres, _window_spans(pres, i, 1))
    star = pres.lam_star[i : top + 1]
    bmat = _solve_btilde(frame.emat, weights, wed.exchangeable(), star)
    return wed, frame, bmat


def first_column_crosscheck(pres, i: int) -> bool:
    """Compare the leading exponent f_big of the one-step difference element
    u(i, 1) (primeseq.window) with the combination of chain vectors
    prescribed by the exchange column.

    The column at the bottom index of the window from i to s(i) (_window)
    determines the leading exponent through the window's trailing interior
    primes.  Returns True on agreement.
    """
    f_big = window(pres, i, 1)[3]
    ed, _, bmat = _window(pres, i)
    col, w = bmat.cols[0], ed.n
    interior = range(1, w - 1)
    if col[w - 1] != 1 or any(col[l] and ed.s[l] is not None for l in interior):
        return False
    combo = [-sum(col[l] * ed.ebar[l][t] for l in interior) for t in range(w)]
    return combo == list(f_big[i : i + w])
