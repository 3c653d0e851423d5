"""Test oracles that the package itself no longer calls.

Each function here checks code it used to sit beside: enumerate_xi the
chain of interval-prefix permutations (xicombinatorics), matrix_from_images
with proportionality_scalar the frame matrices against their images'
commutation (qtorus), permuted and restricted the reindexed and interval
exponent matrices (bicharacter, tests/restriction.py),
normality_scalar the commutation of each prime with the generators
(primeseq), solved_gamma the generator rescaling from the loaded
algebra's own primes and windows (primeseq.rescale_generators),
frame_value_by_products the frame values as |g_k| products
per direction from the scaled unit and reindex_by_columns the composed
frame M o sigma for any sigma in GL_N(Z) (qtorus), poly_str the Fraction
formatting of Coeff reprs and quotient_by_inverse the centering
coefficients through a gcd (scalarfield).  Like tests/restriction.py and tests/factors.py, they keep a
route the package replaced or never needed, so the tests can compare.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from qcluster.bicharacter import ExpMatrix, exp_mat_product, omega, symmetrization
from qcluster.linalg import det
from qcluster.orealgebra import Presentation
from qcluster.primeseq import compute_primes, generator_scalars, pi_f_data, u_element
from qcluster.qtorus import ToricFrame, TorusElement, frame_value
from qcluster.scalarfield import Coeff


def enumerate_xi(n: int) -> List[Tuple[int, ...]]:
    """All permutations with the interval-prefix property, 2^(n-1) of them.

    Each is determined by choosing, at every step, whether the next index
    extends the current interval below or above.
    """
    if n < 1:
        raise ValueError("need at least one index")
    out: List[Tuple[int, ...]] = []

    def grow(prefix, lo, hi):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        if lo > 0:
            grow(prefix + [lo - 1], lo - 1, hi)
        if hi < n - 1:
            grow(prefix + [hi + 1], lo, hi + 1)

    for start in range(n):
        grow([start], start, start)
    return sorted(out)


def proportionality_scalar(a, b) -> Coeff:
    """The exact Coeff c with a == c * b, determined via matching terms.

    Raises ValueError when the elements are not proportional.  Works for
    any element type exposing .terms and .scaled().
    """
    if not b.terms:
        raise ValueError("proportionality against zero")
    f0 = max(b.terms)
    ca = a.terms.get(f0)
    if ca is None:
        raise ValueError("elements are not proportional")
    c = ca / b.terms[f0]
    if a.terms != b.scaled(c).terms:
        raise ValueError("elements are not proportional")
    return c


def matrix_from_images(images: Sequence) -> ExpMatrix:
    """Recover the frame exponent matrix from pairwise image products.

    Uses M(e_j) M(e_k) = q**(2 E[j][k]) M(e_k) M(e_j); each ratio must be
    an exact q power or the images do not define a frame.
    """
    n = len(images)
    upper: dict = {}
    for j in range(n):
        for k in range(j + 1, n):
            c = proportionality_scalar(
                images[j] * images[k], images[k] * images[j]
            )
            upper[(j, k)] = c.q_exponent() / 2
    return ExpMatrix.from_upper(n, upper)


def permuted(e: ExpMatrix, perm: Sequence[int]) -> ExpMatrix:
    """Conjugate by the permutation matrix sending e_k to e_{perm[k]}.

    The result satisfies result[k][j] = e[perm[k]][perm[j]], i.e. it is the
    exponent matrix seen by the reordered generator list
    x_{perm[0]}, ..., x_{perm[n-1]}.
    """
    if sorted(perm) != list(range(e.n)):
        raise ValueError("not a permutation")
    return restricted(e, perm)


def restricted(e: ExpMatrix, indices: Sequence[int]) -> ExpMatrix:
    """Submatrix on the given (distinct) indices, in the given order."""
    num = e.num
    return ExpMatrix._make(
        tuple(tuple(num[a][b] for b in indices) for a in indices), e.den
    )


def normality_scalar(pres: Presentation, k: int, i: int) -> Fraction:
    """The exponent e in y_k x_i = q**e x_i y_k for i <= k."""
    seq = compute_primes(pres)
    unit = tuple(int(t == i) for t in range(pres.n))
    return omega(pres.lam, seq.eta_data.ebar[k], unit)


def solved_gamma(pres: Presentation) -> List:
    """The gamma of primeseq.rescale_generators, solved from pres's primes
    and each u(j, 1) formed again, as rescale_generators once solved it."""
    return generator_scalars(
        pres, compute_primes(pres).eta_data, lambda j: pi_f_data(u_element(pres, j, 1), j, 1)
    )


def poly_str(p: dict, root: int, d: int) -> str:
    """p/d as a sum of q powers, highest first, through two Fractions per
    term: scalarfield._poly_str before it formatted integers."""
    parts = []
    for k in sorted(p, reverse=True):
        v = Fraction(p[k], d)
        e = Fraction(k, root)
        if e == 0:
            term = str(v)
        else:
            if e == 1:
                mono = "q"
            else:
                mono = f"q^({e})" if e.denominator != 1 else f"q^{e}"
            if v == 1:
                term = mono
            elif v == -1:
                term = f"-{mono}"
            else:
                term = f"{v}*{mono}"
        parts.append(term)
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


def quotient_by_inverse(c: Coeff, s: dict):
    """c / s as c * s^-1, whose product reduces through _normalize's
    polynomial gcd, as primeseq once formed each centering coefficient;
    None when the quotient is not a Laurent polynomial."""
    out = c * Coeff(c.root, s).inv()
    return out if out.is_laurent else None


def frame_value_by_products(frame, g):
    """M(g) as qtorus.frame_value once formed it: the frame's unit scaled
    by q**S(g), times the image of each direction |g_k| times, an image
    inverted (which needs a torus monomial) where g_k < 0."""
    g = tuple(int(x) for x in g)
    if len(g) != frame.n:
        raise ValueError("vector length mismatch")
    out = frame.one.scaled(Coeff.q_power(symmetrization(frame.emat, g), frame.root))
    for k, e in enumerate(g):
        factor = frame.images[k]
        if e < 0:
            if not isinstance(factor, TorusElement):
                raise ValueError(f"negative exponent at {k}: image is not invertible here")
            factor = factor.inverse()
        for _ in range(abs(e)):
            out = out * factor
    return out


def reindex_by_columns(frame, sigma_cols):
    """The composed frame M o sigma for unimodular sigma, as
    qtorus.reindex_frame formed it for any sigma: sigma is given by its
    columns sigma(e_k), the new frame has images M(sigma(e_k)) and exponent
    matrix sigma^T E sigma.  A permutation is the columns [e_perm[k] for k].
    """
    n = frame.n
    cols = [tuple(int(x) for x in c) for c in sigma_cols]
    if len(cols) != n or any(len(c) != n for c in cols):
        raise ValueError("sigma must be a square integer matrix of frame size")
    if abs(det(cols)) != 1:
        raise ValueError("sigma is not invertible over the integers")
    sigma_rows = [[cols[k][i] for k in range(n)] for i in range(n)]
    return ToricFrame(
        exp_mat_product(frame.emat, sigma_rows),
        [frame_value(frame, cols[k]) for k in range(n)],
        frame.one,
        frame.root,
    )
