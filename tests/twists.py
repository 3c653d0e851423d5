"""Test oracle: cocycle twists of a presentation (multiparameter quantum
matrices, when the input is a quantum-matrix preset).

For an integer bilinear form beta(u, v) = u^T B v on the weight lattice,
the twisted product of homogeneous elements is a * b = q**beta(wt a, wt b) ab.
A PBW monomial of the twisted algebra, x'^f = x'_0^f_0 * ... * x'_(N-1)^f_(N-1),
is q**gamma(f) x^f, where gamma(f) sums beta(w_a, w_b) over the ordered pairs
of letters a before b in the PBW word of f.  So the twisted generators obey

    x'_k x'_j = q**(lambda_kj + beta(w_k, w_j) - beta(w_j, w_k)) x'_j x'_k
                + sum_f q**(beta(w_k, w_j) - gamma(f)) c_f x'^f

for delta_k(x_j) = sum_f c_f x^f; lambda_diag, lambda_star, eta, weights and
names do not change.  The chain pairs of a twisted quantum-matrix preset
have nonzero commutation exponents, so its normalized primes ybar differ
from its primes y, which no preset shows.
"""

from fractions import Fraction

from qcluster.bicharacter import ExpMatrix
from qcluster.orealgebra import Presentation
from qcluster.scalarfield import Coeff


def _beta(form, u, v) -> int:
    return sum(a * x * y for row, x in zip(form, u) for a, y in zip(row, v))


def _gamma(form, weights, f) -> int:
    """beta summed over the ordered pairs of letters of the PBW word of f."""
    word = [t for t, x in enumerate(f) for _ in range(x)]
    return sum(
        _beta(form, weights[a], weights[b])
        for i, a in enumerate(word)
        for b in word[i + 1 :]
    )


def twist(pres: Presentation, form) -> Presentation:
    """The cocycle twist of pres by the integer matrix form, uncertified."""
    w, n, root = pres.weights, pres.n, pres.root
    lam = ExpMatrix(
        [
            [
                pres.lam.rows[k][j] + _beta(form, w[k], w[j]) - _beta(form, w[j], w[k])
                for j in range(n)
            ]
            for k in range(n)
        ]
    )
    delta = {
        (k, j): tuple(
            (f, c * Coeff.q_power(Fraction(_beta(form, w[k], w[j]) - _gamma(form, w, f)), root))
            for f, c in terms
        )
        for (k, j), terms in pres.delta.items()
    }
    return Presentation(
        lam,
        delta,
        w,
        pres.lam_diag,
        lam_star=pres.lam_star,
        eta=pres.eta,
        names=pres.names,
        root=root,
    )


def random_twist(pres: Presentation, rng, bound: int = 1) -> Presentation:
    """twist(pres, form) for a form with entries drawn from -bound..bound."""
    size = len(pres.weights[0])
    form = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
    return twist(pres, form)
