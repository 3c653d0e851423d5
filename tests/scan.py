"""Test oracle: the prime recursion that scans every trailing prime.

On a certified presentation, primeseq._primes trusts the Goodearl-Yakimov
theorem: a derivation stage forms delta_k of the first trailing prime it
moves, the declared predecessor tried first.  This module keeps the route
that replaced: each derivation stage forms delta_k(y_j) for every trailing
prime, requires every trailing prime to be sigma_k-homogeneous, certifies
the candidate with certify_prime and rejects a stage that moves a prime it
does not choose.  It certifies nothing at load, so tests reach those errors
on presentations that orealgebra.check_cgl rejects.
"""

import weakref
from typing import Sequence

from qcluster.bicharacter import _pairing, omega, pairing_row, symmetrization
from qcluster.orealgebra import (
    PBWElement,
    Presentation,
    apply_sigma_delta,
    leading_term,
    pbw_mul,
)
from qcluster.primeseq import EtaData, _Range, _unit_vec
from qcluster.scalarfield import Coeff, _q_power


def sigma_homogeneous(pres: Presentation, k: int, terms: dict, ebar) -> bool:
    """Whether sigma_k(y) = q**omega(e_k, ebar) y: every monomial of y has
    the sigma_k-scalar of the chain monomial x^ebar."""
    ek = _unit_vec(pres.n, k)
    want = _pairing(pres.lam, ek, ebar)
    return all(_pairing(pres.lam, ek, f) == want for f in terms)


def certify_prime(
    pres: Presentation, k: int, ebar_j: Sequence[int], c: PBWElement, d: PBWElement,
    lo: int = 0,
) -> bool:
    """Whether y = y_j x_k - c is normal in R_[lo,k], with one PBW product.

    Premises, which scan_primes keeps true at every stage: the trailing
    prime y_j, whose leading monomial is x^ebar_j with coefficient 1, is
    normal in R_[lo,k-1] with y_j x_i = mu_i x_i y_j, mu_i = q**omega(ebar_j, e_i),
    and sigma_k(y_j) = a y_j, which forces a = alpha = q**omega(e_k, ebar_j).
    Here d = delta_k(y_j) and the recursion takes c = d / s with
    s = alpha (lambda_k - 1).  R_[lo,k] is a domain and a free left R_[lo,k-1]-
    module on 1, x_k, x_k^2, ...; normality means y x_i = nu_i x_i y, lo <= i <= k.

    i = k.  y x_k = y_j x_k^2 - c x_k and
    x_k y = a y_j x_k^2 + (d - sigma_k(c)) x_k - delta_k(c), so nu_k = 1/a and
    the condition is sigma_k(c) = a c + d and delta_k(c) = 0: one
    apply_sigma_delta of c.  This part is exact for any c.

    i < k.  x_k x_i = lam_ki x_i x_k + delta_k(x_i) with lam_ki = q**lam[k][i],
    so the x_k-coefficients force nu_i = lam_ki mu_i and the condition is

        y_j delta_k(x_i) = c x_i - nu_i x_i c.                        (1)

    Applying the sigma_k-derivation delta_k to y_j x_i = mu_i x_i y_j gives
    a y_j delta_k(x_i) + d x_i = nu_i x_i d + mu_i delta_k(x_i) y_j, so with
    d = s c the right side of (1) is (mu_i delta_k(x_i) y_j - a y_j delta_k(x_i)) / s.
    By normality of y_j, x^f y_j = q**(-omega(ebar_j, f)) y_j x^f, and (1)
    for delta_k(x_i) = sum_f c_f x^f becomes

        y_j sum_f c_f (a - mu_i q**(-omega(ebar_j, f)) + s) x^f = 0.

    R is a domain and the x^f are distinct PBW monomials, so (1) holds iff
    each scalar a - mu_i q**(-omega(ebar_j, f)) + s is zero: no product at
    all, and nothing to check where delta_k(x_i) = 0.
    """
    root = pres.root
    den = pres.lam.den
    one = Coeff.one(root)
    a = _q_power(_pairing(pres.lam, _unit_vec(pres.n, k), ebar_j), den, root)
    s = a * (Coeff.q_power(pres.lam_diag[k], root) - one)
    row = pairing_row(pres.lam, ebar_j)  # den * omega(ebar_j, e_t)
    for i in range(lo, k):
        for f, _ in pres.delta.get((k, i), ()):
            e = row[i] - sum(r * x for r, x in zip(row, f))
            if not (a - _q_power(e, den, root) + s).is_zero:
                return False
    sig, dc = apply_sigma_delta(pres, k, c)
    return dc.is_zero and sig == c.scaled(a) + d


# Per presentation, the stages run from each start and the _Range of each range
_MEMO: "weakref.WeakKeyDictionary[Presentation, tuple]" = weakref.WeakKeyDictionary()


def scan_primes(pres: Presentation, lo: int, top: int) -> _Range:
    """The primes of R_[lo,top] inside pres, as primeseq._primes returns
    them, by the scan: stages, level sets and errors count from lo, and a
    longer range resumes from the stages run from lo."""
    runs, checked = _MEMO.setdefault(pres, ({}, {}))
    if (lo, top) in checked:
        return checked[(lo, top)]
    preds, ys, cs, ebar = runs.setdefault(lo, ([], [], {}, []))
    n = pres.n
    for k in range(lo + len(preds), top + 1):
        t = k - lo  # the stage, counted as in R_[lo,top]
        xk = pres.gen(k)
        # trailing primes of stage t-1: indices never used as a predecessor
        used = {p for p in preds if p is not None}
        trailing = [j for j in range(t) if j not in used]
        for j in trailing:
            if not sigma_homogeneous(pres, k, ys[j], ebar[j]):
                raise ValueError(
                    f"stage {t}: trailing prime {j} is not sigma_{t}-homogeneous"
                )
        if not any((k, i) in pres.delta for i in range(lo, k)):
            preds.append(None)
            ys.append(xk.terms)
            ebar.append(_unit_vec(n, k))
            continue
        moved, hits = [], []
        for j in trailing:
            d = apply_sigma_delta(pres, k, PBWElement(pres, ys[j]))[1]
            if d.is_zero:
                continue
            moved.append(j)
            lam_k = pres.lam_diag[k]
            if not lam_k:  # no scalar, or q^0
                raise ValueError(f"stage {t} needs a nontrivial diagonal scalar")
            alpha = omega(pres.lam, _unit_vec(n, k), ebar[j])
            # s = alpha (lambda_k - 1), as in certify_prime
            s = Coeff.q_power(alpha + lam_k, pres.root) - Coeff.q_power(alpha, pres.root)
            c = d.scaled(s.inv())
            if certify_prime(pres, k, ebar[j], c, d, lo):
                hits.append((j, c))
        if len(hits) != 1:
            raise ValueError(
                f"stage {t}: {len(hits)} normal candidates, expected exactly 1"
            )
        j, c = hits[0]
        for other in moved:
            if other != j:
                raise ValueError(
                    f"stage {t}: delta_{t} moves trailing prime {other}, "
                    "which the stage does not choose"
                )
        if not all(cf.is_laurent for cf in c.terms.values()):
            raise ValueError(f"stage {t}: non-Laurent centering coefficient")
        ys.append((pbw_mul(PBWElement(pres, ys[j]), xk) - c).terms)
        preds.append(j)
        cs[t] = c.terms
        ebar.append(tuple(a + b for a, b in zip(ebar[j], _unit_vec(n, k))))
    width = top - lo + 1
    eta_data = EtaData.from_predecessors(preds[:width])
    if pres.eta and not eta_data.same_partition(pres.eta[lo : top + 1]):
        raise ValueError("declared level sets disagree with the inferred ones")
    for t in range(width):
        f, lead = leading_term(PBWElement(pres, ys[t]))
        if f != ebar[t] or not lead.is_one:
            raise ValueError(f"stage {t}: leading term is not the chain monomial")
    nu = pres.nu()
    ybar = [
        PBWElement(pres, y).scaled(Coeff.q_power(symmetrization(nu, e), pres.root)).terms
        for y, e in zip(ys[:width], ebar)
    ]
    c = {t: c for t, c in cs.items() if t < width}
    checked[(lo, top)] = out = _Range(ys[:width], ybar, c, eta_data)
    return out
