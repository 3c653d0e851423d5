"""Sequences of homogeneous prime elements and their leading data.

Every CGL extension (certified by orealgebra.check_cgl) determines a chain
of subalgebras R_0 < R_1 < ... (generated by the first k generators) and
each R_k has, up to scalars, a finite list of homogeneous prime elements.
The list for R_k is obtained from the one for R_{k-1} by the recursion

    y_k = y_{p(k)} x_k - c_k   (or just x_k when the derivation vanishes),

where p is the predecessor map of a level-set function eta on indices; by
the Goodearl-Yakimov theorem each stage forms one delta_k product.
This module infers eta/p/s, builds the y_k together with the c_k, the
normalized variants, interval versions over subranges of generators (a
weak memo per presentation builds and checks each chain span once: its
prime, the normalized image that toric frames share and its weight; it
keeps the nu-pairing of each span pair that frames read their exponent
matrices from), the
two-by-two difference elements u built from neighbouring interval primes,
and the windows: window(pres, i, m) is the one owner of the window from i
to s^m(i), its end, u and u's leading coefficient and exponent (pi, f),
formed once per presentation in the same memo.  From the length-one
windows come the generator rescaling gamma that normalizes the leading
coefficients (generator_scalars) and the rescaled algebra
(rescale_generators).
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from math import prod
from operator import mul

from .bicharacter import ExpMatrix, _pairing, _symmetrization, pairing_row
from .orealgebra import (
    _CERTIFIED,
    PBWElement,
    Presentation,
    apply_sigma_delta,
    check_cgl,
    leading_term,
    pbw_mul,
    weight_of,
)
from .scalarfield import Coeff, _div_laurent, _q_power

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Dict, List, Optional, Sequence, Tuple


class EtaData:
    """Level-set function on indices with predecessor/successor maps.

    p[k] (s[k]) is the nearest smaller (larger) index in the same level
    set, or None at the ends.  Derived data: chain orders o_minus/o_plus,
    the chain exponent vectors ebar, and the trailing-prime index sets.
    """

    __slots__ = ("n", "eta", "p", "s", "o_minus", "o_plus", "ebar")

    def __init__(self, eta: Sequence[int]):
        eta = tuple(int(e) for e in eta)
        n = len(eta)
        last: Dict[int, int] = {}
        p: List[Optional[int]] = [None] * n
        s: List[Optional[int]] = [None] * n
        for k in range(n):
            j = last.get(eta[k])
            if j is not None:
                p[k] = j
                s[j] = k
            last[eta[k]] = k
        o_minus = [0] * n
        ebar = []
        for k in range(n):
            vec = [0] * n
            j: Optional[int] = k
            while j is not None:
                vec[j] = 1
                j = p[j]
            ebar.append(tuple(vec))
            if p[k] is not None:
                o_minus[k] = o_minus[p[k]] + 1
        o_plus = [0] * n
        for k in reversed(range(n)):
            if s[k] is not None:
                o_plus[k] = o_plus[s[k]] + 1
        self.n = n
        self.eta = eta
        self.p = tuple(p)
        self.s = tuple(s)
        self.o_minus = tuple(o_minus)
        self.o_plus = tuple(o_plus)
        self.ebar = tuple(ebar)

    @classmethod
    def from_predecessors(cls, preds: Sequence[Optional[int]]) -> "EtaData":
        eta: List[int] = []
        fresh = 0
        for k, j in enumerate(preds):
            if j is None:
                eta.append(fresh)
                fresh += 1
            else:
                eta.append(eta[j])
        out = cls(eta)
        if out.p != tuple(preds):
            raise ValueError("predecessor list is not nearest-in-level-set")
        return out

    def rank(self) -> int:
        return sum(1 for x in self.s if x is None)

    def exchangeable(self) -> Tuple[int, ...]:
        return tuple(k for k in range(self.n) if self.s[k] is not None)

    def trailing(self, k: int) -> Tuple[int, ...]:
        """Indices j <= k whose successor lies beyond k (or nowhere)."""
        return tuple(
            j for j in range(k + 1) if self.s[j] is None or self.s[j] > k
        )

    def chain_start(self, k: int, lo: int) -> int:
        """The first index of k's chain i, s(i), ..., k that is at least lo."""
        while self.p[k] is not None and self.p[k] >= lo:
            k = self.p[k]
        return k

    def succ_power(self, i: int, m: int) -> int:
        """s^m(i); ValueError unless i is an index, m >= 0 and s^m(i) exists."""
        if not 0 <= i < self.n:
            raise ValueError(f"start index {i} is not in 0..{self.n - 1}")
        if m < 0:
            raise ValueError(f"negative chain length {m}")
        j = i
        for _ in range(m):
            nxt = self.s[j]
            if nxt is None:
                raise ValueError(f"index {i} has no {m}-th successor")
            j = nxt
        return j

    def interval_vector(self, i: int, j: int) -> Tuple[int, ...]:
        """Indicator vector of the chain i, s(i), ..., j."""
        vec = [0] * self.n
        k: Optional[int] = i
        while k is not None and k <= j:
            vec[k] = 1
            if k == j:
                return tuple(vec)
            k = self.s[k]
        raise ValueError(f"{j} is not an iterated successor of {i}")

    def same_partition(self, other_eta: Sequence[int]) -> bool:
        """Whether other_eta has the same level sets, whatever its labels.

        Each labeling maps to the first index of every index's level set;
        two labelings share their partition exactly when these lists agree.
        """

        def firsts(labels):
            first: Dict[int, int] = {}
            return [first.setdefault(v, k) for k, v in enumerate(labels)]

        return firsts(self.eta) == firsts(other_eta)


class PrimeSequence:
    """The y_k, ybar_k and c_k, from their term dicts, and the level-set data."""

    __slots__ = ("pres", "y", "ybar", "c", "eta_data")

    def __init__(self, pres, y, ybar, c, eta_data):
        self.pres = pres
        self.y = tuple([PBWElement(pres, t) for t in y])
        self.ybar = tuple([PBWElement(pres, t) for t in ybar])
        self.c = {k: PBWElement(pres, t) for k, t in c.items()}
        self.eta_data = eta_data


def _unit_vec(n: int, k: int) -> Tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(n))


# Per presentation (_memo), the stages run from each start, the checked
# _Range of each range, the checked _Span of each chain span, the pairing
# table, where
# pairings[a][b] = den * vec_a^T nu vec_b for the spans with ids a and b
# (_span_pairings), and each window (i, m) as (top, u's terms, pi, f): term
# dicts, tuples, lists, ints and scalars, so no entry refers back to its
# presentation or outlives it.
class _Memo:
    __slots__ = ("runs", "checked", "spans", "pairings", "windows")

    def __init__(self):
        self.runs, self.checked, self.spans, self.pairings = {}, {}, {}, []
        self.windows = {}


_MEMO: "weakref.WeakKeyDictionary[Presentation, _Memo]" = weakref.WeakKeyDictionary()
_Range = namedtuple("_Range", "y c eta_data")
# id indexes the pairing table; row is den * vec^T nu (nu = pres.nu()),
# filled in place when the span is first paired (_span_pair)
_Span = namedtuple("_Span", "y image vec weight id row")


def _memo(pres: Presentation) -> _Memo:
    """The memo entry of pres, created on first use."""
    memo = _MEMO.get(pres)
    if memo is None:
        memo = _MEMO[pres] = _Memo()
    return memo


def compute_primes(pres: Presentation) -> PrimeSequence:
    """Run the prime-element recursion over all generator stages (see _primes)."""
    r = _primes(pres, 0, pres.n - 1)
    return PrimeSequence(pres, r.y, _normalized(pres, r), r.c, r.eta_data)


def _normalized(pres: Presentation, r: _Range, lo: int = 0) -> list:
    """The normalized primes S_nu(ebar_t) y_t of the range r from lo, as term dicts."""
    nu, pad, root = pres.nu(), (0,) * lo, pres.root
    return [
        PBWElement(pres, y).scaled(_q_power(_symmetrization(nu, pad + e), nu.den, root)).terms
        for y, e in zip(r.y, r.eta_data.ebar)
    ]


def _primes(pres: Presentation, lo: int, top: int) -> _Range:
    """compute_primes for R_[lo,top], the subalgebra on x_lo..x_top, inside pres.

    The caller checks the range first (_check_range).  Stages, level sets and
    errors count from lo, as if R_[lo,top] were presented on its own.  A
    longer range resumes from the stages run from lo, and the level-set
    check covers lo..top.  The result holds term dicts, as the
    memo does.  pres is certified first (check_cgl), unless it is recorded
    in _CERTIFIED; R_[lo,top] inherits the certificate.

    The theorem.  In a CGL extension the homogeneous prime elements of R_k
    are the y_j with s(j) > k; p(k) exists iff delta_k != 0, and then
    y_k = y_p(k) x_k - c with c in R_(k-1) (Goodearl-Yakimov, arXiv:1208.6267;
    restated in the source paper, arXiv:1309.7869).  Write delta = delta_k,
    sigma = sigma_k, lambda = lambda_k and nu(a) for the largest n with
    delta^n(a) != 0.  As sigma delta = lambda delta sigma (check_cgl), the
    q-Leibniz rule gives delta^(m+n)(ab) = [m+n choose n]_lambda
    delta^m sigma^n(a) delta^n(b) for m = nu(a), n = nu(b); lambda is no
    root of unity and R is a domain, so nu(ab) = nu(a) + nu(b).  The y are
    H-eigenvectors: h_k scales y_j by alpha = q**omega(e_k, ebar_j) and
    y_k by alpha lambda, so sigma(c) = alpha lambda c.

    The formula for c.  y = y_k is normal, so with j = p(k), d = delta(y_j),
    x_k y = y (r1 x_k + r0), and the x_k-coefficients give r1 = alpha,
    d - sigma(c) = y_j sigma(r0) - alpha c and c r0 - delta(c) = y_j delta(r0).
    Were r0 != 0, the second would give nu(c) = nu(y_j) + nu(r0), and the
    third would have nu(y_j) + 2 nu(r0) on its left, more than on its right.
    So r0 = 0 and d = alpha (lambda - 1) c, with c != 0 as y is prime.

    Only y_p(k) moves.  A trailing y_j, j != p(k), is prime in R_k, so in
    the same way x_k y_j = alpha y_j x_k + delta(y_j) = y_j (alpha x_k + r0),
    and r0 != 0 would give nu(delta(y_j)) = nu(y_j) + nu(r0), not
    nu(y_j) - 1.  So the first trailing prime that delta moves is p(k), and
    the declared p(k), tried first, costs one apply_sigma_delta
    (tests/scan.py keeps the scan of every trailing prime).

    No input fails the leading-term check, whatever lo is.  A stage without
    a derivation adds x_k.  A derivation stage adds y_j x_k - c, where y_j
    lies on x_lo..x_(k-1) with leading term x^ebar_j and coefficient 1; so
    each monomial x^f of y_j gives x^f x_k = x^(f + e_k) with no rewriting,
    and the leading term of y_j x_k is x^(ebar_j + e_k) with coefficient 1.
    c is a multiple of delta_k(y_j), which has no x_k (apply_sigma_delta
    rejects one that leaves R_(k-1)), so it lies reverse-lex below.  The
    check stays as a guard on this argument, on which interval primes and
    the first-column window rest; it runs once, when the stage is formed,
    and a failing stage is not kept, so every range holding it fails.
    """
    if pres not in _CERTIFIED:
        check_cgl(pres)
    memo = _memo(pres)
    runs, checked = memo.runs, memo.checked
    if (lo, top) in checked:
        return checked[(lo, top)]
    preds, ys, cs, ebar = runs.setdefault(lo, ([], [], {}, []))
    n, eta, root = pres.n, pres.eta, pres.root
    for k in range(lo + len(preds), top + 1):
        t = k - lo  # the stage, counted as in R_[lo,top]
        y, j, e = pres.gen(k), None, _unit_vec(n, k)
        if any((k, i) in pres.delta for i in range(lo, k)):
            # trailing primes of stage t-1 (indices never used as a
            # predecessor), the declared predecessor first
            used = {p for p in preds if p is not None}
            declared = [j for j in range(t) if eta and eta[lo + j] == eta[k]][-1:]
            for j in sorted((j for j in range(t) if j not in used), key=lambda j: j not in declared):
                d = apply_sigma_delta(pres, k, PBWElement(pres, ys[j]))[1]
                if not d.is_zero:
                    break
            else:  # excluded by the theorem on a certified presentation
                raise ValueError(f"stage {t}: delta_{t} moves no trailing prime")
            # d = s c with s = alpha (lambda_k - 1), alpha = q**(a/den) and
            # lambda_k = q**lk, nonzero: check_cgl proved lk != 0; so each
            # coefficient of c is one exact quotient
            a, den, lk = _pairing(pres.lam, e, ebar[j]), pres.lam.den, pres.lam_diag[k]
            s = _q_power(a * lk.denominator + lk.numerator * den, den * lk.denominator, root)
            s = s - _q_power(a, den, root)
            c = {f: _div_laurent(cf, s.num) for f, cf in d.terms.items()}
            if any(cf is None for cf in c.values()):
                raise ValueError(f"stage {t}: non-Laurent centering coefficient")
            y = pbw_mul(PBWElement(pres, ys[j]), y) - PBWElement(pres, c)
            e = tuple(a + b for a, b in zip(ebar[j], e))
        f, lead = leading_term(y)
        if f != e or not lead.is_one:
            raise ValueError(f"stage {t}: leading term is not the chain monomial")
        if j is not None:
            cs[t] = c
        preds.append(j)
        ys.append(y.terms)
        ebar.append(e)
    width = top - lo + 1
    eta_data = EtaData.from_predecessors(preds[:width])
    if pres.eta and not eta_data.same_partition(pres.eta[lo : top + 1]):
        raise ValueError("declared level sets disagree with the inferred ones")
    c = {t: c for t, c in cs.items() if t < width}
    checked[(lo, top)] = out = _Range(ys[:width], c, eta_data)
    return out


def _check_range(pres: Presentation, j: int, k: int) -> None:
    """ValueError unless the derivations of x_j..x_k stay among them; the
    callers pass 0 <= j <= k < pres.n."""
    for (b, a), terms in pres.delta.items():
        if a >= j and b <= k and any(any(f[:j]) for f, _ in terms):
            raise ValueError(f"delta[{b},{a}] leaves the generators {j}..{k}")


def interval_prime(pres: Presentation, i: int, m: int) -> PBWElement:
    """The prime y over the chain i, s(i), ..., s^m(i), inside pres.

    This is the last prime of the subalgebra on generators i..s^m(i); its
    leading term is the chain indicator monomial.
    """
    top = _primes(pres, 0, pres.n - 1).eta_data.succ_power(i, m)
    return PBWElement(pres, _span(pres, i, top).y)


def _span(pres: Presentation, i: int, top: int) -> _Span:
    """The prime y over the chain vec from i to top, its image S_nu(vec) y
    and the image's weight, checked on first use; callers have run
    compute_primes.  A failing span is not kept, so it fails alike each time."""
    memo = _memo(pres)
    spans = memo.spans
    if (i, top) in spans:
        return spans[(i, top)]
    _check_range(pres, i, top)
    y = PBWElement(pres, _primes(pres, i, top).y[-1])
    f, lead = leading_term(y)
    vec = _primes(pres, 0, pres.n - 1).eta_data.interval_vector(i, top)
    if f != vec or not lead.is_one:
        raise ValueError(f"interval prime [{i},{top}] has a wrong leading term")
    nu = pres.nu()
    image = y.scaled(_q_power(_symmetrization(nu, vec), nu.den, pres.root))
    # weight_of cannot fail: the presentation checks at load that every delta
    # monomial has the weight of its key, so every prime is weight-homogeneous
    sid = len(memo.pairings)
    memo.pairings.append({sid: 0})  # vec^T nu vec = 0, as nu is skew
    spans[(i, top)] = out = _Span(y.terms, image.terms, vec, weight_of(image), sid, [])
    return out


def _span_pair(nu: ExpMatrix, a: _Span, b: _Span) -> int:
    """den * vec_a^T nu vec_b, from a's pairing row, built on first use."""
    if not a.row:
        a.row[:] = pairing_row(nu, a.vec)
    return sum(map(mul, a.row, b.vec))


def _span_pairings(pres: Presentation, entries: Sequence[_Span]) -> tuple:
    """den * V^T nu V, where the columns of V are the chain vectors of the
    spans entries (from _span on pres), read from the pairing table.

    A missing pair a, b is formed once, by _span_pair, and stored with its
    mirror: b, a holds the negative, as nu is skew-symmetric.
    """
    table, nu = _memo(pres).pairings, pres.nu()
    ids = [e.id for e in entries]
    out = []
    for a in entries:
        known = table[a.id]
        try:
            out.append(tuple([known[b] for b in ids]))
        except KeyError:
            for b in entries:
                if b.id not in known:
                    known[b.id] = x = _span_pair(nu, a, b)
                    table[b.id][a.id] = -x
            out.append(tuple([known[b] for b in ids]))
    return tuple(out)


def u_element(pres: Presentation, i: int, m: int) -> PBWElement:
    """Difference element attached to the chain from i to s^m(i).

    For m >= 2 it is y_[i..s^(m-1)] y_[s..s^m] minus the appropriately
    scaled product in the other order; for m = 1 it is x_i x_{s(i)} minus
    the length-one interval prime; m = 0 gives the unit.  The result is
    supported strictly between i and s^m(i).
    """
    ed = _primes(pres, 0, pres.n - 1).eta_data
    top = ed.succ_power(i, m)
    if m == 0:
        return pres.one()
    if m == 1:
        u = pbw_mul(pres.gen(i), pres.gen(top)) - interval_prime(pres, i, 1)
    else:
        s_i = ed.s[i]
        mid_lo = ed.succ_power(i, m - 1)
        a = interval_prime(pres, i, m - 1)
        b = interval_prime(pres, s_i, m - 1)
        c = interval_prime(pres, s_i, m - 2)
        d = interval_prime(pres, i, m)
        scal = _pairing(pres.lam, _unit_vec(pres.n, i), ed.interval_vector(s_i, mid_lo))
        u = pbw_mul(a, b) - pbw_mul(c, d).scaled(_q_power(scal, pres.lam.den, pres.root))
    for f in u.terms:
        sup = [t for t, x in enumerate(f) if x]
        if sup and (sup[0] <= i or sup[-1] >= top):
            raise ValueError(f"difference element [{i},{top}] leaks support")
    return u


def window(pres: Presentation, i: int, m: int):
    """(top, u, pi, f) of the window from i to top = s^m(i): the difference
    element u = u_element(pres, i, m) and its leading coefficient pi and
    exponent f, formed on first use.  A failing window is not kept, so it
    fails alike each time."""
    windows = _memo(pres).windows
    if (i, m) not in windows:
        top = _primes(pres, 0, pres.n - 1).eta_data.succ_power(i, m)
        u = u_element(pres, i, m)
        if u.is_zero:
            raise ValueError(f"difference element [{i}, m={m}] vanishes")
        f, pi = leading_term(u)
        windows[(i, m)] = (top, u.terms, pi, f)
    top, terms, pi, f = windows[(i, m)]
    return top, PBWElement(pres, terms), pi, f


def _scalar_target(pres: Presentation, i: int, f: Sequence[int]) -> int:
    """den * the exponent of S_nu(-e_i + f), over den = pres.nu().den."""
    g = list(int(x) for x in f)
    g[i] -= 1
    return _symmetrization(pres.nu(), g)


def interval_scalar_target(pres: Presentation, i: int, f: Sequence[int]) -> Fraction:
    """Exponent of S_nu(-e_i + f), the normalized value the leading pi should match."""
    from fractions import Fraction
    return Fraction(_scalar_target(pres, i, f), pres.nu().den)


def generator_scalars(pres: Presentation) -> List[Coeff]:
    """The gamma that rescale_generators applies, from the length-one
    windows of pres: gamma_i = 1 where p(i) is None, else
    gamma_i = gamma_j**-1 gamma**f pi**-1 q**S(j, f) with (pi, f) the
    leading data of u(j, 1), j = p(i), the rescaled algebra's equation
    pi' = q**S(j, f) solved for gamma_i (rescale_generators' docstring).
    f lies strictly between j and i, so gamma**f reads only gamma_t, t < i,
    and each gamma_i is a product of nonzero scalars."""
    ed = _primes(pres, 0, pres.n - 1).eta_data
    one = Coeff.one(pres.root)
    gamma: List[Coeff] = [one] * pres.n
    for i in range(pres.n):
        j = ed.p[i]
        if j is not None:
            _, _, pi, f = window(pres, j, 1)
            target = _q_power(_scalar_target(pres, j, f), pres.nu().den, pres.root)
            gamma[i] = gamma[j].inv() * _gamma_power(gamma, f, one) * pi.inv() * target
    return gamma


def rescale_generators(pres: Presentation):
    """pres with x_i -> gamma_i x_i, for the gamma of generator_scalars,
    which makes every length-one pi match its normalized target.
    Returns (rescaled presentation, its prime sequence).

    The rescaled presentation R' inherits the certificate of pres for any
    nonzero gamma: its overlaps by the argument in
    orealgebra.check_overlaps, and the rest of check_cgl, which reads only
    lam, lambda_diag and the delta monomials, all unchanged.

    The windows of R' need no check.  phi: x'_i -> gamma_i x_i is an
    isomorphism R' -> R (R' has the delta coefficients c gamma_k gamma_j /
    gamma**f) that sends x'^f to gamma**f x^f, so it keeps the level sets
    and leading exponents.  It sends y'_k, the homogeneous prime of R'_k
    outside R'_(k-1) with leading coefficient 1, to such a prime of R_k,
    unique up to the scalar its leading term shows: gamma**ebar_k y_k.
    Likewise the interval prime of [i, s(i)] goes to gamma_i gamma_s(i)
    times that of R, so u'(i, 1) to gamma_i gamma_s(i) u(i, 1).  Thus u'
    has u's leading exponent f and pi' = gamma_i gamma_s(i) gamma**-f pi,
    which is q**S(i, f) (nu is R's): the equation generator_scalars solves
    for gamma_s(i).  tests/oracles.py keeps the check (check_rescaled_windows).
    """
    gamma = generator_scalars(pres)
    one = Coeff.one(pres.root)
    delta = {
        (k, j): tuple(
            (f, c * gamma[k] * gamma[j] * _gamma_power(gamma, f, one).inv())
            for f, c in terms
        )
        for (k, j), terms in pres.delta.items()
    }
    rescaled = Presentation(
        pres.lam,
        delta,
        pres.weights,
        pres.lam_diag,
        lam_star=pres.lam_star,
        eta=pres.eta,
        names=pres.names,
        root=pres.root,
    )
    _CERTIFIED.add(rescaled)
    return rescaled, compute_primes(rescaled)


def _gamma_power(gamma: Sequence[Coeff], f: Sequence[int], one: Coeff) -> Coeff:
    return prod((g ** x for g, x in zip(gamma, f) if x), start=one)
