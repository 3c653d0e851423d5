"""Interval-prefix permutations and the toric frames they induce.

A presentation can be re-ordered by any permutation tau whose prefixes
tau([0,k]) are index intervals; the reordered generators again satisfy
the same kind of presentation, and its prime elements are interval primes
of the original algebra.  This module enumerates those permutations,
builds the canonical maximal chain from the identity to the full reversal
(consecutive entries differing by one adjacent transposition), and
assembles for each tau the toric frame whose images are the normalized
interval primes, relabeled back to the original indices.  A frame is its
list of chain spans, one per label.  primeseq builds each span once per
presentation and keeps the nu-pairing of each span pair, formed on first
use; so adjacent chain frames share all images but one, and a frame's
exponent matrix is read off that table, pair by pair, with no product.

Frames built here carry PBW images of the ambient algebra; identities
about them are checked after clearing denominators rather than inside a
fraction field.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bicharacter import ExpMatrix
from .orealgebra import PBWElement, Presentation
from .primeseq import _primes, _span, _Span, _span_pairings
from .qtorus import ToricFrame


def has_interval_prefixes(tau: Sequence[int]) -> bool:
    """Whether every prefix of the one-line permutation is an interval."""
    n = len(tau)
    if sorted(tau) != list(range(n)):
        return False
    lo = hi = tau[0]
    for x in tau[1:]:
        if x == lo - 1:
            lo = x
        elif x == hi + 1:
            hi = x
        else:
            return False
    return True


def gamma_chain(n: int) -> List[Tuple[int, ...]]:
    """The canonical chain of interval-prefix permutations, id first.

    The chain has n(n-1)/2 + 1 entries, ends at the full reversal, and
    consecutive entries differ by one transposition of adjacent positions
    (see gamma_chain_swaps).
    """
    chain = [tuple(range(n))]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            # one-line form (1-based): i+1..j, i, j+1..N, i-1..1
            word = list(range(i + 1, j + 1)) + [i] + list(range(j + 1, n + 1))
            word += list(range(i - 1, 0, -1))
            chain.append(tuple(x - 1 for x in word))
    return chain


def gamma_chain_swaps(n: int) -> List[int]:
    """Left position of the adjacent swap between chain entries t and t+1."""
    swaps = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            swaps.append(j - i - 1)
    return swaps


def tau_bullet(eta: Sequence[int], tau: Sequence[int]) -> Tuple[int, ...]:
    """Permutation sending each index to its rank-matched level-set member.

    Within every level set of eta, the element appearing i-th along tau is
    sent to the i-th smallest element of that level set; the result is a
    permutation of range(n) commuting with eta's partition.
    """
    n = len(eta)
    by_level: dict = {}
    for x in range(n):
        by_level.setdefault(eta[x], []).append(x)
    seen: dict = {}
    bullet = [None] * n
    for k in range(n):
        x = tau[k]
        lvl = eta[x]
        i = seen.get(lvl, 0)
        bullet[x] = by_level[lvl][i]
        seen[lvl] = i + 1
    return tuple(bullet)


class TauPresentation:
    """Reordered presentation data and the toric frame it induces.

    Attributes use original generator labels where possible: frame images
    and exchange data are indexed by original labels (positions composed
    with the rank-matching relabeling), while eta_tau lives in tau-position
    space.  Instances compare by identity.
    """

    __slots__ = (
        "pres", "tau", "eta_tau", "sigma", "frame", "image_weights", "ex"
    )

    def __init__(
        self,
        pres: Presentation,
        tau: Tuple[int, ...],
        eta_tau: Tuple[int, ...],
        sigma: Tuple[int, ...],
        frame: ToricFrame,
        image_weights: list,
        ex: Tuple[int, ...],
    ):
        self.pres = pres
        self.tau = tau
        self.eta_tau = eta_tau
        self.sigma = sigma
        self.frame = frame
        self.image_weights = image_weights
        self.ex = ex

    def __repr__(self) -> str:
        return f"TauPresentation(tau={list(self.tau)})"


def _span_frame(pres: Presentation, entries: Sequence[_Span]):
    """The frame whose image number a is the normalized interval prime of
    the chain span entries[a] (from primeseq._span), and the weights of its
    images.

    The exponent matrix is R = V^T nu V, where column a of V is the chain
    vector v_a of entries[a]; its numerators over den = nu.den are read
    from primeseq's pairing table (_span_pairings), not formed as a product.
    Each table entry equals the entry of V^T nu V.  The span a keeps
    row_a = pairing_row(nu, v_a), built when a is first paired, whose
    entry j is sum_k v_a[k] den nu[k][j]; so the pairing formed for the
    pair a, b, sum_j row_a[j] v_b[j], is den v_a^T nu v_b, the entry (a, b)
    of den V^T nu V.  nu is skew-symmetric (ExpMatrix checks it), so
    den v_b^T nu v_a = -den v_a^T nu v_b, which the table stores for the
    mirror pair, and den v_a^T nu v_a = 0, which it stores on the
    diagonal.  The table belongs to pres alone, nu = pres.nu() is fixed
    once built, and a span's id, vec and row never change once set, so a
    stored entry stays right.  exp_mat_product(nu, V) forms the same
    integers, pairing_row(nu, v_a) against v_b, over the same den, and
    ExpMatrix._make reduces both alike: the two matrices are equal
    (tests/test_xicombinatorics.py compares them on every chain frame and
    window of the presets up to 5x5).
    """
    emat = ExpMatrix._make(_span_pairings(pres, entries), pres.nu().den)
    images = [PBWElement(pres, e.image) for e in entries]
    return ToricFrame(emat, images, pres.one(), pres.root), [e.weight for e in entries]


def frame_for_tau(pres: Presentation, tau: Sequence[int]) -> TauPresentation:
    """Build the toric frame attached to an interval-prefix permutation.

    The generator at position k of tau carries label sigma[k], the rank
    matching of tau_bullet; image number sigma[k] is the normalized
    interval prime over the part of that generator's level-set chain
    visible in the tau-prefix where it appears.

    That part is the positional chain of k: the span's chain vector, read
    through tau, is EtaData(eta_tau).ebar[k], the positions t <= k in the
    level set of position k.  Let x = tau[k] and [lo, hi] the prefix
    tau([0, k]), an interval as tau has interval prefixes.  Read through
    tau, the positional chain is the indicator of L & [lo, hi], L the
    level set of x; L's members in increasing order are linked by p and
    s, so L & [lo, hi] runs from L's first member >= lo to its last <= hi.
    For k = 0, lo = hi = x.  For k > 0 the prefix tau([0, k - 1]) is an
    interval too and holds tau[0], so x = hi when x > tau[0] and x = lo
    when x < tau[0].  If x >= tau[0], the run ends at x and starts at
    chain_start(x, lo); otherwise it starts at x and ends where the walk
    along s stops below hi.  That is the span (start, end) below, and
    _span's chain vector is interval_vector(start, end), which its leading
    term is checked against.  So the two agree on every frame, and only
    tests/test_xicombinatorics.py compares them, on the presets up to 5x5.
    """
    tau = tuple(int(x) for x in tau)
    n = pres.n
    if len(tau) != n:
        raise ValueError(
            f"permutation has {len(tau)} entries, the presentation {n} generators"
        )
    if not has_interval_prefixes(tau):
        raise ValueError("permutation does not have interval prefixes")
    ed = _primes(pres, 0, n - 1).eta_data
    eta_tau = tuple(ed.eta[x] for x in tau)
    bullet = tau_bullet(ed.eta, tau)
    sigma = tuple(bullet[x] for x in tau)
    entries: list = [None] * n
    lo = hi = tau[0]
    for k, x in enumerate(tau):
        lo, hi = min(lo, x), max(hi, x)
        start = end = x
        if x >= tau[0]:
            start = ed.chain_start(x, lo)
        else:
            while ed.s[end] is not None and ed.s[end] <= hi:
                end = ed.s[end]
        entries[sigma[k]] = _span(pres, start, end)
    frame, weights = _span_frame(pres, entries)
    return TauPresentation(
        pres, tau, eta_tau, sigma, frame, weights, ed.exchangeable()
    )


def identity_frame(pres: Presentation) -> TauPresentation:
    return frame_for_tau(pres, range(pres.n))


def _window_spans(pres: Presentation, i: int, m: int) -> List[_Span]:
    """The chain spans of interval_frame(pres, i, m), window-indexed."""
    ed = _primes(pres, 0, pres.n - 1).eta_data
    if m < 1:
        raise ValueError("window needs at least one chain step")
    top = ed.succ_power(i, m)
    spans = [(i, ed.succ_power(i, m - 1))]
    spans += [(ed.chain_start(k, i + 1), k) for k in range(i + 1, top)]
    return [_span(pres, a, b) for a, b in spans + [(i, top)]]


def interval_frame(pres: Presentation, i: int, m: int) -> ToricFrame:
    """Frame on the window from i to its m-th successor, window-indexed.

    Index 0 carries the chain prime up to the (m-1)-st successor, the last
    index the full chain prime, and an interior index k the prime of k's
    chain restricted to start strictly inside the window.  This is the
    frame in which the one-step mutation identity for interval primes is
    checked.
    """
    return _span_frame(pres, _window_spans(pres, i, m))[0]


def window_support_vector(
    pres: Presentation, i: int, m: int, f: Sequence[int]
) -> Tuple[int, ...]:
    """Expand f over the interior chain vectors of the window at (i, m).

    Returns the unique window-indexed integer vector g, supported away
    from the window endpoints, whose chain-vector combination equals f;
    raises ValueError when f is not in the span (which would violate the
    leading-term structure of the difference elements).
    """
    ed = _primes(pres, 0, pres.n - 1).eta_data
    top = ed.succ_power(i, m)
    width = top - i + 1
    rem = list(int(x) for x in f)
    g = [0] * width
    for k in range(top - 1, i, -1):
        c = rem[k]
        if c == 0:
            continue
        g[k - i] = c
        chain = ed.interval_vector(ed.chain_start(k, i + 1), k)
        rem = [r - c * x for r, x in zip(rem, chain)]
    if any(rem):
        raise ValueError("vector is not a combination of interior chains")
    return tuple(g)
