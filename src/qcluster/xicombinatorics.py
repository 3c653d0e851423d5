"""Interval-prefix permutations and the toric frames they induce.

A presentation can be re-ordered by any permutation tau whose prefixes
tau([0,k]) are index intervals; the reordered generators again satisfy
the same kind of presentation, and its prime elements are interval primes
of the original algebra.  This module enumerates those permutations,
builds the canonical maximal chain from the identity to the full reversal
(consecutive entries differing by one adjacent transposition), and
assembles for each tau the toric frame whose images are the normalized
interval primes, relabeled back to the original indices.  A frame is its
list of chain spans, one per label; primeseq builds each span once per
presentation, so adjacent chain frames share all images but one.

Frames built here carry PBW images of the ambient algebra; identities
about them are checked after clearing denominators rather than inside a
fraction field.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bicharacter import exp_mat_product
from .orealgebra import PBWElement, Presentation
from .primeseq import EtaData, _primes, _span
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
        "pres", "tau", "eta_tau", "bullet", "sigma", "frame", "image_weights", "ex"
    )

    def __init__(
        self,
        pres: Presentation,
        tau: Tuple[int, ...],
        eta_tau: Tuple[int, ...],
        bullet: Tuple[int, ...],
        sigma: Tuple[int, ...],
        frame: ToricFrame,
        image_weights: list,
        ex: Tuple[int, ...],
    ):
        self.pres = pres
        self.tau = tau
        self.eta_tau = eta_tau
        self.bullet = bullet
        self.sigma = sigma
        self.frame = frame
        self.image_weights = image_weights
        self.ex = ex

    def __repr__(self) -> str:
        return f"TauPresentation(tau={list(self.tau)})"


def _span_frame(pres: Presentation, spans: Sequence[Tuple[int, int]]):
    """The frame whose image number a is the normalized interval prime over
    the chain span spans[a] = (start, end), and the weights of its images.

    The exponent matrix is the pairing matrix V^T nu V of the spans' chain
    indicator vectors, the columns of V.
    """
    entries = [_span(pres, i, top) for i, top in spans]
    emat = exp_mat_product(pres.nu(), list(zip(*(e.vec for e in entries))))
    images = [PBWElement(pres, e.image) for e in entries]
    return ToricFrame(emat, images, pres.one(), pres.root), [e.weight for e in entries]


def frame_for_tau(pres: Presentation, tau: Sequence[int]) -> TauPresentation:
    """Build the toric frame attached to an interval-prefix permutation.

    The generator at position k of tau carries label sigma[k], the rank
    matching of tau_bullet; image number sigma[k] is the normalized
    interval prime over the part of that generator's level-set chain
    visible in the tau-prefix where it appears.
    """
    tau = tuple(int(x) for x in tau)
    n = pres.n
    if not has_interval_prefixes(tau):
        raise ValueError("permutation does not have interval prefixes")
    ed = _primes(pres, 0, n - 1).eta_data
    eta_tau = tuple(ed.eta[tau[k]] for k in range(n))
    pos_data = EtaData(eta_tau)
    bullet = tau_bullet(ed.eta, tau)
    sigma = tuple(bullet[tau[k]] for k in range(n))
    spans: list = [None] * n
    lo = hi = tau[0]
    for k, x in enumerate(tau):
        lo, hi = min(lo, x), max(hi, x)
        start = end = x
        if x >= tau[0]:
            start = ed.chain_start(x, lo)
        else:
            while ed.s[end] is not None and ed.s[end] <= hi:
                end = ed.s[end]
        spans[sigma[k]] = (start, end)
        vec = _span(pres, start, end).vec
        # positional chains must describe the same intervals: the chain of
        # position k, read through tau, is the span's chain vector
        if tuple(vec[t] for t in tau) != pos_data.ebar[k]:
            raise ValueError(f"position {k}: prefix chain disagrees with interval chain")
    frame, weights = _span_frame(pres, spans)
    return TauPresentation(
        pres, tau, eta_tau, bullet, sigma, frame, weights, ed.exchangeable()
    )


def identity_frame(pres: Presentation) -> TauPresentation:
    return frame_for_tau(pres, range(pres.n))


def _window_spans(pres: Presentation, i: int, m: int) -> List[Tuple[int, int]]:
    """The chain spans of interval_frame(pres, i, m), window-indexed."""
    ed = _primes(pres, 0, pres.n - 1).eta_data
    if m < 1:
        raise ValueError("window needs at least one chain step")
    top = ed.succ_power(i, m)
    spans = [(i, ed.succ_power(i, m - 1))]
    spans += [(ed.chain_start(k, i + 1), k) for k in range(i + 1, top)]
    return spans + [(i, top)]


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
