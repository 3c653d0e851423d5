"""Test oracle: an interval subalgebra presented as an algebra of its own.

The package runs interval primes and the first-column windows inside the
loaded algebra.  This module keeps the route they replaced, which copies
the generators j..k into a new Presentation, so tests can compare the two.
"""

from qcluster.orealgebra import PBWElement, Presentation
from qcluster.primeseq import _check_range
from oracles import restricted


def restrict_presentation(pres: Presentation, j: int, k: int) -> Presentation:
    """The subalgebra on generators j..k (inclusive) as an algebra of its own.

    It inherits the overlap certificate of pres (see
    orealgebra.check_overlaps), provided every derivation among x_j..x_k
    stays in that range; a table where one does not is a ValueError.
    """
    _check_range(pres, j, k)
    idx = list(range(j, k + 1))
    delta = {
        (b - j, a - j): tuple((f[j : k + 1], c) for f, c in terms)
        for (b, a), terms in pres.delta.items()
        if a >= j and b <= k
    }
    return Presentation(
        restricted(pres.lam, idx),
        delta,
        [pres.weights[i] for i in idx],
        [pres.lam_diag[i] for i in idx],
        lam_star=[pres.lam_star[i] for i in idx],
        eta=[pres.eta[i] for i in idx] if pres.eta is not None else None,
        names=[pres.names[i] for i in idx],
        root=pres.root,
    )


def embed_interval(pres: Presentation, j: int, elem: PBWElement) -> PBWElement:
    """Reinterpret an element of the subalgebra on j.. as one of pres."""
    z = (0,) * pres.n
    terms = {z[:j] + f + z[j + len(f) :]: c for f, c in elem.terms.items()}
    return PBWElement(pres, terms)
