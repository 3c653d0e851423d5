"""Test oracle: symmetrizers found by search and read off the scalars.

The package reads skew-symmetrizability off the pairings of a compatible
pair: mutation.Seed rejects a linked pair whose pairings differ in sign, and
exchangesolver requires squared scalars of one sign.  This module keeps the
routes that find the symmetrizers themselves, so tests can compare the
two: a search over the exchange graph for a seed's matrix, the squared
scalars rescaled for a solved one, and the defining identity.  Both
routes rescale to smallest integers with primitive, which no package
module needs.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Optional, Sequence

from qcluster.mutation import ExchangeMatrix


def primitive(values: Sequence) -> List[int]:
    """The integer multiple of a rational vector whose gcd is 1.

    Signs are kept, so positive rationals become the smallest positive
    integers with the same ratios.  The values must not all be zero.
    """
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [x // g for x in ints]


def skew_symmetrizable(bmat: ExchangeMatrix, d: Mapping[int, int]) -> bool:
    """Whether d_k b_kj = -d_j b_jk holds on the principal part.

    The d are positive integers indexed by the exchangeable set.
    """
    for k in bmat.ex:
        if d[k] <= 0:
            raise ValueError("symmetrizers must be positive")
    return all(
        d[k] * bmat.cols[j][k] == -d[j] * bmat.cols[k][j]
        for k in bmat.ex
        for j in bmat.ex
    )


def find_symmetrizer(bmat: ExchangeMatrix) -> Optional[Dict[int, int]]:
    """Positive integer symmetrizers for the principal part, or None.

    Within each connected component of the exchange graph the values are
    normalized to smallest positive integers.
    """
    ex = bmat.ex
    for k in ex:
        if bmat.cols[k][k] != 0:
            return None
    d: Dict[int, Fraction] = {}
    for start in ex:
        if start in d:
            continue
        comp = [start]
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            k = queue.pop()
            for j in ex:
                if j == k:
                    continue
                bkj = bmat.cols[j][k]
                bjk = bmat.cols[k][j]
                if bkj == 0 and bjk == 0:
                    continue
                if bkj == 0 or bjk == 0:
                    return None
                want = -d[k] * bkj / bjk
                if want <= 0:
                    return None
                if j in d:
                    if d[j] != want:
                        return None
                else:
                    d[j] = want
                    comp.append(j)
                    queue.append(j)
        d.update(zip(comp, primitive([d[k] for k in comp])))
    return d


def symmetrizers_from_scalars(lam_star, ex: Sequence[int]) -> Dict[int, int]:
    """Positive integers proportional to the squared-scalar exponents.

    lam_star holds the squared-scalar exponents by label, as
    Presentation.lam_star does.  The exponents must be of one sign; the
    common rescaling to smallest positive integers is returned per
    exchangeable index.
    """
    exps: Dict[int, Fraction] = {}
    for l in ex:
        if not lam_star[l]:
            raise ValueError(f"index {l} lacks a squared scalar")
        exps[l] = lam_star[l]
    if len({e > 0 for e in exps.values()}) > 1:
        raise ValueError("squared-scalar exponents of mixed sign")
    return dict(zip(exps, primitive([abs(e) for e in exps.values()])))
