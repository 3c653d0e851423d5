"""Exchange matrices, compatible pairs, and seed mutation.

An exchange matrix here is an N x n integer matrix stored column by
column, with columns indexed by the exchangeable subset of range(N).
Compatibility against a torus exponent matrix E means the pairing
column^T E e_j vanishes for every j other than the column index and is a
nonzero exponent there.

Mutation acts on three layers that are kept in sync, one rule each:

* mutate_matrix: the Fomin-Zelevinsky entrywise sign-split rule;
* mutate_emat: the rank-one conjugation of the torus exponent matrix of a
  compatible pair;
* mutate_seed: frame images change only in direction k, via the exchange
  relation, realized by exact right division (scalarfield.div_right) in
  the domain the images live in, the ambient algebra or a quantum torus.

Matrix mutation does not depend on the sign that the factor route
E_eps B F_eps chooses, and compatible pairs mutate to compatible pairs
(Berenstein-Zelevinsky), so no layer takes a sign.
"""

from __future__ import annotations

from math import gcd

from .bicharacter import ExpMatrix, _pairing, pairing_row
from .qtorus import ToricFrame, TorusElement, frame_value
from .scalarfield import _q_power, _ratio_str, div_right

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Dict, Mapping, Sequence


def gplus(v: Sequence[int]):
    """Componentwise positive part."""
    return tuple(x if x > 0 else 0 for x in v)


def gminus(v: Sequence[int]):
    """Componentwise negative part, so that v = gplus(v) + gminus(v)."""
    return tuple(x if x < 0 else 0 for x in v)


class ExchangeMatrix:
    """Integer N x n matrix with columns indexed by the exchangeable set."""

    __slots__ = ("n_rows", "ex", "cols")

    def __init__(self, n_rows: int, cols: Mapping[int, Sequence[int]]):
        self.n_rows = n_rows
        self.ex = tuple(sorted(cols))
        fixed = {}
        for k, col in cols.items():
            if not 0 <= k < n_rows:
                raise ValueError(f"column index {k} out of range")
            col = tuple(int(x) for x in col)
            if len(col) != n_rows:
                raise ValueError("column length mismatch")
            fixed[k] = col
        self.cols = fixed

    def entry(self, i: int, k: int) -> int:
        return self.cols[k][i]

    def column(self, k: int):
        return self.cols[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.n_rows == other.n_rows and self.cols == other.cols

    def __repr__(self) -> str:
        return f"ExchangeMatrix(n_rows={self.n_rows}, ex={self.ex})"


def compatibility_check(emat: ExpMatrix, bmat: ExchangeMatrix) -> Dict[int, Fraction]:
    """Diagonal pairings of a compatible pair, as exponents of q.

    Raises ValueError when an off-diagonal pairing is nonzero or a
    diagonal one vanishes; otherwise returns {k: pairing of column k with
    its own direction}.  A compatible matrix has full column rank with no
    elimination: the pairings of its columns with the exchangeable
    directions form a diagonal matrix with a nonzero diagonal, so a
    vanishing combination of columns pairs to zero in every direction and
    has all coefficients zero.
    """
    from fractions import Fraction
    return {k: Fraction(e, emat.den) for k, e in _diagonal_pairings(emat, bmat).items()}


def _diagonal_pairings(emat: ExpMatrix, bmat: ExchangeMatrix) -> Dict[int, int]:
    """compatibility_check with each pairing as its numerator over emat.den."""
    if emat.n != bmat.n_rows:
        raise ValueError("size mismatch between torus matrix and columns")
    diag: Dict[int, int] = {}
    for k in bmat.ex:
        for j, e in enumerate(pairing_row(emat, bmat.cols[k])):
            if j == k:
                if e == 0:
                    raise ValueError(f"diagonal pairing at {k} is trivial")
                diag[k] = e
            elif e != 0:
                raise ValueError(
                    f"pairing of column {k} with direction {j} is "
                    f"q^{_ratio_str(e, emat.den)} != 1"
                )
    return diag


def mutate_matrix(bmat: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k by the entrywise sign-split rule:
    b'_ij = -b_ij when k is i or j, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    if k not in bmat.cols:
        raise ValueError(f"direction {k} is not exchangeable")
    bk = bmat.cols[k]
    cols = {
        j: tuple(
            -x if k in (i, j) else x + (abs(b) * col[k] + b * abs(col[k])) // 2
            for i, (x, b) in enumerate(zip(col, bk))
        )
        for j, col in bmat.cols.items()
    }
    return ExchangeMatrix(bmat.n_rows, cols)


def mutate_emat(emat: ExpMatrix, bmat: ExchangeMatrix, k: int) -> ExpMatrix:
    """Mutated torus exponent matrix: conjugation by the row factor.

    The precondition is a compatible pair (compatibility_check), which is
    not checked here.  The row factor is I + u e_k^T with
    u = [-b_k]_+ - 2 e_k, so for skew E the conjugate is the rank-one
    update E + v e_k^T - e_k v^T, v = E u.
    """
    if k not in bmat.cols:
        raise ValueError(f"direction {k} is not exchangeable")
    u = [(i, -b) for i, b in enumerate(bmat.cols[k]) if i != k and b < 0]
    u.append((k, -2))
    num = emat.num
    v = [sum(row[i] * c for i, c in u) for row in num]
    rows = [row[:k] + (row[k] + vi,) + row[k + 1 :] for row, vi in zip(num, v)]
    kth = [x - vj for x, vj in zip(num[k], v)]
    kth[k] = 0
    rows[k] = tuple(kth)
    return ExpMatrix._make(tuple(rows), emat.den)


class Seed:
    """A toric frame together with a compatible exchange matrix; diag holds
    the diagonal pairings d that compatibility_check certifies, each as its
    numerator over frame.emat.den, and pairings gives them as Fractions.

    The pairings decide skew-symmetrizability with no search.  With L the
    frame's exponent matrix, (B^T L B)_kj = d_k b_kj for exchangeable k, j,
    since column k pairs trivially with every direction but its own; and
    B^T L B is skew because L is, so d_k b_kj = -d_j b_jk.  The d are
    nonzero, so b_kj and b_jk vanish together, b_kk = 0, and on a linked
    pair (b_kj != 0) every symmetrizer has the ratio d_k / d_j.  Hence the
    principal part has positive symmetrizers exactly when no linked pair
    has pairings of opposite sign: then each connected component of the
    exchange graph has pairings of one sign, and |d| symmetrizes it.
    """

    def __init__(self, frame: ToricFrame, bmat: ExchangeMatrix):
        if frame.n != bmat.n_rows:
            raise ValueError("frame size and matrix row count differ")
        self.diag = _diagonal_pairings(frame.emat, bmat)
        up = {k: d > 0 for k, d in self.diag.items()}
        if any(up[k] != up[j] for j in bmat.ex for k in bmat.ex if bmat.cols[j][k]):
            raise ValueError("principal part is not skew-symmetrizable")
        self.frame = frame
        self.bmat = bmat

    @property
    def pairings(self) -> Dict[int, Fraction]:
        """The diagonal pairings d_k, as exponents of q."""
        from fractions import Fraction
        den = self.frame.emat.den
        return {k: Fraction(e, den) for k, e in self.diag.items()}

    def __repr__(self) -> str:
        return f"Seed(n={self.frame.n}, ex={self.bmat.ex})"


def exchange_terms(frame: ToricFrame, bcol: Sequence[int], k: int):
    """The two summands M(h) entering the exchange relation at k.

    Returns [(s1, h1), (s2, h2)] with h1 the positive part and h2 minus
    the negative part of the column, exponents chosen so that
    new_image * old_image == sum of q**s_i * M(h_i).
    """
    from fractions import Fraction
    den = frame.emat.den
    return [(Fraction(s, den), h) for s, h in _exchange_terms(frame, bcol, k)]


def _exchange_terms(frame: ToricFrame, bcol: Sequence[int], k: int):
    """exchange_terms with each s as its numerator over frame.emat.den."""
    h1 = gplus(bcol)
    h2 = tuple(-x for x in gminus(bcol))
    if h1[k] or h2[k]:
        raise ValueError("column must vanish on its own direction")
    e_k = tuple(1 if i == k else 0 for i in range(frame.n))
    return [(_pairing(frame.emat, h, e_k), h) for h in (h1, h2)]


def _exchange_sum(frame: ToricFrame, bcol: Sequence[int], k: int):
    """The right side of the exchange relation at k: sum of q**s * M(h)."""
    (s1, h1), (s2, h2) = _exchange_terms(frame, bcol, k)
    den, root = frame.emat.den, frame.root
    return (
        frame_value(frame, h1).scaled(_q_power(s1, den, root))
        + frame_value(frame, h2).scaled(_q_power(s2, den, root))
    )


def exchange_identity_holds(frame: ToricFrame, bcol, k: int, candidate) -> bool:
    """Whether candidate * M(e_k) equals the exchange sum at direction k.

    Backing-agnostic: only products and sums of images are used, so this
    works for frames into an ambient algebra as well.
    """
    return candidate * frame.images[k] == _exchange_sum(frame, bcol, k)


def mutated_variable(frame: ToricFrame, bcol: Sequence[int], k: int):
    """The new cluster variable at direction k, inside the ambient algebra.

    Computed as the exact right quotient of the exchange sum by the old
    image, so no localization is needed; raising ValueError when the
    quotient does not exist doubles as a check that the exchange relation
    is solvable over the ambient ring.
    """
    return div_right(_exchange_sum(frame, bcol, k), frame.images[k])


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k.

    The new image in direction k is the sum of the two frame values with
    the k-th image removed once, obtained here by exact right division of
    the exchange sum by the old image; all other images are kept.  The
    mutated seed is certified like any other Seed.
    """
    frame, bmat = seed.frame, seed.bmat
    if k not in bmat.cols:
        raise ValueError(f"direction {k} is not exchangeable")
    images = list(frame.images)
    images[k] = mutated_variable(frame, bmat.cols[k], k)
    new_frame = ToricFrame(
        mutate_emat(frame.emat, bmat, k), images, frame.one, frame.root
    )
    return Seed(new_frame, mutate_matrix(bmat, k))


def random_compatible_pair(rng, n: int):
    """A random compatible pair on 2n directions, plus its symmetrizers.

    The exchange matrix stacks a skew-symmetrizable principal block
    (b_jk = z d_k / g and b_kj = -z d_j / g, z drawn from -2..2, g the gcd
    of d_j and d_k) on top of an identity block; the torus exponent matrix
    pairs the two blocks so that every column pairing is trivial except
    the diagonal one, which comes out as half the symmetrizer.  Returns
    (emat, bmat, d).
    """
    if n < 1:
        raise ValueError("need at least one exchangeable direction")
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            z = rng.randint(-2, 2)
            g = gcd(d[j], d[k])
            b[j][k] = z * d[k] // g
            b[k][j] = -z * d[j] // g
    cols = {
        k: tuple(b[i][k] for i in range(n)) + tuple(
            1 if i == k else 0 for i in range(n)
        )
        for k in range(n)
    }
    bmat = ExchangeMatrix(2 * n, cols)
    # numerators over 2: E pairs e_i with e_{n+i} by -d_i/2, and the lower
    # block holds b[j][i] d_j / 2, skew because d_j b_jk = -d_k b_kj
    num = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        num[i][n + i] = -d[i]
        num[n + i][i] = d[i]
        for j in range(n):
            num[n + i][n + j] = b[j][i] * d[j]
    emat = ExpMatrix._make(tuple(map(tuple, num)), 2)
    return emat, bmat, {k: d[k] for k in range(n)}


def seed_from_pair(emat: ExpMatrix, bmat: ExchangeMatrix) -> Seed:
    """Torus-backed seed whose frame images are the plain generators, with
    coefficients in Q(q**(1/4)).

    The reference torus multiplies by the bicharacter of emat itself, so
    recovering the frame matrix from image commutation halves back to
    emat exactly.
    """
    n, root = emat.n, 4
    images = [
        TorusElement.basis(emat, root, tuple(1 if i == k else 0 for i in range(n)))
        for k in range(n)
    ]
    one = TorusElement.one(emat, root)
    return Seed(ToricFrame(emat, images, one, root), bmat)
