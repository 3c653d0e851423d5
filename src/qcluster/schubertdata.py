"""Root-system data for quantum Schubert cell presentations.

Everything in this module is exact lattice arithmetic: finite-type Cartan
matrices, Weyl group elements acting on the weight lattice through reduced
words, and the two matrices a reduced word carries with it -- the torus
exponent matrix of the associated frame and the integer exchange matrix
whose columns sit at the repeated letters.  The verification routine
checks the compatible-pair pairings and the weight grading of each
exchange column over the rationals, with no quantized enveloping algebra
arithmetic anywhere.

Weights are tuples of integers in fundamental-weight coordinates; roots
are tuples of integers in simple-root coordinates.  Words use the usual
1-based node labels, while positions inside a word are 0-based like every
other index in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bicharacter import ExpMatrix
from .linalg import det, inverse, primitive
from .mutation import ExchangeMatrix
from .primeseq import EtaData
from .scalarfield import ScalarExp


def _path_cartan(rank: int) -> List[List[int]]:
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
        if i + 1 < rank:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


def cartan_matrix(letter: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix of the requested finite type, standard node labels."""
    letter = letter.upper()
    if letter == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        c = _path_cartan(rank)
    elif letter == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        c = _path_cartan(rank)
        c[rank - 1][rank - 2] = -2
    elif letter == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        c = _path_cartan(rank)
        c[rank - 2][rank - 1] = -2
    elif letter == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        c = _path_cartan(rank - 1)
        for row in c:
            row.append(0)
        c.append([0] * rank)
        c[rank - 1][rank - 1] = 2
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
    elif letter == "G":
        if rank != 2:
            raise ValueError("type G needs rank 2")
        c = [[2, -3], [-1, 2]]
    else:
        raise ValueError(f"unsupported type {letter!r}")
    return tuple(tuple(row) for row in c)


def _symmetrizer(cartan) -> Tuple[int, ...]:
    """Smallest positive integers d with d_i c_ij = d_j c_ji."""
    rank = len(cartan)
    d: List[Optional[Fraction]] = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        comp = [start]
        while queue:
            i = queue.pop()
            for j in range(rank):
                if cartan[i][j] == 0 or i == j:
                    continue
                want = d[i] * cartan[i][j] / cartan[j][i]
                if d[j] is None:
                    d[j] = want
                    queue.append(j)
                    comp.append(j)
                elif d[j] != want:
                    raise ValueError("Cartan matrix is not symmetrizable")
        for i, v in zip(comp, primitive([d[i] for i in comp])):
            d[i] = v
    return tuple(d)


class CartanData:
    """A finite-type Cartan matrix with its exact weight-lattice metric.

    Carries the symmetrizing lengths d (1 for short simple roots) and the
    Gram matrix of the fundamental weights, which is all that weight
    pairings need.  Construction validates finite type by checking the
    symmetrized matrix is positive definite.
    """

    __slots__ = ("letter", "rank", "cartan", "d", "gram", "gram_scale",
                 "_gram_scaled")

    def __init__(self, letter: str, rank: int):
        self.letter = letter.upper()
        self.rank = int(rank)
        self.cartan = cartan_matrix(letter, rank)
        self.d = _symmetrizer(self.cartan)
        sym = [
            [self.d[i] * self.cartan[i][j] for j in range(self.rank)]
            for i in range(self.rank)
        ]
        for i in range(self.rank):
            for j in range(self.rank):
                if sym[i][j] != sym[j][i]:
                    raise ValueError("symmetrized Cartan matrix is lopsided")
        # Sylvester's criterion: positive definite iff every leading
        # principal minor is positive
        if not all(
            det([row[:k] for row in sym[:k]]) > 0 for k in range(1, self.rank + 1)
        ):
            raise ValueError("Cartan matrix is not of finite type")
        inv = inverse(self.cartan)
        self.gram = tuple(
            tuple(self.d[i] * inv[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        for i in range(self.rank):
            for j in range(self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise AssertionError("weight Gram matrix is lopsided")
        scale = lcm(*(x.denominator for row in self.gram for x in row))
        self.gram_scale = scale
        self._gram_scaled = tuple(
            tuple(int(x * scale) for x in row) for row in self.gram
        )

    def _letter(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node label {i} out of range")
        return i - 1

    def fundamental_weight(self, i: int) -> Tuple[int, ...]:
        j = self._letter(i)
        return tuple(int(t == j) for t in range(self.rank))

    def reflect_weight(self, mu: Sequence[int], i: int) -> Tuple[int, ...]:
        """Simple reflection at node i, fundamental-weight coordinates."""
        j = self._letter(i)
        return tuple(
            mu[t] - mu[j] * self.cartan[t][j] for t in range(self.rank)
        )

    def apply_word(self, word: Sequence[int], mu: Sequence[int]):
        """Image of mu under the product of the word's reflections."""
        mu = tuple(mu)
        for i in reversed(word):
            mu = self.reflect_weight(mu, i)
        return mu

    def weight_pairing(self, mu: Sequence[int], nu: Sequence[int]) -> Fraction:
        acc = Fraction(0)
        for a, x in enumerate(mu):
            if x:
                row = self.gram[a]
                acc += x * sum(row[b] * y for b, y in enumerate(nu))
        return acc

    def reflect_root(self, a: Sequence[int], i: int) -> Tuple[int, ...]:
        """Simple reflection at node i, simple-root coordinates."""
        j = self._letter(i)
        drop = sum(self.cartan[j][t] * a[t] for t in range(self.rank))
        return tuple(
            a[t] - drop * int(t == j) for t in range(self.rank)
        )

    def root_pairing(self, a: Sequence[int], b: Sequence[int]) -> int:
        acc = 0
        for i, x in enumerate(a):
            if x:
                di = self.d[i]
                row = self.cartan[i]
                acc += x * di * sum(row[j] * y for j, y in enumerate(b))
        return acc

    def __repr__(self) -> str:
        return f"CartanData({self.letter}{self.rank})"


def _alpha_columns(cd: CartanData):
    return [cd.fundamental_weight(i + 1) for i in range(cd.rank)]


def _reflect_alpha_columns(cd: CartanData, cols, i0: int):
    """Right-multiply the simple-root action matrix by reflection i0+1."""
    base = cols[i0]
    out = []
    for j in range(cd.rank):
        c = cd.cartan[i0][j]
        if c == 0 and j != i0:
            out.append(cols[j])
        else:
            out.append(tuple(x - c * y for x, y in zip(cols[j], base)))
    return out


def _reflect_weight_columns(cd: CartanData, cols, i0: int):
    """Right-multiply the weight action matrix by reflection i0+1."""
    new_col = list(cols[i0])
    for l in range(cd.rank):
        c = cd.cartan[l][i0]
        if c:
            col = cols[l]
            for t in range(cd.rank):
                new_col[t] -= c * col[t]
    out = list(cols)
    out[i0] = tuple(new_col)
    return out


def roots_for_word(cd: CartanData, word: Sequence[int]):
    """The reflection-ordered positive roots of a reduced word.

    Entry k is the image of the k-th letter's simple root under the
    preceding prefix, in simple-root coordinates.  Raises ValueError when
    the word is not reduced (some entry fails to be a positive root).
    """
    cols = _alpha_columns(cd)
    roots = []
    for pos, i in enumerate(word):
        i0 = cd._letter(i)
        beta = cols[i0]
        if min(beta) < 0:
            raise ValueError(f"word is not reduced at position {pos}")
        roots.append(beta)
        cols = _reflect_alpha_columns(cd, cols, i0)
    if len(set(roots)) != len(roots):
        raise AssertionError("repeated root in a positivity-checked word")
    return tuple(roots)


def is_reduced(cd: CartanData, word: Sequence[int]) -> bool:
    try:
        roots_for_word(cd, word)
    except ValueError:
        return False
    return True


class WordData:
    """Bundle of the commutation data a reduced word determines.

    lam holds the q-exponents of the generator commutations, lam_diag and
    lam_star the diagonal eigenvalue exponents -2 d and +2 d of each
    letter; eta is the level-set structure of repeated letters with its
    predecessor and successor maps.
    """

    __slots__ = ("cartan", "word", "roots", "eta", "lam", "lam_diag",
                 "lam_star", "lengths")

    def __init__(self, cd: CartanData, word: Sequence[int]):
        self.cartan = cd
        self.word = tuple(int(i) for i in word)
        self.roots = roots_for_word(cd, self.word)
        self.eta = EtaData(self.word)
        n = len(self.word)
        upper = {}
        for j in range(n):
            for k in range(j + 1, n):
                upper[(j, k)] = Fraction(
                    cd.root_pairing(self.roots[j], self.roots[k])
                )
        self.lam = ExpMatrix.from_upper(n, upper)
        self.lengths = tuple(cd.d[i - 1] for i in self.word)
        self.lam_diag = tuple(ScalarExp(-2 * d) for d in self.lengths)
        self.lam_star = tuple(ScalarExp(2 * d) for d in self.lengths)

    def frame_matrix(self) -> ExpMatrix:
        """Torus exponent matrix of the frame the word determines.

        The (j, k) entry for j < k is half the pairing of (prefix_j + full)
        applied to letter j's fundamental weight against (prefix_k - full)
        applied to letter k's, extended skew-symmetrically with zero
        diagonal.
        """
        cd, word = self.cartan, self.word
        plus, minus = _plus_minus(word, _prefix_weight_matrices(cd, word))
        n = len(word)
        upper = {}
        for j in range(n):
            for k in range(j + 1, n):
                upper[(j, k)] = cd.weight_pairing(plus[j], minus[k]) / 2
        return ExpMatrix.from_upper(n, upper)

    def exchange_matrix(self) -> ExchangeMatrix:
        """Closed-form exchange matrix of the word.

        Columns sit at the positions whose letter already occurred; rows
        carry +1 at the previous occurrence, -1 at the next one, and
        +-(Cartan entry of the two letters) at positions whose occurrence
        pattern interleaves the column's in the two recognized ways.
        """
        return _exchange_matrix(self.cartan, self.word, self.eta.p, self.eta.s)

    def compatibility(self) -> "CompatReport":
        """Check the two compatibility conditions for the word.

        Pairing: each exchange column pairs trivially with every direction
        except its own, where the exponent is minus the letter's length.
        Grading: each column's signed sum of (full minus prefix) weight
        images vanishes.  Both checks are exact; the report lists any
        failures.
        """
        prefixes = _prefix_weight_matrices(self.cartan, self.word)
        return _verify_prepared(
            self.cartan, self.word, prefixes, self.eta.p, self.eta.s
        )

    def __repr__(self) -> str:
        return f"WordData({self.cartan!r}, word={self.word})"


def word_data(cd: CartanData, word: Sequence[int]) -> WordData:
    return WordData(cd, word)


def _prefix_weight_matrices(cd: CartanData, word: Sequence[int]):
    """Images of all fundamental weights under each prefix of the word."""
    cols = _alpha_columns(cd)
    out = [cols]
    for i in word:
        cols = _reflect_weight_columns(cd, cols, cd._letter(i))
        out.append(cols)
    return out


def frame_exponent_matrix(cd: CartanData, word: Sequence[int]) -> ExpMatrix:
    """Torus exponent matrix of the frame a reduced word determines."""
    return WordData(cd, word).frame_matrix()


def _plus_minus(word, prefixes):
    """Per position k, the images of letter k's fundamental weight under
    prefix_k plus and minus its image under the whole word."""
    full = prefixes[len(word)]
    pairs = [(prefixes[k][i - 1], full[i - 1]) for k, i in enumerate(word)]
    plus = [tuple(a + b for a, b in zip(pre, fin)) for pre, fin in pairs]
    minus = [tuple(a - b for a, b in zip(pre, fin)) for pre, fin in pairs]
    return plus, minus


def _pred_key(p: Optional[int]) -> int:
    return -1 if p is None else p


def exchange_matrix_for_word(cd: CartanData, word: Sequence[int]) -> ExchangeMatrix:
    """Closed-form exchange matrix of a reduced word."""
    return WordData(cd, word).exchange_matrix()


def _exchange_matrix(cd, word, p, s) -> ExchangeMatrix:
    n = len(word)
    cols = {}
    for k in range(n):
        if p[k] is None:
            continue
        col = [0] * n
        pk = p[k]
        for j in range(n):
            if j == pk:
                col[j] = 1
            elif s[k] is not None and j == s[k]:
                col[j] = -1
            elif j < k and _pred_key(p[j]) < pk:
                if pk < j:
                    col[j] = cd.cartan[word[j] - 1][word[k] - 1]
            elif k < j and _pred_key(p[j]) > pk:
                if _pred_key(p[j]) < k:
                    col[j] = -cd.cartan[word[j] - 1][word[k] - 1]
        cols[k] = tuple(col)
    return ExchangeMatrix(n, cols)


class CompatReport(NamedTuple):
    """Outcome of the compatible-pair verification for one word."""

    ok: bool
    columns: Tuple[int, ...]
    pairing_failures: Tuple[Tuple[int, int], ...]
    grading_failures: Tuple[int, ...]
    symmetrizable: bool


def _verify_prepared(cd, word, prefixes, p, s):
    """Shared verification core; word is 1-based letters, p/s positional."""
    n = len(word)
    idx = [i - 1 for i in word]
    bmat = _exchange_matrix(cd, word, p, s)
    if not bmat.ex:
        return CompatReport(True, (), (), (), True)
    gram = cd._gram_scaled
    rank = cd.rank
    plus, minus = _plus_minus(word, prefixes)
    minus_g = [
        tuple(sum(gram[t][u] * nu[u] for u in range(rank)) for t in range(rank))
        for nu in minus
    ]
    scaled = [[0] * n for _ in range(n)]
    for j in range(n):
        pj = plus[j]
        for k in range(j + 1, n):
            gk = minus_g[k]
            v = sum(pj[t] * gk[t] for t in range(rank))
            scaled[j][k] = v
            scaled[k][j] = -v
    pairing_failures = []
    grading_failures = []
    for k in bmat.ex:
        col = bmat.cols[k]
        for l in range(n):
            want = -2 * cd.gram_scale * cd.d[idx[k]] if l == k else 0
            got = sum(col[j] * scaled[j][l] for j in range(n) if col[j])
            if got != want:
                pairing_failures.append((k, l))
        acc = [0] * rank
        for j in range(n):
            if col[j]:
                for t in range(rank):
                    acc[t] -= col[j] * minus[j][t]
        if any(acc):
            grading_failures.append(k)
    symmetrizable = all(
        cd.d[idx[k]] * bmat.cols[j][k] == -cd.d[idx[j]] * bmat.cols[k][j]
        for k in bmat.ex
        for j in bmat.ex
    )
    ok = not pairing_failures and not grading_failures and symmetrizable
    return CompatReport(
        ok,
        bmat.ex,
        tuple(pairing_failures),
        tuple(grading_failures),
        symmetrizable,
    )


def verify_word_compatibility(cd: CartanData, word: Sequence[int]) -> CompatReport:
    """Check the two compatibility conditions for one reduced word."""
    return WordData(cd, word).compatibility()


def enumerate_reduced_words(cd: CartanData, max_len: int):
    """All reduced words of length 1..max_len, in letter-lex DFS order."""
    out: List[Tuple[int, ...]] = []

    def grow(word, cols):
        for i0 in range(cd.rank):
            if min(cols[i0]) < 0:
                continue
            word2 = word + (i0 + 1,)
            out.append(word2)
            if len(word2) < max_len:
                grow(word2, _reflect_alpha_columns(cd, cols, i0))

    grow((), _alpha_columns(cd))
    return out


def compatibility_sweep(cd: CartanData, max_len: int):
    """Verify every reduced word of length <= max_len.

    Returns (number of words checked, list of (word, report) failures).
    The walk shares prefix data across words, so the per-word cost is the
    verification itself.
    """
    failures: List[Tuple[Tuple[int, ...], CompatReport]] = []
    checked = 0

    def grow(word, cols, prefixes, last_seen, p):
        nonlocal checked
        for i0 in range(cd.rank):
            if min(cols[i0]) < 0:
                continue
            word2 = word + (i0 + 1,)
            checked += 1
            p2 = p + (last_seen[i0],)
            pos = len(word)
            prefixes2 = prefixes + [
                _reflect_weight_columns(cd, prefixes[-1], i0)
            ]
            if any(x is not None for x in p2):
                s2 = [None] * len(word2)
                for j, pre in enumerate(p2):
                    if pre is not None:
                        s2[pre] = j
                report = _verify_prepared(cd, word2, prefixes2, p2, s2)
                if not report.ok:
                    failures.append((word2, report))
            if len(word2) < max_len:
                seen2 = list(last_seen)
                seen2[i0] = pos
                grow(
                    word2,
                    _reflect_alpha_columns(cd, cols, i0),
                    prefixes2,
                    seen2,
                    p2,
                )

    grow((), _alpha_columns(cd), [_alpha_columns(cd)], [None] * cd.rank, ())
    return checked, failures


def quantum_matrix_word(m: int, n: int):
    """Reduced word matching the m x n quantum-matrix presentation.

    Type A rank m+n-1; the letter at matrix cell (r, c), 1-based row-major
    position (r-1)*n + c, is n + r - c.  Composing with the position
    reversal k -> N+1-k identifies the word's exchange matrix with the
    quantum-matrix one.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix shape must be positive")
    return tuple(
        n + r - c for r in range(1, m + 1) for c in range(1, n + 1)
    )
