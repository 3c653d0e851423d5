"""Root-system data for quantum Schubert cell presentations.

Everything in this module is exact lattice arithmetic: finite-type Cartan
matrices, Weyl group elements acting on the weight lattice through reduced
words, and the two matrices a reduced word carries with it -- the torus
exponent matrix of the associated frame and the integer exchange matrix
whose columns sit at the repeated letters.  The verification routine
checks the compatible-pair pairings and the weight grading of each
exchange column in integers, with no quantized enveloping algebra arithmetic
anywhere.

Weights are tuples of integers in fundamental-weight coordinates; roots
are tuples of integers in simple-root coordinates.  Words use the usual
1-based node labels, while positions inside a word are 0-based like every
other index in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, neg, sub
from typing import List, NamedTuple, Sequence, Tuple

from .bicharacter import ExpMatrix
from .linalg import det, inverse
from .mutation import ExchangeMatrix
from .primeseq import EtaData


def _path_cartan(rank: int) -> List[List[int]]:
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
        if i + 1 < rank:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


# Loading a root system costs `rank` exact leading minors (Sylvester's
# criterion) and one exact inverse: A150 takes 16 s on a 2-vCPU host.  Every
# tested and benchmarked shape has rank at most 5 (the A5 and D4 sweeps), and
# rank 16 loads in about 0.02 s.
MAX_RANK = 16


def cartan_matrix(letter: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Cartan matrix of the requested finite type, standard node labels."""
    letter = letter.upper()
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above the supported {MAX_RANK}")
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


# Symmetrizing lengths d by type: 1 on the short simple roots, and 1 on every
# node of A and D.  CartanData's lopsidedness check certifies them.
_LENGTHS = {
    "B": lambda rank: (2,) * (rank - 1) + (1,),
    "C": lambda rank: (1,) * (rank - 1) + (2,),
    "G": lambda rank: (1, 3),
}


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
        self.d = _LENGTHS.get(self.letter, lambda r: (1,) * r)(self.rank)
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


class WordData:
    """Bundle of the commutation data a reduced word determines.

    lam holds the q-exponents of the generator commutations, lam_diag and
    lam_star the diagonal eigenvalue exponents -2 d and +2 d of each
    letter; eta is the level-set structure of repeated letters with its
    predecessor and successor maps.  Restricted to the word's letters,
    _walk yields its prefixes, the word last: the frame matrix, exchange
    matrix and report are read off that node's frame rows (from the weight
    pairings A and P) and exchange columns.
    """

    __slots__ = ("cartan", "word", "roots", "eta", "lam", "lam_diag",
                 "lam_star", "lengths", "_rows", "_bcols")

    def __init__(self, cd: CartanData, word: Sequence[int]):
        self.cartan = cd
        self.word = tuple(int(i) for i in word)
        self.roots = roots_for_word(cd, self.word)
        self.eta = EtaData(self.word)
        n = len(self.word)
        r = self.roots
        self.lam = ExpMatrix.from_upper(n, {
            (j, k): cd.root_pairing(r[j], r[k])
            for j in range(n) for k in range(j + 1, n)
        })
        self.lengths = tuple(cd.d[i - 1] for i in self.word)
        self.lam_diag = tuple(Fraction(-2 * d) for d in self.lengths)
        self.lam_star = tuple(Fraction(2 * d) for d in self.lengths)
        rows, bcols = [], {}
        for *_, rows, bcols in _walk(cd, [(i - 1,) for i in self.word]):
            pass
        self._rows, self._bcols = rows, bcols

    def frame_matrix(self) -> ExpMatrix:
        """Torus exponent matrix of the frame the word determines.

        The (j, k) entry for j < k is half the pairing of (prefix_j + full)
        applied to letter j's fundamental weight against (prefix_k - full)
        applied to letter k's, extended skew-symmetrically with zero
        diagonal.
        """
        n = len(self.word)
        return ExpMatrix._make(tuple(tuple(row[:n]) for row in self._rows),
                               2 * self.cartan.gram_scale)

    def exchange_matrix(self) -> ExchangeMatrix:
        """Closed-form exchange matrix of the word.

        Columns sit at the positions whose letter already occurred; rows
        carry +1 at the previous occurrence, -1 at the next one, and
        +-(Cartan entry of the two letters) at positions whose occurrence
        pattern interleaves the column's in the two recognized ways
        (_append_row).
        """
        n = len(self.word)
        return ExchangeMatrix(n, {k: tuple(col.get(j, 0) for j in range(n))
                                  for k, col in self._bcols.items()})

    def compatibility(self) -> "CompatReport":
        """Check the two compatibility conditions for the word.

        Pairing: each exchange column pairs trivially with every direction
        except its own, where the exponent is minus the letter's length.
        Grading: each column's signed sum of (full minus prefix) weight
        images vanishes.  Both checks are exact; the report lists any
        failures (_carried_report).
        """
        return _carried_report(self.cartan, self.word, self._rows, self._bcols)

    def __repr__(self) -> str:
        return f"WordData({self.cartan!r}, word={self.word})"


def _append_row(cd, word, p, bcols):
    """Sparse exchange columns {k: {row: entry}} of word from those of
    word[:-1], sharing every column that gains no nonzero entry.

    With n the last position and m = p[n], column k gets -1 at row n when
    k = m and -cartan[i_n][i_k] when p[k] < m < k.  A repeated letter adds
    column n: +1 at row m, cartan[i_j][i_n] at m < j < n if p[j] < m or None.
    """
    n = len(word) - 1
    m = p[n]
    if m is None:
        return bcols
    row, out = cd.cartan[word[n] - 1], {}
    for k, col in bcols.items():
        v = -1 if k == m else -row[word[k] - 1] if p[k] < m < k else 0
        out[k] = {**col, n: v} if v else col
    out[n] = new = {m: 1}
    for j in range(m + 1, n):
        c = cd.cartan[word[j] - 1][word[n] - 1]
        if c and (p[j] is None or p[j] < m):
            new[j] = c
    return out


class CompatReport(NamedTuple):
    """Outcome of the compatible-pair verification for one word."""

    ok: bool
    columns: Tuple[int, ...]
    pairing_failures: Tuple[Tuple[int, int], ...]
    grading_failures: Tuple[int, ...]
    symmetrizable: bool


def _walk(cd: CartanData, letters: Sequence[Sequence[int]]):
    """Depth-first walk over the reduced words of length 1..len(letters)
    whose letter at position n is i0 + 1 for some i0 in letters[n]: every
    reduced word when each letters[n] is range(cd.rank), one word and its
    prefixes when each holds one letter.

    Yields (word, p, A, P, rows, bcols) in letter-lex order: p[k] is where
    the letter at position k last occurred before k, or None; bcols are
    _append_row's.  With W the word's weight matrix (column i the image of
    fundamental weight i), pre_l column i_l of W before position l and
    G = cd._gram_scaled, A[i][j] = pre_j^T G W_i and P[l][j] = pre_j^T G
    pre_l for j < l.  rows[j] is the frame numerators F[j][l] = plus_j^T G
    minus_l (j < l, and skew) over 2 * gram_scale, where plus_j and minus_j
    are pre_j +- W_{i_j}, then the grading tail W^T G minus_j.

    Each simple reflection S keeps the weight form, S^T G S = G, so
    W^T G W = G and every entry costs O(1):

        F[j][l] = P[l][j] - A[i_l][j] + A[i_j][l] - G[i_j][i_l]  (j < l),
        (W^T G minus_j)[i] = A[i][j] - G[i][i_j].

    Appending letter i0 at position n replaces W_i0 by W_i0 - sum_l c[l][i0]
    W_l (c = cd.cartan) and fixes the other columns.  So pre_n is the old
    W_i0 and P's new row the old A[i0]; the new A[i0] is -A[i0] - sum
    c[l][i0] A[l] over the neighbours l of i0; each other A[i] gains
    G[i0][i], and A[i0] gains G[i0][i0] + t0, t0 = -sum_l c[l][i0] G[i0][l].
    The new tail is t0 at i0, 0 elsewhere, and u_j = F[j][n] is the old
    minus the new A[i0][j], plus t0 if i_j = i0.  Only A[i0] moves, so each
    tail moves only at i0, and F only in the rows and columns of the
    positions J holding i0, where minus_s gains minus_n = old W_i0 - new
    W_i0 and plus_s loses it.  For j outside J, F[j][s] gains plus_j^T G
    minus_n = u_j if j < s, and minus_j^T G minus_n = u_j - 2 (W^T G
    minus_n)[i_j] = u_j if j > s.  So a child adds u_j at J in its parent's
    row j, subtracts u from each row of J, and forms by the formula only the
    entries between two positions of J: the walk takes no dot product.
    """
    max_len = len(letters)
    rank, gram, c = cd.rank, cd._gram_scaled, cd.cartan
    around = [[(l, -c[l][i]) for l in range(rank) if l != i and c[l][i]]
              for i in range(rank)]
    shift = [-sum(c[l][i] * gram[i][l] for l in range(rank))
             for i in range(rank)]

    def grow(word, cols, A, P, rows, at, p, bcols):
        n = len(word)
        for i0 in letters[n]:
            if min(cols[i0]) < 0:
                continue
            g0, old, t0, J = gram[i0], A[i0], shift[i0], at[i0]
            word2, p2 = word + (i0 + 1,), p + (J[-1] if J else None,)
            new = list(map(neg, old))
            for l, m in around[i0]:
                new = list(map(add, new, A[l] if m == 1 else
                               [m * x for x in A[l]]))
            new.append(g0[i0] + t0)
            A2 = [a + [g] for a, g in zip(A, g0)]
            A2[i0] = new
            P2 = P + (old,)
            u = list(map(sub, old, new))
            for s in J:
                u[s] += t0
            rows2 = [row.copy() for row in rows]
            for row, v, x, i in zip(rows2, u, new, word):
                for s in J:
                    row[s] += v
                row.insert(n, v)
                row[n + 1 + i0] = x - g0[i - 1]
            for s in J:
                row = list(map(sub, rows[s], u))
                row[s] = 0
                for t in J:
                    if t < s:
                        row[t] = new[t] - new[s] + g0[i0] - P2[s][t]
                    elif t > s:
                        row[t] = new[t] - new[s] - g0[i0] + P2[t][s]
                rows2[s] = row + [u[s]] + rows2[s][n + 1:]
            rows2.append([-v for v in u] + [0] * (rank + 1))
            rows2[n][n + 1 + i0] = t0
            bcols2 = _append_row(cd, word2, p2, bcols)
            yield word2, p2, A2, P2, rows2, bcols2
            if n + 1 < max_len:
                at2 = list(at)
                at2[i0] = J + (n,)
                yield from grow(word2, _reflect_alpha_columns(cd, cols, i0),
                                A2, P2, rows2, at2, p2, bcols2)

    if max_len < 1:
        return iter(())
    return grow((), _alpha_columns(cd), [[] for _ in range(rank)], (), [],
                [()] * rank, (), {})


def _carried_report(cd, word, rows, bcols) -> CompatReport:
    """The compatibility report of a word, from its node's rows and bcols.

    rows[j] holds the frame numerators (j, l) over 2 * gram_scale, then the
    grading tail W^T G minus_j.  The pairing test is homogeneous, so it
    compares unreduced numerators.  W is unimodular (a product of integer
    involutions) and G is nonsingular, so a signed sum of the tails
    vanishes exactly when that of the minus_j does.  The walk updated the
    rows in place of forming them (_walk).
    """
    n = len(word)
    zero, d = [0] * (n + cd.rank), cd.d
    pairing_failures, grading_failures, symmetrizable = [], [], True
    for k, col in bcols.items():
        dk = d[word[k] - 1]
        got, want = zero, zero.copy()
        want[k] = -2 * cd.gram_scale * dk
        for j, c in col.items():
            # most entries are +-1, and each column starts with +1
            row = rows[j]
            if c == 1:
                got = row if got is zero else list(map(add, got, row))
            elif c == -1:
                got = list(map(sub, got, row))
            else:
                got = [a + c * x for a, x in zip(got, row)]
            if j in bcols and dk * bcols[j].get(k, 0) != -d[word[j] - 1] * c:
                symmetrizable = False
        if got != want:
            pairing_failures += [(k, l) for l in range(n) if got[l] != want[l]]
            if any(got[n:]):
                grading_failures.append(k)
    ok = not pairing_failures and not grading_failures and symmetrizable
    return CompatReport(ok, tuple(bcols), tuple(pairing_failures),
                        tuple(grading_failures), symmetrizable)


def _sweep_reports(cd: CartanData, max_len: int):
    """(word, report) for each reduced word of length 1..max_len in walk
    order; report is None for a word with no repeated letter (no column)."""
    for word, *_, rows, bcols in _walk(cd, [range(cd.rank)] * max_len):
        yield word, _carried_report(cd, word, rows, bcols) if bcols else None


def compatibility_sweep(cd: CartanData, max_len: int):
    """Verify every reduced word of length <= max_len.

    Returns (number of words checked, list of (word, report) failures).
    The reports are WordData.compatibility's, from one walk over all the
    words: the weight pairings A and P, the exchange columns and the frame
    rows ride it from word to word.  A new letter i0 moves only A[i0], so a
    word shifts its parent's rows at the positions holding i0 and appends
    the new one at O(1) an entry (_walk), then pays for its checks.
    """
    failures: List[Tuple[Tuple[int, ...], CompatReport]] = []
    checked = 0
    for checked, (word, report) in enumerate(_sweep_reports(cd, max_len), 1):
        if report is not None and not report.ok:
            failures.append((word, report))
    return checked, failures
