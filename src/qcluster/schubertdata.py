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

from collections import namedtuple
from itertools import chain
from math import gcd
from operator import add, lshift, neg, sub

from .bicharacter import ExpMatrix
from .linalg import _solve
from .mutation import ExchangeMatrix

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import List, Sequence, Tuple


def _path_cartan(rank: int) -> List[List[int]]:
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
        if i + 1 < rank:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


# Loading a root system costs one exact inverse of its Cartan matrix: at rank
# 16, 0.9-1.0 ms, and CartanData 1.6 ms in all (Python 3.11, 2 vCPU); the
# leading minors that certify finite type, which only a test computes, 2.3 ms.
# Every tested and benchmarked shape has rank at most 5 (the A5 and D4 sweeps).
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
# node of A and D.  tests/test_schubertdata.py certifies every (letter, rank)
# that cartan_matrix builds: d C symmetric and positive definite.
_LENGTHS = {
    "B": lambda rank: (2,) * (rank - 1) + (1,),
    "C": lambda rank: (1,) * (rank - 1) + (2,),
    "G": lambda rank: (1, 3),
}


class CartanData:
    """A finite-type Cartan matrix with its exact weight-lattice metric.

    Carries the symmetrizing lengths d (1 for short simple roots) and the
    Gram matrix of the fundamental weights, which is all that weight
    pairings need, with M = _gram_max its largest scaled diagonal entry.
    cartan_matrix builds only types A-D and G2, which are of finite type,
    and S = d C is symmetric (_LENGTHS); so the Gram matrix
    d C^-1 = d S^-1 d is symmetric too, and none of this is checked here.
    """

    __slots__ = ("letter", "rank", "cartan", "d", "gram_scale",
                 "_gram_scaled", "_gram_max")

    def __init__(self, letter: str, rank: int):
        self.letter = letter.upper()
        self.rank = r = int(rank)
        self.cartan = cartan_matrix(letter, rank)
        self.d = _LENGTHS.get(self.letter, lambda r: (1,) * r)(r)
        # d C^-1 as numerators over one denominator, then in lowest terms:
        # gram_scale is the lcm of the entries' denominators
        inv, det = _solve(self.cartan, [[int(i == j) for j in range(r)] for i in range(r)])
        num = [[di * x for x in row] for di, row in zip(self.d, inv)]
        g = gcd(det, *chain.from_iterable(num))
        self.gram_scale = det // g
        self._gram_scaled = tuple(tuple(x // g for x in row) for row in num)
        self._gram_max = max(row[i] for i, row in enumerate(self._gram_scaled))

    @property
    def gram(self):
        """The Gram matrix d C^-1 of the fundamental weights, as Fractions."""
        from fractions import Fraction
        return tuple(tuple(Fraction(x, self.gram_scale) for x in row) for row in self._gram_scaled)

    def _letter(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node label {i} out of range")
        return i - 1

    def __repr__(self) -> str:
        return f"CartanData({self.letter}{self.rank})"


def _field_width(cd: CartanData, max_len: int) -> int:
    """The field width w in bits of the packed rows and roots of words of
    length <= max_len: a balanced field holds -2^(w-1) <= x < 2^(w-1), and
    2^(w-1) exceeds 4M times the largest column weight sum |b_jk| that
    _append_row can give (max_len entries, each at most the largest
    off-diagonal Cartan entry) plus the largest target 2 gram_scale d_k
    (_carried_report has the proof and the guard).  The budget is at least
    2, so 2^(w-1) >= 4 also holds the simple-root coordinates of any root,
    at most 3 in absolute value (the highest root's, in types A-D and G).
    """
    cmax = max((-x for row in cd.cartan for x in row if x < 0), default=1)
    budget = 4 * cd._gram_max * cmax * max_len + 2 * cd.gram_scale * max(cd.d)
    return budget.bit_length() + 1


def _unpack(x: int, count: int, w: int) -> List[int]:
    """The lowest count balanced w-bit fields of x, lowest first."""
    half, mask, out = 1 << (w - 1), (1 << w) - 1, []
    for _ in range(count):
        f = ((x + half) & mask) - half
        out.append(f)
        x = (x - f) >> w
    return out


def _alpha_columns(cd: CartanData, w: int):
    """The simple roots, packed: coordinate t in field t of width w."""
    return [1 << (w * i) for i in range(cd.rank)]


def _reflect_alpha_columns(cd: CartanData, cols, i0: int):
    """Right-multiply the packed simple-root action matrix by reflection
    i0+1: one int operation per Cartan neighbour of i0, and i0 itself."""
    base, out = cols[i0], list(cols)
    for j, c in enumerate(cd.cartan[i0]):
        if c:
            out[j] -= c * base
    return out


class WordData:
    """The seed data a reduced word determines: its reflection-ordered
    roots, the lengths d of its letters, and its frame matrix, exchange
    matrix and compatibility report.  Restricted to the word's letters,
    _walk yields its prefixes, the word last: the roots are the packed
    roots of its nodes, and the three matrices and the report are read off
    the last node's packed frame rows and exchange columns.

    A label outside 1..rank offers the walk no letter, and a letter that
    makes the prefix unreduced has a negative packed root, so the walk
    stops at the first bad position: a ValueError names its label if that
    is out of range, and otherwise the position.
    """

    __slots__ = ("cartan", "word", "roots", "lengths", "_w", "_rows", "_bcols")

    def __init__(self, cd: CartanData, word: Sequence[int]):
        self.cartan = cd
        self.word = tuple(int(i) for i in word)
        self._w = w = _field_width(cd, len(self.word))
        letters = [(i - 1,) if 1 <= i <= cd.rank else () for i in self.word]
        roots, rows, bcols = [], [], {}
        for _, root, *_, rows, bcols in _walk(cd, letters, w):
            roots.append(root)
        pos = len(roots)
        if pos < len(self.word):
            cd._letter(self.word[pos])  # a label out of range raises here
            raise ValueError(f"word is not reduced at position {pos}")
        if len(set(roots)) != len(roots):
            raise AssertionError("repeated root in a positivity-checked word")
        self.roots = tuple(tuple(_unpack(root, cd.rank, w)) for root in roots)
        self.lengths = tuple(cd.d[i - 1] for i in self.word)
        self._rows, self._bcols = rows, bcols

    def frame_matrix(self) -> ExpMatrix:
        """Torus exponent matrix of the frame the word determines.

        The (j, k) entry for j < k is half the pairing of (prefix_j + full)
        applied to letter j's fundamental weight against (prefix_k - full)
        applied to letter k's, extended skew-symmetrically with zero
        diagonal.
        """
        rank, n = self.cartan.rank, len(self.word)
        return ExpMatrix._make(
            tuple(tuple(_unpack(row, rank + n, self._w)[rank:])
                  for row in self._rows),
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
        return _carried_report(self.cartan, self.word, self._rows,
                               self._bcols, self._w)

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


CompatReport = namedtuple(
    "CompatReport", "ok columns pairing_failures grading_failures symmetrizable"
)
CompatReport.__doc__ = "Outcome of the compatible-pair verification for one word."


def _walk(cd: CartanData, letters: Sequence[Sequence[int]], w: int,
          least: bool = False):
    """Depth-first walk over the reduced words of length 1..len(letters)
    whose letter at position n is i0 + 1 for some i0 in letters[n]: every
    reduced word when each letters[n] is range(cd.rank), one word and its
    prefixes when each holds one letter (an empty one stops the walk).

    Yields (word, root, cols, p, A, rows, bcols) in letter-lex order: root
    is the new letter's packed simple-root image under the parent word,
    the word's last reflection-ordered root, and cols the packed images of
    all the simple roots under the word; p[k] is where the letter at
    position k last occurred before k, or None; bcols are _append_row's.

    With least set, the walk keeps only the lexicographically least word
    of each commutation class, the words joined by 2-moves (swaps of two
    adjacent letters a != b with cartan[a][b] = 0).  A word is least
    exactly when it has no factor b v a with a < b whose letters b v all
    commute with a and differ from it (Anisimov and Knuth); such a factor
    lets a move left past b v, to a smaller word of the class.  So the
    least words are prefix-closed, and since a new such factor of u a must
    end at the new letter, appending a to a least word u keeps it least
    unless the longest suffix of u whose letters commute with a and differ
    from it holds a letter greater than a.  Bit b of the mask blocked
    records that for b.  Appending a grows the suffix of b by a when a
    commutes with b and empties it otherwise, so the child's mask is
    (blocked | below[a]) & apart[a], with apart[a] the letters that
    commute with a and differ from it and below[a] the letters less than
    a.  Without least, apart is empty and every mask is 0.

    With W the word's weight matrix (column i the image of fundamental
    weight i), pre_j column i_j of W before position j and
    G = cd._gram_scaled, A[i][j] = pre_j^T G W_i.  The frame numerators
    F[j][l] = plus_j^T G minus_l (j < l, and skew) over 2 * gram_scale,
    where plus_j and minus_j are pre_j +- W_{i_j}, and the grading tail
    W^T G minus_j are packed into one int per row, in balanced fields of
    w bits (_field_width, _unpack) with base B = 2^w:

        rows[j] = sum_i (W^T G minus_j)[i] B^i + sum_l F[j][l] B^(rank+l).

    The walk reflects packed simple-root images the same way; a root's
    coordinates share one sign, so the sign of its int decides whether the
    next letter keeps the word reduced.

    Each simple reflection S keeps the weight form, S^T G S = G, so W^T G W
    = G and (W^T G minus_j)[i] = A[i][j] - G[i][i_j].  Appending letter i0
    at position n replaces W_i0 by W_i0 - sum_l c[l][i0] W_l (c =
    cd.cartan) and fixes the other columns: the new A[i0] is -A[i0] - sum
    c[l][i0] A[l] over the neighbours l of i0, each other A[i] gains
    G[i0][i], and A[i0] gains G[i0][i0] + t0, t0 = -sum_l c[l][i0] G[i0][l]
    (taken from G, not from cd.d).  Let m = old W_i0 - new W_i0 = minus_n
    and u_j the child's F[j][n]; this is the old minus the new A[i0][j],
    plus t0 if j is in J, the earlier positions holding i0.  Only W_i0
    moves, so each tail moves only at i0, by -u_j (plus t0 on J), and F
    only in the rows and columns of J, where minus_s gains m and plus_s
    loses it.  Below, plus and minus are the parent's, so u_j = plus_j^T G
    m off J and u_s = plus_s^T G m - m^T G m on J.  For j outside J,
    F[j][s] gains plus_j^T G m = u_j if j < s, and minus_j^T G m = u_j - 2
    (W^T G m)[i_j] = u_j if j > s.  For s < t both in J, F[s][t] becomes
    (plus_s - m)^T G (minus_t + m) = F[s][t] + plus_s^T G m - m^T G plus_t
    + 2 m^T G W_i0 - m^T G m, using minus_t = plus_t - 2 W_i0 (old W_i0).
    Since |old W_i0|_G = |new W_i0|_G, m^T G m = 2 m^T G (old W_i0), so
    F[s][t] gains exactly u_s - u_t, and F[t][s] by skewness u_t - u_s: the
    entries between two positions of J follow the same rule, with U
    subtracted below.  With K = sum_{s in J} B^(rank+s) + B^(rank+n) - B^i0
    and U = sum_l u_l B^(rank+l) - t0 B^i0, the step is one rank-one
    update:

        rows2[j] = rows[j] + u_j K,  minus U on the rows of J,
        rows2[n] = -U.

    Only the final fields must lie in the balanced range for _unpack to
    read them back; _carried_report proves that they do.
    """
    max_len = len(letters)
    rank, gram, c = cd.rank, cd._gram_scaled, cd.cartan
    around = [[(l, -c[l][i]) for l in range(rank) if l != i and c[l][i]]
              for i in range(rank)]
    shift = [-sum(c[l][i] * gram[i][l] for l in range(rank))
             for i in range(rank)]
    power = [1 << (w * f) for f in range(rank + max_len)]
    offsets = [w * (rank + l) for l in range(max_len)]
    apart = [sum(1 << b for b in range(rank) if b != a and not c[a][b])
             if least else 0 for a in range(rank)]

    def grow(word, cols, A, rows, at, p, bcols, blocked):
        n = len(word)
        for i0 in letters[n]:
            root = cols[i0]
            if root < 0 or blocked >> i0 & 1:
                continue
            g0, old, t0, (J, KJ) = gram[i0], A[i0], shift[i0], at[i0]
            word2, p2 = word + (i0 + 1,), p + (J[-1] if J else None,)
            new = list(map(neg, old))
            for l, m in around[i0]:
                new = list(map(add, new, A[l] if m == 1 else
                               [m * x for x in A[l]]))
            u = list(map(sub, old, new))
            for s in J:
                u[s] += t0
            new.append(g0[i0] + t0)
            A2 = [a + [g] for a, g in zip(A, g0)]
            A2[i0] = new
            KJ2 = KJ + power[rank + n]
            K = KJ2 - power[i0]
            U = sum(map(lshift, u, offsets)) - t0 * power[i0]
            rows2 = [row + v * K for row, v in zip(rows, u)]
            for s in J:
                rows2[s] -= U
            rows2.append(-U)
            bcols2 = _append_row(cd, word2, p2, bcols)
            cols2 = _reflect_alpha_columns(cd, cols, i0)
            yield word2, root, cols2, p2, A2, rows2, bcols2
            if n + 1 < max_len:
                at2 = list(at)
                at2[i0] = J + (n,), KJ2
                yield from grow(word2, cols2, A2, rows2, at2, p2, bcols2,
                                (blocked | (1 << i0) - 1) & apart[i0])

    if max_len < 1:
        return iter(())
    return grow((), _alpha_columns(cd, w), [[] for _ in range(rank)], [],
                [((), 0)] * rank, (), {}, 0)


def _carried_report(cd, word, rows, bcols, w: int) -> CompatReport:
    """The compatibility report of a word, from its node's packed rows and
    bcols.

    rows[j] packs the grading tail W^T G minus_j and the frame numerators
    (j, l) over 2 * gram_scale in balanced w-bit fields (_walk).  A column
    k passes the pairing and grading tests exactly when got = sum_j b_jk
    rows[j] equals want = -2 gram_scale d_k B^(rank+k): the pairing test is
    homogeneous, so it compares unreduced numerators, and since W is
    unimodular (a product of integer involutions) and G nonsingular, a
    signed sum of the tails vanishes exactly when that of the minus_j
    does.  So each column costs one int operation per entry and one
    compare; only a failing column is unpacked, to list its failures.

    Width.  G is Weyl-invariant and positive definite, and every column
    of W and every pre_j lies in the Weyl orbit of a fundamental weight,
    so |x|_G^2 <= M = max G_ii for each of them.  By Cauchy-Schwarz,
    |F[j][l]| = |plus_j^T G minus_l| <= (2 sqrt M)^2 = 4M and each tail
    entry |W_i^T G minus_j| <= 2M.  So every field of got is at most
    4M sum_j |b_jk| in absolute value.  An int has one expansion in base
    B with digits in [-2^(w-1), 2^(w-1)), so the packed compare and
    _unpack are exact while 4M sum_j |b_jk| + |want_k| < 2^(w-1), whatever
    the fields were in between; _field_width makes that hold for
    every column _append_row gives, and a column beyond it is a
    ValueError.
    """
    n, rank, d = len(word), cd.rank, cd.d
    half, m4 = 1 << (w - 1), 4 * cd._gram_max
    pairing_failures, grading_failures, symmetrizable = [], [], True
    for k, col in bcols.items():
        dk = d[word[k] - 1]
        want = -2 * cd.gram_scale * dk
        got, weight = 0, len(col)
        for j, c in col.items():
            # most entries are +-1
            if c == 1:
                got += rows[j]
            elif c == -1:
                got -= rows[j]
            else:
                got += c * rows[j]
                weight += abs(c) - 1
            if j in bcols and dk * bcols[j].get(k, 0) != -d[word[j] - 1] * c:
                symmetrizable = False
        if m4 * weight + abs(want) >= half:
            raise ValueError(f"exchange column {k} is beyond the {w}-bit "
                             f"fields of the packed frame rows")
        if got != want << (w * (rank + k)):
            fields = _unpack(got, rank + n, w)
            pairing_failures += [
                (k, l) for l in range(n)
                if fields[rank + l] != (want if l == k else 0)]
            if any(fields[:rank]):
                grading_failures.append(k)
    ok = not pairing_failures and not grading_failures and symmetrizable
    return CompatReport(ok, tuple(bcols), tuple(pairing_failures),
                        tuple(grading_failures), symmetrizable)


def compatibility_sweep(cd: CartanData, max_len: int):
    """Verify every reduced word of length <= max_len.

    Returns (number of words checked, list of (word, report) failures, in
    lexicographic order of the words).  The reports are
    WordData.compatibility's.  One walk visits the least word of each
    commutation class (_walk with least set): the weight pairings A, the
    exchange columns and the frame rows ride it from word to word, each
    row one int of balanced w-bit fields.  A new letter i0 moves only
    column i0 of the weight matrix, so a child takes one rank-one step per
    row, rows[j] + u_j K, minus U on the earlier positions J of i0, and
    appends -U; the entries between two positions of J need no formula of
    their own, because the reflection keeps the length of W_i0 (_walk).  A
    column then costs one int operation per entry and one compare, exact
    because every frame entry is at most 4M and every tail entry 2M in
    absolute value, M the largest diagonal entry of the scaled weight Gram
    matrix (Cauchy-Schwarz on the Weyl orbits of the fundamental weights,
    _carried_report).

    A word passes exactly when its class's least word passes, since a
    2-move permutes every datum of the report.  Let i' swap the letters a
    = i_p and b = i_(p+1) of i, a != b with cartan[a][b] = 0, and let tau
    be the transposition (p p+1).  Then s_a s_b = s_b s_a, so i and i' have
    one weight matrix W; s_a fixes omega_b and s_b fixes omega_a, so with
    u the prefix of length p, pre'_p = u omega_b = u s_a omega_b = pre_(p+1)
    and pre'_(p+1) = pre_p, and every other pre_j is kept.  Hence plus' =
    plus o tau and minus' = minus o tau, and the grading tails W^T G
    minus_j permute by tau.  So do the frame numerators: tau keeps the
    order of two positions other than p and p+1, and F'[p][p+1] =
    plus_(p+1)^T G minus_p = -F[p][p+1], because plus_p^T G minus_(p+1) +
    minus_p^T G plus_(p+1) = 2 (pre_p^T G pre_(p+1) - G[a][b]) = 0 (u keeps
    the form G, and pre_p, pre_(p+1) are u omega_a, u omega_b).  Equal
    letters keep their order, so p' = tau o p o tau.  Each entry of an
    _append_row column is +-1 at a position given by p, which tau maps, or
    +-cartan[x][y] for the letters x of its row and y of its column,
    behind comparisons of a position holding x with one holding y; tau
    flips such a comparison only when the two are p and p+1, and then
    {x, y} = {a, b} and the entry is 0 either way.  So b'[tau j][tau k] =
    b[j][k], and the targets -2 gram_scale d_k, the column sums got, the
    pairing and grading failures, the symmetrizability pairs and the
    width guard's weights all permute by tau: the report of i' is that of
    i with its positions moved by tau, and ok' = ok.  2-moves join any two
    words of a class (Cartier and Foata).

    checked is still the number of reduced words.  A reduced word of w
    ends in s exactly when s is a right descent of w, which is when
    w alpha_s < 0, and then drops to a reduced word of w s; so w has N(w)
    = sum N(w s) words over those s, with N(identity) = 1.  N is memoized
    by the packed simple-root images cols, which determine w because the
    Weyl group acts faithfully on the root lattice, and each element is
    counted the first time the walk meets it: braid-related classes share
    an element, as (1, 2, 1) and (2, 1, 2) do in A2.  Once a class fails,
    the counting walk goes on without reports, and a second walk visits
    every reduced word (_walk without least) and lists each failing
    report; it is depth-first with letters ascending, which is
    lexicographic order on tuples.
    """
    w = _field_width(cd, max_len)
    words_of = {tuple(_alpha_columns(cd, w)): 1}

    def count(cols):
        key = tuple(cols)
        if key not in words_of:
            words_of[key] = sum(
                count(_reflect_alpha_columns(cd, cols, s))
                for s in range(cd.rank) if cols[s] < 0)
        return words_of[key]

    checked, met, failed = 0, set(), False
    letters = [range(cd.rank)] * max_len
    for word, _, cols, *_, rows, bcols in _walk(cd, letters, w, least=True):
        key = tuple(cols)
        if key not in met:
            met.add(key)
            checked += count(cols)
        if not failed and bcols:
            failed = not _carried_report(cd, word, rows, bcols, w).ok
    if not failed:
        return checked, []
    reports = ((word, _carried_report(cd, word, rows, bcols, w))
               for word, *_, rows, bcols in _walk(cd, letters, w) if bcols)
    return checked, [(word, r) for word, r in reports if not r.ok]
