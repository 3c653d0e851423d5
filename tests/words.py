"""Test helpers: reduced words and the per-word oracle, one word at a time.

The package verifies reduced words on one walk (schubertdata._walk), which
carries every word's weight pairings, packed frame rows and exchange
columns from its parent without forming a weight vector; WordData follows
that walk along its own word and reads its roots off it.  These helpers
build the same things from the word alone: the roots by their own
reflection loop (roots_for_word), the reduced words by extending each word
with every letter that keeps it reduced, the weight images of every prefix (one
reflection of the weight matrix per letter, reflect_weight_columns), the
frame and exchange matrices from those, and the compatibility report,
whose symmetrizability test takes the lengths as symmetrizers
(symmetrizers.skew_symmetrizable).

They also keep the lattice arithmetic that no seed of a word reads: the
fundamental weights in their own coordinates, the root pairing of the
symmetrized Cartan matrix, and the word's commutation matrix, whose
entries are root pairings (commutation_matrix).

The package's sweep walks one word per commutation class; full_sweep is
the walk over every reduced word that it replaced, and commutation_class
finds a word's class by 2-moves, one swap at a time.
"""

from operator import mul
from typing import Sequence

from qcluster.bicharacter import ExpMatrix, pairing_row
from qcluster.mutation import ExchangeMatrix
from qcluster.primeseq import EtaData
from qcluster.schubertdata import (
    CartanData,
    CompatReport,
    _alpha_columns,
    _append_row,
    _carried_report,
    _field_width,
    _reflect_alpha_columns,
    _unpack,
    _walk,
)
from symmetrizers import skew_symmetrizable


def roots_for_word(cd: CartanData, word: Sequence[int]):
    """The reflection-ordered positive roots of a reduced word.

    Entry k is the image of the k-th letter's simple root under the
    preceding prefix, in simple-root coordinates.  Raises ValueError when
    a label is out of range or the word is not reduced (some entry fails to
    be a positive root), for the first position where either happens: the
    coordinates of a root share one sign, so a packed root has the sign of
    the root.
    """
    w = _field_width(cd, len(word))
    cols = _alpha_columns(cd, w)
    roots = []
    for pos, i in enumerate(word):
        i0 = cd._letter(i)
        beta = cols[i0]
        if beta < 0:
            raise ValueError(f"word is not reduced at position {pos}")
        roots.append(beta)
        cols = _reflect_alpha_columns(cd, cols, i0)
    if len(set(roots)) != len(roots):
        raise AssertionError("repeated root in a positivity-checked word")
    return tuple(tuple(_unpack(beta, cd.rank, w)) for beta in roots)


def is_reduced(cd: CartanData, word: Sequence[int]) -> bool:
    try:
        roots_for_word(cd, word)
    except ValueError:
        return False
    return True


def enumerate_reduced_words(cd: CartanData, max_len: int):
    """All reduced words of length 1..max_len, in letter-lex DFS order."""
    out = []

    def grow(word):
        for i in range(1, cd.rank + 1):
            child = word + (i,)
            if is_reduced(cd, child):
                out.append(child)
                if len(child) < max_len:
                    grow(child)

    if max_len >= 1:
        grow(())
    return out


def reflect_weight_columns(cd: CartanData, cols, i0: int):
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


def fundamental_weight(cd: CartanData, i: int):
    """Fundamental weight i (a 1-based node label) in its own coordinates."""
    j = cd._letter(i)
    return tuple(int(t == j) for t in range(cd.rank))


def root_pairing(cd: CartanData, a: Sequence[int], b: Sequence[int]) -> int:
    """The pairing a^T D C b of two vectors in simple-root coordinates, D
    the lengths and C the Cartan matrix: twice d_i on simple root i."""
    acc = 0
    for i, x in enumerate(a):
        if x:
            row = cd.cartan[i]
            acc += x * cd.d[i] * sum(row[j] * y for j, y in enumerate(b))
    return acc


def commutation_matrix(cd: CartanData, word: Sequence[int]) -> ExpMatrix:
    """The q-exponents of the commutations of a reduced word's generators:
    entry (j, k), j < k, is the pairing of roots j and k, extended
    skew-symmetrically."""
    r = roots_for_word(cd, word)
    n = len(r)
    return ExpMatrix.from_upper(n, {
        (j, k): root_pairing(cd, r[j], r[k])
        for j in range(n) for k in range(j + 1, n)
    })


def identity_columns(cd: CartanData):
    """The unit vectors: the fundamental weights in their own coordinates,
    or the simple roots in theirs."""
    return [fundamental_weight(cd, i + 1) for i in range(cd.rank)]


def prefix_weight_matrices(cd: CartanData, word: Sequence[int]):
    """Images of all fundamental weights under each prefix of the word."""
    cols = identity_columns(cd)
    out = [cols]
    for i in word:
        cols = reflect_weight_columns(cd, cols, cd._letter(i))
        out.append(cols)
    return out


def plus_minus(word, prefixes):
    """Per position k, the images of letter k's fundamental weight under
    prefix_k plus and minus its image under the whole word."""
    full = prefixes[len(word)]
    pairs = [(prefixes[k][i - 1], full[i - 1]) for k, i in enumerate(word)]
    plus = [tuple(a + b for a, b in zip(pre, fin)) for pre, fin in pairs]
    minus = [tuple(a - b for a, b in zip(pre, fin)) for pre, fin in pairs]
    return plus, minus


def frame_matrix(cd: CartanData, plus, minus) -> ExpMatrix:
    """The frame exponent matrix from plus_minus, in integers over
    2 * gram_scale: entry (j, k), j < k, is half the weight pairing of
    plus_j and minus_k."""
    n = len(plus)
    gram = cd._gram_scaled
    minus_g = [[sum(map(mul, row, nu)) for row in gram] for nu in minus]
    num = [[0] * n for _ in range(n)]
    for j in range(n):
        pj = plus[j]
        for k in range(j + 1, n):
            v = sum(map(mul, pj, minus_g[k]))
            num[j][k] = v
            num[k][j] = -v
    return ExpMatrix._make(tuple(map(tuple, num)), 2 * cd.gram_scale)


def verify_prepared(cd: CartanData, word, prefixes, bmat) -> CompatReport:
    """The compatibility report of word and an exchange matrix bmat, from
    the word's prefix weight matrices: the pairing of each column with
    every direction under the frame matrix, the grading sum of each
    column, and skew-symmetrizability with the letters' lengths as
    symmetrizers."""
    if not bmat.ex:
        return CompatReport(True, (), (), (), True)
    plus, minus = plus_minus(word, prefixes)
    frame = frame_matrix(cd, plus, minus)
    d = {k: cd.d[word[k] - 1] for k in bmat.ex}
    pairing_failures = []
    grading_failures = []
    for k in bmat.ex:
        col = bmat.cols[k]
        want = -d[k] * frame.den
        for l, got in enumerate(pairing_row(frame, col)):
            if got != (want if l == k else 0):
                pairing_failures.append((k, l))
        acc = [0] * cd.rank
        for j, c in enumerate(col):
            if c:
                for t in range(cd.rank):
                    acc[t] -= c * minus[j][t]
        if any(acc):
            grading_failures.append(k)
    symmetrizable = skew_symmetrizable(bmat, d)
    ok = not pairing_failures and not grading_failures and symmetrizable
    return CompatReport(
        ok,
        bmat.ex,
        tuple(pairing_failures),
        tuple(grading_failures),
        symmetrizable,
    )


def frame_exponent_matrix(cd: CartanData, word: Sequence[int]) -> ExpMatrix:
    """Torus exponent matrix of the frame of a reduced word, from the word."""
    prefixes = prefix_weight_matrices(cd, word)
    return frame_matrix(cd, *plus_minus(word, prefixes))


def exchange_matrix_for_word(cd: CartanData, word: Sequence[int]) -> ExchangeMatrix:
    """Closed-form exchange matrix of a reduced word, from the word: its
    columns grown one prefix at a time."""
    bcols, n, p = {}, len(word), EtaData(word).p
    for t in range(1, n + 1):
        bcols = _append_row(cd, word[:t], p, bcols)
    return ExchangeMatrix(n, {k: tuple(col.get(j, 0) for j in range(n))
                              for k, col in bcols.items()})


def word_report(cd: CartanData, word: Sequence[int]) -> CompatReport:
    """The compatibility report of a reduced word, from the word."""
    return verify_prepared(cd, word, prefix_weight_matrices(cd, word),
                           exchange_matrix_for_word(cd, word))


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


def full_sweep_reports(cd: CartanData, max_len: int):
    """(word, report) for each reduced word of length 1..max_len in walk
    order; report is None for a word with no repeated letter (no column)."""
    w = _field_width(cd, max_len)
    for word, *_, rows, bcols in _walk(cd, [range(cd.rank)] * max_len, w):
        yield word, _carried_report(cd, word, rows, bcols, w) if bcols else None


def full_sweep(cd: CartanData, max_len: int):
    """compatibility_sweep's result from the walk over every reduced word:
    (number of words, list of (word, report) failures in walk order)."""
    failures = []
    checked = 0
    for checked, (word, report) in enumerate(full_sweep_reports(cd, max_len), 1):
        if report is not None and not report.ok:
            failures.append((word, report))
    return checked, failures


def two_moves(cd: CartanData, word: Sequence[int]):
    """(p, swapped word) for each adjacent pair p, p + 1 of distinct
    commuting letters."""
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a != b and not cd.cartan[a - 1][b - 1]:
            yield p, word[:p] + (b, a) + word[p + 2:]


def commutation_class(cd: CartanData, word: Sequence[int]):
    """The words reached from word by 2-moves, as a set."""
    seen, todo = {tuple(word)}, [tuple(word)]
    while todo:
        for _, v in two_moves(cd, todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen
