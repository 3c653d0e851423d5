"""Root-system data, reduced words, and exchange matrices from words.

The A_2 word (1, 2, 1) is small enough to check everything by hand; the
quantum-matrix comparison at the end pins the dictionary between grid
presentations and type-A word presentations.
"""

import hashlib
from fractions import Fraction

import pytest

from qcluster.bicharacter import omega
from qcluster.exchangesolver import quantum_matrix_btilde
from qcluster.mutation import ExchangeMatrix
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.primeseq import EtaData
from qcluster.linalg import det
from qcluster.schubertdata import (
    MAX_RANK,
    CartanData,
    CompatReport,
    WordData,
    _alpha_columns,
    _carried_report,
    _field_width,
    _reflect_alpha_columns,
    _unpack,
    _walk,
    cartan_matrix,
    compatibility_sweep,
)
from qcluster.xicombinatorics import identity_frame
from oracles import permuted
from words import (
    commutation_class,
    commutation_matrix,
    enumerate_reduced_words,
    exchange_matrix_for_word,
    frame_exponent_matrix,
    frame_matrix,
    full_sweep,
    full_sweep_reports,
    fundamental_weight,
    identity_columns,
    is_reduced,
    plus_minus,
    prefix_weight_matrices,
    quantum_matrix_word,
    reflect_weight_columns,
    root_pairing,
    roots_for_word,
    two_moves,
    verify_prepared,
    word_report,
)

A2 = CartanData("A", 2)
B2 = CartanData("B", 2)
B3 = CartanData("B", 3)
G2 = CartanData("G", 2)


def test_cartan_matrices():
    assert cartan_matrix("A", 3) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert cartan_matrix("B", 2) == ((2, -1), (-2, 2))
    assert cartan_matrix("C", 2) == ((2, -2), (-1, 2))
    assert cartan_matrix("G", 2) == ((2, -3), (-1, 2))
    d4 = cartan_matrix("D", 4)
    assert d4[1][3] == -1 and d4[3][1] == -1
    assert d4[2][3] == 0 and d4[3][2] == 0
    with pytest.raises(ValueError):
        cartan_matrix("B", 1)
    with pytest.raises(ValueError):
        cartan_matrix("G", 3)
    with pytest.raises(ValueError):
        cartan_matrix("E", 6)
    with pytest.raises(ValueError, match="^type A needs rank >= 1$"):
        cartan_matrix("A", 0)


def test_every_cartan_matrix_is_symmetrizable_and_of_finite_type():
    """CartanData checks neither; this certifies every (letter, rank) that
    cartan_matrix builds: S = d C is symmetric, positive definite by
    Sylvester's criterion (every leading principal minor positive), and
    the weight Gram matrix d C^-1 is symmetric."""
    built = 0
    for letter in "ABCDG":
        for rank in range(1, MAX_RANK + 1):
            try:
                c = cartan_matrix(letter, rank)
            except ValueError:
                continue
            cd = CartanData(letter, rank)
            sym = [[cd.d[i] * c[i][j] for j in range(rank)] for i in range(rank)]
            assert sym == [list(col) for col in zip(*sym)], (letter, rank)
            assert all(det([row[:k] for row in sym[:k]]) > 0 for k in range(1, rank + 1)), (letter, rank)
            assert cd.gram == tuple(zip(*cd.gram)), (letter, rank)
            built += 1
    # A from rank 1, B and C from 2, D from 3, and G2
    assert built == 4 * MAX_RANK - 3


def test_symmetrizers_by_type():
    assert A2.d == (1, 1)
    assert CartanData("B", 3).d == (2, 2, 1)
    assert CartanData("C", 3).d == (1, 1, 2)
    assert G2.d == (1, 3)
    assert CartanData("D", 4).d == (1, 1, 1, 1)


def test_gram_matrix_a2():
    assert A2.gram == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )


def test_root_pairing_norms():
    # squared lengths are twice the symmetrizers
    for cd in (A2, B2, G2):
        for i in range(cd.rank):
            alpha = tuple(1 if t == i else 0 for t in range(cd.rank))
            assert root_pairing(cd, alpha, alpha) == 2 * cd.d[i]


def test_reflections():
    # the walk's packed column reflections, applied to the identity action:
    # s_1 alpha_1 = -alpha_1; s_1 alpha_2 = alpha_1 + alpha_2 in A_2
    width = _field_width(A2, 3)
    s1 = _reflect_alpha_columns(A2, _alpha_columns(A2, width), 0)
    assert [_unpack(x, 2, width) for x in s1] == [[-1, 0], [1, 1]]
    assert s1 == [-1, 1 + (1 << width)]
    # s_1 fixes the other fundamental weight
    mu = fundamental_weight(A2, 2)
    assert reflect_weight_columns(A2, identity_columns(A2), 0)[1] == mu


def _supported_types():
    for rank in range(1, 17):
        yield "A", rank
        if rank >= 2:
            yield "B", rank
            yield "C", rank
        if rank >= 3:
            yield "D", rank
    yield "G", 2


def _weight_form(cd, x, y):
    """x^T G y in the scaled Gram matrix G of the fundamental weights."""
    return sum(a * g * b for a, row in zip(x, cd._gram_scaled)
               for g, b in zip(row, y))


@pytest.mark.parametrize("letter, rank", list(_supported_types()))
def test_simple_reflections_preserve_the_weight_form(letter, rank):
    """S_i^T G S_i = G exactly for every simple reflection S_i, on the
    scaled Gram matrix the walk reads: the sweep's weight pairings rest
    on this identity."""
    cd = CartanData(letter, rank)
    identity = identity_columns(cd)
    for i in range(rank):
        s = reflect_weight_columns(cd, identity, i)
        assert [[_weight_form(cd, x, y) for y in s] for x in s] == [
            list(row) for row in cd._gram_scaled]


def test_roots_for_word_a2():
    roots = roots_for_word(A2, (1, 2, 1))
    assert roots == ((1, 0), (1, 1), (0, 1))
    assert is_reduced(A2, (1, 2, 1))
    assert not is_reduced(A2, (1, 1))
    with pytest.raises(ValueError):
        roots_for_word(A2, (1, 1))
    with pytest.raises(ValueError):
        roots_for_word(A2, (1, 2, 1, 2))   # longer than the longest element


def test_word_data_reads_the_oracle_roots_off_its_walk():
    """WordData's roots, the packed roots its walk yields, are the
    oracle's on every word of PINNED_SWEEPS."""
    for letter, rank, max_len in PINNED_SWEEPS:
        cd = CartanData(letter, rank)
        for word in enumerate_reduced_words(cd, max_len):
            assert WordData(cd, word).roots == roots_for_word(cd, word)


@pytest.mark.parametrize("word", [(1, 1, 9), (9, 1, 1), (1, 9), (0,), (-1, 2),
                                  (1, 2, 1, 2)])
def test_a_bad_word_fails_as_the_oracle_fails(word):
    """The walk stops at the first bad position, where a label out of
    range is named before reducedness is tested, as the oracle's loop
    does."""
    with pytest.raises(ValueError) as want:
        roots_for_word(A2, word)
    with pytest.raises(ValueError) as got:
        WordData(A2, word)
    assert str(got.value) == str(want.value)


def test_word_data_a2():
    data = WordData(A2, (1, 2, 1))
    assert repr(data) == "WordData(CartanData(A2), word=(1, 2, 1))"
    assert data.lengths == (1, 1, 1)
    # commutation exponents are minus the root pairings
    lam = commutation_matrix(A2, data.word)
    assert lam.entry(1, 0) == -1
    assert lam.entry(2, 0) == 1
    assert lam.entry(2, 1) == -1
    assert EtaData(data.word).p == (None, None, 0)


def test_frame_matrix_a2():
    r = WordData(A2, (1, 2, 1)).frame_matrix()
    h = Fraction(1, 2)
    assert r.rows == ((0, 0, -h), (0, 0, h), (h, -h, 0))


def test_exchange_matrix_a2():
    bmat = WordData(A2, (1, 2, 1)).exchange_matrix()
    assert bmat.ex == (2,)
    assert bmat.cols[2] == (1, -1, 0)


def test_column_pairing_a2():
    """Each column pairs trivially with every direction except its own."""
    data = WordData(A2, (1, 2, 1))
    r, col = data.frame_matrix(), data.exchange_matrix().cols[2]
    for l in range(3):
        e = omega(r, col, tuple(1 if t == l else 0 for t in range(3)))
        assert e == (-1 if l == 2 else 0)


def test_word_report_a2():
    report = WordData(A2, (1, 2, 1)).compatibility()
    assert report.ok
    assert report.columns == (2,)
    assert report.symmetrizable
    assert not report.pairing_failures and not report.grading_failures


def test_word_report_g2_longest():
    report = WordData(G2, (1, 2, 1, 2, 1, 2)).compatibility()
    assert report.ok
    assert report.columns == (2, 3, 4, 5)


def test_exchange_entries_use_cartan():
    # B_2 word (1,2,1,2): the off-chain entries carry Cartan integers
    data = WordData(B2, (1, 2, 1, 2))
    bmat = data.exchange_matrix()
    assert bmat.cols[2][0] == 1          # predecessor
    assert bmat.cols[2][1] == cartan_matrix("B", 2)[1][0]
    report = data.compatibility()
    assert report.ok


def test_enumerate_reduced_words():
    assert len(enumerate_reduced_words(CartanData("A", 1), 8)) == 1
    assert len(enumerate_reduced_words(A2, 8)) == 6
    assert len(enumerate_reduced_words(B2, 8)) == 8
    assert len(enumerate_reduced_words(G2, 8)) == 12
    words3 = enumerate_reduced_words(A2, 3)
    assert (1, 2, 1) in words3 and (2, 1, 2) in words3


def test_sweep_small_types():
    for cd, count in ((A2, 6), (B2, 8), (G2, 12)):
        checked, failures = compatibility_sweep(cd, 8)
        assert checked == count
        assert failures == []


# Every reduced word of these (type, rank, max length) triples, 1464 words.
# The digest was recorded before the Schubert module was rewritten onto one
# walk and one integer pairing, so it pins the old outputs word by word.
PINNED_SWEEPS = (("B", 3, 9), ("C", 3, 9), ("G", 2, 6), ("A", 4, 6), ("D", 4, 6))
PINNED_DIGEST = "97bdaea8d793bdf1f470e582c48eac6635350024f23f79e99a6688e3e1cbeb06"


def test_every_word_is_pinned():
    h = hashlib.sha256()
    for letter, rank, max_len in PINNED_SWEEPS:
        cd = CartanData(letter, rank)
        words = enumerate_reduced_words(cd, max_len)
        assert compatibility_sweep(cd, max_len)[0] == len(words)
        for word in words:
            data = WordData(cd, word)
            record = (
                word,
                data.frame_matrix().rows,
                sorted(data.exchange_matrix().cols.items()),
                data.compatibility(),
            )
            h.update(repr(record).encode())
    assert h.hexdigest() == PINNED_DIGEST


def _dense(bcols, n):
    return {c: tuple(col.get(r, 0) for r in range(n)) for c, col in bcols.items()}


def _fields(row, rank, n, width):
    """The rank + n fields of a packed row, checking that they are all of
    it."""
    fields = _unpack(row, rank + n, width)
    assert row == sum(x << (width * f) for f, x in enumerate(fields))
    return fields


def test_walk_carries_each_words_own_data():
    """The sweep's shared walk yields the data a word computes on its own
    from its prefix weight matrices: the weight pairings A, the packed
    frame rows (the tails W^T G minus, then the numerators over
    2 * gram_scale) and the exchange columns; and W^T G W = G at every
    node."""
    for letter, rank, max_len in PINNED_SWEEPS:
        cd = CartanData(letter, rank)
        gram = [list(row) for row in cd._gram_scaled]
        width = _field_width(cd, max_len)
        for node in _walk(cd, [range(rank)] * max_len, width):
            word, root, cols, p, A, rows, bcols = node
            n = len(word)
            rows = [_fields(row, rank, n, width) for row in rows]
            assert p == EtaData(word).p
            prefixes = prefix_weight_matrices(cd, word)
            W = prefixes[-1]
            assert [[_weight_form(cd, x, y) for y in W] for x in W] == gram
            pre = [prefixes[l][i - 1] for l, i in enumerate(word)]
            assert A == [[_weight_form(cd, pre[j], w) for j in range(n)]
                         for w in W]
            plus, minus = plus_minus(word, prefixes)
            assert [row[:rank] for row in rows] == [
                [_weight_form(cd, w, m) for w in W] for m in minus]
            frame = frame_matrix(cd, plus, minus)
            scale = 2 * cd.gram_scale
            assert all(rows[j][rank + l] * frame.den
                       == frame.num[j][l] * scale
                       for j in range(n) for l in range(n))
            cols = exchange_matrix_for_word(cd, word).cols
            assert _dense(bcols, n) == cols


def _wrong_lengths(letter, rank, d):
    cd = CartanData(letter, rank)
    cd.d = d
    return cd


@pytest.mark.parametrize("cd, max_len", [
    (CartanData("A", 4), 8),
    (B3, 8),
    (CartanData("C", 3), 8),
    (G2, 8),
    (CartanData("D", 4), 7),
    # wrong lengths make reports fail, so the failure lists are compared too
    (_wrong_lengths("B", 3, (1, 1, 1)), 6),
    (_wrong_lengths("G", 2, (3, 1)), 6),
    (_wrong_lengths("D", 4, (1, 2, 1, 1)), 6),
], ids=["A4", "B3", "C3", "G2", "D4",
        "B3-wrong-d", "G2-wrong-d", "D4-wrong-d"])
def test_sweep_reports_match_the_per_word_oracle(cd, max_len):
    """Every report the sweep computes from carried data equals the one
    the oracle computes from the word alone, and the sweep skips exactly
    the words with no repeated letter.  WordData, which follows the walk
    along its own word, gives the oracle's report, frame matrix and
    exchange matrix on every word."""
    for word, report in full_sweep_reports(cd, max_len):
        want = word_report(cd, word)
        if report is None:
            assert len(set(word)) == len(word)
            assert want == (True, (), (), (), True)
        else:
            assert len(set(word)) < len(word)
            assert report == want
        data = WordData(cd, word)
        assert data.compatibility() == want
        assert data.frame_matrix() == frame_exponent_matrix(cd, word)
        assert data.exchange_matrix() == exchange_matrix_for_word(cd, word)


# the seven sweeps of the benchmark's seeds workload
SEEDS_SWEEPS = (("A", 4, 8), ("A", 5, 7), ("B", 3, 8), ("C", 3, 8),
                ("D", 4, 8), ("D", 4, 9), ("G", 2, 8))
# wrong lengths fail 146 words of B3/8, and 765 of the 1036 of D4/7
WRONG_LENGTHS = (
    (_wrong_lengths("B", 3, (1, 1, 1)), 8),
    (_wrong_lengths("G", 2, (3, 1)), 6),
    (_wrong_lengths("D", 4, (1, 2, 1, 1)), 7),
)
WRONG_IDS = ["B3-wrong-d", "G2-wrong-d", "D4-wrong-d"]


@pytest.mark.parametrize(
    "cd, max_len",
    [(CartanData(t, r), n) for t, r, n in PINNED_SWEEPS + SEEDS_SWEEPS]
    + list(WRONG_LENGTHS),
    ids=[f"{t}{r}-{n}" for t, r, n in PINNED_SWEEPS + SEEDS_SWEEPS] + WRONG_IDS)
def test_sweep_by_class_matches_the_full_sweep(cd, max_len):
    """compatibility_sweep walks one word per commutation class, counts
    the words of each element it meets and, once a class fails, walks
    every word: it returns the count, failure list and reports of the walk
    over every word, in the same order."""
    got = compatibility_sweep(cd, max_len)
    assert got == full_sweep(cd, max_len)
    assert bool(got[1]) == (cd.d != CartanData(cd.letter, cd.rank).d)


@pytest.mark.parametrize("cd, max_len", WRONG_LENGTHS, ids=WRONG_IDS)
def test_failing_sweeps_match_the_per_word_oracle(cd, max_len):
    """A failing sweep lists, in lexicographic order, the oracle's report
    of every reduced word that fails, computed from the word alone; the
    full sweep it is compared with above follows the sweep's own walk."""
    want = [(word, report) for word in enumerate_reduced_words(cd, max_len)
            for report in [word_report(cd, word)] if not report.ok]
    assert compatibility_sweep(cd, max_len)[1] == want


@pytest.mark.parametrize("letter, rank, max_len", [("A", 4, 6), ("D", 4, 6)])
def test_the_sweep_walks_the_least_word_of_each_class(letter, rank, max_len):
    """The walk with least set yields exactly the lexicographically least
    word of each commutation class, each once."""
    cd = CartanData(letter, rank)
    classes = {}
    for word in enumerate_reduced_words(cd, max_len):
        if not any(word in c for c in classes.values()):
            c = commutation_class(cd, word)
            classes[min(c)] = c
    width = _field_width(cd, max_len)
    walked = [node[0] for node in _walk(cd, [range(rank)] * max_len, width,
                                        least=True)]
    assert sorted(walked) == sorted(classes)


def test_braid_related_classes_share_an_element():
    """(1, 2, 1) and (2, 1, 2) are the least words of two classes of one
    element of A2, so the sweep counts that element's words once."""
    width = _field_width(A2, 3)
    images = {node[0]: node[2]
              for node in _walk(A2, [range(2)] * 3, width, least=True)}
    assert len(images) == 6
    assert images[(1, 2, 1)] == images[(2, 1, 2)]
    assert compatibility_sweep(A2, 3) == (6, [])


def _moved_report(report, tau):
    """report with each position k moved to tau[k], listed in the order
    the report lists positions."""
    return CompatReport(
        report.ok,
        tuple(sorted(tau[k] for k in report.columns)),
        tuple(sorted((tau[k], tau[l]) for k, l in report.pairing_failures)),
        tuple(sorted(tau[k] for k in report.grading_failures)),
        report.symmetrizable)


@pytest.mark.parametrize(
    "cd, max_len",
    [(CartanData(t, r), n) for t, r, n in PINNED_SWEEPS] + list(WRONG_LENGTHS),
    ids=[f"{t}{r}-{n}" for t, r, n in PINNED_SWEEPS] + WRONG_IDS)
def test_a_two_move_permutes_the_word_data(cd, max_len):
    """Swapping adjacent distinct commuting letters at p, p + 1 gives the
    frame matrix, exchange matrix and report of the word permuted by the
    transposition tau = (p p+1), which is why the sweep checks one word
    per commutation class."""
    for word in enumerate_reduced_words(cd, max_len):
        data = WordData(cd, word)
        frame, bmat = data.frame_matrix(), data.exchange_matrix()
        report, n = data.compatibility(), len(word)
        for p, swapped in two_moves(cd, word):
            tau = list(range(n))
            tau[p], tau[p + 1] = p + 1, p
            other = WordData(cd, swapped)
            assert other.frame_matrix() == permuted(frame, tau)
            assert other.exchange_matrix() == ExchangeMatrix(n, {
                tau[k]: tuple(col[t] for t in tau)
                for k, col in bmat.cols.items()})
            assert other.compatibility() == _moved_report(report, tau)


@pytest.mark.parametrize("entry", [(2, 3), (2, 0), (2, 2)])
def test_broken_column_reports_the_same_failures(entry):
    """One exchange entry of B2 (1, 2, 1, 2) raised by 1 breaks the pairing
    (on and off the diagonal), the grading or symmetrizability; the
    sweep's check, whose grading test reads the node's tails W^T G minus,
    and the oracle, whose test reads the minus vectors, report the same
    failures for it: the sweep unpacks a failing column's sum to list
    them."""
    word = (1, 2, 1, 2)
    width = _field_width(B2, 4)
    *_, rows, bcols = next(node for node in _walk(B2, [range(2)] * 4, width)
                           if node[0] == word)
    bcols = {k: dict(col) for k, col in bcols.items()}
    k, j = entry
    bcols[k][j] = bcols[k].get(j, 0) + 1
    broken = ExchangeMatrix(4, _dense(bcols, 4))
    report = verify_prepared(B2, word, prefix_weight_matrices(B2, word), broken)
    assert report.grading_failures == (k,)
    assert _carried_report(B2, word, rows, bcols, width) == report


def test_packed_fields_stay_inside_the_width_proof():
    """The premises of the field width's proof, on every node of
    PINNED_SWEEPS: each frame numerator is at most 4M and each tail entry
    at most 2M in absolute value, M the largest diagonal entry of the
    scaled weight Gram matrix; and each packed simple-root image has the
    common sign of its coordinates, so the walk's sign test is the
    positivity test."""
    for letter, rank, max_len in PINNED_SWEEPS:
        cd = CartanData(letter, rank)
        M = max(cd._gram_scaled[i][i] for i in range(rank))
        assert cd._gram_max == M
        width = _field_width(cd, max_len)
        images = {(): _alpha_columns(cd, width)}
        for word, root, cols, p, A, rows, bcols in _walk(
                cd, [range(rank)] * max_len, width):
            n = len(word)
            for row in rows:
                fields = _fields(row, rank, n, width)
                assert all(abs(x) <= 2 * M for x in fields[:rank])
                assert all(abs(x) <= 4 * M for x in fields[rank:])
            parent = images[word[:-1]]
            assert root == parent[word[-1] - 1] > 0
            images[word] = cols
            assert cols == _reflect_alpha_columns(cd, parent, word[-1] - 1)
            for packed in cols:
                coords = _fields(packed, rank, 0, width)
                sign = (packed > 0) - (packed < 0)
                assert sign and all(x * sign >= 0 for x in coords)
                assert root_pairing(cd, coords, coords) in (
                    2 * d for d in cd.d)


@pytest.mark.parametrize("cd, word, k, j", [
    # row 2 pairs with direction 3 (and has nonzero tails), so raising
    # entry (2, 3) moves both the pairing and the grading sums
    (B2, (1, 2, 1, 2), 3, 2),
    # a column on the one-letter word: 4M sum |b| + |want| reaches 2^(w-1)
    # exactly one unit beyond the budget
    (CartanData("A", 1), (1,), 0, 0),
], ids=["B2", "A1"])
def test_a_column_beyond_the_field_width_is_a_value_error(cd, word, k, j):
    """The packed compare is exact while 4M sum_j |b_jk| + |want_k| stays
    below 2^(w-1).  A column at that budget is still reported as the oracle
    reports it; one unit beyond it is a ValueError, which python -O keeps,
    not a report that could be wrong."""
    n = len(word)
    width = _field_width(cd, n)
    *_, rows, bcols = next(node for node in _walk(cd, [range(cd.rank)] * n,
                                                  width) if node[0] == word)
    want = 2 * cd.gram_scale * cd.d[word[k] - 1]
    room = ((1 << (width - 1)) - 1 - want) // (4 * cd._gram_max) - sum(
        abs(c) for l, c in bcols.get(k, {}).items() if l != j)
    assert room > 1
    for extra in (room, -room, room + 1, -room - 1):
        broken = {c: dict(col) for c, col in bcols.items()}
        broken.setdefault(k, {})[j] = extra
        if abs(extra) == room:
            report = verify_prepared(cd, word, prefix_weight_matrices(cd, word),
                                     ExchangeMatrix(n, _dense(broken, n)))
            assert report.pairing_failures and report.grading_failures
            assert _carried_report(cd, word, rows, broken, width) == report
        else:
            with pytest.raises(ValueError, match="beyond"):
                _carried_report(cd, word, rows, broken, width)


def test_no_words_below_length_one():
    a3 = CartanData("A", 3)
    for max_len in (0, -1):
        assert enumerate_reduced_words(a3, max_len) == []
        assert compatibility_sweep(a3, max_len) == (0, [])


def test_quantum_matrix_word():
    assert quantum_matrix_word(2, 2) == (2, 1, 3, 2)
    assert quantum_matrix_word(2, 3) == (3, 2, 1, 4, 3, 2)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
def test_dictionary_with_grid_presentation(shape):
    """Reversing the word order recovers the grid data up to q <-> q^-1."""
    m, n = shape
    N = m * n
    cd = CartanData("A", m + n - 1)
    word = quantum_matrix_word(m, n)
    rho = [N - 1 - k for k in range(N)]
    data = WordData(cd, word)
    pres = quantum_matrix_preset(m, n)

    bmat = data.exchange_matrix()
    reversed_cols = {
        N - 1 - k: tuple(col[rho[t]] for t in range(N))
        for k, col in bmat.cols.items()
    }
    from qcluster.mutation import ExchangeMatrix

    assert ExchangeMatrix(N, reversed_cols) == quantum_matrix_btilde(m, n)
    assert permuted(commutation_matrix(cd, word), rho) == pres.lam.scaled(-1)
    r = data.frame_matrix()
    assert permuted(r, rho) == identity_frame(pres).frame.emat.scaled(-1)
