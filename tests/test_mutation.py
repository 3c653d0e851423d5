"""Exchange matrices, compatible pairs, and seed mutation on the torus.

Randomized cases come from random_compatible_pair with fixed seeds, so
failures are reproducible.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.bicharacter import ExpMatrix
from qcluster.exchangesolver import btilde_for_tau
from qcluster.linalg import rank
from qcluster.mutation import (
    ExchangeMatrix,
    Seed,
    compatibility_check,
    exchange_identity_holds,
    exchange_terms,
    mutate_emat,
    mutate_matrix,
    mutate_seed,
    mutated_variable,
    random_compatible_pair,
    seed_from_pair,
)
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.qtorus import (
    ToricFrame,
    TorusElement,
    frame_value,
    reindex_frame,
)
from qcluster.xicombinatorics import frame_for_tau, gamma_chain
from factors import e_matrix, factor_mutate
from oracles import exp_mat_product
from symmetrizers import find_symmetrizer, skew_symmetrizable


def pairs(seed, count, n_range=(1, 4)):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        emat, bmat, d = random_compatible_pair(rng, n)
        yield rng, emat, bmat, d


def test_exchange_matrix_shape():
    bmat = ExchangeMatrix(4, {0: (0, -1, -1, 1)})
    assert bmat.ex == (0,)
    assert bmat.column(0) == (0, -1, -1, 1)
    assert bmat.entry(3, 0) == 1
    assert repr(bmat) == "ExchangeMatrix(n_rows=4, ex=(0,))"
    assert bmat != "x" and not bmat == "x"
    with pytest.raises(ValueError):
        ExchangeMatrix(4, {0: (0, -1, -1)})
    with pytest.raises(ValueError):
        ExchangeMatrix(4, {5: (0, 0, 0, 0)})


def test_principal_part_sign_rule():
    bmat = ExchangeMatrix(2, {0: (0, 2), 1: (-3, 0)})
    d = find_symmetrizer(bmat)
    assert d is not None
    assert skew_symmetrizable(bmat, d)
    assert d[0] * bmat.entry(0, 1) == -d[1] * bmat.entry(1, 0)


def test_not_symmetrizable():
    bmat = ExchangeMatrix(2, {0: (0, 2), 1: (3, 0)})
    assert find_symmetrizer(bmat) is None


def test_random_pairs_are_compatible():
    with pytest.raises(ValueError, match="^need at least one exchangeable direction$"):
        random_compatible_pair(random.Random(7), 0)
    for _, emat, bmat, d in pairs(7, 30):
        diag = compatibility_check(emat, bmat)
        for k in bmat.ex:
            assert diag[k] == Fraction(d[k], 2) and isinstance(diag[k], Fraction)
        assert skew_symmetrizable(bmat, d)


@given(st.integers(0, 2**32), st.integers(1, 4), st.data())
@settings(max_examples=100)
def test_compatible_matrices_have_full_rank(seed, n, data):
    """The rank argument in compatibility_check's docstring, against the
    elimination: a pair that passes has full column rank, and a matrix with
    a repeated column fails."""
    emat, bmat, _ = random_compatible_pair(random.Random(seed), n)
    compatibility_check(emat, bmat)
    assert rank(list(bmat.cols.values())) == len(bmat.ex)
    if n > 1:
        j, k = data.draw(st.permutations(bmat.ex))[:2]
        twin = ExchangeMatrix(bmat.n_rows, {**bmat.cols, j: bmat.cols[k]})
        assert rank(list(twin.cols.values())) < len(twin.ex)
        with pytest.raises(ValueError):
            compatibility_check(emat, twin)


@pytest.mark.parametrize(
    "shape",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)],
    ids=["2x2", "2x3", "2x4", "3x2", "3x3", "3x4"],
)
def test_chain_frames_have_full_rank(shape):
    pres = quantum_matrix_preset(*shape)
    for tau in gamma_chain(pres.n):
        tp = frame_for_tau(pres, tau)
        bmat = btilde_for_tau(tp)
        compatibility_check(tp.frame.emat, bmat)
        assert rank(list(bmat.cols.values())) == len(bmat.ex)


def test_matrix_mutation_direct_vs_factored():
    for rng, _, bmat, _ in pairs(11, 40):
        k = rng.choice(bmat.ex)
        plus = factor_mutate(bmat, k, 1)
        minus = factor_mutate(bmat, k, -1)
        assert plus == minus == mutate_matrix(bmat, k)


def test_matrix_mutation_is_involutive():
    for rng, _, bmat, _ in pairs(13, 40):
        k = rng.choice(bmat.ex)
        assert mutate_matrix(mutate_matrix(bmat, k), k) == bmat


def test_emat_mutation_sign_independent_and_involutive():
    for rng, emat, bmat, _ in pairs(17, 30):
        k = rng.choice(bmat.ex)
        plus = dense_mutate_emat(emat, bmat, k, 1)
        minus = dense_mutate_emat(emat, bmat, k, -1)
        assert plus == minus == mutate_emat(emat, bmat, k)
        bmat2 = mutate_matrix(bmat, k)
        assert mutate_emat(plus, bmat2, k) == emat


def dense_mutate_emat(emat, bmat, k, eps):
    """Conjugation by the full row factor, the O(n^3) reference."""
    return exp_mat_product(emat, e_matrix(bmat, k, eps))


@given(st.integers(0, 2**32), st.integers(1, 4), st.data())
@settings(max_examples=100)
def test_rank_one_mutate_emat_equals_dense_product(seed, n, data):
    emat, bmat, _ = random_compatible_pair(random.Random(seed), n)
    k = data.draw(st.sampled_from(bmat.ex))
    for eps in (1, -1):
        assert mutate_emat(emat, bmat, k) == dense_mutate_emat(emat, bmat, k, eps)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["2x3", "3x2"])
def test_rank_one_mutate_emat_on_chain_frames(shape):
    pres = quantum_matrix_preset(*shape)
    for tau in gamma_chain(pres.n):
        tp = frame_for_tau(pres, tau)
        emat, bmat = tp.frame.emat, btilde_for_tau(tp)
        for k in bmat.ex:
            for eps in (1, -1):
                assert mutate_emat(emat, bmat, k) == dense_mutate_emat(
                    emat, bmat, k, eps
                )


def test_mutate_emat_rejects_frozen_direction():
    emat, bmat, _ = random_compatible_pair(random.Random(3), 2)
    seed = seed_from_pair(emat, bmat)
    assert repr(seed) == "Seed(n=4, ex=(0, 1))"
    for k in (2, 3):
        for mutate in (lambda: mutate_emat(emat, bmat, k), lambda: mutate_matrix(bmat, k),
                       lambda: mutate_seed(seed, k)):
            with pytest.raises(ValueError, match=f"direction {k} is not exchangeable"):
                mutate()


def test_mutation_preserves_compatibility():
    for rng, emat, bmat, _ in pairs(19, 30):
        diag = compatibility_check(emat, bmat)
        k = rng.choice(bmat.ex)
        emat2 = mutate_emat(emat, bmat, k)
        bmat2 = mutate_matrix(bmat, k)
        assert compatibility_check(emat2, bmat2) == diag


def test_exchange_terms_have_unit_pairing():
    for rng, emat, bmat, _ in pairs(23, 20):
        seed = seed_from_pair(emat, bmat)
        k = rng.choice(bmat.ex)
        terms = exchange_terms(seed.frame, bmat.cols[k], k)
        assert len(terms) == 2
        for scalar, h in terms:
            assert h[k] == 0 and isinstance(scalar, Fraction)
        # the two scalars are chosen so the product with the old variable
        # reproduces the sum; verified through the identity checker
        var = mutated_variable(seed.frame, bmat.cols[k], k)
        assert exchange_identity_holds(seed.frame, bmat.cols[k], k, var)
        col = tuple(x + (i == k) for i, x in enumerate(bmat.cols[k]))
        with pytest.raises(ValueError, match="^column must vanish on its own direction$"):
            exchange_terms(seed.frame, col, k)


def test_seed_mutation_round_trip():
    for rng, emat, bmat, _ in pairs(29, 30):
        seed = seed_from_pair(emat, bmat)
        k = rng.choice(bmat.ex)
        s1 = mutate_seed(seed, k)
        assert s1.frame.images[k] != seed.frame.images[k]
        assert s1.pairings == seed.pairings == compatibility_check(emat, bmat)
        s2 = mutate_seed(s1, k)
        assert s2.bmat == seed.bmat
        assert s2.frame.emat == seed.frame.emat
        assert list(s2.frame.images) == list(seed.frame.images)


def test_mutated_variable_is_a_laurent_binomial():
    rng = random.Random(31)
    emat, bmat, _ = random_compatible_pair(rng, 2)
    seed = seed_from_pair(emat, bmat)
    k = bmat.ex[0]
    var = mutated_variable(seed.frame, bmat.cols[k], k)
    assert len(var.terms) == 2
    for g in var.terms:
        assert g[k] == -1


def test_seed_rejects_incompatible():
    bmat = ExchangeMatrix(2, {0: (0, 1)})
    emat = ExpMatrix.zero(2)
    with pytest.raises(ValueError):
        compatibility_check(emat, bmat)
    frame = ToricFrame(
        emat,
        [TorusElement.basis(emat, 2, (1, 0)), TorusElement.basis(emat, 2, (0, 1))],
        TorusElement.one(emat, 2),
        2,
    )
    with pytest.raises(ValueError):
        Seed(frame, bmat)
    # a nontrivial diagonal pairing with a nontrivial off-diagonal one
    skew = ExpMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match=r"^pairing of column 0 with direction 1 is q\^1 != 1$"):
        compatibility_check(skew, ExchangeMatrix(2, {0: (1, 1)}))
    wide = ExchangeMatrix(3, {0: (0, 1, 0)})
    with pytest.raises(ValueError, match="^size mismatch between torus matrix and columns$"):
        compatibility_check(emat, wide)
    with pytest.raises(ValueError, match="^frame size and matrix row count differ$"):
        Seed(frame, wide)


def signed_pairs(seed, count):
    """Compatible pairs whose pairings take either sign: the columns of
    random_compatible_pair's matrix, each negated at random, so column k
    pairs with its own direction as +-d_k / 2, d_k in 1..3."""
    for rng, emat, bmat, d in pairs(seed, count):
        signs = {k: rng.choice((1, -1)) for k in bmat.ex}
        cols = {k: tuple(s * x for x in bmat.cols[k]) for k, s in signs.items()}
        yield emat, ExchangeMatrix(bmat.n_rows, cols), {k: signs[k] * d[k] for k in d}


def test_seed_reads_symmetrizability_off_the_pairings():
    """Seed accepts a compatible pair with signed pairings exactly when the
    search finds positive symmetrizers for its principal part."""
    found = {True: 0, False: 0}
    for emat, bmat, d in signed_pairs(41, 300):
        assert compatibility_check(emat, bmat) == {k: Fraction(v, 2) for k, v in d.items()}
        sym = find_symmetrizer(bmat)
        found[sym is not None] += 1
        if sym is None:
            with pytest.raises(ValueError, match="principal part is not skew-symmetrizable"):
                seed_from_pair(emat, bmat)
        else:
            assert skew_symmetrizable(bmat, sym)
            assert seed_from_pair(emat, bmat).pairings == {
                k: Fraction(v, 2) for k, v in d.items()
            }
    assert min(found.values()) > 50


def test_seed_rejects_a_mixed_sign_linked_pair():
    """Columns 0 and 1 are linked (b_01 = b_10 = -1) and pair with their own
    directions as q^(1/2) and q^(-1/2): compatible, not skew-symmetrizable."""
    h = Fraction(1, 2)
    emat = ExpMatrix([[0, 0, -h, 0], [0, 0, 0, -h], [h, 0, 0, -h], [0, h, h, 0]])
    bmat = ExchangeMatrix(4, {0: (0, -1, 1, 0), 1: (-1, 0, 0, -1)})
    assert compatibility_check(emat, bmat) == {0: h, 1: -h}
    assert find_symmetrizer(bmat) is None
    with pytest.raises(ValueError, match="principal part is not skew-symmetrizable"):
        seed_from_pair(emat, bmat)
    # negating column 1 makes the pairings agree and the pair a seed
    same = ExchangeMatrix(4, {0: bmat.cols[0], 1: (1, 0, 0, 1)})
    assert seed_from_pair(emat, same).pairings == {0: h, 1: h}


def test_frame_reindex_respects_mutation():
    """Reindexing a mutated frame still evaluates consistently."""
    for rng, emat, bmat, _ in pairs(37, 10, n_range=(2, 3)):
        seed = seed_from_pair(emat, bmat)
        k = rng.choice(bmat.ex)
        s1 = mutate_seed(seed, k)
        n = emat.n
        perm = list(range(n))
        rng.shuffle(perm)
        re = reindex_frame(s1.frame, perm)
        # the mutated image is a two-term sum, so its exponent stays >= 0
        g = tuple(
            rng.randint(0, 2) if t == k else rng.randint(-2, 2) for t in range(n)
        )
        moved = tuple(g[perm[t]] for t in range(n))
        assert frame_value(re, moved) == frame_value(s1.frame, g)
