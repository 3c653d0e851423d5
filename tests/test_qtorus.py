"""Based quantum torus arithmetic and toric frames."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.bicharacter import ExpMatrix, omega, symmetrization
from qcluster.cli import Session
from qcluster.mutation import mutate_seed, random_compatible_pair, seed_from_pair
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.qtorus import (
    ToricFrame,
    TorusElement,
    check_frame_identity,
    frame_value,
    reindex_frame,
    torus_mul,
)
from qcluster.scalarfield import Coeff, div_right
from qcluster.xicombinatorics import identity_frame
from oracles import (
    frame_value_by_products,
    matrix_from_images,
    permuted,
    proportionality_scalar,
    reindex_by_columns,
)

ROOT = 2
BASE = ExpMatrix.from_upper(
    3, {(0, 1): 1, (0, 2): Fraction(-1, 2), (1, 2): 2}
)

vectors = st.tuples(*[st.integers(-3, 3) for _ in range(3)])


def qp(e):
    return Coeff.q_power(e, ROOT)


def Y(g):
    return TorusElement.basis(BASE, ROOT, g)


def one():
    return TorusElement.one(BASE, ROOT)


elements = st.builds(
    lambda gs: sum((Y(g) for g in gs[1:]), Y(gs[0])),
    st.lists(vectors, min_size=1, max_size=3, unique=True),
)
nonzero = elements.filter(lambda a: not a.is_zero)


@given(vectors, vectors)
def test_basis_product_law(f, g):
    h = tuple(x + y for x, y in zip(f, g))
    assert Y(f) * Y(g) == Y(h).scaled(qp(omega(BASE, f, g)))


@given(vectors, vectors)
def test_commutation(f, g):
    """Y^(f) Y^(g) = q^(2 f^T E g) Y^(g) Y^(f)."""
    lhs = Y(f) * Y(g)
    rhs = (Y(g) * Y(f)).scaled(qp(omega(BASE, f, g) - omega(BASE, g, f)))
    assert lhs == rhs


@given(vectors)
def test_inverse(g):
    assert Y(g).inverse() * Y(g) == one()
    assert Y(g) * Y(g).inverse() == one()


def test_inverse_needs_monomial():
    with pytest.raises(ValueError):
        (Y((1, 0, 0)) + Y((0, 1, 0))).inverse()


def test_reprs_print_the_terms_in_key_order():
    assert repr(Y((0, 1, 0)).scaled(qp(1)) + Y((1, 0, 0))) == "(q)*Y[0, 1, 0] + (1)*Y[1, 0, 0]"
    assert repr(one() - one()) == "0"
    assert repr(basis_frame()) == "ToricFrame(n=3)"


@given(nonzero, nonzero)
@settings(max_examples=50)
def test_right_division(a, b):
    assert div_right(a * b, b) == a


def test_division_rejects_inexact():
    a = Y((1, 0, 0)) + Y((0, 1, 0))
    b = Y((0, 0, 1)) + Y((1, 1, 0))
    prod = a * b
    with pytest.raises(ValueError):
        div_right(prod + one(), b)


def basis_frame():
    images = [Y((1, 0, 0)), Y((0, 1, 0)), Y((0, 0, 1))]
    return ToricFrame(BASE, images, one(), ROOT)


@given(vectors)
def test_frame_value_matches_basis(g):
    """With generator images, M(g) is exactly the symmetrized monomial."""
    assert frame_value(basis_frame(), g) == Y(g)


def test_matrix_recovery():
    assert matrix_from_images(basis_frame().images) == BASE


def test_matrix_recovery_rejects_non_frame():
    images = [Y((1, 0, 0)), Y((0, 1, 0)) + Y((1, 0, 0)), Y((0, 0, 1))]
    with pytest.raises(ValueError):
        matrix_from_images(images)


def test_reindex_by_permutation():
    frame = basis_frame()
    perm = (2, 0, 1)
    re = reindex_frame(frame, perm)
    for k in range(3):
        assert re.images[k] is frame.images[perm[k]]
    assert re.emat == permuted(BASE, perm)


def permutation_cols(perm):
    """Columns of the matrix sending e_k to e_perm[k]."""
    return [tuple(int(i == p) for i in range(len(perm))) for p in perm]


def _same_frame(frame, perm):
    """The relabeling and the oracle's composed frame agree."""
    re = reindex_frame(frame, perm)
    want = reindex_by_columns(frame, permutation_cols(perm))
    assert re.emat == want.emat, perm
    assert re.images == want.images, perm
    assert re.one is frame.one and re.root == frame.root


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reindex_matches_the_oracle_on_torus_seeds(n):
    """Seeded permutations of random compatible pairs, before and after a
    mutation, whose new image is a two-term sum."""
    rng = random.Random(40 + n)
    for _ in range(5):
        emat, bmat, _ = random_compatible_pair(rng, n)
        seed = seed_from_pair(emat, bmat)
        for frame in (seed.frame, mutate_seed(seed, rng.choice(bmat.ex)).frame):
            for _ in range(4):
                perm = list(range(2 * n))
                rng.shuffle(perm)
                _same_frame(frame, perm)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)],
                         ids=["2x2", "2x3", "3x2", "3x3"])
def test_reindex_matches_the_oracle_on_pbw_identity_frames(shape):
    frame = identity_frame(quantum_matrix_preset(*shape)).frame
    rng = random.Random(sum(shape))
    for _ in range(3):
        perm = list(range(frame.n))
        rng.shuffle(perm)
        _same_frame(frame, perm)


@pytest.mark.parametrize("perm", [(0, 1), (0, 1, 2, 3), (0, 1, 1), (2, 0, 2)],
                         ids=["short", "long", "repeated", "repeated-first"])
def test_reindex_rejects_a_non_permutation(perm):
    with pytest.raises(ValueError, match="^perm is not a permutation of the frame's directions$"):
        reindex_frame(basis_frame(), perm)


@given(vectors)
def test_reindex_invariance(g):
    """Y^(f) = Y_sigma^(sigma^-1 f) for an integer shear sigma (oracle)."""
    frame = basis_frame()
    cols = [(1, 0, 0), (2, 1, 0), (0, 0, 1)]  # sigma: e1 -> e1 + 2 e0
    inv_rows = [[1, -2, 0], [0, 1, 0], [0, 0, 1]]
    re = reindex_by_columns(frame, cols)
    pre = tuple(sum(r * x for r, x in zip(row, g)) for row in inv_rows)
    assert frame_value(re, pre) == frame_value(frame, g)


def test_reindex_rejects_non_unimodular():
    with pytest.raises(ValueError):
        reindex_by_columns(basis_frame(), [(2, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_proportionality_scalar():
    a = Y((1, 2, 0)) + Y((0, 1, 1))
    c = Coeff.q_power(Fraction(3, 2), ROOT) + 1
    assert proportionality_scalar(a.scaled(c), a) == c
    with pytest.raises(ValueError):
        proportionality_scalar(a + one(), a)


def test_check_frame_identity():
    frame = basis_frame()
    target = Y((1, 0, 0)) + Y((0, 1, 0)).scaled(qp(2))
    combos = [(0, (1, 0, 0)), (2, (0, 1, 0))]
    assert check_frame_identity(frame, target, combos)
    off = [(1, (1, 0, 0)), (2, (0, 1, 0))]
    assert not check_frame_identity(frame, target, off)
    # a bare rational scales by its value, never by a q-power
    assert Y((0, 1, 0)).scaled(2) != Y((0, 1, 0)).scaled(qp(2))
    assert Y((0, 1, 0)).scaled(2) == Y((0, 1, 0)) + Y((0, 1, 0))


def test_check_frame_identity_with_negative_support():
    frame = basis_frame()
    g = (-1, 1, 0)
    target = frame_value(frame, g)
    assert check_frame_identity(frame, target, [(0, g)])
    # the combo's exponent adds to the pairing with the shift m = (1, 0, 0)
    half = Fraction(1, 2)
    assert check_frame_identity(frame, target.scaled(qp(half)), [(half, g)])
    assert not check_frame_identity(frame, target.scaled(qp(half)), [(0, g)])


@given(vectors, vectors)
def test_symmetrization_consistency(f, g):
    """Ordered product of two symmetrized monomials vs the base pairing."""
    prod = torus_mul(Y(f), Y(g))
    ((h, c),) = prod.terms.items()
    assert h == tuple(x + y for x, y in zip(f, g))
    assert c == qp(omega(BASE, f, g))


def test_frame_value_unrolls_to_ordered_product():
    frame = basis_frame()
    g = (2, 1, 1)
    ordered = one()
    for k, e in enumerate(g):
        for _ in range(e):
            ordered = ordered * frame.images[k]
    assert frame_value(frame, g) == ordered.scaled(qp(symmetrization(BASE, g)))


def _same_value(frame, g):
    """frame_value and the product oracle agree at g, or raise the same
    ValueError."""
    try:
        want = frame_value_by_products(frame, g)
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            frame_value(frame, g)
        assert str(info.value) == str(e), g
        return False
    assert frame_value(frame, g) == want, g
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frame_value_matches_the_product_oracle_on_torus_seeds(n):
    """One term per monomial direction, before and after a mutation, whose
    new image is a sum: there a negative exponent raises, as in the oracle.
    The seed's images scaled by +-q**a or 2 q**a power their coefficients."""
    rng = random.Random(n)
    raised = 0
    for _ in range(5):
        emat, bmat, _ = random_compatible_pair(rng, n)
        seed = seed_from_pair(emat, bmat)
        fr = seed.frame
        scales = [rng.choice((1, -1, 2)) * Coeff.q_power(Fraction(rng.randint(-4, 4), 4), fr.root)
                  for _ in fr.images]
        scaled = ToricFrame(fr.emat, [img.scaled(c) for img, c in zip(fr.images, scales)], fr.one, fr.root)
        for frame in (fr, scaled, mutate_seed(seed, rng.choice(bmat.ex)).frame):
            assert _same_value(frame, (0,) * (2 * n))
            for _ in range(12):
                g = tuple(rng.randint(-3, 3) for _ in range(2 * n))
                raised += not _same_value(frame, g)
    assert raised


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4)],
                         ids=["2x2", "2x3", "3x3", "3x4"])
def test_frame_value_matches_the_product_oracle_on_chain_frames(shape):
    """PBW images are multiplied e times, the scalar on the first factor."""
    rng = random.Random(sum(shape))
    session = Session(None, quantum_matrix_preset(*shape))
    last = len(session.taus) - 1
    for t in (0, last // 2, last):
        frame = session.frame(t).frame
        n = frame.n
        for k in range(n):
            assert _same_value(frame, tuple(int(j == k) for j in range(n)))
        for _ in range(3):
            assert _same_value(frame, tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n)))


def test_frame_value_names_a_negative_exponent_it_cannot_take():
    pbw = Session(None, quantum_matrix_preset(2, 2)).frame(0).frame
    with pytest.raises(ValueError, match="^negative exponent at 1: image is not invertible here$"):
        frame_value(pbw, (0, -1, 0, 0))
    sums = ToricFrame(BASE, [Y((1, 0, 0)), Y((0, 1, 0)) + one(), Y((0, 0, 1))], one(), ROOT)
    with pytest.raises(ValueError, match="^only monomial torus elements are invertible here$"):
        frame_value(sums, (1, -1, 0))
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        frame_value(sums, (1, 0))
    with pytest.raises(ValueError, match="^one image per lattice direction required$"):
        ToricFrame(BASE, sums.images[:2], one(), ROOT)
    assert frame_value(sums, (0, 2, 0)) == frame_value_by_products(sums, (0, 2, 0))
