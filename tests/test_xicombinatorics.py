"""Interval-prefix permutations and the toric frames they induce."""

import pytest

from qcluster.bicharacter import omega, symmetrization
from qcluster.exchangesolver import first_column_crosscheck
from qcluster.orealgebra import leading_term, quantum_matrix_preset
from qcluster.primeseq import EtaData, compute_primes, interval_prime, u_element
from qcluster.qtorus import frame_value
from qcluster.scalarfield import Coeff
from qcluster.xicombinatorics import (
    frame_for_tau,
    gamma_chain,
    gamma_chain_swaps,
    has_interval_prefixes,
    identity_frame,
    interval_frame,
    tau_bullet,
    window_support_vector,
)
from oracles import enumerate_xi, exp_mat_product, matrix_from_images

P22 = quantum_matrix_preset(2, 2)


def test_interval_prefix_predicate():
    assert has_interval_prefixes((0, 1, 2))
    assert has_interval_prefixes((1, 2, 0))
    assert has_interval_prefixes((2, 1, 0))
    assert not has_interval_prefixes((0, 2, 1))
    assert not has_interval_prefixes((2, 0, 1))
    # no permutation, and the empty one, gamma_chain(0)'s one entry
    assert not has_interval_prefixes((0, 0, 1))
    assert gamma_chain(0) == [()] and has_interval_prefixes(())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_enumerate_xi_counts(n):
    xi = enumerate_xi(n)
    assert len(xi) == 2 ** (n - 1)
    assert len(set(xi)) == len(xi)
    for tau in xi:
        assert has_interval_prefixes(tau)


def test_gamma_chain_shape():
    for n in (2, 3, 4, 6):
        chain = gamma_chain(n)
        swaps = gamma_chain_swaps(n)
        assert len(chain) == n * (n - 1) // 2 + 1
        assert len(swaps) == len(chain) - 1
        assert chain[0] == tuple(range(n))
        assert chain[-1] == tuple(reversed(range(n)))
        xi = set(enumerate_xi(n))
        for tau in chain:
            assert tau in xi
        for t, pos in enumerate(swaps):
            cur, nxt = list(chain[t]), chain[t + 1]
            cur[pos], cur[pos + 1] = cur[pos + 1], cur[pos]
            assert tuple(cur) == nxt


def test_tau_bullet():
    eta = (0, 1, 0, 1, 0)
    tau = (2, 3, 4, 1, 0)
    bullet = tau_bullet(eta, tau)
    assert sorted(bullet) == list(range(5))
    for x in range(5):
        assert eta[bullet[x]] == eta[x]
    # along tau, members of a level set are matched in increasing order
    assert bullet[2] == 0 and bullet[4] == 2 and bullet[0] == 4
    assert tau_bullet(eta, tuple(range(5))) == tuple(range(5))


def test_identity_frame_images_are_normalized_primes():
    tp = identity_frame(P22)
    seq = compute_primes(P22)
    assert tp.sigma == tuple(range(4))
    for k in range(4):
        assert tp.frame.images[k] == seq.ybar[k]
    nu = P22.nu()
    for j in range(4):
        for k in range(4):
            want = omega(nu, seq.eta_data.ebar[j], seq.eta_data.ebar[k])
            assert tp.frame.emat.entry(j, k) == want


def test_reversal_frame_images():
    tau = (3, 2, 1, 0)
    tp = frame_for_tau(P22, tau)
    assert repr(tp) == "TauPresentation(tau=[3, 2, 1, 0])"
    # images sit at bullet-relabeled slots: the level set {0, 3} puts the
    # single prime t22 at slot 0 and the full-chain minor at slot 3
    assert tp.sigma == (0, 2, 1, 3)  # sigma[k] = tau_bullet[tau[k]] = (3, 1, 2, 0)[tau[k]]
    assert tp.frame.images[0] == P22.gen(3)
    assert tp.frame.images[1] == P22.gen(1)
    assert tp.frame.images[2] == P22.gen(2)
    assert len(tp.frame.images[3].terms) == 2


def test_frame_matrix_matches_image_products():
    """The pairing matrix of the chain vectors is the one the images'
    pairwise products give."""
    for tau in gamma_chain(4):
        tp = frame_for_tau(P22, tau)
        assert matrix_from_images(tp.frame.images) == tp.frame.emat


def test_frame_rejects_non_interval_prefix():
    with pytest.raises(ValueError):
        frame_for_tau(P22, (0, 2, 1, 3))


@pytest.mark.parametrize("tau", [(0, 1, 2), (0, 1, 2, 3, 4)], ids=["short", "long"])
def test_frame_rejects_a_permutation_of_another_length(tau):
    with pytest.raises(ValueError, match=f"has {len(tau)} entries, the presentation 4"):
        frame_for_tau(P22, tau)


@pytest.mark.parametrize("i", [-1, 4, 5])
@pytest.mark.parametrize(
    "call",
    [
        lambda i: interval_prime(P22, i, 1),
        lambda i: u_element(P22, i, 1),
        lambda i: interval_frame(P22, i, 1),
        lambda i: window_support_vector(P22, i, 1, (0,) * 4),
        lambda i: first_column_crosscheck(P22, i),
    ],
    ids=["interval_prime", "u_element", "interval_frame", "window_support_vector",
         "first_column_crosscheck"],
)
def test_interval_functions_reject_a_start_outside_the_generators(call, i):
    """EtaData.succ_power names the start index; -1 is not read as the last
    generator, nor 4 or 5 as a bare IndexError."""
    with pytest.raises(ValueError, match=rf"^start index {i} is not in 0\.\.3$"):
        call(i)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: interval_prime(P22, 0, -1), "negative chain length -1"),
        (lambda: u_element(P22, 0, -1), "negative chain length -1"),
        (lambda: window_support_vector(P22, 0, -1, (0,) * 4), "negative chain length -1"),
        (lambda: interval_frame(P22, 0, -1), "window needs at least one chain step"),
        (lambda: u_element(P22, 9, 0), r"start index 9 is not in 0\.\.3"),
    ],
    ids=["interval_prime", "u_element", "window_support_vector", "interval_frame",
         "u_element-start-at-m0"],
)
def test_interval_functions_reject_a_negative_length_or_bad_start(call, message):
    """m = -1 is not read as m = 0, and u_element checks its start before
    the unit it returns at m = 0."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert u_element(P22, 3, 0) == P22.one()


def _chain_vectors(frame, seen):
    """Column a: the leading exponent of image a, the chain vector of its
    span; seen maps the id of an image's term dict to it."""
    out = []
    for img in frame.images:
        key = id(img.terms)
        if key not in seen:
            seen[key] = (img, leading_term(img)[0])
        out.append(seen[key][1])
    return out


@pytest.mark.parametrize("m", range(1, 6))
def test_frames_match_the_product_oracle(m):
    """Every chain frame and window of the m x n presets, n <= 5: the
    exponent matrix read from the pairing table is V^T nu V over the
    frame's own chain vectors, and each span's chain vector, read through
    tau, is the positional chain of its position (the docstrings of
    _span_frame and frame_for_tau prove these)."""
    for n in range(1, 6):
        pres = quantum_matrix_preset(m, n)
        nu, seen = pres.nu(), {}
        ed = compute_primes(pres).eta_data
        frames = []
        for tau in gamma_chain(pres.n):
            tp = frame_for_tau(pres, tau)
            vecs = _chain_vectors(tp.frame, seen)
            positional = EtaData(tp.eta_tau).ebar
            for k in range(pres.n):
                assert tuple(vecs[tp.sigma[k]][t] for t in tau) == positional[k]
            frames.append(tp.frame)
        for i in range(pres.n):
            frames += [interval_frame(pres, i, s) for s in range(1, ed.o_plus[i] + 1)]
        for fr in frames:
            vecs = _chain_vectors(fr, seen)
            assert fr.emat == exp_mat_product(nu, [list(r) for r in zip(*vecs)])


def test_frame_images_quasi_commute():
    """M(e_j) M(e_k) = q^(2 emat_jk) M(e_k) M(e_j) inside the algebra."""
    from qcluster.orealgebra import pbw_mul

    tp = frame_for_tau(P22, (1, 2, 3, 0))
    em = tp.frame.emat
    for j in range(4):
        for k in range(4):
            lhs = pbw_mul(tp.frame.images[j], tp.frame.images[k])
            scal = Coeff.q_power(em.entry(j, k) - em.entry(k, j), P22.root)
            rhs = pbw_mul(tp.frame.images[k], tp.frame.images[j]).scaled(scal)
            assert lhs == rhs


def test_interval_frame_window():
    fr = interval_frame(P22, 0, 1)
    assert fr.n == 4
    assert fr.images[1] == P22.gen(1)
    assert fr.images[2] == P22.gen(2)
    # window ends carry the chain primes up to the endpoints
    assert len(fr.images[3].terms) == 2
    assert fr.images[0] == P22.gen(0)


def test_window_support_vector():
    g = window_support_vector(P22, 0, 1, (0, 1, 1, 0))
    assert g == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        window_support_vector(P22, 0, 1, (1, 0, 0, 0))


def test_frame_value_on_identity_frame():
    tp = identity_frame(P22)
    seq = compute_primes(P22)
    v = frame_value(tp.frame, (1, 0, 0, 1))
    prod = seq.ybar[0] * seq.ybar[3]
    scal = Coeff.q_power(symmetrization(tp.frame.emat, (1, 0, 0, 1)), P22.root)
    assert v == prod.scaled(scal)
