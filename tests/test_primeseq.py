"""Normal prime sequences and interval data for quantum matrices.

The independent oracle is the quantum minor written as a permutation sum
with (-q)^(inversions) coefficients; the recursion in compute_primes
never sees that formula.  The recursion, which trusts the Goodearl-Yakimov
theorem on a certified presentation, is checked against the scan of every
trailing prime (tests/scan.py), and the scan's normality certificate
against is_normal_in_stage, which forms every product y x_i and x_i y.
"""

import gc
import random
import weakref
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.bicharacter import ExpMatrix, omega, symmetrization
from qcluster import primeseq
from qcluster.orealgebra import (
    _CERTIFIED,
    Presentation,
    apply_sigma_delta,
    leading_term,
    pbw_mul,
    quantum_matrix_preset,
)
from qcluster.primeseq import (
    EtaData,
    PrimeSequence,
    _primes,
    compute_primes,
    generator_scalars,
    interval_prime,
    interval_scalar_target,
    rescale_generators,
    u_element,
    window,
)
from qcluster.scalarfield import Coeff
from qcluster.xicombinatorics import frame_for_tau, gamma_chain, identity_frame
from oracles import (
    check_rescaled_windows,
    normality_scalar,
    proportionality_scalar,
    quotient_by_inverse,
    solved_gamma,
)
from restriction import embed_interval, restrict_presentation
from scan import certify_prime, scan_primes
from twists import random_twist

P22 = quantum_matrix_preset(2, 2)
P23 = quantum_matrix_preset(2, 3)


def inversions(sigma):
    return sum(
        1
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
        if sigma[a] > sigma[b]
    )


def quantum_minor(pres, n_cols, rows, cols):
    """Sum over column permutations of (-q)^inv times the ordered product."""
    q = Coeff.q_power(1, pres.root)
    total = pres.zero()
    for sigma in permutations(range(len(cols))):
        term = pres.one()
        for a, r in enumerate(rows):
            term = pbw_mul(term, pres.gen(r * n_cols + cols[sigma[a]]))
        total = total + term.scaled((-q) ** inversions(sigma))
    return total


def solid_minor_for(pres, n_cols, k, depth):
    r, c = divmod(k, n_cols)
    rows = list(range(r - depth, r + 1))
    cols = list(range(c - depth, c + 1))
    return quantum_minor(pres, n_cols, rows, cols)


def test_eta_data_maps():
    ed = EtaData((0, 1, -1, 0))
    assert ed.p == (None, None, None, 0)
    assert ed.s == (3, None, None, None)
    assert ed.ebar[3] == (1, 0, 0, 1)
    assert ed.rank() == 3
    assert ed.exchangeable() == (0,)
    assert ed.o_minus == (0, 0, 0, 1)
    assert ed.succ_power(0, 1) == 3
    with pytest.raises(ValueError):
        ed.succ_power(1, 1)
    assert ed.interval_vector(0, 3) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        ed.interval_vector(1, 3)
    assert ed.same_partition((7, 3, 5, 7))
    assert not ed.same_partition((0, 0, 1, 0))
    assert EtaData.from_predecessors((None, None, None, 0)).same_partition(ed.eta)
    with pytest.raises(ValueError):
        # two indices claiming the same nearest predecessor
        EtaData.from_predecessors((None, 0, 0))


def _blocks(labels):
    """The partition of the indices by label, as a set of frozensets."""
    groups = {}
    for k, v in enumerate(labels):
        groups.setdefault(v, set()).add(k)
    return {frozenset(g) for g in groups.values()}


@settings(max_examples=200)
@given(
    st.lists(st.integers(-2, 2), min_size=1, max_size=7),
    st.lists(st.integers(0, 3), min_size=0, max_size=8),
)
def test_same_partition_matches_block_sets(eta, other):
    """same_partition agrees with comparing the sets of level-set blocks,
    also for a relabeling and for a labeling of another length."""
    ed = EtaData(eta)
    relabel = [10 * v + 7 for v in eta]
    assert ed.same_partition(relabel)
    want = len(other) == len(eta) and _blocks(other) == _blocks(eta)
    assert ed.same_partition(other) == want


def test_trailing_sets():
    ed = EtaData((0, 1, -1, 0))
    assert ed.trailing(2) == (0, 1, 2)
    assert ed.trailing(3) == (1, 2, 3)


def test_primes_2x2_are_solid_minors():
    seq = compute_primes(P22)
    assert seq.eta_data.same_partition(P22.eta)
    for k in range(4):
        depth = seq.eta_data.o_minus[k]
        assert seq.y[k] == solid_minor_for(P22, 2, k, depth)


def test_primes_2x3_are_solid_minors():
    seq = compute_primes(P23)
    assert seq.eta_data.same_partition(P23.eta)
    assert seq.eta_data.rank() == 4
    for k in range(6):
        depth = seq.eta_data.o_minus[k]
        assert seq.y[k] == solid_minor_for(P23, 3, k, depth)


def test_leading_terms_are_chain_monomials():
    seq = compute_primes(P23)
    for k in range(6):
        f, c = leading_term(seq.y[k])
        assert f == seq.eta_data.ebar[k]
        assert c.is_one


def test_normalized_primes():
    seq = compute_primes(P22)
    nu = P22.nu()
    for k in range(4):
        scal = Coeff.q_power(symmetrization(nu, seq.eta_data.ebar[k]), P22.root)
        assert seq.ybar[k] == seq.y[k].scaled(scal)


def test_recursion_coefficient_2x2():
    seq = compute_primes(P22)
    q = Coeff.q_power(1, P22.root)
    want = pbw_mul(P22.gen(1), P22.gen(2)).scaled(q)
    assert seq.c[3] == want
    assert seq.y[3] == pbw_mul(seq.y[0], P22.gen(3)) - want


def test_normality():
    seq = compute_primes(P22)
    for k in range(4):
        for i in range(k + 1):
            e = normality_scalar(P22, k, i)
            assert e == omega(P22.lam, seq.eta_data.ebar[k], _unit(4, i))
            lhs = pbw_mul(seq.y[k], P22.gen(i))
            rhs = pbw_mul(P22.gen(i), seq.y[k]).scaled(Coeff.q_power(e, P22.root))
            assert lhs == rhs


def _unit(n, k):
    return tuple(1 if t == k else 0 for t in range(n))


def test_restriction_embeds_products():
    sub = restrict_presentation(P23, 1, 4)
    assert sub.n == 4
    a = sub.monomial((1, 0, 1, 0))
    b = sub.monomial((0, 2, 1, 1))
    lhs = embed_interval(P23, 1, pbw_mul(a, b))
    rhs = pbw_mul(embed_interval(P23, 1, a), embed_interval(P23, 1, b))
    assert lhs.terms == rhs.terms


def test_interval_prime_is_window_minor():
    # chain 0 -> 4 in the 2x3 ring gives the top-left 2x2 minor
    prime = interval_prime(P23, 0, 1)
    assert prime == quantum_minor(P23, 3, [0, 1], [0, 1])


def test_u_elements():
    q = Coeff.q_power(1, P23.root)
    assert u_element(P23, 0, 0) == P23.one()
    seq = compute_primes(P23)
    for i in seq.eta_data.exchangeable():
        u = u_element(P23, i, 1)
        assert u == pbw_mul(P23.gen(i + 1), P23.gen(i + 3)).scaled(q)
        pi, f = window(P23, i, 1)[2:]
        assert pi == q
        assert f == tuple(
            1 if t in (i + 1, i + 3) else 0 for t in range(6)
        )
        assert pi == Coeff.q_power(interval_scalar_target(P23, i, f), P23.root)


def test_the_long_windows_of_a_twist_stay_inside():
    """u(i, m) for m >= 2 is y_[i..s^(m-1)] y_[s..s^m] minus q**scal
    y_[s..s^(m-2)] y_[i..s^m]; scal is 0 on the presets, so only a twist
    shows its sign: with the other sign the two products' top terms do not
    cancel and u_element raises that u leaks out of its window."""
    rng = random.Random(7)
    twisted = [random_twist(quantum_matrix_preset(m, n), rng) for m, n in ((2, 3), (2, 3), (3, 3))]
    long = 0
    for pres in twisted:
        ed = compute_primes(pres).eta_data
        for i in range(pres.n):
            for m in range(2, ed.o_plus[i] + 1):
                assert not u_element(pres, i, m).is_zero
                long += 1
    assert long == 1  # u(0, 2) of the 3x3 twist, where scal = -1


def test_rescaling_is_trivial_for_quantum_matrices():
    gamma = solved_gamma(P23)
    rescaled, seq2 = rescale_generators(P23)
    assert all(g.is_one for g in gamma)
    assert rescaled.delta == P23.delta
    seq = compute_primes(P23)
    assert [e.terms for e in seq2.y] == [e.terms for e in seq.y]


def test_a_failing_window_fails_alike_each_time():
    """window keeps no raised exception."""
    pres = quantum_matrix_preset(2, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="^index 0 has no 2-th successor$"):
            window(pres, 0, 2)
    assert window(pres, 0, 1)[0] == 3
    assert list(primeseq._memo(pres).windows) == [(0, 1)]


def _scaled_delta(pres, c):
    """pres with every delta coefficient times c; for the 2x2 preset, the
    same algebra with x_3 sent to c x_3."""
    delta = {key: tuple((f, x * c) for f, x in terms) for key, terms in pres.delta.items()}
    return Presentation(
        pres.lam, delta, pres.weights, pres.lam_diag,
        lam_star=pres.lam_star, eta=pres.eta, names=pres.names, root=pres.root,
    )


def _nontrivial_rescalings():
    rng = random.Random(7)
    twisted = [random_twist(quantum_matrix_preset(m, n), rng) for m, n in ((2, 3), (2, 3), (3, 3))]
    scalars = [{0: 2}, {0: Fraction(1, 2)}, {0: 1, 2: 1}]  # 2, 1/2 and 1 + q at root 2
    return twisted + [_scaled_delta(P22, Coeff(P22.root, c)) for c in scalars]


@pytest.mark.parametrize(
    "pres", _nontrivial_rescalings(),
    ids=["twist-2x3", "twist-2x3-b", "twist-3x3", "delta-x2", "delta-half", "delta-1+q"],
)
def test_the_rescaled_windows_meet_their_targets(pres):
    """rescale_generators no longer forms the rescaled algebra's windows: its
    docstring proves each pi' = gamma_i gamma_s(i) gamma**-f pi with the same
    f, which is the target q**S(i, f).  The oracle forms them again on the
    seeded twists and on the 2x2 preset with its delta coefficient scaled,
    each with a nontrivial gamma, and compares."""
    gamma = generator_scalars(pres)
    assert gamma == solved_gamma(pres) and not all(g.is_one for g in gamma)
    rescaled, seq = check_rescaled_windows(pres)
    for i in seq.eta_data.exchangeable():
        _, _, pi, f = window(pres, i, 1)
        _, _, pi2, f2 = window(rescaled, i, 1)
        scale = gamma[i] * gamma[seq.eta_data.s[i]]
        for t, x in enumerate(f):
            scale = scale * gamma[t].inv() ** x
        assert f2 == f and pi2 == scale * pi, i


def is_normal_in_stage(pres, a, k):
    """Whether a quasi-commutes with every generator x_0..x_k: 2(k+1) full
    products, the oracle for certify_prime."""
    for i in range(k + 1):
        xi = pres.gen(i)
        try:
            proportionality_scalar(pbw_mul(a, xi), pbw_mul(xi, a))
        except ValueError:
            return False
    return True


def moved_candidates(pres):
    """(k, j, c, d) for every derivation stage k and every trailing prime y_j
    of stage k-1 that delta_k moves: d = delta_k(y_j) and c the recursion's
    d / (alpha (lambda_k - 1))."""
    seq = compute_primes(pres)
    ed = seq.eta_data
    one = Coeff.one(pres.root)
    out = []
    for k in range(pres.n):
        if ed.p[k] is None:
            continue
        for j in ed.trailing(k - 1):
            d = apply_sigma_delta(pres, k, seq.y[j])[1]
            if d.is_zero:
                continue
            alpha = Coeff.q_power(omega(pres.lam, _unit(pres.n, k), ed.ebar[j]), pres.root)
            s = alpha * (Coeff.q_power(pres.lam_diag[k], pres.root) - one)
            out.append((k, j, d.scaled(s.inv()), d))
    return out


def _oracle_cases():
    shapes = [(m, n) for m in range(2, 6) for n in range(2, 6)]
    cases = [(f"{m}x{n}", quantum_matrix_preset(m, n)) for m, n in shapes]
    for m, n in ((2, 3), (3, 3)):
        pres = quantum_matrix_preset(m, n)
        rescaled = rescale_generators(pres)[0]
        cases.append((f"rescaled-{m}x{n}", rescaled))
    p45 = quantum_matrix_preset(4, 5)
    ed = compute_primes(p45).eta_data
    for i in range(p45.n):
        for m in range(1, ed.o_plus[i] + 1):
            top = ed.succ_power(i, m)
            cases.append((f"4x5[{i}..{top}]", restrict_presentation(p45, i, top)))
    return cases


def test_certificate_matches_the_product_oracle():
    """At every derivation stage, for every moved trailing prime, the
    certificate agrees with the full normality check on c as the recursion
    computes it (normal) and on c scaled by 2 and by q^(1/2) (not normal)."""
    for name, pres in _oracle_cases():
        seq = compute_primes(pres)
        half = Coeff.q_power(Fraction(1, 2), pres.root)
        moved = moved_candidates(pres)
        # a CGL extension moves exactly one trailing prime per derivation stage
        assert [k for k, *_ in moved] == [
            k for k in range(pres.n) if seq.eta_data.p[k] is not None
        ], name
        for k, j, c, d in moved:
            assert seq.c[k] == c, (name, k)
            for scale in (1, 2, half):
                c2 = c.scaled(scale)
                y = pbw_mul(seq.y[j], pres.gen(k)) - c2
                want = scale == 1
                assert is_normal_in_stage(pres, y, k) is want, (name, k, j, scale)
                assert certify_prime(pres, k, seq.eta_data.ebar[j], c2, d) is want, (
                    name, k, j, scale,
                )


def test_recursion_matches_the_scan_on_every_range(monkeypatch):
    """On the presets 2x2-5x5 and the rescaled 2x3 and 3x3, certified by
    construction, and on seeded cocycle twists of 2x3 and 3x3 (tests/twists.py),
    certified at first use, compute_primes and _primes on every range agree
    with the scan of every trailing prime at every stage, and the recursion
    forms one delta_k product per derivation stage of each start.  _primes
    keeps no normalized primes; each range's are formed on demand
    (_normalized) and compared with the scan's.  On the presets every chain
    has symmetrization 0, so ybar = y there; the twists have chains with a
    nonzero one, so only they tell a wrong normalization exponent, such as
    one that drops _normalized's padding by lo, from zero."""
    calls = []
    real = primeseq.apply_sigma_delta
    monkeypatch.setattr(
        primeseq, "apply_sigma_delta", lambda pres, *a: calls.append(pres) or real(pres, *a)
    )
    cases = [quantum_matrix_preset(m, n) for m in range(2, 6) for n in range(2, 6)]
    cases += [rescale_generators(p)[0] for p in map(quantum_matrix_preset, (2, 3), (3, 3))]
    rng = random.Random(7)
    twisted = [random_twist(quantum_matrix_preset(m, n), rng) for m, n in ((2, 3), (2, 3), (3, 3))]
    for pres in twisted:
        nu, ebar = pres.nu(), compute_primes(pres).eta_data.ebar
        assert any(symmetrization(nu, e) for e in ebar), pres
    for pres in cases + twisted:
        n = pres.n
        scanned = PrimeSequence(pres, *scan_primes(pres, 0, n - 1))
        assert compute_primes(pres).y == scanned.y and compute_primes(pres).c == scanned.c
        for lo in range(n):
            for top in reversed(range(lo, n)):
                got, want = _primes(pres, lo, top), scan_primes(pres, lo, top)
                ybar = primeseq._normalized(pres, got, lo)
                assert (got.y, ybar, got.c) == want[:3], (pres, lo, top)
                assert got.eta_data.p == want.eta_data.p, (pres, lo, top)
        stages = [k for lo in range(n) for k in range(lo, n)
                  if any((k, i) in pres.delta for i in range(lo, k))]
        assert sum(p is pres for p in calls) == len(stages), pres


def test_centering_quotients_match_the_inverse_route(monkeypatch):
    """Each coefficient of a centering coefficient c_k is one exact
    quotient d / s (_div_laurent).  On every derivation stage of every
    start of the presets 2x2-4x4 and the rescaled 2x3 and 3x3 it is the
    oracle's d * s^-1, reduced through a gcd."""
    seen = []
    real = primeseq._div_laurent

    def recorded(c, s):
        seen.append((c, s, real(c, s)))
        return seen[-1][2]

    monkeypatch.setattr(primeseq, "_div_laurent", recorded)
    cases = [quantum_matrix_preset(m, n) for m in range(2, 5) for n in range(2, 5)]
    cases += [rescale_generators(p)[0] for p in map(quantum_matrix_preset, (2, 3), (3, 3))]
    stages = 0
    for pres in cases:
        for lo in range(pres.n):
            _primes(pres, lo, pres.n - 1)
            stages += len(_primes(pres, lo, pres.n - 1).c)
    assert len(seen) >= stages > 0
    for c, s, got in seen:
        assert got is not None and got == quotient_by_inverse(c, s), (c, s)


def test_leading_terms_are_checked_once_per_stage_of_each_start(monkeypatch):
    """_primes checks each stage's leading term once per start, whichever
    ranges ask, and in either order; a failing stage is not passed, so every
    range that holds it fails, each time it is asked.  No certified input
    fails the check, so the failure is simulated at stage 4 from 0 of 3x3
    (chain monomial x0 x4; the same generator has x4 alone from start 1)."""
    real = primeseq.leading_term
    calls = []
    monkeypatch.setattr(primeseq, "leading_term", lambda y: calls.append(y) or real(y))
    for order in (1, -1):
        pres = quantum_matrix_preset(3, 3)
        for lo in range(pres.n):
            for top in range(lo, pres.n)[::order]:
                _primes(pres, lo, top)
                _primes(pres, lo, top)
        assert len(calls) == pres.n * (pres.n + 1) // 2
        calls.clear()
    bad = (1, 0, 0, 0, 1, 0, 0, 0, 0)

    def lead(y):
        f, c = real(y)
        return (f, -c) if f == bad else (f, c)

    monkeypatch.setattr(primeseq, "leading_term", lead)
    pres = quantum_matrix_preset(3, 3)
    for lo, top in ((0, 3), (0, 8), (1, 8), (0, 4), (0, 8), (0, 5)):
        if lo or top < 4:
            _primes(pres, lo, top)
            continue
        with pytest.raises(ValueError, match="^stage 4: leading term is not the chain monomial"):
            _primes(pres, lo, top)


def _two_moved_primes():
    """x2 x0 = q x0 x2 + 1 and x2 x1 = x1 x2 + x1 over commuting x0, x1,
    with lambda_2 = q^-1.  The candidate x0 x2 - 1/(1 - q) passes the
    certificate; delta_2 also moves the trailing prime x1, so x1 would not
    stay normal.  No overlap-certified presentation with two moved trailing
    primes and one certified candidate was found, so this one is built
    directly; it fails the overlap certificate at (2,1,0), so the recursion
    rejects it before any stage and only the scan reaches the stage."""
    lam = ExpMatrix.from_upper(3, {(0, 2): -1})
    delta = {(2, 0): (((0, 0, 0), 1),), (2, 1): (((0, 1, 0), 1),)}
    lam_diag = [None, None, -1]
    return Presentation(lam, delta, [[0]] * 3, lam_diag, root=2)


def test_stage_rejects_an_unchosen_moved_prime():
    pres = _two_moved_primes()
    one = Coeff.one(pres.root)
    q = Coeff.q_power(1, pres.root)
    c = pres.one().scaled((one - q).inv())
    assert certify_prime(pres, 2, (1, 0, 0), c, pres.one())
    with pytest.raises(ValueError, match="stage 2: delta_2 moves trailing prime 1,"):
        scan_primes(pres, 0, 2)
    with pytest.raises(ValueError, match=r"^overlap \(2,1,0\)"):
        compute_primes(pres)


def test_stage_rejects_an_inhomogeneous_trailing_prime():
    # the 2x2 preset and a fifth generator with sigma_4(t11) = q t11 that
    # fixes the rest: sigma_4 does not respect the relation between t22
    # and t11 (the presentation fails the overlap certificate), and it
    # scales the two terms of the quantum determinant y_3 differently
    upper = {(j, k): P22.lam.rows[j][k] for k in range(4) for j in range(k)}
    upper[(0, 4)] = -1
    delta = {(3, 0): (((0, 1, 1, 0, 0), P22.delta[(3, 0)][0][1]),)}
    pres = Presentation(
        ExpMatrix.from_upper(5, upper), delta, [[0]] * 5, list(P22.lam_diag) + [None],
        root=P22.root,
    )
    with pytest.raises(ValueError, match="stage 4: trailing prime 3 is not sigma_4-homog"):
        scan_primes(pres, 0, 4)
    with pytest.raises(ValueError, match=r"^overlap \(4,3,0\)"):
        compute_primes(pres)


def test_restriction_rejects_a_derivation_leaving_the_range():
    # delta_2(x1) = x0 does not live on the generators x1, x2
    pres = Presentation(
        ExpMatrix.zero(3), {(2, 1): (((1, 0, 0), 1),)}, [[0]] * 3, [None] * 3, root=2
    )
    with pytest.raises(ValueError, match=r"delta\[2,1\] leaves the generators 1..2"):
        restrict_presentation(pres, 1, 2)
    assert restrict_presentation(pres, 0, 2).delta == pres.delta


def test_interval_primes_match_the_restricted_route():
    """interval_prime runs the recursion inside the algebra; the reference
    restricts the algebra to the interval's generators and runs it there."""
    cases = [quantum_matrix_preset(m, n) for m in range(2, 5) for n in range(2, 6)]
    cases += [rescale_generators(p)[0] for p in map(quantum_matrix_preset, (2, 3), (3, 3))]
    for pres in cases:
        ed = compute_primes(pres).eta_data
        for i in range(pres.n):
            for m in range(ed.o_plus[i] + 1):
                top = ed.succ_power(i, m)
                sub = compute_primes(restrict_presentation(pres, i, top))
                want = embed_interval(pres, i, sub.y[-1])
                assert interval_prime(pres, i, m) == want, (pres, i, m)


def _edited(m, n, key, factor=None):
    """The m x n preset with delta[key] scaled by factor, or dropped; built
    directly, so only the recursion's certificate rejects it, at the overlap
    (key, 0)."""
    p = quantum_matrix_preset(m, n)
    delta = dict(p.delta)
    if factor is None:
        del delta[key]
    else:
        delta[key] = tuple((f, c * factor) for f, c in delta[key])
    return Presentation(
        p.lam, delta, p.weights, p.lam_diag, p.lam_star, eta=p.eta, root=p.root
    )


def _outcome(run, terms=lambda y: y):
    """The error message of run(), or the terms of its primes in the whole
    algebra and its level-set data."""
    try:
        seq = run()
    except ValueError as e:
        return str(e)
    return [terms(y) for y in seq.y], seq.eta_data.p, sorted(seq.c)


@pytest.mark.parametrize(
    "m, n, key, factor",
    [(2, 3, (5, 1), None), (3, 3, (5, 1), None), (3, 3, (8, 4), None), (3, 3, (7, 3), 2)],
)
def test_ranged_recursion_matches_the_restricted_route(m, n, key, factor):
    """On every range of a presentation the scan fails inside, it gives the
    restricted presentation's primes or its error message, with stages
    counted from the range's start; longer ranges run first on one copy and
    last on another, so resuming and prefix checks are both met.  The
    recursion rejects every range at the overlap the table breaks."""
    for order in (1, -1):
        pres = _edited(m, n, key, factor)
        ranges = [(lo, top) for lo in range(pres.n) for top in range(lo, pres.n)]
        for lo, top in ranges[::order]:
            sub = restrict_presentation(pres, lo, top)
            want = _outcome(
                lambda: PrimeSequence(sub, *scan_primes(sub, 0, sub.n - 1)),
                lambda y: embed_interval(pres, lo, y).terms,
            )
            assert _outcome(lambda: scan_primes(pres, lo, top)) == want, (lo, top)
            with pytest.raises(ValueError, match=rf"^overlap \({key[0]},{key[1]},0\)"):
                _primes(pres, lo, top)


def test_ranged_recursion_counts_stages_from_its_start():
    pres = _edited(3, 3, (8, 4))
    for lo, stage in ((0, 8), (3, 5)):
        with pytest.raises(ValueError, match=f"^stage {stage}: 0 normal candidates"):
            scan_primes(pres, lo, 8)
    with pytest.raises(ValueError, match="^declared level sets disagree"):
        scan_primes(pres, 4, 8)
    assert scan_primes(pres, 5, 8).y[-1] == pres.gen(8).terms
    with pytest.raises(ValueError, match=r"^overlap \(8,4,0\)"):
        _primes(pres, 5, 8)


def test_interval_prime_rejects_a_derivation_leaving_the_interval():
    """U_q(n+) of sl3 on E12, E1, E2, a CGL extension, certified on first use:
    delta_2(x1) = (q^-1 - q) x0, so the chain 1 -> 2 spans a range that does
    not present a subalgebra, and interval_prime says so as the restriction
    does."""
    qdiff = Coeff(2, {-2: 1, 2: -1})
    pres = Presentation(
        ExpMatrix.from_upper(3, {(0, 1): -1, (0, 2): 1, (1, 2): -1}),
        {(2, 1): (((1, 0, 0), qdiff),)},
        [[1, 1], [1, 0], [0, 1]],
        [None, None, -2],
        eta=[0, 1, 1],
        root=2,
    )
    assert pres not in _CERTIFIED
    assert compute_primes(pres).eta_data.s[1] == 2
    assert pres in _CERTIFIED  # certified on first use
    msg = r"^delta\[2,1\] leaves the generators 1..2$"
    with pytest.raises(ValueError, match=msg):
        restrict_presentation(pres, 1, 2)
    # a failing span is not kept: it fails alike on every use, in a frame too
    for _ in range(2):
        with pytest.raises(ValueError, match=msg):
            interval_prime(pres, 1, 1)
    with pytest.raises(ValueError, match=msg):
        identity_frame(pres)


def test_prime_memo_dies_with_its_presentation():
    """The memo holds term dicts and tuples, never an element that refers
    back to its presentation, so it keeps none alive."""
    pres = quantum_matrix_preset(2, 3)
    interval_prime(pres, 0, 1)
    for tau in gamma_chain(pres.n):
        frame_for_tau(pres, tau)
    ref = weakref.ref(pres)
    del pres
    gc.collect()
    assert ref() is None
