"""Acceptance battery: one test per criterion, one summary line each.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion (add -s to see the printed summaries).  The quantum-minor oracle
is recomputed here from scratch, by summing over column permutations, so
criterion 1 does not lean on any package code path it is checking.
"""

import random
import time
from itertools import permutations

from qcluster.bicharacter import omega
from qcluster.cli import Session, chain_walk
from qcluster.exchangesolver import (
    btilde_for_tau,
    first_column_crosscheck,
    quantum_matrix_btilde,
)
from qcluster.mutation import (
    compatibility_check,
    exchange_identity_holds,
    mutate_emat,
    mutate_matrix,
    mutate_seed,
    mutated_variable,
    random_compatible_pair,
    seed_from_pair,
)
from qcluster.orealgebra import (
    leading_term,
    pbw_mul,
    quantum_matrix_preset,
)
from qcluster.primeseq import (
    compute_primes,
    interval_prime,
    interval_scalar_target,
    rescale_generators,
    u_element,
    window,
)
from qcluster.qtorus import check_frame_identity, frame_value, reindex_frame
from qcluster.scalarfield import Coeff
from qcluster.bicharacter import symmetrization
from qcluster.xicombinatorics import (
    frame_for_tau,
    gamma_chain,
    identity_frame,
    interval_frame,
    window_support_vector,
)
from qcluster.schubertdata import CartanData, compatibility_sweep
from factors import e_matrix, factor_mutate
from oracles import exp_mat_product, solved_gamma
from words import exchange_matrix_for_word


def inversions(sigma):
    n = len(sigma)
    return sum(1 for a in range(n) for b in range(a + 1, n) if sigma[a] > sigma[b])


def quantum_minor(pres, n_cols, rows, cols):
    """Independent oracle: sum of (-q)^inv times ordered entry products."""
    q = Coeff.q_power(1, pres.root)
    total = pres.zero()
    for sigma in permutations(range(len(cols))):
        term = pres.one()
        for a, r in enumerate(rows):
            term = pbw_mul(term, pres.gen(r * n_cols + cols[sigma[a]]))
        total = total + term.scaled((-q) ** inversions(sigma))
    return total


def test_criterion_01_primes_are_solid_quantum_minors():
    budgets = {(2, 2): 1.0, (2, 3): 30.0, (3, 3): 30.0}
    for (m, n), budget in budgets.items():
        start = time.time()
        pres = quantum_matrix_preset(m, n)
        seq = compute_primes(pres)
        ed = seq.eta_data
        assert ed.rank() == m + n - 1
        assert ed.same_partition([c - r for r in range(m) for c in range(n)])
        for k in range(pres.n):
            r, c = divmod(k, n)
            depth = ed.o_minus[k]
            assert depth == min(r, c)
            rows = list(range(r - depth, r + 1))
            cols = list(range(c - depth, c + 1))
            assert seq.y[k] == quantum_minor(pres, n, rows, cols)
            f, lead = leading_term(seq.y[k])
            assert f == ed.ebar[k]
            assert lead.is_one
        elapsed = time.time() - start
        assert elapsed < budget, f"{m}x{n} took {elapsed:.2f}s"
    print("criterion 01: PASS - primes equal solid quantum minors on all grids")


def test_criterion_02_difference_elements_are_scaled_monomials():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        pres = quantum_matrix_preset(m, n)
        seq = compute_primes(pres)
        ed = seq.eta_data
        q = Coeff.q_power(1, pres.root)
        gamma = solved_gamma(pres)
        rescaled, _ = rescale_generators(pres)
        assert all(g.is_one for g in gamma)
        assert rescaled.delta == pres.delta
        for i in range(pres.n):
            if ed.s[i] is None:
                continue
            expected = tuple(
                1 if t in (i + 1, i + n) else 0 for t in range(pres.n)
            )
            u = u_element(pres, i, 1)
            assert u.terms == {expected: q}
            pi, f = window(pres, i, 1)[2:]
            assert f == expected
            assert pi == q
            assert pi == Coeff.q_power(interval_scalar_target(pres, i, f), pres.root)
    print("criterion 02: PASS - length-one differences are q times the "
          "antidiagonal monomial, all rescalings trivial")


def test_criterion_03_solved_columns_match_closed_form():
    for m, n in ((2, 2), (2, 3), (3, 3)):
        pres = quantum_matrix_preset(m, n)
        solved = btilde_for_tau(identity_frame(pres))
        assert solved == quantum_matrix_btilde(m, n)
    assert quantum_matrix_btilde(2, 2).cols[0] == (0, -1, -1, 1)
    print("criterion 03: PASS - solver reproduces the closed-form exchange "
          "matrices, first column (0,-1,-1,1)")


def test_criterion_04_mutated_variables_stay_in_the_algebra():
    pres = quantum_matrix_preset(2, 2)
    tp = identity_frame(pres)
    bmat = btilde_for_tau(tp)
    assert mutated_variable(tp.frame, bmat.cols[0], 0) == pres.gen(3)

    pres3 = quantum_matrix_preset(3, 3)
    tp3 = identity_frame(pres3)
    b3 = btilde_for_tau(tp3)
    assert b3.ex == (0, 1, 3, 4)
    for k in b3.ex:
        img = mutated_variable(tp3.frame, b3.cols[k], k)
        assert img.terms
        assert exchange_identity_holds(tp3.frame, b3.cols[k], k, img)
    print("criterion 04: PASS - one-step mutations divide exactly inside the "
          "iterated skew polynomial ring")


def test_criterion_05_randomized_mutation_invariants():
    rng = random.Random(20260814)
    cases = 0
    while cases < 1000:
        n = rng.randint(1, 4)
        emat, bmat, _ = random_compatible_pair(rng, n)
        diag = compatibility_check(emat, bmat)
        k = rng.choice(bmat.ex)

        plus = factor_mutate(bmat, k, 1)
        assert factor_mutate(bmat, k, -1) == plus
        assert mutate_matrix(bmat, k) == plus
        assert mutate_matrix(plus, k) == bmat

        r1 = exp_mat_product(emat, e_matrix(bmat, k, 1))
        assert exp_mat_product(emat, e_matrix(bmat, k, -1)) == r1
        assert mutate_emat(emat, bmat, k) == r1
        assert mutate_emat(r1, plus, k) == emat
        assert compatibility_check(r1, plus) == diag

        seed = seed_from_pair(emat, bmat)
        s1 = mutate_seed(seed, k)
        s2 = mutate_seed(s1, k)
        assert s2.bmat == seed.bmat
        assert s2.frame.emat == seed.frame.emat
        assert all(a == b for a, b in zip(s2.frame.images, seed.frame.images))

        perm = list(range(2 * n))
        rng.shuffle(perm)
        re = reindex_frame(seed.frame, perm)
        g = tuple(rng.randint(-2, 2) for _ in range(2 * n))
        moved = tuple(g[perm[t]] for t in range(2 * n))
        assert frame_value(re, moved) == frame_value(seed.frame, g)
        cases += 1
    assert cases >= 1000
    print(f"criterion 05: PASS - {cases} randomized compatible pairs keep "
          "involution, sign independence, pairing, and relabeling invariance")


def test_criterion_06_chain_law_on_2x3():
    pres = quantum_matrix_preset(2, 3)
    assert len(gamma_chain(6)) == 16
    steps = chain_walk(Session(None, pres))
    assert len(steps) == 15
    mutated = [s["mutated_at"] for s in steps if s["mutated_at"] is not None]
    assert len(mutated) == 2
    print("criterion 06: PASS - 16-permutation chain checked, 2 genuine "
          "mutation steps")


def test_criterion_07_every_generator_appears_in_a_chain_frame():
    pres = quantum_matrix_preset(3, 3)
    remaining = set(range(pres.n))
    for tau in gamma_chain(pres.n):
        tp = frame_for_tau(pres, tau)
        for img in tp.frame.images:
            for k in list(remaining):
                if img == pres.gen(k):
                    remaining.discard(k)
        if not remaining:
            break
    assert not remaining
    print("criterion 07: PASS - all nine 3x3 generators appear as frame "
          "images along the chain")


def test_criterion_08_interval_identities_and_bracketing_scalar():
    pres = quantum_matrix_preset(3, 3)
    seq = compute_primes(pres)
    ed = seq.eta_data
    nu = pres.nu()
    checked = []
    for i in range(pres.n):
        m = 1
        while True:
            try:
                top = ed.succ_power(i, m)
            except ValueError:
                break
            fr = interval_frame(pres, i, m)
            w = top - i + 1
            u = u_element(pres, i, m)
            pi, f = window(pres, i, m)[2:]
            g = window_support_vector(pres, i, m, f)
            v1 = [0] * w
            v1[0] -= 1
            v1[-1] += 1
            if m > 1:
                v1[ed.succ_power(i, m - 1) - i] += 1
            v2 = list(g)
            v2[0] -= 1
            sub = interval_prime(pres, ed.s[i], m - 1)
            e = symmetrization(nu, ed.interval_vector(ed.s[i], top))
            target = sub.scaled(Coeff.q_power(e, pres.root))
            combos = [(0, tuple(v1)), (0, tuple(v2))]
            assert check_frame_identity(fr, target, combos), (i, m)
            dec = frame_value(fr, g).scaled(
                Coeff.q_power(-symmetrization(nu, f), pres.root)
            ).scaled(pi)
            assert u == dec, (i, m)
            checked.append((i, m))
            m += 1
    assert sorted(checked) == [(0, 1), (0, 2), (1, 1), (3, 1), (4, 1)]

    # two ways to build the depth-two difference element share their leading
    # exponent, and the coefficients differ by the inverse diagonal scalar
    assert pres.lam_star[0] == 2
    theta = Coeff.q_power(-2, pres.root)
    f_left, c_left = leading_term(u_element(pres, 0, 2))
    prod = pbw_mul(u_element(pres, 0, 1), u_element(pres, 4, 1))
    f_right, c_right = leading_term(prod)
    assert f_left == f_right
    assert c_left == c_right * theta
    print("criterion 08: PASS - 5 interval identities plus the bracketing "
          "scalar q^-2 on the long diagonal")


def test_criterion_09_first_column_crosscheck_everywhere():
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        pres = quantum_matrix_preset(m, n)
        ed = compute_primes(pres).eta_data
        starts = [i for i in range(pres.n) if ed.s[i] is not None]
        assert starts
        for i in starts:
            assert first_column_crosscheck(pres, i), (m, n, i)
    print("criterion 09: PASS - first-column crosscheck holds at every "
          "successor pair of all four grids")


def test_criterion_10_reduced_word_sweep():
    cd = CartanData("A", 2)
    bmat = exchange_matrix_for_word(cd, (1, 2, 1))
    assert bmat.cols[2] == (1, -1, 0)

    expected = {
        ("A", 1): 1, ("A", 2): 6, ("A", 3): 65, ("A", 4): 1524,
        ("B", 2): 8, ("B", 3): 166, ("C", 3): 166,
        ("D", 4): 1852, ("G", 2): 12,
    }
    start = time.time()
    for (letter, rank), count in sorted(expected.items()):
        checked, failures = compatibility_sweep(CartanData(letter, rank), 8)
        assert checked == count, (letter, rank, checked)
        assert failures == []
    elapsed = time.time() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    total = sum(expected.values())
    print(f"criterion 10: PASS - {total} reduced words across 9 types, "
          "all compatible")


def test_criterion_11_statement_substitution():
    """Structural claims that are proofs in prose enter as computable checks.

    The engine cannot certify a proof; it certifies consequences.  This map
    records which battery member carries each claim, and the assertion is
    that the map is total: every claim the engine relies on has a named,
    existing check built from oracle equalities or invariant suites.
    """
    g = globals()
    substitution = {
        "prime sequences list the solid quantum minors":
            "test_criterion_01_primes_are_solid_quantum_minors",
        "difference elements collapse to scaled monomials":
            "test_criterion_02_difference_elements_are_scaled_monomials",
        "pairing equations pin the exchange columns":
            "test_criterion_03_solved_columns_match_closed_form",
        "mutation never leaves the ambient algebra":
            "test_criterion_04_mutated_variables_stay_in_the_algebra",
        "mutation is an involution compatible with the pairing":
            "test_criterion_05_randomized_mutation_invariants",
        "adjacent frames differ by one exchange step":
            "test_criterion_06_chain_law_on_2x3",
        "chain frames reach every generator":
            "test_criterion_07_every_generator_appears_in_a_chain_frame",
        "interval primes satisfy the window identities":
            "test_criterion_08_interval_identities_and_bracketing_scalar",
        "solved columns agree with the recursive construction":
            "test_criterion_09_first_column_crosscheck_everywhere",
        "reduced words always give compatible pairs":
            "test_criterion_10_reduced_word_sweep",
    }
    for claim, name in substitution.items():
        assert callable(g.get(name)), f"no computable check for: {claim}"
    print("criterion 11: PASS - every structural claim is substituted by a "
          "computable check in this battery")
