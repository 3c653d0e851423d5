"""Exchange-matrix columns from exact linear algebra, with grid oracles."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from qcluster import cli
from qcluster.bicharacter import ExpMatrix
from qcluster.exchangesolver import (
    LinearSystem,
    _solve_btilde,
    _window,
    btilde_for_tau,
    certify_btilde,
    first_column_crosscheck,
    quantum_matrix_btilde,
)
from qcluster.mutation import ExchangeMatrix, compatibility_check, mutate_matrix
from qcluster.orealgebra import quantum_matrix_preset, weight_of
from qcluster.primeseq import compute_primes, rescale_generators
from qcluster.xicombinatorics import (
    frame_for_tau,
    gamma_chain,
    gamma_chain_swaps,
    identity_frame,
)
from restriction import embed_interval, restrict_presentation
from symmetrizers import skew_symmetrizable, symmetrizers_from_scalars


def test_linear_system():
    sys_ = LinearSystem([[1, 1], [1, -1]], [[3], [1]])
    assert sys_.solve_unique() == [[Fraction(2)], [Fraction(1)]]
    # many right-hand sides, given by rows, share one elimination
    sys_ = LinearSystem([[1, 1], [1, -1]], [[3, 1], [1, 1]])
    assert sys_.solve_unique() == [[2, 1], [1, 0]]
    with pytest.raises(ValueError, match="inconsistent"):
        LinearSystem([[1, 1], [2, 2]], [[1], [3]]).solve_unique()
    with pytest.raises(ValueError, match="not unique"):
        LinearSystem([[1, 1], [2, 2]], [[1], [2]]).solve_unique()
    with pytest.raises(ValueError):
        LinearSystem([[1, 1]], [[1], [2]])


def test_a_column_off_the_integers_is_rejected():
    """The system of a frame whose pairing gives the column -1/2 at 1:
    the unique solution exists, but is no exchange column."""
    emat = ExpMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match=r"^column at 0 is not integral: \[Fraction\(0, 1\), Fraction\(-1, 2\)\]$"):
        _solve_btilde(emat, [(0,), (0,)], (0,), [Fraction(1), None])


def test_closed_form_2x2():
    bmat = quantum_matrix_btilde(2, 2)
    assert bmat.ex == (0,)
    assert bmat.cols[0] == (0, -1, -1, 1)


def test_closed_form_2x3():
    bmat = quantum_matrix_btilde(2, 3)
    assert bmat.ex == (0, 1)
    assert bmat.cols[0] == (0, -1, 0, -1, 1, 0)
    assert bmat.cols[1] == (1, 0, -1, 0, -1, 1)


def test_closed_form_interior_column():
    bmat = quantum_matrix_btilde(3, 3)
    assert bmat.ex == (0, 1, 3, 4)
    # the (1,1) cell has all six neighbours on the grid
    col = bmat.cols[4]
    assert col[1] == 1 and col[3] == 1 and col[8] == 1
    assert col[7] == -1 and col[5] == -1 and col[0] == -1
    assert col[4] == 0 and col[2] == 0 and col[6] == 0


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
def test_solver_matches_closed_form(shape):
    m, n = shape
    pres = quantum_matrix_preset(m, n)
    solved = btilde_for_tau(identity_frame(pres))
    assert solved == quantum_matrix_btilde(m, n)


def test_solved_matrix_is_compatible():
    pres = quantum_matrix_preset(2, 3)
    tp = identity_frame(pres)
    bmat = btilde_for_tau(tp)
    diag = compatibility_check(tp.frame.emat, bmat)
    for k in bmat.ex:
        # every diagonal pairing is the single power q
        assert diag[k] == 1


def test_symmetrizers_for_quantum_matrices():
    pres = quantum_matrix_preset(2, 3)
    d = symmetrizers_from_scalars(pres.lam_star, (0, 1))
    assert d == {0: 1, 1: 1}


@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 4)], ids=["2x3", "3x3", "3x4"])
def test_solved_matrices_are_symmetrized_by_the_squared_scalars(shape):
    """The guard the solver no longer runs holds on every chain frame: the
    solved pairings are lam*_l / 2, and the squared scalars, rescaled,
    symmetrize the principal part (certify_btilde's docstring)."""
    pres = quantum_matrix_preset(*shape)
    for tau in gamma_chain(pres.n):
        tp = frame_for_tau(pres, tau)
        bmat = btilde_for_tau(tp)
        pairings = compatibility_check(tp.frame.emat, bmat)
        assert pairings == {l: pres.lam_star[l] / 2 for l in tp.ex}
        assert skew_symmetrizable(bmat, symmetrizers_from_scalars(pres.lam_star, tp.ex))


def test_first_column_crosscheck():
    for shape in ((2, 2), (2, 3), (3, 2)):
        pres = quantum_matrix_preset(*shape)
        seq = compute_primes(pres)
        for i in seq.eta_data.exchangeable():
            assert first_column_crosscheck(pres, i)


def test_windows_match_the_restricted_route():
    """Each first-column window runs inside the algebra; the oracle presents
    the window on its own and solves its identity frame.  The two agree on
    the level-set data, the frame, the image weights and the exchange
    matrix, on every window of the presets with at most 20 generators and
    of two rescaled presets."""
    shapes = [(m, n) for m in range(1, 6) for n in range(1, 6) if m * n <= 20]
    cases = [quantum_matrix_preset(m, n) for m, n in shapes]
    cases += [rescale_generators(p)[0] for p in map(quantum_matrix_preset, (2, 3), (3, 3))]
    windows = 0
    for pres in cases:
        ed = compute_primes(pres).eta_data
        for i in ed.exchangeable():
            sub = restrict_presentation(pres, i, ed.s[i])
            sub_ed = compute_primes(sub).eta_data
            tp = frame_for_tau(sub, range(sub.n))
            wed, frame, bmat = _window(pres, i)
            assert (wed.p, wed.ebar) == (sub_ed.p, sub_ed.ebar), (pres, i)
            assert wed.exchangeable() == tp.ex, (pres, i)
            assert frame.emat == tp.frame.emat, (pres, i)
            assert frame.images == [embed_interval(pres, i, y) for y in tp.frame.images]
            assert [weight_of(y) for y in frame.images] == tp.image_weights, (pres, i)
            assert bmat == btilde_for_tau(tp), (pres, i)
            assert first_column_crosscheck(pres, i), (pres, i)
            windows += 1
    # (m-1)(n-1) windows per shape, and 2 + 4 on the rescaled presets
    assert windows == sum((m - 1) * (n - 1) for m, n in shapes) + 6


def _carried(pres, monkeypatch):
    """The chain walk's frames, and the exchange matrix it holds on each:
    the identity frame's solve, then each certified mutation, kept across
    the steps that do not mutate."""
    certified = []

    def certify(tp, bmat):
        certified.append((tp, real(tp, bmat)))
        return bmat

    real = cli.certify_btilde
    monkeypatch.setattr(cli, "certify_btilde", certify)
    session = cli.Session(None, pres)
    steps = cli.chain_walk(session)
    frames = session.frames
    bt = session.identity[1]
    carried, mutations = [bt], iter(certified)
    for step in steps:
        if step["mutated_at"] is not None:
            tp, bt = next(mutations)
            assert tp is frames[step["step"] + 1]
        carried.append(bt)
    assert next(mutations, None) is None
    return frames, carried


@pytest.mark.parametrize(
    "shape",
    [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)],
)
def test_certified_chain_matches_the_solver(monkeypatch, shape):
    """On every chain frame, the matrix carried by certified mutation is the
    one btilde_for_tau solves by elimination."""
    frames, carried = _carried(quantum_matrix_preset(*shape), monkeypatch)
    assert len(carried) == len(frames) == len(gamma_chain(shape[0] * shape[1]))
    assert carried == [btilde_for_tau(tp) for tp in frames]


def test_certificate_rejects_a_changed_entry():
    """Every single-entry change of a frame's matrix fails the certificate:
    the system has full column rank, so no two solutions differ."""
    pres = quantum_matrix_preset(3, 3)
    for tau in gamma_chain(9)[:3]:
        tp = frame_for_tau(pres, tau)
        bmat = btilde_for_tau(tp)
        assert certify_btilde(tp, bmat) is bmat
        for foreign in (ExchangeMatrix(bmat.n_rows, {}), ExchangeMatrix(bmat.n_rows + 1, {})):
            with pytest.raises(ValueError, match="^matrix has other columns than the frame's"):
                certify_btilde(tp, foreign)
        # a squared scalar and its column negated still solve the system,
        # but the labels' squared scalars no longer share one sign
        l = bmat.ex[0]
        star = list(tp.pres.lam_star)
        star[l] = -star[l]
        flipped = SimpleNamespace(frame=tp.frame, ex=tp.ex, image_weights=tp.image_weights,
                                  pres=SimpleNamespace(lam_star=star))
        negated = ExchangeMatrix(bmat.n_rows, {**bmat.cols, l: [-x for x in bmat.cols[l]]})
        with pytest.raises(ValueError, match="^squared-scalar exponents of mixed sign$"):
            certify_btilde(flipped, negated)
        for l in bmat.ex:
            for i in range(bmat.n_rows):
                for delta in (-1, 1):
                    col = list(bmat.cols[l])
                    col[i] += delta
                    changed = ExchangeMatrix(bmat.n_rows, {**bmat.cols, l: col})
                    with pytest.raises(ValueError):
                        certify_btilde(tp, changed)


def test_certificate_rejects_the_wrong_direction(monkeypatch):
    """At each mutation step of the 3x3 chain, the carried matrix mutated in
    any other exchangeable direction, or not mutated, fails on the next
    frame; the walk then fails with its chain-law message."""
    pres = quantum_matrix_preset(3, 3)
    frames, carried = _carried(pres, monkeypatch)
    monkeypatch.undo()
    mutated = 0
    for t, pos in enumerate(gamma_chain_swaps(pres.n)):
        tp, tq = frames[t], frames[t + 1]
        if tp.eta_tau[pos] != tp.eta_tau[pos + 1]:
            continue
        kb = tp.sigma[pos]
        assert certify_btilde(tq, mutate_matrix(carried[t], kb))
        with pytest.raises(ValueError):
            certify_btilde(tq, carried[t])
        for k in carried[t].ex:
            if k != kb:
                with pytest.raises(ValueError):
                    certify_btilde(tq, mutate_matrix(carried[t], k))
        mutated += 1
    assert mutated == 5

    def wrong(bmat, k):
        return real(bmat, next(j for j in bmat.ex if j != k))

    real = cli.mutate_matrix
    monkeypatch.setattr(cli, "mutate_matrix", wrong)
    with pytest.raises(AssertionError, match="exchange matrix does not mutate"):
        cli.chain_walk(cli.Session(None, pres))
    # through the CLI, the failed law is the payload's error, with exit 1
    code, payload = cli.run(cli.build_parser().parse_args(["--cmd", "chain", "--m", "3", "--n", "3"]))
    assert code == 1 and "exchange matrix does not mutate" in payload["error"]


def test_walk_checks_the_mutated_weight():
    """The uniqueness argument needs W_{t+1} = W_t E: a next frame whose new
    image has another weight stops the walk before the certificate."""
    session = cli.Session(None, quantum_matrix_preset(3, 3))
    # the 3x3 chain first mutates at step 3, in direction 0
    tq = session.frames[4]
    tq.image_weights[0] = tuple(x + 1 for x in tq.image_weights[0])
    with pytest.raises(AssertionError, match="step 3: weight of image 0 does not mutate"):
        cli.chain_walk(session)
