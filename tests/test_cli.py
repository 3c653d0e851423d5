"""End to end checks for the command line driver.

Everything runs in process through main(argv); stdout is captured with
capsys so the byte-stability assertions really compare emitted text.
"""

import json

import pytest

from qcluster import cli
from qcluster.cli import main
from qcluster.orealgebra import quantum_matrix_preset
from qcluster.xicombinatorics import gamma_chain

BAD_CUSTOM = {
    "lambda": [["0", "0"], ["0", "0"]],
    "weights": [[1, 0], [0, 1]],
    "lambda_diag": ["-2", "-2"],
    "lambda_star": ["2", "2"],
    "delta": {},
    "eta": [0, 0],
    "names": ["x1", "x2"],
    "root": 2,
}


def serialize(pres):
    return {
        "lambda": [[str(x) for x in row] for row in pres.lam.rows],
        "weights": [list(w) for w in pres.weights],
        "lambda_diag": [None if e is None else str(e.e) for e in pres.lam_diag],
        "lambda_star": [None if e is None else str(e.e) for e in pres.lam_star],
        "delta": {
            f"{k},{j}": [
                [list(mono), {str(e): str(v) for e, v in c.num.items()}]
                for mono, c in terms
            ]
            for (k, j), terms in pres.delta.items()
        },
        "eta": list(pres.eta),
        "names": list(pres.names),
        "root": pres.root,
    }


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_primes_payload(capsys):
    rc, out, err = run_cli(capsys, "--cmd", "primes", "--m", "2", "--n", "2")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["rank"] == 3
    # levels are reported with fresh labels; the partition is what matters
    assert payload["eta"] == [0, 1, 2, 0]
    assert len(payload["primes"]) == 4
    # the last prime is the 2x2 quantum determinant
    assert payload["primes"][-1]["terms"] == [
        [[0, 1, 1, 0], "-q"],
        [[1, 0, 0, 1], "1"],
    ]


def test_bmatrix_example(capsys):
    rc, out, _ = run_cli(capsys, "--cmd", "bmatrix", "--m", "2", "--n", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["bmatrix"]["columns"] == {"0": [0, -1, -1, 1]}
    assert payload["crosscheck"] is True


def test_mutate_trace(capsys):
    rc, out, _ = run_cli(
        capsys, "--cmd", "mutate", "--m", "2", "--n", "2", "--mutations", "0"
    )
    assert rc == 0
    payload = json.loads(out)
    step = payload["trace"][0]
    assert step["direction"] == 0
    assert step["variable"] == [[[0, 0, 0, 1], "1"]]
    assert step["bmatrix"]["columns"] == {"0": [0, 1, 1, -1]}


def test_mutate_bad_direction(capsys):
    rc, out, err = run_cli(
        capsys, "--cmd", "mutate", "--m", "2", "--n", "2", "--mutations", "1"
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("qcluster:")


def test_schubert_payload(capsys):
    rc, out, _ = run_cli(
        capsys,
        "--cmd", "schubert", "--preset", "schubert",
        "--type", "A", "--rank", "2", "--word", "1", "2", "1",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["roots"] == [[1, 0], [1, 1], [0, 1]]
    assert payload["bmatrix"]["columns"] == {"2": [1, -1, 0]}
    assert payload["report"]["ok"] is True


def test_schubert_rejects_non_reduced(capsys):
    rc, out, err = run_cli(
        capsys,
        "--cmd", "schubert", "--preset", "schubert",
        "--type", "A", "--rank", "2", "--word", "1", "1",
    )
    assert rc == 2
    assert "reduced" in err


def test_schubert_requires_word(capsys):
    rc, _, err = run_cli(
        capsys, "--cmd", "schubert", "--preset", "schubert", "--type", "A",
        "--rank", "2",
    )
    assert rc == 2 and err.startswith("qcluster:")


def test_custom_requires_file(capsys):
    rc, _, err = run_cli(capsys, "--cmd", "primes", "--preset", "custom")
    assert rc == 2 and err.startswith("qcluster:")


def test_missing_file(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "--cmd", "primes", "--preset", "custom",
        "--file", str(tmp_path / "nope.json"),
    )
    assert rc == 2 and err.startswith("qcluster:")


def test_verify_trivial_shape(capsys):
    rc, out, _ = run_cli(capsys, "--cmd", "verify", "--m", "1", "--n", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["checks"].values()) == {"pass"}


def test_byte_stability(capsys):
    _, first, _ = run_cli(capsys, "--cmd", "primes", "--m", "2", "--n", "3")
    _, second, _ = run_cli(capsys, "--cmd", "primes", "--m", "2", "--n", "3")
    assert first == second
    assert first.endswith("\n")


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "payload.json"
    rc, out, _ = run_cli(
        capsys, "--cmd", "bmatrix", "--m", "2", "--n", "3", "--out", str(target)
    )
    assert rc == 0 and out == ""
    _, direct, _ = run_cli(capsys, "--cmd", "bmatrix", "--m", "2", "--n", "3")
    assert target.read_text() == direct


def test_custom_preset_round_trip(capsys, tmp_path):
    source = tmp_path / "grid22.json"
    source.write_text(json.dumps(serialize(quantum_matrix_preset(2, 2))))
    rc, out, _ = run_cli(
        capsys, "--cmd", "primes", "--preset", "custom", "--file", str(source)
    )
    assert rc == 0
    custom = json.loads(out)
    _, direct, _ = run_cli(capsys, "--cmd", "primes", "--m", "2", "--n", "2")
    built_in = json.loads(direct)
    assert custom["primes"] == built_in["primes"]
    assert custom["eta"] == built_in["eta"]


def test_custom_bad_eta_exits_one(capsys, tmp_path):
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(BAD_CUSTOM))
    rc, out, _ = run_cli(
        capsys, "--cmd", "primes", "--preset", "custom", "--file", str(source)
    )
    assert rc == 1
    payload = json.loads(out)
    assert "level sets" in payload["error"]


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cmd", "nope"])
    assert exc.value.code == 2


GRID22 = serialize(quantum_matrix_preset(2, 2))
ZERO_EXPONENT = [list(row) for row in GRID22["lambda"]]
ZERO_EXPONENT[0][1] = "1/0"
SHORT_DIAG = {**GRID22, "lambda_diag": GRID22["lambda_diag"][:2]}
FRACTIONAL_WEIGHT = [list(w) for w in GRID22["weights"]]
FRACTIONAL_WEIGHT[0][0] = 1.9
INFINITE_WEIGHT = [list(w) for w in GRID22["weights"]]
INFINITE_WEIGHT[0][0] = float("inf")
SCHUBERT_A2 = ("--preset", "schubert", "--type", "A", "--rank", "2", "--word")


@pytest.mark.parametrize(
    "data, argv",
    [
        (SHORT_DIAG, ("--cmd", "bmatrix")),
        (SHORT_DIAG, ("--cmd", "verify")),
        ({**GRID22, "eta": GRID22["eta"][:3]}, ("--cmd", "primes")),
        ({"lambda": [], "weights": []}, ("--cmd", "bmatrix")),
        ({"lambda": [], "weights": []}, ("--cmd", "verify")),
        ({**GRID22, "lambda": ZERO_EXPONENT}, ("--cmd", "primes")),
        (None, ("--cmd", "bmatrix") + SCHUBERT_A2 + ("1", "1")),
        (None, ("--cmd", "verify") + SCHUBERT_A2 + ("1", "1")),
        (None, ("--cmd", "bmatrix") + SCHUBERT_A2 + ("1", "5")),
        (None, ("--cmd", "verify") + SCHUBERT_A2 + ("1", "5")),
        (None, ("--cmd", "verify", "--m", "0", "--n", "2")),
        ({**GRID22, "weights": FRACTIONAL_WEIGHT}, ("--cmd", "primes")),
        ({**GRID22, "eta": [0.5, 1.7, -1, 0]}, ("--cmd", "primes")),
        ({**GRID22, "weights": INFINITE_WEIGHT}, ("--cmd", "primes")),
        ({**GRID22, "root": 2.5}, ("--cmd", "bmatrix")),
    ],
    ids=[
        "short-lambda-diag-bmatrix",
        "short-lambda-diag-verify",
        "short-eta",
        "empty-bmatrix",
        "empty-verify",
        "zero-denominator",
        "non-reduced-bmatrix",
        "non-reduced-verify",
        "letter-out-of-range-bmatrix",
        "letter-out-of-range-verify",
        "verify-zero-rows",
        "fractional-weight",
        "fractional-eta",
        "infinite-weight",
        "fractional-root",
    ],
)
def test_unusable_input_is_a_config_error(capsys, tmp_path, data, argv):
    if data is not None:
        source = tmp_path / "custom.json"
        source.write_text(json.dumps(data))
        argv += ("--preset", "custom", "--file", str(source))
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("qcluster:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_builds_once(capsys, monkeypatch):
    built, solved = [], []

    def preset(m, n):
        built.append((m, n))
        return quantum_matrix_preset(m, n)

    def btilde(tp):
        solved.append(tuple(tp.tau))
        return real_btilde(tp)

    real_btilde = cli.btilde_for_tau
    monkeypatch.setattr(cli, "quantum_matrix_preset", preset)
    monkeypatch.setattr(cli, "btilde_for_tau", btilde)
    rc, out, _ = run_cli(capsys, "--cmd", "verify", "--m", "2", "--n", "3")
    assert rc == 0 and json.loads(out)["ok"] is True
    assert built == [(2, 3)]
    taus = [tuple(tau) for tau in gamma_chain(6)]
    # the chain solves each frame once; bmatrix and exchange share one
    # solve of the identity frame
    assert sorted(solved) == sorted(taus + [tuple(range(6))])
    solved.clear()
    cli.chain_walk(quantum_matrix_preset(2, 3))
    assert solved == taus
