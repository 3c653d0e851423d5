"""End to end checks for the command line driver.

Everything but the import and python -O checks runs in process through
main(argv); stdout is captured with capsys so the byte-stability
assertions really compare emitted text.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcluster import cli, primeseq
from qcluster.cli import main
from qcluster.exchangesolver import quantum_matrix_btilde
from qcluster.mutation import ExchangeMatrix, exchange_identity_holds, mutated_variable
from qcluster.orealgebra import Presentation, quantum_matrix_preset
from qcluster.primeseq import compute_primes
from qcluster.xicombinatorics import gamma_chain
from twists import random_twist

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
        "lambda_diag": [None if e is None else str(e) for e in pres.lam_diag],
        "lambda_star": [None if e is None else str(e) for e in pres.lam_star],
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


@pytest.mark.parametrize(
    "text",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"names": ["\xe9"]}',
        b'{"root": 1' + b"0" * 4999 + b"}",
    ],
    ids=["nested-100000-deep", "not-utf-8", "5000-digit-int"],
)
def test_malformed_json_is_a_config_error(capsys, tmp_path, text):
    """The decoder's RecursionError, UnicodeDecodeError and the int digit
    limit's ValueError are each a file that is not valid JSON."""
    source = tmp_path / "custom.json"
    source.write_bytes(text)
    rc, out, err = run_cli(
        capsys, "--cmd", "primes", "--preset", "custom", "--file", str(source)
    )
    assert (rc, out) == (2, "")
    assert err.startswith(f"qcluster: {source} is not valid JSON: ")
    assert err.count("\n") == 1


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


def child_env(**overrides):
    """The environment of a child interpreter that imports this qcluster;
    an override of None removes the variable."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {k: v for k, v in env.items() if v is not None}


def test_cli_import_stays_light():
    """Every request pays for importing the CLI, and dataclasses alone
    pulls in inspect, ast, dis and tokenize.  json is imported only to
    read a --file, and random only by the verify suite's mutation check."""
    code = (
        "import sys; before = set(sys.modules); import qcluster.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run(
        [sys.executable, "-c", code], env=child_env(),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "qcluster.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
    assert "json" not in added and "random" not in added


def run_entry(*argv, stdout=subprocess.PIPE, **env):
    """python -m qcluster.cli ARGV in a child, which ends through entry()."""
    return subprocess.run(
        [sys.executable, "-m", "qcluster.cli", *argv], env=child_env(**env),
        stdout=stdout, stderr=subprocess.PIPE,
    )


def test_entry_prints_what_main_prints(capsys, tmp_path):
    """entry() ends with os._exit after its flushes: stdout, the exit
    status and an --out file must still be whole."""
    source = tmp_path / "bad.json"
    source.write_text(json.dumps(BAD_CUSTOM))
    target = tmp_path / "out.json"
    for argv in (
        ("--cmd", "bmatrix", "--m", "2", "--n", "3"),
        ("--cmd", "primes", "--preset", "custom", "--file", str(source)),
    ):
        rc, out, err = run_cli(capsys, *argv)
        for env in ({"PYTHONUNBUFFERED": None}, {"PYTHONUNBUFFERED": "1"}):
            child = run_entry(*argv, **env)
            assert (child.returncode, child.stdout, child.stderr) == (
                rc, out.encode(), err.encode()
            )
        child = run_entry(*argv, "--out", str(target))
        assert (child.returncode, child.stdout, child.stderr) == (rc, b"", b"")
        assert target.read_text() == out


def test_a_file_reads_as_utf_8_under_any_locale(tmp_path):
    """A --file is JSON, which is UTF-8, so a name outside ASCII reads the
    same under the C locale as in UTF-8 mode."""
    data = serialize(quantum_matrix_preset(2, 2))
    data["names"][0] = "\u00e9"
    source = tmp_path / "grid22.json"
    source.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    argv = ("--cmd", "bmatrix", "--preset", "custom", "--file", str(source))
    utf8 = run_entry(*argv, PYTHONUTF8="1")
    c_locale = run_entry(*argv, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert (utf8.returncode, utf8.stderr) == (0, b"")
    assert (c_locale.returncode, c_locale.stdout, c_locale.stderr) == (
        0, utf8.stdout, b""
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered, status", [(None, 120), ("1", 1)],
                         ids=["buffered", "unbuffered"])
def test_a_failed_write_never_exits_zero(unbuffered, status):
    """A buffered write to a full device fails only when entry() flushes;
    entry() then exits through sys.exit, whose teardown flushes again and
    exits 120.  Unbuffered, the write fails inside main() with a traceback
    and exit 1.  Both are the statuses of a plain sys.exit(main())."""
    with open("/dev/full", "wb") as full:
        child = run_entry("--cmd", "bmatrix", "--m", "2", "--n", "2",
                          stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert child.returncode == status
    assert b"No space left on device" in child.stderr


def test_unwritable_out_exits_two_through_entry(tmp_path):
    target = tmp_path / "missing" / "out.json"
    child = run_entry("--cmd", "bmatrix", "--m", "2", "--n", "2", "--out", str(target))
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr == (
        f"qcluster: cannot write {target}: [Errno 2] No such file or directory: "
        f"'{target}'\n"
    ).encode()


json_text = st.text(st.characters(exclude_categories=()))
json_leaves = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**30, max_value=10**30)
    | json_text | st.sampled_from(["", "\x00\x1f\"\\/\x7f", "\u00e9\u2028\U0001f600"])
    | st.lists(st.integers(), max_size=6)
)
json_payloads = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(json_text, kids, max_size=5),
    max_leaves=30,
)


@given(json_payloads)
@settings(max_examples=300, deadline=None)
def test_encode_matches_json_dumps(payload):
    """json.dumps, the encoder the CLI used, is the oracle for every type a
    payload holds: None, bools, ints of any size, any string, and empty or
    nested lists and dicts."""
    assert cli.encode(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "payload",
    [1.0, {"a": [1, 2.5]}, (1, 2), {"a": (1,)}, {1: "a"}, {"a": {None: 0}}, {1, 2}],
    ids=["float", "nested-float", "tuple", "nested-tuple", "int-key", "none-key", "set"],
)
def test_encode_rejects_what_no_payload_holds(payload):
    with pytest.raises(TypeError):
        cli.encode(payload)


FAILING_CHECKS = """
from qcluster import cli
from qcluster.mutation import ExchangeMatrix, exchange_identity_holds, mutated_variable
from qcluster.orealgebra import quantum_matrix_preset

real = cli.quantum_matrix_btilde

def flipped(m, n):
    b = real(m, n)
    return ExchangeMatrix(b.n_rows, {**b.cols, 0: [-x for x in b.cols[0]]})

cli.quantum_matrix_btilde = flipped
args = cli.build_parser().parse_args(["--cmd", "verify", "--m", "3", "--n", "3"])
code, payload = cli.run(args)
print(code, payload["ok"], payload["checks"]["bmatrix"])
session = cli.Session(None, quantum_matrix_preset(3, 3))
session.frames[4].image_weights[0] = (9,) * len(session.frames[4].image_weights[0])
try:
    cli.chain_walk(session)
except AssertionError as e:
    print("chain:", e)
"""


def test_checks_fail_alike_under_python_O():
    """The checks raise AssertionError themselves, so python -O, which
    strips assert statements, keeps every failure and its message."""
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-c", FAILING_CHECKS], env=child_env(),
            capture_output=True, text=True, check=True,
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outs[0] == outs[1] == (
        "1 False fail: solved matrix differs from the closed form\n"
        "chain: step 3: weight of image 0 does not mutate to the next frame\n"
    )


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
FLOAT_DELTA = {"3,0": [[GRID22["delta"]["3,0"][0][0], {"2": -1.1, "-2": 1.1}]]}
STRING_MONOMIAL = {"3,0": [["0110", GRID22["delta"]["3,0"][0][1]]]}
# the preset's weights as floats, unscaled and scaled by 10**17: both once
# loaded as the integers they round to
FLOAT_WEIGHTS = [[float(x) for x in w] for w in GRID22["weights"]]
HUGE_FLOAT_WEIGHTS = [[x * 1e17 for x in w] for w in GRID22["weights"]]
FLOAT_LAMBDA = [list(row) for row in GRID22["lambda"]]
FLOAT_LAMBDA[0][1], FLOAT_LAMBDA[1][0] = 1.0, -1.0
FLOAT_DIAG = GRID22["lambda_diag"][:3] + [-2.0000000001]
FLOAT_STAR = [2.0] + GRID22["lambda_star"][1:]
FLOAT_EXPONENT = {"3,0": [[GRID22["delta"]["3,0"][0][0], 0.5]]}
# JSON true/false in integer and exponent fields, once read as 1/0
BOOL_WEIGHTS = [[True if x == 1 else x for x in w] for w in GRID22["weights"]]
BOOL_ETA = [False] + GRID22["eta"][1:]
BOOL_LAMBDA = [list(row) for row in GRID22["lambda"]]
BOOL_LAMBDA[0][0] = False
BOOL_DIAG = GRID22["lambda_diag"][:3] + [True]
BOOL_MONOMIAL = {"3,0": [[[False, True, True, False], GRID22["delta"]["3,0"][0][1]]]}
BOOL_COEFF = {"3,0": [[GRID22["delta"]["3,0"][0][0], {"0": True}]]}
NO_ETA = {k: v for k, v in GRID22.items() if k != "eta"}
# x1 x0 = q x0 x1 over six otherwise commuting generators, and
# delta_4(x1) = x0, which is not a sigma_4-derivation: the overlap (4,1,0)
# does not resolve, though the 25 seeded 0/1-monomial associativity samples
# that loading once ran (seed 0) all passed on it
NOT_CONFLUENT = {
    "lambda": [
        ["0", "-1", "0", "0", "0", "0"],
        ["1", "0", "0", "0", "0", "0"],
        *(["0"] * 6 for _ in range(4)),
    ],
    "weights": [[0]] * 6,
    "lambda_diag": ["-2"] * 6,
    "delta": {"4,1": [[[1, 0, 0, 0, 0, 0], {"0": 1}]]},
    "root": 2,
}
# files that pass the overlap check but not the rest of the CGL certificate:
# lambda_diag[3] other than the -2 the torus forces at the 2x2 preset's
# derivation stage, or 0 there; and y x = q x y + x^2, where delta_1(x) = x^2
# gives delta_1^n(x) a nonzero multiple of x^(n+1) for every n
TORUS_DIAG = GRID22["lambda_diag"][:3] + ["300000"]
ZERO_DIAG = GRID22["lambda_diag"][:3] + ["0"]
NOT_NILPOTENT = {
    "lambda": [["0", "-1"], ["1", "0"]],
    "weights": [[1], [1]],
    "lambda_diag": [None, "1"],
    "delta": {"1,0": [[[2, 0], {"0": 1}]]},
    "root": 2,
}
SCHUBERT_A2 = ("--preset", "schubert", "--type", "A", "--rank", "2", "--word")
# a lambda that is a string, or whose rows are, once loaded as its
# characters: the 1x1 and the 2x2 zero matrix
STRING_LAMBDA = {"lambda": "0", "weights": [[0]], "lambda_diag": [None]}
STRING_LAMBDA_ROWS = {"lambda": ["00", "00"], "weights": [[0], [0]],
                      "lambda_diag": [None, None]}
# a root below 1 once loaded where no coefficient was built with it: bmatrix
# and verify passed with every q-power equal to 1, and primes divided 0 by 0
ROOTLESS = {k: v for k, v in GRID22.items() if k not in ("delta", "eta")}
ROOT_ZERO = {**ROOTLESS, "root": 0}
ROOT_NEGATIVE = {**ROOTLESS, "root": -2}
# a string root was once read two ways, as given for the delta coefficients
# and as an integer for the rest: "2" loaded without delta and was exit 2
# with it ("'<' not supported between instances of 'str' and 'int'")
STRING_ROOT_ZERO = {**GRID22, "root": "0"}
STRING_ROOT_ZERO_ROOTLESS = {**ROOTLESS, "root": "0"}
STRING_ROOT_HALF = {**GRID22, "root": "5/2"}
STRING_ROOT_HALF_ROOTLESS = {**ROOTLESS, "root": "5/2"}
# a second key for one derivation pair once replaced the first: with the
# valid term last, primes passed and ignored the conflicting one
CONFLICT = [[GRID22["delta"]["3,0"][0][0], {"0": 1}]]
REPEATED_PAIR_VALID_LAST = {"3, 0": CONFLICT, "3,0": GRID22["delta"]["3,0"]}
REPEATED_PAIR_VALID_FIRST = {"3,0": GRID22["delta"]["3,0"], "3, 0": CONFLICT}


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
        ({**GRID22, "delta": FLOAT_DELTA}, ("--cmd", "primes")),
        ({**GRID22, "lambda": FLOAT_LAMBDA}, ("--cmd", "bmatrix")),
        ({**GRID22, "lambda_diag": FLOAT_DIAG}, ("--cmd", "bmatrix")),
        ({**GRID22, "lambda_star": FLOAT_STAR}, ("--cmd", "bmatrix")),
        ({**GRID22, "delta": FLOAT_EXPONENT}, ("--cmd", "bmatrix")),
        ({**GRID22, "root": 4.0}, ("--cmd", "bmatrix")),
        ({**GRID22, "root": 1.27e16}, ("--cmd", "bmatrix")),
        (NOT_CONFLUENT, ("--cmd", "primes")),
        ({**GRID22, "lambda_diag": TORUS_DIAG}, ("--cmd", "primes")),
        ({**GRID22, "lambda_diag": ZERO_DIAG}, ("--cmd", "primes")),
        (NOT_NILPOTENT, ("--cmd", "primes")),
        ({**GRID22, "delta": "x"}, ("--cmd", "primes")),
        # one above orealgebra.MAX_ROOT; at this root the preset's coefficients
        # denote another algebra, which without the bound ends in exit 1
        ({**GRID22, "root": 1001}, ("--cmd", "bmatrix")),
        # one above schubertdata.MAX_RANK; A150 once took 16 s to load
        (None, ("--cmd", "schubert", "--preset", "schubert", "--type", "A",
                "--rank", "17", "--word", "1")),
        # a name that is not a string once reached the PBW printer of primes
        ({**GRID22, "names": [{}, {}, {}, {}]}, ("--cmd", "primes")),
        ({**GRID22, "names": [{}, {}, {}, {}]}, ("--cmd", "verify")),
        ({**GRID22, "names": "abcd"}, ("--cmd", "primes")),
        # a string is not a list, though it once loaded as its characters
        ({**GRID22, "eta": "0120"}, ("--cmd", "primes")),
        ({**GRID22, "lambda_diag": "2222"}, ("--cmd", "primes")),
        ({**GRID22, "lambda_star": "2222"}, ("--cmd", "primes")),
        ({**GRID22, "lambda_star": {"2": 0, "3": 1, "4": 2, "5": 3}}, ("--cmd", "bmatrix")),
        ({**GRID22, "eta": [0, 1.0, 2, 0.0]}, ("--cmd", "primes")),
        ({**GRID22, "delta": STRING_MONOMIAL}, ("--cmd", "primes")),
        ({**GRID22, "weights": FLOAT_WEIGHTS}, ("--cmd", "primes")),
        ({**GRID22, "weights": HUGE_FLOAT_WEIGHTS}, ("--cmd", "primes")),
        ({**GRID22, "weights": ["1010", "1001", "0110", "0101"]}, ("--cmd", "primes")),
        ({**GRID22, "weights": "0000"}, ("--cmd", "primes")),
        ({**GRID22, "root": True}, ("--cmd", "primes")),
        ({**GRID22, "weights": BOOL_WEIGHTS}, ("--cmd", "primes")),
        ({**GRID22, "eta": BOOL_ETA}, ("--cmd", "primes")),
        ({**GRID22, "lambda": BOOL_LAMBDA}, ("--cmd", "primes")),
        ({**GRID22, "lambda_diag": BOOL_DIAG}, ("--cmd", "primes")),
        ({**GRID22, "delta": BOOL_MONOMIAL}, ("--cmd", "primes")),
        ({**GRID22, "delta": BOOL_COEFF}, ("--cmd", "primes")),
        # a false or empty non-object once loaded as no derivations
        ({**NO_ETA, "delta": False}, ("--cmd", "primes")),
        ({**NO_ETA, "delta": []}, ("--cmd", "primes")),
        (STRING_LAMBDA_ROWS, ("--cmd", "primes")),
        (STRING_LAMBDA, ("--cmd", "primes")),
        (ROOT_ZERO, ("--cmd", "bmatrix")),
        (ROOT_ZERO, ("--cmd", "primes")),
        (ROOT_NEGATIVE, ("--cmd", "verify")),
        (ROOT_NEGATIVE, ("--cmd", "primes")),
        (STRING_ROOT_ZERO, ("--cmd", "primes")),
        (STRING_ROOT_ZERO_ROOTLESS, ("--cmd", "primes")),
        (STRING_ROOT_HALF, ("--cmd", "bmatrix")),
        (STRING_ROOT_HALF_ROOTLESS, ("--cmd", "bmatrix")),
        ({**GRID22, "delta": REPEATED_PAIR_VALID_LAST}, ("--cmd", "primes")),
        ({**GRID22, "delta": REPEATED_PAIR_VALID_FIRST}, ("--cmd", "primes")),
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
        "float-delta-coefficient",
        "float-lambda",
        "float-lambda-diag",
        "float-lambda-star",
        "float-delta-exponent",
        "float-root",
        "huge-float-root",
        "not-confluent",
        "torus-condition",
        "zero-lambda-diag",
        "not-locally-nilpotent",
        "delta-not-an-object",
        "root-above-bound",
        "rank-above-bound",
        "names-not-strings-primes",
        "names-not-strings-verify",
        "names-not-a-list",
        "eta-a-string",
        "lambda-diag-a-string",
        "lambda-star-a-string",
        "lambda-star-an-object",
        "float-eta",
        "delta-monomial-a-string",
        "float-weights",
        "huge-float-weights",
        "weight-vectors-strings",
        "weights-a-string",
        "bool-root",
        "bool-weights",
        "bool-eta",
        "bool-lambda",
        "bool-lambda-diag",
        "bool-delta-monomial",
        "bool-delta-coefficient",
        "delta-false",
        "delta-empty-list",
        "lambda-rows-strings",
        "lambda-a-string",
        "root-zero-bmatrix",
        "root-zero-primes",
        "root-negative-verify",
        "root-negative-primes",
        "string-root-zero",
        "string-root-zero-rootless",
        "string-root-fraction",
        "string-root-fraction-rootless",
        "repeated-pair-valid-last",
        "repeated-pair-valid-first",
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
    if data is not None and data.get("delta") is FLOAT_DELTA:
        assert "delta[3,0]" in err
    if data is NOT_CONFLUENT:
        assert "overlap (4,1,0)" in err
    if data is not None and data.get("lambda_diag") is TORUS_DIAG:
        assert "bad presentation data: stage 3: torus condition fails:" in err
    if data is not None and data.get("lambda_diag") is ZERO_DIAG:
        assert "bad presentation data: stage 3: lambda_diag[3] is 0 where delta_3 acts" in err
    if data is NOT_NILPOTENT:
        assert "bad presentation data: stage 1: local nilpotence unproved" in err
    if data is not None and data.get("delta") is STRING_MONOMIAL:
        assert "delta[3,0] monomial is not a list" in err
    if data is not None and data.get("weights") is HUGE_FLOAT_WEIGHTS:
        assert "weights[0] has a float value" in err
    if data is not None and data.get("weights") is BOOL_WEIGHTS:
        assert "weights[0] has a boolean value True" in err
    if data is STRING_LAMBDA:
        assert err == "qcluster: bad presentation data: lambda is not a list\n"
    if data is STRING_LAMBDA_ROWS:
        assert err == "qcluster: bad presentation data: lambda[0] is not a list\n"
    if any(data is x for x in (ROOT_ZERO, ROOT_NEGATIVE, STRING_ROOT_ZERO,
                               STRING_ROOT_ZERO_ROOTLESS)):
        assert err == "qcluster: bad presentation data: root must be a positive integer\n"
    if data is STRING_ROOT_HALF or data is STRING_ROOT_HALF_ROOTLESS:
        assert err == ("qcluster: bad presentation data: "
                       "root entry '5/2' is not an integer\n")
    if data is not None and data.get("delta") is REPEATED_PAIR_VALID_LAST:
        assert err == "qcluster: bad presentation data: delta[3,0] repeats the pair (3,0)\n"
    if data is not None and data.get("delta") is REPEATED_PAIR_VALID_FIRST:
        assert err == "qcluster: bad presentation data: delta[3, 0] repeats the pair (3,0)\n"


@pytest.mark.parametrize("data", [GRID22, ROOTLESS], ids=["delta", "no-delta"])
@pytest.mark.parametrize("cmd", ["primes", "bmatrix"])
def test_a_string_root_reads_as_its_integer(capsys, tmp_path, data, cmd):
    """"root": "2" gives exit 0 and the bytes of "root": 2, with the delta
    coefficients built at that root or without any."""
    runs = []
    for root in (2, "2"):
        source = tmp_path / "custom.json"
        source.write_text(json.dumps({**data, "root": root}))
        runs.append(run_cli(capsys, "--cmd", cmd, "--preset", "custom",
                            "--file", str(source)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""


# The rules between flags, each with its message; a request that breaks
# two is told of the first rule it breaks, in this order.
FLAG_RULES = [
    (("--cmd", "primes", "--preset", "schubert", "--word", "1"),
     "command 'primes' needs an algebra preset"),
    (("--cmd", "mutate", "--preset", "schubert"),
     "command 'mutate' needs an algebra preset"),
    (("--cmd", "schubert", "--preset", "schubert"),
     "schubert preset needs --word"),
    (("--cmd", "bmatrix", "--preset", "schubert"),
     "schubert preset needs --word"),
    (("--cmd", "verify", "--preset", "schubert"),
     "schubert preset needs --word"),
    (("--cmd", "primes", "--preset", "custom"),
     "custom preset needs --file"),
    (("--cmd", "schubert", "--preset", "custom"),
     "custom preset needs --file"),
    (("--cmd", "schubert"),
     "the schubert command needs --preset schubert"),
    (("--cmd", "schubert", "--preset", "custom", "--file", "absent.json"),
     "the schubert command needs --preset schubert"),
]


@pytest.mark.parametrize("argv, message", FLAG_RULES, ids=[
    "primes-on-words", "mutate-on-words-no-word", "schubert-no-word",
    "bmatrix-no-word", "verify-no-word", "custom-no-file",
    "schubert-custom-no-file", "schubert-on-matrices", "schubert-on-custom",
])
def test_flag_rules_exit_two_with_their_message(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"qcluster: {message}\n")


# words the schubert preset rejects, each with its stderr line: the first
# bad position decides, and there a label out of range is named before
# reducedness is tested
BAD_WORDS = [
    ("1 1 9", "word is not reduced at position 1"),
    ("9 1 1", "node label 9 out of range"),
    ("1 9", "node label 9 out of range"),
    ("0", "node label 0 out of range"),
    ("-1 2", "node label -1 out of range"),
    ("1 2 1 2", "word is not reduced at position 3"),
]


@pytest.mark.parametrize("cmd", ["schubert", "bmatrix", "verify"])
@pytest.mark.parametrize("word, message", BAD_WORDS,
                         ids=[w.replace(" ", "-") for w, _ in BAD_WORDS])
def test_bad_words_exit_two_with_their_message(capsys, cmd, word, message):
    rc, out, err = run_cli(capsys, "--cmd", cmd, *SCHUBERT_A2, *word.split())
    assert (rc, out, err) == (2, "", f"qcluster: {message}\n")


def test_unwritable_out_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    rc, out, err = run_cli(capsys, "--cmd", "primes", "--out", str(target))
    assert rc == 2 and out == "" and not target.parent.exists()
    assert err.startswith(f"qcluster: cannot write {target}") and err.count("\n") == 1


def _count_builds(monkeypatch):
    """Record each Presentation built."""
    built = []
    real_init = Presentation.__init__
    monkeypatch.setattr(Presentation, "__init__", lambda self, *a, **k: built.append(1) or real_init(self, *a, **k))
    return built


@pytest.mark.parametrize(
    "cmd, shape, built",
    [
        ("intervals", (3, 3), 1),
        ("bmatrix", (3, 3), 1),
        ("verify", (3, 3), 1),
        ("verify", (4, 4), 1),
        ("intervals", (4, 5), 1),
    ],
    ids=["intervals-1", "bmatrix-1", "verify-1", "verify-4x4-1", "intervals-4x5-1"],
)
def test_one_presentation_per_request(capsys, monkeypatch, cmd, shape, built):
    """Interval primes and the first-column windows run inside the loaded
    algebra; verify's intervals check builds no rescaled algebra, as every
    gamma_i of a quantum-matrix preset is 1."""
    count = _count_builds(monkeypatch)
    m, n = shape
    rc, _, _ = run_cli(capsys, "--cmd", cmd, "--m", str(m), "--n", str(n))
    assert rc == 0 and len(count) == built


def _count_u(monkeypatch):
    """Record each (i, m) that u_element is called with, from primeseq,
    the one module that forms a window."""
    calls = []
    real = primeseq.u_element

    def u_element(pres, i, m):
        calls.append((i, m))
        return real(pres, i, m)

    monkeypatch.setattr(primeseq, "u_element", u_element)
    return calls


def test_intervals_form_each_u_once(capsys, monkeypatch):
    calls = _count_u(monkeypatch)
    rc, out, _ = run_cli(capsys, "--cmd", "intervals", "--m", "3", "--n", "4")
    assert rc == 0
    entries = [(e["start"], e["steps"]) for e in json.loads(out)["intervals"]]
    assert len(entries) == 8 and sorted(calls) == sorted(entries)


def test_interval_identity_forms_each_u_once(monkeypatch):
    pres = quantum_matrix_preset(3, 4)
    calls = _count_u(monkeypatch)
    cli._check_interval_identity(cli.Session(None, pres))
    ed = compute_primes(pres).eta_data
    windows = [(i, m) for i in range(pres.n) for m in range(1, ed.o_plus[i] + 1)]
    assert len(windows) == 8 and sorted(calls) == windows


@pytest.mark.parametrize("shape, spans", [((3, 3), 14), ((2, 4), 11)], ids=["3x3", "2x4"])
def test_chain_checks_each_span_once(capsys, monkeypatch, shape, spans):
    """Adjacent chain frames share all interval primes but one: each chain
    span is built, and its generator range checked, once per request."""
    checked = []
    real = primeseq._check_range

    def check_range(pres, j, k):
        checked.append((j, k))
        real(pres, j, k)

    monkeypatch.setattr(primeseq, "_check_range", check_range)
    m, n = shape
    rc, _, _ = run_cli(capsys, "--cmd", "chain", "--m", str(m), "--n", str(n))
    assert rc == 0
    assert len(checked) == len(set(checked)) == spans


@pytest.mark.parametrize("shape, pairs", [((3, 3), 76), ((2, 4), 49)], ids=["3x3", "2x4"])
def test_chain_forms_each_span_pairing_once(capsys, monkeypatch, shape, pairs):
    """Frames read their exponents from the span-pair table: each pair of
    chain spans has its pairing formed once per request, its mirror and
    every later frame read it."""
    formed = []
    real = primeseq._span_pair

    def span_pair(nu, a, b):
        formed.append(frozenset((a.id, b.id)))
        return real(nu, a, b)

    monkeypatch.setattr(primeseq, "_span_pair", span_pair)
    m, n = shape
    rc, _, _ = run_cli(capsys, "--cmd", "chain", "--m", str(m), "--n", str(n))
    assert rc == 0
    assert len(formed) == len(set(formed)) == pairs


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
    # only the identity frame is solved, once: bmatrix, exchange and the
    # chain share it, and the chain carries it to the other frames by
    # certified mutation
    identity = tuple(gamma_chain(6)[0])
    assert solved == [identity]
    solved.clear()
    cli.chain_walk(cli.Session(None, quantum_matrix_preset(2, 3)))
    assert solved == [identity]


@pytest.mark.parametrize("argv", [
    ("--cmd", cmd, "--m", "2", "--n", "3") for cmd in
    ("primes", "intervals", "bmatrix", "frames", "chain", "verify")
] + [
    ("--cmd", "mutate", "--m", "2", "--n", "3", "--mutations", "0"),
    ("--cmd", "schubert", "--preset", "schubert", "--word", "1", "2", "1"),
    ("--cmd", "verify", "--preset", "schubert", "--word", "1", "2", "1"),
], ids=lambda argv: "-".join(argv[1:6:2]))
def test_one_session_per_request(capsys, monkeypatch, argv):
    """run builds the one Session of a request, and the command body reads
    the algebra or the word through it, once."""
    sessions, loads = [], []
    real_init = cli.Session.__init__

    def init(self, *args, **kwargs):
        sessions.append(1)
        real_init(self, *args, **kwargs)

    for name in ("quantum_matrix_preset", "WordData"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: loads.append(1) or real(*a))
    monkeypatch.setattr(cli.Session, "__init__", init)
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0 and len(sessions) == len(loads) == 1


def test_chain_walks_the_request_session(capsys, monkeypatch):
    """The chain command and verify's chain check run chain_walk, the
    benchmark's cli layer, on the request's own Session; the check looks
    the walk up when it runs, so a wrapper on cli.chain_walk sees it."""
    walked = []
    real = cli.chain_walk
    monkeypatch.setattr(cli, "chain_walk", lambda source: walked.append(source) or real(source))
    for cmd in ("chain", "verify"):
        walked.clear()
        rc, _, _ = run_cli(capsys, "--cmd", cmd, "--m", "2", "--n", "3")
        assert rc == 0 and len(walked) == 1 and isinstance(walked[0], cli.Session), cmd


def _count_calls(monkeypatch, name):
    """Record the presentation of each call of name, from cli (where it
    imports name) or primeseq."""
    calls = []
    real = getattr(primeseq, name)
    counting = lambda pres, *args: calls.append(pres) or real(pres, *args)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, counting)
    monkeypatch.setattr(primeseq, name, counting)
    return calls


def test_verify_computes_the_primes_once(monkeypatch):
    """One compute_primes in cli or primeseq: the intervals check solves
    gamma from the session's primes, and builds no rescaled algebra."""
    for m, n in ((3, 3), (3, 4)):
        session = cli.Session(cli.build_parser().parse_args(["--cmd", "verify", "--m", str(m), "--n", str(n)]))
        session.pres
        calls = _count_calls(monkeypatch, "compute_primes")
        built = _count_builds(monkeypatch)
        assert cli.cmd_verify(session)["ok"] is True
        assert calls == [session.pres] and not built, (m, n)
        monkeypatch.undo()


@pytest.mark.parametrize("shape, windows", [((3, 3), 5), ((3, 4), 8)], ids=["3x3", "3x4"])
def test_verify_forms_each_u_once(capsys, monkeypatch, shape, windows):
    """intervals, interval-identity and first-column read each window's
    (u, pi, f) from primeseq.window, which memoizes it: one u_element per
    window, where the checks once formed u(i, 1) again for each of the
    exchangeable i and rescale_generators formed the length-one windows of
    the loaded and the rescaled algebra (3x3: 9 + 4 + 4 calls)."""
    calls = _count_u(monkeypatch)
    m, n = shape
    rc, out, _ = run_cli(capsys, "--cmd", "verify", "--m", str(m), "--n", str(n))
    assert rc == 0 and json.loads(out)["ok"] is True
    assert len(calls) == len(set(calls)) == windows


def test_a_twisted_algebra_checks_its_rescaling(capsys, monkeypatch, tmp_path):
    """The seeded twists have a nontrivial gamma, so the intervals check
    builds the rescaled algebra through rescale_generators.  gamma is
    solved from the memoized windows, so only the rescaled algebra's primes
    are formed again, and each u(j, 1) of the loaded algebra once; the
    check passes on each, as before."""
    rng = random.Random(7)
    for shape in ((2, 3), (2, 3), (3, 3)):
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(serialize(random_twist(quantum_matrix_preset(*shape), rng))))
        session = cli.Session(cli.build_parser().parse_args(
            ["--cmd", "verify", "--preset", "custom", "--file", str(path)]))
        session.pres
        calls = _count_calls(monkeypatch, "compute_primes")
        u_calls = _count_calls(monkeypatch, "u_element")
        built = _count_builds(monkeypatch)
        assert cli._run_check(session, "intervals") == "pass"
        assert len(built) == 1, shape
        assert [p is session.pres for p in calls] == [True, False], shape
        windows = sum(j is not None for j in session.primes.eta_data.s)
        assert sum(p is session.pres for p in u_calls) == windows, shape
        monkeypatch.undo()


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)],
                         ids=["2x2", "2x3", "3x2", "2x4", "3x3", "3x4"])
def test_mutated_variables_satisfy_the_exchange_identity(shape):
    """The oracle for the exchange check, which relies on exact division:
    each mutated variable of the identity seed, times M(e_k), is the
    exchange sum (the product comparison the check no longer makes)."""
    session = cli.Session(None, quantum_matrix_preset(*shape))
    tp, bmat = session.identity
    assert bmat.ex
    for k in bmat.ex:
        var = mutated_variable(tp.frame, bmat.cols[k], k)
        assert exchange_identity_holds(tp.frame, bmat.cols[k], k, var), (shape, k)


def test_verify_reports_a_failing_leading_term_as_a_failed_primes_check(capsys, monkeypatch):
    """_check_primes leaves the leading-term guard to _primes: a stage that
    fails it (simulated, as no certified input does) fails the primes check
    with _primes' message."""
    bad = (1, 0, 0, 0, 1, 0, 0, 0, 0)
    real = primeseq.leading_term
    monkeypatch.setattr(
        primeseq, "leading_term", lambda y: (lambda f, c: (f, -c) if f == bad else (f, c))(*real(y))
    )
    rc, out, _ = run_cli(capsys, "--cmd", "verify", "--m", "3", "--n", "3")
    assert rc == 1
    assert json.loads(out)["checks"]["primes"] == (
        "fail: ValueError: stage 4: leading term is not the chain monomial"
    )


# stdout digests of commands that print ExpMatrix rows (frames carries
# entries such as 1/2), recorded before the exponents became integers, and
# of the commands that print Coeff reprs (primes, intervals), recorded
# before the coefficients became integers
GOLDEN_STDOUT = [
    (
        ("--cmd", "frames", "--m", "2", "--n", "3"),
        "07b9e82e728b1651376fb41d129e850604f2aeb3258532497f3a5a9beb55e1d3",
    ),
    (
        ("--cmd", "schubert", "--preset", "schubert", "--type", "B", "--rank", "3",
         "--word", "1", "2", "3", "1", "2", "3", "1", "2", "3"),
        "b27399c4dfd37e8a6b4aee5b56dda70255ef96ab7972bd7f27c2bb8d9fae561b",
    ),
    (
        ("--cmd", "schubert", "--preset", "schubert", "--type", "G", "--rank", "2",
         "--word", "1", "2", "1", "2", "1", "2"),
        "1ac8e36f1ff6c63d2c3316109526fd13036ae0a72efef491fd4bad4cc90b1eba",
    ),
    (
        ("--cmd", "primes", "--m", "3", "--n", "3"),
        "b2b28b9c6cc83a20e0be07d767d2007f4aae6981682ea2133497e44d00104c44",
    ),
    (
        ("--cmd", "intervals", "--m", "3", "--n", "3"),
        "c76359e2d737e379961b021a82c88cb7e48067768593a030a5e917a3f801f4f5",
    ),
    (
        ("--cmd", "intervals", "--m", "2", "--n", "4"),
        "1dfd083d04bd44844c53ccc0f0176a28f9bf615294be48aba32b2854e1129540",
    ),
    # recorded before compute_primes certified primes without the full
    # normality products
    (
        ("--cmd", "primes", "--m", "4", "--n", "5"),
        "fb20d242b2582e0e1c5507e19c24b5e2bfbb2aa072a073d03a51276fc92611b4",
    ),
    (
        ("--cmd", "intervals", "--m", "5", "--n", "4"),
        "43e8fc0b8eb415463f62dbfddffc97e6da76842f64d5ccfa099b28dcf363ba0b",
    ),
    (
        ("--cmd", "bmatrix", "--m", "4", "--n", "5"),
        "ac4906f2e93d3132372817a4f9b1525e26c1d0d9c580d446f3475cec2723650d",
    ),
    # mutate feeds div_right, frame_value and compute_primes scalars
    # into its variables; recorded before the scalars took the integer route
    (
        ("--cmd", "mutate", "--m", "3", "--n", "4",
         "--mutations", "0", "1", "2", "4", "5", "6", "0", "1", "2", "4", "5", "6"),
        "e64aadbf87f790f8c3fc105e5939107ebe005bdd61b96813e9684ad0ba43dad4",
    ),
    (
        ("--cmd", "mutate", "--m", "4", "--n", "4",
         "--mutations", "0", "1", "2", "4", "5", "6"),
        "bd15a7ac6c63f3df8ab86da365b6ee335cfbcf8e5032aea98565280185b97e2e",
    ),
    # recorded before the first-column windows ran inside the loaded algebra
    # and each difference element was formed once per interval
    (
        ("--cmd", "verify", "--m", "3", "--n", "3"),
        "be29423943102026c1a3a52ccb40c969e7ebed3f0a1d545ce363c7093bd84567",
    ),
    (
        ("--cmd", "verify", "--m", "3", "--n", "4"),
        "611c4929271fae03cf8c271665b17697aeed0b503334898573d70c62ab7a89bb",
    ),
    (
        ("--cmd", "intervals", "--m", "4", "--n", "5"),
        "42ab1923aa21d1b20615d52d98f2aac3792367ffcd355ccca3399e809e377261",
    ),
    # recorded while a run still copied the parsed flags into a configuration
    # object and WordData still built the word's commutation matrix; verify
    # 2x2 runs the exchange check's test on the 2x2 mutation
    (
        ("--cmd", "bmatrix", "--preset", "schubert", "--type", "D", "--rank", "4",
         "--word", *"1 3 4 2 1 3 4 2 1 3 4 2".split()),
        "a8b413ebecab3412446e762f7861aca6ef1f4907d77a6d9e5735227fa9878c4e",
    ),
    (
        ("--cmd", "verify", "--preset", "schubert", "--type", "D", "--rank", "4",
         "--word", *"1 3 4 2 1 3 4 2 1 3 4 2".split()),
        "b5796c5a86284d7c2bfdb77756634cd3ef337115bbfacb926f2c54e1b8d2b80e",
    ),
    (
        ("--cmd", "verify", "--m", "2", "--n", "2"),
        "6ee8ec40b790f1812f73b63def5d24b57f21de4c4c2ffa29c214fd00da83d228",
    ),
    # recorded while every frame still formed V^T nu V of its spans, before
    # frames read their exponents from the span-pair table
    (
        ("--cmd", "frames", "--m", "3", "--n", "3"),
        "08e2b3a404484a5205038b5f87ff3376cf2c940f6c3438567c3b8b93565d150d",
    ),
    (
        ("--cmd", "frames", "--m", "2", "--n", "4"),
        "d6bca5c640637b04947833b6c5e60e45602fd9f59d005496d8711cb98e935809",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_STDOUT,
    ids=[
        "frames-2x3", "schubert-B3", "schubert-G2",
        "primes-3x3", "intervals-3x3", "intervals-2x4",
        "primes-4x5", "intervals-5x4", "bmatrix-4x5",
        "mutate-3x4", "mutate-4x4",
        "verify-3x3", "verify-3x4", "intervals-4x5",
        "bmatrix-schubert-D4", "verify-schubert-D4", "verify-2x2",
        "frames-3x3", "frames-2x4",
    ],
)
def test_golden_stdout(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _without_star(k):
    """The 2x3 preset, serialized, with lambda_star[k] set to null."""
    data = serialize(quantum_matrix_preset(2, 3))
    data["lambda_star"][k] = None
    return data


# U_q(n+) of sl3 on E12, E1, E2 (as in tests/test_primeseq.py), serialized:
# delta_2(x1) = (q^-1 - q) x0, so the presentation is not symmetric
SL3_NPLUS = {
    "lambda": [["0", "-1", "1"], ["1", "0", "-1"], ["-1", "1", "0"]],
    "weights": [[1, 1], [1, 0], [0, 1]],
    "lambda_diag": [None, None, "-2"],
    "delta": {"2,1": [[[1, 0, 0], {"-2": 1, "2": -1}]]},
    "eta": [0, 1, 1],
    "root": 2,
}

# custom files whose command exits 1, with the stdout digest recorded before
# the first-column windows ran inside the loaded algebra, and the checks that
# must read so.  Without lambda_star[1], first-column fails on the window
# from 1, where generator 1 is the window's index 0, and bmatrix on index 1
# of the whole algebra.  On the sl3 file (recorded before the PBW products
# shared one term accumulator), verify runs the three checks of a
# presentation that is not symmetric, and bmatrix fails because the chain
# 1 -> 2 spans a range that does not present a subalgebra.
GOLDEN_FAILURES = [
    (
        _without_star(1),
        ("--cmd", "verify"),
        "50ce1905a2fc497453cfcb8fe42996946858166b3143a60942c0ece5fa380ff0",
        {
            "first-column": "fail: ValueError: index 0 lacks a nontrivial squared scalar",
            "bmatrix": "fail: ValueError: index 1 lacks a nontrivial squared scalar",
        },
    ),
    (
        SL3_NPLUS,
        ("--cmd", "verify"),
        "5baf884708da57b710d421b0543c26559cae30f9770aa1389924a6f4d8ad6d87",
        {
            "primes": "pass",
            "bmatrix": "fail: ValueError: delta[2,1] leaves the generators 1..2",
            "mutation-suite": "pass",
        },
    ),
]


@pytest.mark.parametrize("data, argv, digest, failing", GOLDEN_FAILURES,
                         ids=["verify-2x3-star1", "verify-sl3-not-symmetric"])
def test_golden_failures(capsys, tmp_path, data, argv, digest, failing):
    source = tmp_path / "custom.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, *argv, "--preset", "custom", "--file", str(source))
    assert rc == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    checks = json.loads(out)["checks"]
    assert {name: checks[name] for name in failing} == failing
    if data is SL3_NPLUS:
        assert list(checks) == sorted(failing)


# The 2x2 preset serialized at a root it was not written for: its delta
# coefficients then denote another algebra, which passes the load certificate
# but whose c_3 is not a Laurent polynomial.  Digests recorded before each
# centering coefficient was formed by one exact division; the payload does
# not name the root, so a command prints the same bytes at every root.
NON_LAURENT_DIGESTS = {
    "bmatrix": "0642e48ac14898a7a82b1bd2cf72f64493e5a2e6de1e16151125d04f0c25d768",
    "primes": "84d7fe1db63aac7c4f92ff80a307b2e6fe17d3cee4a3023c603008415f578f3a",
    "verify": "8caee2e7fd3ead8b50c45f5d7f10ae8f37a80ed2ed12fb9050dc6c4c69cbcaeb",
}


@pytest.mark.parametrize("cmd", sorted(NON_LAURENT_DIGESTS))
@pytest.mark.parametrize("root", [3, 6, 1000])
def test_a_non_laurent_centering_coefficient_exits_1(capsys, tmp_path, root, cmd):
    source = tmp_path / "custom.json"
    source.write_text(json.dumps({**serialize(quantum_matrix_preset(2, 2)), "root": root}))
    rc, out, err = run_cli(capsys, "--cmd", cmd, "--preset", "custom", "--file", str(source))
    assert rc == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == NON_LAURENT_DIGESTS[cmd]
    assert "ValueError: stage 3: non-Laurent centering coefficient" in out


def _with_lengths(d):
    """CartanData with the lengths d in place of its own, as the sweep
    tests build it."""
    real = cli.CartanData

    def build(letter, rank):
        cd = real(letter, rank)
        cd.d = d
        return cd

    return build


def _flipped_closed_form(m, n):
    """The closed-form exchange matrix with column 0 negated."""
    b = quantum_matrix_btilde(m, n)
    return ExchangeMatrix(b.n_rows, {**b.cols, 0: tuple(-x for x in b.cols[0])})


def _word_request(cmd, letter, rank, word):
    return ("--cmd", cmd, "--preset", "schubert", "--type", letter,
            "--rank", str(rank), "--word", *word.split())


D4_WORD = "1 3 4 2 1 3 4 2 1 3 4 2"


# the exit-1 branches of cli.run besides verify, run in process: a failing
# Schubert report, on words whose reports fail with wrong lengths, and a
# false crosscheck, from the same wrong lengths or from a closed form with a
# column negated.  Digests recorded before the term sums shared one
# accumulator and WordData read its roots off the walk.
@pytest.mark.parametrize("argv, patch, digest", [
    (_word_request("schubert", "B", 3, "1 2 3 1 2 3"),
     ("CartanData", _with_lengths((1, 1, 1))),
     "439170fce80e9bdee7f74b04e429ea7a4b2194db10450d95067e194b94c9e990"),
    (_word_request("schubert", "D", 4, D4_WORD),
     ("CartanData", _with_lengths((1, 2, 1, 1))),
     "72fbaa3a094205385977244bce6ebb381df7b68415f6058e5b18237ef5db0019"),
    (_word_request("bmatrix", "B", 3, "1 2 3 1 2 3"),
     ("CartanData", _with_lengths((1, 1, 1))),
     "8cb4c8e60365d9933109faee7e36cb59dfa3566c0103f7f09f3acc5c7d5b4cd8"),
    (_word_request("bmatrix", "D", 4, D4_WORD),
     ("CartanData", _with_lengths((1, 2, 1, 1))),
     "c1d879dd27de957dbdbbd9f63b523e9865af7e5bc284213ae2580269a66ba0eb"),
    (("--cmd", "bmatrix", "--m", "3", "--n", "3"),
     ("quantum_matrix_btilde", _flipped_closed_form),
     "2f21df66ee3213ee3b9ce92865a94c191d6bce5d9113d1fc0a4a8bf8960d0d23"),
], ids=["schubert-B3", "schubert-D4", "bmatrix-B3", "bmatrix-D4", "bmatrix-3x3"])
def test_failing_report_and_crosscheck_exit_one(capsys, monkeypatch, argv, patch,
                                                digest):
    monkeypatch.setattr(cli, *patch)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    payload = json.loads(out)
    if payload["command"] == "schubert":
        assert payload["report"]["ok"] is False
        assert payload["report"]["pairing_failures"]
    else:
        assert payload["crosscheck"] is False


MIXED_SIGN = "ValueError: squared-scalar exponents of mixed sign"


def _negated_star(k):
    """The 2x3 preset, serialized, with lambda_star[k] negated."""
    data = serialize(quantum_matrix_preset(2, 3))
    data["lambda_star"][k] = "-" + data["lambda_star"][k]
    return data


# With lambda_star[1] negated the squared scalars of the exchangeable labels
# 0 and 1 differ in sign, which every exchange-matrix solve rejects; the
# digests were recorded while a symmetrizer search still ran after the
# solve.  first-column solves each window with the window's own squared
# scalars; the window from 1 has one exchangeable label, so no mixed sign,
# and its column comes out negated, which fails the crosscheck instead.
@pytest.mark.parametrize("cmd, digest", [
    ("bmatrix", "53364657bab6f34621a11582cc51311d4dc7c09757050bfc5e3fea100816cf1f"),
    ("chain", "79434c36aaab8fad8d9d4c441fb0a833f158f06235206b489bf93b4d14162451"),
    ("mutate", "7095dc658b005cf243fb0347045a36064afd1247e443038e7e9dc0fa7c3eab37"),
    ("verify", "905f7997d033946d007ed9dada49fd2a4d6229968aedc0a57645ebbdf87c1ec6"),
], ids=["bmatrix", "chain", "mutate", "verify"])
def test_mixed_sign_squared_scalars(capsys, tmp_path, cmd, digest):
    source = tmp_path / "custom.json"
    source.write_text(json.dumps(_negated_star(1)))
    rc, out, err = run_cli(capsys, "--cmd", cmd, "--preset", "custom", "--file", str(source))
    assert rc == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    payload = json.loads(out)
    if cmd != "verify":
        assert payload["error"] == MIXED_SIGN
        return
    checks = payload["checks"]
    for name in ("bmatrix", "chain", "exchange"):
        assert checks[name] == "fail: " + MIXED_SIGN
    assert checks["first-column"] == "fail: first-column check fails at 1"
    failing = {name for name, result in checks.items() if result != "pass"}
    assert failing == {"bmatrix", "chain", "exchange", "first-column"}


# JSON true and false go in every integer and exponent field: a file that
# holds one anywhere is a configuration error (exit 2)
def holds_bool(v) -> bool:
    """Whether a JSON value holds true or false anywhere."""
    if isinstance(v, bool):
        return True
    if isinstance(v, dict):
        v = list(v.values())
    return isinstance(v, (list, tuple)) and any(map(holds_bool, v))


FUZZ_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(10**15, 10**40).map(lambda x: x * (-1) ** (x % 2)),
    st.sampled_from(["", "x", "1/0", "1e3", "nan", " 1 ", "1/2/3", "0x10"]),
    st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
)


@st.composite
def fuzzed_lambda(draw):
    """The 2x2 preset's lambda with one to three edits."""
    lam = [list(row) for row in GRID22["lambda"]]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "skew-pair", "diagonal", "ragged", "extra-row"]))
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if kind == "entry" and j < len(lam[i]):
            lam[i][j] = draw(FUZZ_ENTRY)
        elif kind == "skew-pair" and i != j and max(i, j) < min(map(len, lam[:4])):
            x = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
            lam[i][j], lam[j][i] = str(x), str(-x)
        elif kind == "diagonal" and i < len(lam[i]):
            lam[i][i] = draw(FUZZ_ENTRY)
        elif kind == "ragged":
            del lam[i][j:]
        elif kind == "extra-row":
            lam.append(list(lam[i]))
    return lam


# roots stay small: the cost of the PBW layer grows with the root
FUZZ_ROOT = st.one_of(
    st.none(),
    st.integers(-2, 24),
    st.floats(min_value=-24, max_value=24),
    st.sampled_from(["4", "x", "", [4], {"4": 1}, True, float("nan"), float("inf")]),
)


@given(fuzzed_lambda(), FUZZ_ROOT)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_custom_lambda_and_root_fuzz(capsys, tmp_path, lam, root):
    data = {**GRID22, "lambda": lam}
    if root is None:
        del data["root"]
    else:
        data["root"] = root
    source = tmp_path / "fuzz.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "--cmd", "bmatrix", "--preset", "custom", "--file", str(source))
    assert "Traceback" not in err
    assert rc == 2 or not holds_bool(data)
    if rc == 2:
        assert out == "" and err.startswith("qcluster:") and err.count("\n") == 1
    else:
        assert rc in (0, 1) and err == ""
        payload = json.loads(out)
        assert (rc == 1) == ("error" in payload)


FUZZ_COEFF_VALUE = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10**15, 10**40).map(lambda x: x * (-1) ** (x % 2)),
    st.sampled_from(["0", "1/0", "", "x", "1.5", "nan"]),
    st.none(),
)
FUZZ_COEFF_EXPONENT = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["1/2", "1.5", "x", "", "1e3", " 2"]),
)


# the preset's coefficient -(q - q^-1) scaled by a fuzzed factor
SCALED_QDIFF = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    lambda x: {"2": str(-x), "-2": str(x)}
)


@given(
    st.one_of(
        st.dictionaries(FUZZ_COEFF_EXPONENT, FUZZ_COEFF_VALUE, max_size=3),
        SCALED_QDIFF,
        FUZZ_COEFF_VALUE,
    )
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_custom_delta_fuzz(capsys, tmp_path, coeff):
    """The 2x2 preset with its one derivation coefficient replaced."""
    mono = GRID22["delta"]["3,0"][0][0]
    data = {**GRID22, "delta": {"3,0": [[mono, coeff]]}}
    source = tmp_path / "fuzz.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "--cmd", "bmatrix", "--preset", "custom", "--file", str(source))
    assert "Traceback" not in err
    assert rc == 2 or not holds_bool(data)
    if rc == 2:
        assert out == "" and err.startswith("qcluster:") and err.count("\n") == 1
    else:
        assert rc in (0, 1) and err == ""
        payload = json.loads(out)
        assert (rc == 1) == ("error" in payload)


# FUZZ_ENTRY without its huge integers.  At a derivation stage the torus
# condition now rejects any lambda_diag but the one it forces (10**15 is
# tested in test_orealgebra); a consistent huge exponent would still cost
# time and memory linear in it in the prime recursion
FUZZ_EXPONENT = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "1/0", "1e3", "nan", " 1 ", "1/2/3", "0x10"]),
    st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
)
FUZZ_EXPONENTS = st.one_of(
    st.none(),
    st.lists(FUZZ_EXPONENT, max_size=5),
    # one exponent per generator, as the preset's lists have
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-3, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
            st.booleans(),
        ),
        min_size=4,
        max_size=4,
    ),
    st.text(max_size=5),
    st.integers(-2, 2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=4),
)


@given(FUZZ_EXPONENTS, FUZZ_EXPONENTS, st.sampled_from(["primes", "bmatrix"]))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_custom_diag_and_star_fuzz(capsys, tmp_path, diag, star, cmd):
    """The 2x2 preset with its lambda_diag and lambda_star replaced: the
    diagonal scalars reach the prime recursion, the squared ones the
    exchange-matrix solve."""
    data = {**GRID22, "lambda_diag": diag, "lambda_star": star}
    source = tmp_path / "fuzz.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "--cmd", cmd, "--preset", "custom", "--file", str(source))
    assert "Traceback" not in err
    assert rc == 2 or not holds_bool(data)
    if rc == 2:
        assert out == "" and err.startswith("qcluster:") and err.count("\n") == 1
    else:
        assert rc in (0, 1) and err == ""
        payload = json.loads(out)
        assert (rc == 1) == ("error" in payload)


FUZZ_NAME = st.one_of(
    st.text(max_size=3),
    st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=1),
)
FUZZ_NAMES = st.one_of(
    st.none(),
    st.lists(FUZZ_NAME, min_size=4, max_size=4),
    st.lists(FUZZ_NAME, max_size=5),
    st.lists(st.text(max_size=3), min_size=4, max_size=4),
    st.text(max_size=5),
    st.integers(-2, 2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=4),
)
FUZZ_ETA = st.one_of(
    st.none(),
    st.lists(FUZZ_ENTRY, max_size=5),
    # level-set labels of the right length: the preset's partition or another
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.booleans()), min_size=4, max_size=4),
    st.text(max_size=5),
    st.integers(-2, 2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=4),
)


@given(FUZZ_NAMES, FUZZ_ETA, st.sampled_from(["primes", "verify"]))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_custom_names_and_eta_fuzz(capsys, tmp_path, names, eta, cmd):
    """The 2x2 preset with its names and declared level sets replaced; eta
    reaches the ranged recursion of the intervals and the first-column
    windows through verify."""
    data = {**GRID22, "names": names, "eta": eta}
    source = tmp_path / "fuzz.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "--cmd", cmd, "--preset", "custom", "--file", str(source))
    assert "Traceback" not in err
    assert rc == 2 or not holds_bool(data)
    if rc == 2:
        assert out == "" and err.startswith("qcluster:") and err.count("\n") == 1
    else:
        assert rc in (0, 1) and err == ""
        payload = json.loads(out)
        # verify reports failed checks under "ok"; a failed body sets "error"
        assert (rc == 1) == ("error" in payload or payload.get("ok") is False)


# one weight coordinate or monomial exponent: small integers, and what a
# JSON file may hold instead
FUZZ_SMALL = st.one_of(
    st.integers(-2, 3),
    st.sampled_from(["1", "1/2", "x", "", "1e3"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e17, -1e17, 1.0, 0.0]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 1), max_size=2),
)
# weights under which the preset's derivation stays homogeneous: integer
# functionals of the preset's weights, one per coordinate
PLAUSIBLE_WEIGHTS = st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3),
    st.sampled_from([1, 10**17]),
).map(
    lambda ms: [
        [ms[1] * sum(a * b for a, b in zip(w, col)) for col in ms[0]]
        for w in GRID22["weights"]
    ]
)
# a key "k,j" with j < k and a monomial on x_0..x_(k-1)
PLAUSIBLE_ENTRY = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.integers(0, k - 1).map(lambda j: f"{k},{j}"),
        st.lists(st.integers(0, 2), min_size=k, max_size=k).map(
            lambda f: f + [0] * (4 - len(f))
        ),
    )
)


@st.composite
def fuzzed_weights(draw):
    """The 2x2 preset's weights with one to three edits, or another value."""
    if draw(st.booleans()):
        return draw(st.one_of(
            st.none(),
            st.text(max_size=5),
            st.integers(-2, 2),
            st.lists(st.lists(FUZZ_SMALL, max_size=5), max_size=5),
            st.lists(st.text(max_size=4), min_size=4, max_size=4),
            st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=4),
            # float forms of plausible weights, which once loaded as integers
            PLAUSIBLE_WEIGHTS.map(lambda ws: [[float(x) for x in w] for w in ws]),
        ))
    weights = [list(w) for w in GRID22["weights"]]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 4))
        if not isinstance(weights[i], list):
            continue
        if j < len(weights[i]):
            weights[i][j] = draw(FUZZ_SMALL)
        elif draw(st.booleans()):
            weights[i] = draw(st.one_of(st.text(max_size=4), FUZZ_SMALL))
        else:
            del weights[i][:j]
    return weights


FUZZ_DELTA_ENTRY = st.tuples(
    st.one_of(
        st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda kj: "%d,%d" % kj),
        st.sampled_from(["3,0,1", "3", " 3,0", "3.0,0", "a,b", "", ",", "1_0,0", "03,00"]),
    ),
    st.one_of(
        # the preset's monomial 0110 with one entry changed
        st.tuples(st.integers(0, 3), FUZZ_SMALL).map(
            lambda e: [e[1] if t == e[0] else x for t, x in enumerate((0, 1, 1, 0))]
        ),
        st.lists(st.integers(0, 2), max_size=5),
        st.sampled_from(["0110", "0,1,1,0", "", [], {"1": 1}, [[0, 1], [1, 0]], None, 3]),
    ),
)


@given(
    st.one_of(
        # files that load more often than not: they reach the recursion
        st.tuples(PLAUSIBLE_WEIGHTS, st.just([])),
        # under zero weights every monomial is homogeneous
        st.tuples(
            st.sampled_from([[[0, 0]] * 4, [[]] * 4]),
            st.lists(PLAUSIBLE_ENTRY, min_size=1, max_size=2),
        ),
        st.tuples(
            st.one_of(PLAUSIBLE_WEIGHTS, fuzzed_weights()),
            st.lists(st.one_of(PLAUSIBLE_ENTRY, FUZZ_DELTA_ENTRY), max_size=2),
        ),
    ),
    st.sampled_from(["bmatrix", "chain"]),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_custom_weights_and_delta_fuzz(capsys, tmp_path, file, cmd):
    """The 2x2 preset with its weights replaced and derivation entries added
    or replaced under fuzzed keys and monomials, each with the preset's
    coefficient."""
    weights, entries = file
    coeff = GRID22["delta"]["3,0"][0][1]
    delta = {**GRID22["delta"], **{key: [[mono, coeff]] for key, mono in entries}}
    data = {**GRID22, "weights": weights, "delta": delta}
    source = tmp_path / "fuzz.json"
    source.write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, "--cmd", cmd, "--preset", "custom", "--file", str(source))
    assert "Traceback" not in err
    assert rc == 2 or not holds_bool(data)
    if rc == 2:
        assert out == "" and err.startswith("qcluster:") and err.count("\n") == 1
    else:
        assert rc in (0, 1) and err == ""
        payload = json.loads(out)
        assert (rc == 1) == ("error" in payload)
