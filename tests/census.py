"""A census of the test suite: the source lines no test runs, and the named
faults no test catches.  Standard library only, beside pytest, which runs
the tests; pytest does not collect this file.  Needs Python 3.11 or later
(``co_qualname``).

Run from the repository root:

    python tests/census.py lines    # about 2 minutes on 2 vCPUs
    python tests/census.py mutants  # about 1 minute

``lines`` runs tier-1 in this process under a line trace limited to
src/qcluster, then, in the same process and through ``cli.main``, every
request shape of perfbench/workloads.py.
It prints, per module, the executable lines (read from the ``co_lines`` of
every code object of the module) that ran in neither.  A line that no test
can reach is listed in UNRUN with its reason and printed as known; the exit
status is 1 when an unrun line has no reason there.

``mutants`` applies each edit of MUTANTS to a copy of src and tests in a
temporary directory and runs there the test files that should catch it.
A mutant is killed when those tests fail; a survivor is printed, and the
exit status is 1 unless every mutant is killed or listed in EQUIVALENT.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcluster"


# -- lines ---------------------------------------------------------------------

# (module, function, the line's text), or (module, function) for every line
# of the function -> why no test runs it.  A listed line that runs, or is
# gone, is printed as stale, so the list shrinks with the code.
GY = "excluded by the Goodearl-Yakimov theorem on a certified input"
UNRUN = {
    ("cli", "<module>", "except ImportError:  # an interpreter built without the C accelerator"):
        "every CPython build that CI runs has json's C accelerator",
    ("cli", "<module>", "from json.encoder import py_encode_basestring_ascii as _quote"):
        "every CPython build that CI runs has json's C accelerator",
    ("cli", "<module>", "entry()"): "runs as python -m qcluster.cli, in child processes only",
    ("cli", "entry"):
        "ends its process by os._exit; tests/test_cli.py runs it in child "
        "processes, which the trace does not follow",
    ("exchangesolver", "_window",
     'raise ValueError(f"window [{i},{top}] has other level sets than the algebra")'):
        GY + ": a window of a CGL extension has the restricted level sets",
    ("orealgebra", "apply_sigma_delta",
     'raise ValueError(f"derivation {k} left the subalgebra")'):
        "x_k a - sigma_k(a) x_k lies below x_k, as each delta_k(x_j) does "
        "(checked at load); a guard on the rewriting core",
    ("primeseq", "_primes",
     'raise ValueError(f"stage {t}: delta_{t} moves no trailing prime")'):
        GY + " (_primes' docstring); tests/scan.py keeps the scan",
    ("primeseq", "_span",
     'raise ValueError(f"interval prime [{i},{top}] has a wrong leading term")'):
        GY + ": _primes checks the range's leading terms, and the range has "
        "the restricted level sets",
    ("primeseq", "u_element",
     'raise ValueError(f"difference element [{i},{top}] leaks support")'):
        GY + ": u is supported strictly inside its window",
    ("primeseq", "window", 'raise ValueError(f"difference element [{i}, m={m}] vanishes")'):
        GY + ": u is a nonzero normal element",
    ("schubertdata", "WordData.__init__",
     'raise AssertionError("repeated root in a positivity-checked word")'):
        "the roots of a reduced word are distinct (Bourbaki, Lie VI 1.6)",
}


def _executable(path: Path) -> dict:
    """{line number: qualified name of the outermost code object holding
    it} over the lines of path that hold bytecode."""
    out: dict = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        name = code.co_qualname
        for _, _, line in code.co_lines():
            # line 0 is the RESUME that opens a module's code, no source line
            if line and line not in out:
                out[line] = name
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def _workload_requests() -> tuple:
    """The argv of every CLI request shape of the benchmark workloads at
    seed 1, and their Schubert sweeps as (type, rank, length)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, requests_for
    finally:
        sys.path.pop(0)
    cli, sweeps = [], []
    for name in WORKLOADS:
        for req in requests_for(name, 1):
            if req.kind == "cli":
                cli.append(list(req.args))
            else:
                sweeps.append((req.args[0], int(req.args[1]), int(req.args[2])))
    return cli, sweeps


def _run_requests() -> None:
    """Every request of _workload_requests, in process."""
    from qcluster import cli, schubertdata

    workload, sweeps = _workload_requests()
    for argv in workload:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise SystemExit(f"census: {' '.join(argv)} exited {code}")
    for letter, rank, length in sweeps:
        schubertdata.compatibility_sweep(schubertdata.CartanData(letter, rank), length)


def lines() -> int:
    """The lines mode (module docstring)."""
    hits: set = set()
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pytest

    start = time.perf_counter()
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"])
        if status != 0:
            print(f"census: tier-1 exited {status}; the census below is partial")
        _run_requests()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start

    total = unrun_total = unexplained = 0
    seen = set()
    report = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines_ = _executable(path)
        unrun = sorted(k for k in lines_ if (str(path), k) not in hits)
        total += len(lines_)
        unrun_total += len(unrun)
        known, last = [], None
        for k in unrun:
            key = (path.stem, lines_[k], source[k - 1].strip())
            key = key if key in UNRUN else key[:2]
            seen.add(key)
            if key in UNRUN:
                why = "" if key == last else f"  -- {UNRUN[key]}"
                known.append(f"    {k}: {source[k - 1].strip()}{why}")
                last = key
            else:
                unexplained += 1
                known.append(f"  ! {k} in {key[1]}: {source[k - 1].strip()}")
        report.append(f"{path.stem}: {len(unrun)} of {len(lines_)} lines unrun")
        report += known
    stale = [key for key in UNRUN if key not in seen]
    print("\n".join(report))
    for key in stale:
        print(f"stale UNRUN entry (the line runs or is gone): {key}")
    print(
        f"census: {unrun_total} of {total} executable lines unrun, "
        f"{unexplained} without a reason; {elapsed:.0f} s"
    )
    return 1 if unexplained or status else 0


# -- mutants -------------------------------------------------------------------

# name -> (file in src/qcluster, text, its replacement, the test files that
# should catch the edit).  Each text occurs once in its file.
MUTANTS = {
    "span-pair mirror sign": (
        "primeseq.py", "table[b.id][a.id] = -x", "table[b.id][a.id] = x",
        ["tests/test_xicombinatorics.py"],
    ),
    "_div_laurent ignores its remainder": (
        "scalarfield.py", "return None if rem else Coeff._make(",
        "return Coeff._make(", ["tests/test_scalarfield.py"],
    ),
    "reindex_frame reads perm as its inverse": (
        "qtorus.py", "    emat = frame.emat\n    num = emat.num\n",
        "    perm = sorted(range(frame.n), key=perm.__getitem__)\n"
        "    emat = frame.emat\n    num = emat.num\n",
        ["tests/test_qtorus.py"],
    ),
    "frame_value drops the symmetrization scalar": (
        "qtorus.py", "out = (factor.scaled(scalar) if s else factor) if out is None",
        "out = factor if out is None", ["tests/test_qtorus.py"],
    ),
    "_normalized without lo": (
        "primeseq.py", "nu, pad = pres.nu(), (0,) * lo", "nu, pad = pres.nu(), ()",
        ["tests/test_primeseq.py"],
    ),
    "generator_scalars without pi^-1": (
        "primeseq.py", "_gamma_power(gamma, f, one) * pi.inv() * target",
        "_gamma_power(gamma, f, one) * target", ["tests/test_primeseq.py"],
    ),
    "rescaled delta without gamma^-f": (
        "primeseq.py", "c * gamma[k] * gamma[j] * _gamma_power(gamma, f, one).inv()",
        "c * gamma[k] * gamma[j]", ["tests/test_primeseq.py"],
    ),
    "_CHECKS['chain'] bound at import": (
        "cli.py", '"chain": lambda s: chain_walk(s),', '"chain": chain_walk,',
        ["tests/test_cli.py"],
    ),
    "a stage's leading coefficient goes unchecked": (
        "primeseq.py", "if f != e or not lead.is_one:", "if f != e:",
        ["tests/test_primeseq.py"],
    ),
    "an empty den reads as 1": (
        "scalarfield.py", "d = {0: 1} if den is None else", "d = {0: 1} if not den else",
        ["tests/test_scalarfield.py"],
    ),
    "u_element's scalar with the opposite sign": (
        "primeseq.py", "pbw_mul(c, d).scaled(Coeff.q_power(scal,",
        "pbw_mul(c, d).scaled(Coeff.q_power(-scal,", ["tests/test_primeseq.py"],
    ),
    "interval_scalar_target without -e_i": (
        "primeseq.py", "    g[i] -= 1\n", "", ["tests/test_primeseq.py"],
    ),
    "certify_btilde skips the one-sign check": (
        "exchangesolver.py", "    _require_one_sign(lam_star, ex)\n    return bmat",
        "    return bmat", ["tests/test_exchangesolver.py"],
    ),
    "compatibility_check skips the off-diagonal pairings": (
        "mutation.py", "            elif e != 0:", "            elif False:",
        ["tests/test_mutation.py"],
    ),
    "mutate_matrix without the sign-split term": (
        "mutation.py", "x + (abs(b) * col[k] + b * abs(col[k])) // 2", "x",
        ["tests/test_mutation.py"],
    ),
    "symmetrization with the opposite sign": (
        "bicharacter.py", "total -= fj * sum(row[k] * fk for k, fk in support[a + 1 :])",
        "total += fj * sum(row[k] * fk for k, fk in support[a + 1 :])",
        ["tests/test_bicharacter.py"],
    ),
    "_normalize keeps a negative denominator": (
        "scalarfield.py", "    if den[0] < 0:", "    if False:", ["tests/test_scalarfield.py"],
    ),
    "span pairing rows formed on every pair": (
        "primeseq.py", "    if not a.row:\n", "    if True:\n", ["tests/test_xicombinatorics.py"],
    ),
    "the empty permutation has no interval prefixes": (
        "xicombinatorics.py", "if not n:  # the empty permutation", "if False:  # the empty permutation",
        ["tests/test_xicombinatorics.py"],
    ),
}

# name -> why no test can tell the mutant from the program
EQUIVALENT = {
    "span pairing rows formed on every pair":
        "a span's row is den * vec^T nu, fixed by pres and the span; only the time changes",
}


def _run_mutant(name, tmp: Path) -> str:
    """'killed', 'survived' or why the edit does not apply, for one mutant
    on a fresh copy of src and tests under tmp."""
    module, text, repl, files = MUTANTS[name]
    copy = tmp / "repo"
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=skip)
    path = copy / "src" / "qcluster" / module
    source = path.read_text()
    if source.count(text) != 1:
        return f"stale: the text occurs {source.count(text)} times in {module}"
    path.write_text(source.replace(text, repl))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *files]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return f"killed: {failed[0] if failed else f'pytest exit {done.returncode}'}"


def mutants() -> int:
    """The mutants mode (module docstring)."""
    bad = 0
    start = time.perf_counter()
    for name in MUTANTS:
        t = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            verdict = _run_mutant(name, Path(tmp))
        if verdict == "survived" and name in EQUIVALENT:
            verdict = f"survived, equivalent: {EQUIVALENT[name]}"
        elif not verdict.startswith("killed"):
            bad += 1
        print(f"{name}: {verdict} ({time.perf_counter() - t:.0f} s)", flush=True)
    print(f"census: {len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed or equivalent; "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


def main(argv) -> int:
    modes = {"lines": lines, "mutants": mutants}
    if len(argv) != 1 or argv[0] not in modes:
        print(__doc__)
        return 2
    return modes[argv[0]]()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
