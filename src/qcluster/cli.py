"""Command line driver: run computations and verification suites, emit JSON.

Every command prints a single JSON document (schema field "schema": 1)
with sorted keys, so outputs are byte-stable for a fixed configuration
and seed.  Exit status 0 means success, 1 a failed check or computation,
2 a configuration problem.
"""

from __future__ import annotations

import argparse
import os
import sys
from argparse import Namespace
from functools import cached_property
from typing import List, Optional, Sequence

from .bicharacter import symmetrization
from .exchangesolver import (
    btilde_for_tau,
    certify_btilde,
    first_column_crosscheck,
    quantum_matrix_btilde,
)
from .mutation import (
    Seed,
    exchange_identity_holds,
    gplus,
    mutate_emat,
    mutate_matrix,
    mutate_seed,
    mutated_variable,
    random_compatible_pair,
    seed_from_pair,
)
from .orealgebra import (
    Presentation,
    pbw_mul,
    presentation_from_dict,
    quantum_matrix_preset,
)
from .primeseq import (
    PrimeSequence,
    compute_primes,
    generator_scalars,
    interval_prime,
    pi_f_data,
    rescale_generators,
    u_element,
)
from .qtorus import check_frame_identity, frame_value, reindex_frame
from .scalarfield import Coeff
from .schubertdata import CartanData, WordData
from .xicombinatorics import (
    frame_for_tau,
    gamma_chain,
    gamma_chain_swaps,
    interval_frame,
    window_support_vector,
)

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without the C accelerator
    from json.encoder import py_encode_basestring_ascii as _quote

SCHEMA = 1

PRESETS = ("quantum-matrices", "schubert", "custom")


class ConfigError(Exception):
    """Raised for problems with the requested configuration."""


def check_config(config: Namespace) -> None:
    """The rules between flags that argparse's choices cannot state, in
    the order they are checked: a request that breaks two is told of the
    first."""
    if config.preset == "schubert" and config.command not in (
        "bmatrix", "schubert", "verify",
    ):
        raise ConfigError(f"command {config.command!r} needs an algebra preset")
    if config.preset == "schubert" and not config.word:
        raise ConfigError("schubert preset needs --word")
    if config.preset == "custom" and not config.file:
        raise ConfigError("custom preset needs --file")
    if config.command == "schubert" and config.preset != "schubert":
        raise ConfigError("the schubert command needs --preset schubert")


class Session:
    """One request's input and the results its commands and checks share,
    each built once: run builds one per request and passes it to the
    command body.

    No cached_property or cache stores a raised exception, so every check
    that reads a failing member fails again, with the same message.
    """

    def __init__(self, config: Optional[Namespace], pres: Optional[Presentation] = None):
        self.config = config
        if pres is not None:
            self.pres = pres
        self._frames: dict = {}
        self._intervals: dict = {}

    @cached_property
    def pres(self) -> Presentation:
        """The algebra of a quantum-matrices or custom request."""
        config = self.config
        if config.preset == "quantum-matrices":
            if config.m < 1 or config.n < 1:
                raise ConfigError("--m and --n must be positive")
            return quantum_matrix_preset(config.m, config.n)
        import json  # only a --file request reads JSON

        try:
            with open(config.file, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read {config.file}: {e}")
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer literal past int's digit limit; a deep nesting of brackets
        # overflows the decoder's recursion
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"{config.file} is not valid JSON: {e}")
        try:
            return presentation_from_dict(data)
        except (KeyError, ValueError, TypeError, ArithmeticError) as e:
            raise ConfigError(f"bad presentation data: {e}")

    @cached_property
    def word(self) -> WordData:
        """The root system and reduced word of the schubert preset, validated."""
        config = self.config
        try:
            return WordData(CartanData(config.type, config.rank), config.word)
        except ValueError as e:
            raise ConfigError(str(e))

    @cached_property
    def primes(self) -> PrimeSequence:
        return compute_primes(self.pres)

    @cached_property
    def identity(self):
        """The identity frame, the first of the chain, and its exchange
        matrix: the one B-tilde solved by elimination; the chain walk
        carries it to the other frames by certified mutation."""
        tp = self.frame(0)
        return tp, btilde_for_tau(tp)

    @cached_property
    def taus(self) -> list:
        """The canonical permutation chain, the identity first."""
        return gamma_chain(self.pres.n)

    @property
    def frames(self) -> list:
        """The frames along the canonical permutation chain."""
        return [self.frame(t) for t in range(len(self.taus))]

    def frame(self, t: int):
        """Chain frame t, built on first use."""
        if t not in self._frames:
            self._frames[t] = frame_for_tau(self.pres, self.taus[t])
        return self._frames[t]

    def interval(self, i: int, m: int):
        """(top, u, pi, f) of the window from i to top = s^m(i): u_element
        and its leading coefficient and exponent, built on first use."""
        if (i, m) not in self._intervals:
            top = self.primes.eta_data.succ_power(i, m)
            u = u_element(self.pres, i, m)
            self._intervals[(i, m)] = (top, u, *pi_f_data(u, i, m))
        return self._intervals[(i, m)]


# -- serialization helpers ---------------------------------------------------


def term_list(elem) -> list:
    return [[list(f), repr(c)] for f, c in sorted(elem.terms.items())]


def expmat_rows(emat) -> list:
    return [[str(x) for x in row] for row in emat.rows]


def bmat_dict(bmat) -> dict:
    return {
        "n_rows": bmat.n_rows,
        "columns": {str(k): list(col) for k, col in bmat.cols.items()},
    }


# -- command bodies ----------------------------------------------------------


def cmd_primes(session: Session) -> dict:
    pres, seq = session.pres, session.primes
    ed = seq.eta_data
    primes = []
    for k in range(pres.n):
        primes.append(
            {
                "index": k,
                "name": pres.names[k],
                "terms": term_list(seq.y[k]),
                "normalized_terms": term_list(seq.ybar[k]),
                "recursion_coeff": repr(seq.c[k]) if k in seq.c else None,
            }
        )
    return {
        "eta": list(ed.eta),
        "pred": list(ed.p),
        "succ": list(ed.s),
        "rank": ed.rank(),
        "primes": primes,
    }


def cmd_intervals(session: Session) -> dict:
    pres, ed = session.pres, session.primes.eta_data
    entries = []
    for i in range(pres.n):
        for m in range(1, ed.o_plus[i] + 1):
            j, u, pi, f = session.interval(i, m)
            entries.append(
                {
                    "start": i,
                    "end": j,
                    "steps": m,
                    "prime_terms": term_list(interval_prime(pres, i, m)),
                    "u_terms": term_list(u),
                    "pi": repr(pi),
                    "f": list(f),
                }
            )
    return {"intervals": entries}


def cmd_bmatrix(session: Session) -> dict:
    config = session.config
    if config.preset == "schubert":
        data = session.word
        return {
            "bmatrix": bmat_dict(data.exchange_matrix()),
            "crosscheck": bool(data.compatibility().ok),
        }
    _, bmat = session.identity
    crosscheck = None
    if config.preset == "quantum-matrices":
        crosscheck = bmat == quantum_matrix_btilde(config.m, config.n)
    return {"bmatrix": bmat_dict(bmat), "crosscheck": crosscheck}


def cmd_frames(session: Session) -> dict:
    out = []
    for tp in session.frames:
        out.append(
            {
                "tau": list(tp.tau),
                "sigma": list(tp.sigma),
                "exchangeable": list(tp.ex),
                "images": [term_list(img) for img in tp.frame.images],
                "exponents": expmat_rows(tp.frame.emat),
            }
        )
    return {"frames": out}


def cmd_mutate(session: Session) -> dict:
    tp, bmat = session.identity
    seed = Seed(tp.frame, bmat)
    trace = []
    for k in session.config.mutations:
        if k not in seed.bmat.cols:
            raise ConfigError(f"direction {k} is not exchangeable")
        seed = mutate_seed(seed, k)
        trace.append(
            {
                "direction": k,
                "variable": term_list(seed.frame.images[k]),
                "bmatrix": bmat_dict(seed.bmat),
            }
        )
    return {
        "initial_bmatrix": bmat_dict(bmat),
        "trace": trace,
    }


def _require(ok, message: str) -> None:
    """An assert that python -O keeps."""
    if not ok:
        raise AssertionError(message)


def chain_walk(session: Session):
    """Verify the one-step laws along the canonical permutation chain of a
    session's presentation, on the session's frames, carrying the identity
    frame's exchange matrix along the chain.

    Returns a list of step records; raises AssertionError on a violation.

    A step that swaps positions of two different level sets leaves the
    frame as it is, so the matrix stays.  A mutation step at kb checks
    that the frame and the weights mutate, then certifies mutate_matrix of
    the carried matrix on the next frame (exchangesolver.certify_btilde,
    whose docstring proves it equal to btilde_for_tau there): the chain
    law "B-tilde mutates to the next frame" holds by that certificate.
    """
    pres = session.pres
    frames = session.frames
    _, bt = session.identity
    steps = []
    for t, pos in enumerate(gamma_chain_swaps(pres.n)):
        tp, tq = frames[t], frames[t + 1]
        fp, fq = tp.frame, tq.frame
        if tp.eta_tau[pos] != tp.eta_tau[pos + 1]:
            _require(fp.images == fq.images, f"step {t}: images moved")
            _require(fp.emat == fq.emat, f"step {t}: exponents moved")
            _require(tp.ex == tq.ex, f"step {t}: matrix moved")
            steps.append({"step": t, "mutated_at": None})
            continue
        kb = tp.sigma[pos]
        for j in range(pres.n):
            if j != kb:
                _require(fp.images[j] == fq.images[j], f"step {t}: image {j} moved")
        _require(exchange_identity_holds(fp, bt.cols[kb], kb, fq.images[kb]), (
            f"step {t}: exchange relation fails at {kb}"
        ))
        # bt is certified (or solved) on frame t, so the pair is compatible
        _require(mutate_emat(fp.emat, bt, kb) == fq.emat, (
            f"step {t}: exponent matrix does not mutate to the next frame"
        ))
        # the weight of the new image is W_t (-e_kb + [b_kb]_+)
        v = list(gplus(bt.cols[kb]))
        v[kb] -= 1
        weights = tp.image_weights
        moved = tuple(
            sum(x * w[c] for x, w in zip(v, weights)) for c in range(len(weights[kb]))
        )
        _require(tq.image_weights[kb] == moved, (
            f"step {t}: weight of image {kb} does not mutate to the next frame"
        ))
        bt = mutate_matrix(bt, kb)
        try:
            certify_btilde(tq, bt)
        except ValueError:
            raise AssertionError(
                f"step {t}: exchange matrix does not mutate to the next frame"
            ) from None
        steps.append({"step": t, "mutated_at": kb})
    return steps


def cmd_chain(session: Session) -> dict:
    steps = chain_walk(session)
    return {
        "steps": steps,
        "mutations": sum(1 for s in steps if s["mutated_at"] is not None),
    }


def cmd_schubert(session: Session) -> dict:
    data = session.word
    cd = data.cartan
    report = data.compatibility()
    return {
        "type": f"{cd.letter}{cd.rank}",
        "word": list(session.config.word),
        "roots": [list(b) for b in data.roots],
        "lengths": list(data.lengths),
        "bmatrix": bmat_dict(data.exchange_matrix()),
        "rmatrix": expmat_rows(data.frame_matrix()),
        "report": {
            "ok": report.ok,
            "columns": list(report.columns),
            "pairing_failures": [list(x) for x in report.pairing_failures],
            "grading_failures": list(report.grading_failures),
            "symmetrizable": report.symmetrizable,
        },
    }


# -- the verify suite --------------------------------------------------------


def _check_primes(s: Session):
    """The rank oracle; the rest of the check is loading the primes.

    primeseq._primes raises ValueError at every stage whose prime's leading
    term is not its chain monomial x^ebar_k with coefficient 1 (its ebar and
    the level-set data's are read off one predecessor list), and when the
    declared level sets disagree with the inferred ones; so such an input
    fails this check with that message, "fail: ValueError: stage ...".
    """
    config, rank = s.config, s.primes.eta_data.rank()
    if config.preset == "quantum-matrices":
        _require(rank == config.m + config.n - 1, "wrong number of chains")


def _check_intervals(s: Session):
    """The quantum-matrix closed forms of u(i, 1), then the rescaling.

    gamma is solved once, from the session's windows, and handed to
    rescale_generators.  When every gamma_i is 1, rescale_generators would
    build pres again (delta coefficients c gamma_k gamma_j / gamma**f = c),
    with the same primes, windows (pi, f) and targets; its check
    pi = q**S(j, f) at each j with s(j) is the equation gamma was solved
    from at i = s(j), as p(s(j)) = j: 1 = gamma_i = gamma_j**-1 gamma**f
    pi**-1 q**S = pi**-1 q**S.  So it holds, and only another gamma goes
    through rescale_generators and its second algebra.
    """
    config, pres = s.config, s.pres
    ed = s.primes.eta_data
    if config.preset == "quantum-matrices":
        n = config.n
        q = Coeff.q_power(1, pres.root)
        for i in range(pres.n):
            if ed.s[i] is None:
                continue
            want = pbw_mul(pres.gen(i + 1), pres.gen(i + n)).scaled(q)
            _, u, pi, f = s.interval(i, 1)
            _require(u == want, f"u at {i} is off")
            _require(pi == q, f"leading coefficient at {i} is off")
            expect_f = [int(t in (i + 1, i + n)) for t in range(pres.n)]
            _require(list(f) == expect_f, f"leading exponent at {i} is off")
    gamma = generator_scalars(pres, ed, lambda j: s.interval(j, 1)[2:])
    if not all(g.is_one for g in gamma):
        rescale_generators(pres, gamma)
        _require(config.preset != "quantum-matrices", "rescaling is not trivial")


def _check_bmatrix(s: Session):
    config = s.config
    _, bmat = s.identity
    if config.preset == "quantum-matrices":
        _require(bmat == quantum_matrix_btilde(config.m, config.n), (
            "solved matrix differs from the closed form"
        ))


def _check_exchange(s: Session):
    """Each mutated variable of the identity seed lies in the algebra.

    mutated_variable is the exact right quotient of the exchange sum by
    M(e_k): div_right ends only at a zero remainder, having subtracted
    c_g x^g M(e_k) for each quotient term, so by bilinearity (scalars are
    central) quotient * M(e_k) is the exchange sum, and an inexact division
    is a ValueError.  tests/test_cli.py keeps that product comparison
    (exchange_identity_holds) as the oracle.
    """
    config, pres = s.config, s.pres
    tp, bmat = s.identity
    var = {k: mutated_variable(tp.frame, bmat.cols[k], k) for k in bmat.ex}
    if config.preset == "quantum-matrices" and (config.m, config.n) == (2, 2):
        _require(var[0] == pres.gen(3), "2x2 mutation should produce the last generator")


def _check_coverage(s: Session):
    pres = s.pres
    images = [img for tp in s.frames for img in tp.frame.images]
    missing = [k for k in range(pres.n) if pres.gen(k) not in images]
    _require(not missing, f"generators {missing} never appear as cluster variables")


def _check_interval_identity(s: Session):
    pres = s.pres
    ed = s.primes.eta_data
    nu = pres.nu()
    for i in range(pres.n):
        for m in range(1, ed.o_plus[i] + 1):
            fr = interval_frame(pres, i, m)
            top, u, pi, f = s.interval(i, m)
            w = top - i + 1
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
            _require(check_frame_identity(fr, target, combos), (
                f"interval identity fails at ({i},{m})"
            ))
            dec = frame_value(fr, g).scaled(
                pi * Coeff.q_power(-symmetrization(nu, f), pres.root)
            )
            _require(u == dec, f"u decomposition fails at ({i},{m})")


def _check_first_column(s: Session):
    for i in s.primes.eta_data.exchangeable():
        f = s.interval(i, 1)[3]
        _require(first_column_crosscheck(s.pres, i, f), f"first-column check fails at {i}")


def _check_mutation_suite(s: Session):
    import random  # only this check draws random cases

    rng = random.Random(s.config.seed)
    for _ in range(25):
        n = rng.randint(1, 4)
        emat, bmat, _ = random_compatible_pair(rng, n)
        seed = seed_from_pair(emat, bmat)
        k = rng.choice(bmat.ex)
        s1 = mutate_seed(seed, k)
        _require(s1.pairings == seed.pairings, f"mutation at {k} moves the pairings")
        s2 = mutate_seed(s1, k)
        _require(s2.bmat == seed.bmat, f"twice at {k}: matrix moved")
        _require(s2.frame.emat == seed.frame.emat, f"twice at {k}: exponents moved")
        _require(s2.frame.images == seed.frame.images, f"twice at {k}: images moved")
        perm = list(range(2 * n))
        rng.shuffle(perm)
        re = reindex_frame(seed.frame, perm)
        g = tuple(rng.randint(-2, 2) for _ in range(2 * n))
        moved = tuple(g[perm[t]] for t in range(2 * n))
        same = frame_value(re, moved) == frame_value(seed.frame, g)
        _require(same, f"relabeling by {perm} moves the value at {list(g)}")


def _check_schubert_word(s: Session):
    report = s.word.compatibility()
    _require(report.ok, (
        f"compatibility fails: pairings {report.pairing_failures}, "
        f"gradings {report.grading_failures}"
    ))


_CHECKS = {
    "primes": _check_primes,
    "intervals": _check_intervals,
    "bmatrix": _check_bmatrix,
    "exchange": _check_exchange,
    "chain": chain_walk,
    "coverage": _check_coverage,
    "interval-identity": _check_interval_identity,
    "first-column": _check_first_column,
    "mutation-suite": _check_mutation_suite,
    "schubert-word": _check_schubert_word,
}


def verify_names(session: Session) -> List[str]:
    """The checks that apply to the session's input, loaded first.

    Unusable input is then a ConfigError, not a failure of every check.
    """
    if session.config.preset == "schubert":
        session.word  # raises ConfigError for an unusable word
        return ["schubert-word"]
    if not session.pres.symmetric:
        return ["primes", "bmatrix", "mutation-suite"]
    return [name for name in _CHECKS if name != "schubert-word"]


def _run_check(session: Session, name: str) -> str:
    try:
        _CHECKS[name](session)
    except AssertionError as e:
        return f"fail: {e}" if str(e) else "fail"
    except Exception as e:  # a crash is still a failed check
        return f"fail: {type(e).__name__}: {e}"
    return "pass"


def cmd_verify(session: Session) -> dict:
    checks = {name: _run_check(session, name) for name in verify_names(session)}
    return {"checks": checks, "ok": all(v == "pass" for v in checks.values())}


# -- driver ------------------------------------------------------------------

# the one list of commands: --cmd offers them in this order
_BODIES = {
    "primes": cmd_primes,
    "intervals": cmd_intervals,
    "bmatrix": cmd_bmatrix,
    "frames": cmd_frames,
    "mutate": cmd_mutate,
    "chain": cmd_chain,
    "schubert": cmd_schubert,
    "verify": cmd_verify,
}
COMMANDS = tuple(_BODIES)


def run(config: Namespace):
    """Execute one command of a build_parser() namespace, checked first by
    check_config; returns (exit status, payload dict)."""
    check_config(config)
    body = _BODIES[config.command]
    payload = {"schema": SCHEMA, "command": config.command, "preset": config.preset}
    if config.preset == "quantum-matrices":
        payload["shape"] = [config.m, config.n]
    try:
        payload.update(body(Session(config)))
    except AssertionError as e:
        payload["error"] = str(e) or "check failed"
        return 1, payload
    except (ValueError, ZeroDivisionError) as e:
        payload["error"] = f"{type(e).__name__}: {e}"
        return 1, payload
    code = 0
    if config.command == "verify" and not payload.get("ok"):
        code = 1
    if config.command == "schubert" and not payload["report"]["ok"]:
        code = 1
    if config.command == "bmatrix" and payload.get("crosscheck") is False:
        code = 1
    return code, payload


def encode(payload: dict) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2), built
    without the json package.

    With an indent, the standard library encodes in pure Python and is
    general; this covers only what a payload holds: dicts with str keys,
    lists, str, int, bool and None.  Any other type, a float or a tuple
    included, raises TypeError.  Strings are escaped by the same ASCII
    encoder json uses, and ints by int.__repr__, so the digit limit on
    int-to-str conversion applies as it does in json.
    """
    out = []
    put = out.append

    def value(o, pad):
        if type(o) is str:
            put(_quote(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif type(o) is int:
            put(int.__repr__(o))
        elif type(o) is list:
            if not o:
                put("[]")
                return
            inner = pad + "  "
            if all(type(x) is int for x in o):
                put(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{pad}]")
                return
            sep = "[" + inner
            for x in o:
                put(sep)
                value(x, inner)
                sep = "," + inner
            put(pad + "]")
        elif type(o) is dict:
            if not o:
                put("{}")
                return
            if any(type(k) is not str for k in o):
                raise TypeError("payload keys must be str")
            inner = pad + "  "
            sep = "{" + inner
            for k in sorted(o):
                put(f"{sep}{_quote(k)}: ")
                value(o[k], inner)
                sep = "," + inner
            put(pad + "}")
        else:
            raise TypeError(f"a payload holds no {type(o).__name__}: {o!r}")

    value(payload, "\n")
    return "".join(out)


def emit(payload: dict, out: Optional[str]):
    text = encode(payload) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {out}: {e}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcluster",
        description=(
            "Exact quantum cluster algebra computations on iterated skew "
            "polynomial algebras."
        ),
    )
    p.add_argument(
        "--cmd", dest="command", required=True, choices=COMMANDS,
        help="what to run",
    )
    p.add_argument("--preset", default="quantum-matrices", choices=PRESETS)
    p.add_argument("--m", type=int, default=2, help="matrix rows")
    p.add_argument("--n", type=int, default=2, help="matrix columns")
    p.add_argument("--type", default="A", help="root system letter")
    p.add_argument("--rank", type=int, default=2, help="root system rank")
    p.add_argument("--word", type=int, nargs="+", help="reduced word letters")
    p.add_argument("--file", help="custom presentation JSON file")
    p.add_argument(
        "--mutations", type=int, nargs="+", default=[],
        help="mutation directions for --cmd mutate",
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed for random cases")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = build_parser().parse_args(argv)
    try:
        code, payload = run(config)
        emit(payload, config.out)
    except ConfigError as e:
        print(f"qcluster: {e}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    """The console script: main(), then end the process without the
    interpreter's teardown once the output is flushed.

    Teardown frees every object and runs exit hooks, and a request needs
    neither.  Skipping it with os._exit is safe: qcluster registers no
    atexit handler, --out is closed by emit's with block, and no thread
    is left running, so a successful flush of stdout and stderr is the
    last thing teardown would have done that matters.  If a flush fails,
    say on a full disk, the process exits through sys.exit as main's
    callers always did, so the failed write is reported and never exits 0;
    an exception that escapes main() never reaches os._exit at all.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
