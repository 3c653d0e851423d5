"""Seeded request lists for the benchmark workloads, and the output gate.

A request is either a qcluster CLI invocation (``kind == "cli"``, run as
``python3 -m qcluster.cli ARGS``) or a library Schubert sweep (``kind ==
"sweep"``, run as ``python3 perfbench/sweep.py TYPE RANK MAX_LEN``).  The
program under test sees only the generated argv; the seed never reaches it
except as the ``--seed`` of a verify request.

Each workload's list holds a fixed set of request shapes in a shuffled
order, with seeded parameters (verify seeds, mutation directions).  A run
makes several passes; pass ``p`` uses the list of variant ``p % VARIANTS``
of the seed, so a shape's median over the passes is taken over several
parameter draws and one costly draw moves it little.  Every shape occurs
once per list, and no request takes much over 3 s.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Seeds whose request outputs are pinned in digests.json, for every variant.
COMMITTED_SEEDS = tuple(range(1, 11))
VARIANTS = 8

# Exchangeable directions of the identity frame of the quantum-matrix
# preset, and the mutation sequence lengths per shape.  A 4x4 walk that
# mutates some vertex twice can take from 25 s to over a minute (cluster
# variables grow fast), so 4x4 walks visit each vertex at most once.
EXCHANGEABLE = {
    (3, 4): (0, 1, 2, 4, 5, 6),
    (4, 4): (0, 1, 2, 4, 5, 6, 8, 9, 10),
}
MUTATE_LENGTHS = {(3, 4): (12, 16), (4, 4): (4, 6)}

# Reduced-word counts of compatibility_sweep(CartanData(t, r), L).  The
# first five come from the acceptance battery, A5/7 and D4/9 were measured.
SWEEP_COUNTS = {
    ("A", 4, 8): 1524,
    ("A", 5, 7): 6209,
    ("B", 3, 8): 166,
    ("C", 3, 8): 166,
    ("D", 4, 8): 1852,
    ("D", 4, 9): 3202,
    ("G", 2, 8): 12,
}


@dataclass(frozen=True)
class Request:
    kind: str  # "cli" or "sweep"
    args: Tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)

    def label(self) -> str:
        """The request shape without seeded parameters, for per-kind stats."""
        if self.kind == "sweep":
            return "sweep " + "/".join(self.args)
        a = self.args
        cmd = a[a.index("--cmd") + 1]
        shape = f"{a[a.index('--m') + 1]}x{a[a.index('--n') + 1]}"
        label = f"{cmd} {shape}"
        if cmd == "mutate":
            label += f" len{len(a) - a.index('--mutations') - 1}"
        return label


def _cli(cmd: str, m: int, n: int, *extra: str) -> Request:
    return Request("cli", ("--cmd", cmd, "--m", str(m), "--n", str(n)) + extra)


def _directions(rng: random.Random, choices, length: int) -> List[int]:
    """Seeded permutations of the directions, concatenated and cut to
    length, never repeating a direction immediately (that would undo it)."""
    out: List[int] = []
    while len(out) < length:
        block = list(choices)
        rng.shuffle(block)
        if out and block[0] == out[-1]:
            block.append(block.pop(0))
        out += block
    return out[:length]


def _chain(rng: random.Random) -> List[Request]:
    # Chain walks of 3x4 and 4x3 take 7-10 s each: too few repeats fit in
    # a run for a steady median, so the walks are 3x3, 2x4 and 4x2.
    return [
        _cli("chain", 3, 3),
        _cli("chain", 2, 4),
        _cli("chain", 4, 2),
        _cli("verify", 3, 3, "--seed", str(rng.randrange(10**6))),
    ]


def _pbw(rng: random.Random) -> List[Request]:
    # intervals and bmatrix at 5x5 take over 5 s each; primes 5x5 keeps the
    # largest prime computation in the list.
    return [
        _cli(cmd, m, n)
        for m, n in ((4, 5), (5, 4))
        for cmd in ("primes", "intervals", "bmatrix")
    ] + [_cli("primes", 5, 5)]


def _seeds(rng: random.Random) -> List[Request]:
    reqs = []
    for (m, n), ex in EXCHANGEABLE.items():
        for length in MUTATE_LENGTHS[m, n]:
            dirs = [str(k) for k in _directions(rng, ex, length)]
            reqs.append(_cli("mutate", m, n, "--mutations", *dirs))
    for t, r, length in SWEEP_COUNTS:
        reqs.append(Request("sweep", (t, str(r), str(length))))
    return reqs


WORKLOADS = {"chain": _chain, "pbw": _pbw, "seeds": _seeds}


def requests_for(workload: str, seed: int, variant: int = 0) -> List[Request]:
    """The workload's request list for this seed and variant: same seed and
    variant, same list."""
    rng = random.Random(f"{workload}:{seed}:{variant}")
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_output(
    req: Request, code: int, stdout: bytes, digests: Dict[str, str]
) -> Optional[str]:
    """Why the request's output is wrong, or None when it passes the gate."""
    if code != 0:
        return f"exit status {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if req.kind == "sweep":
        want = SWEEP_COUNTS[(req.args[0], int(req.args[1]), int(req.args[2]))]
        if payload.get("checked") != want:
            return f"sweep checked {payload.get('checked')} words, want {want}"
        if payload.get("failures"):
            return f"sweep reports failures: {payload['failures'][:3]}"
    else:
        cmd = req.args[req.args.index("--cmd") + 1]
        if payload.get("command") != cmd or "error" in payload:
            return f"bad payload: {payload.get('error')}"
        if cmd == "bmatrix" and payload.get("crosscheck") is not True:
            return "bmatrix crosscheck against the closed form is not true"
        if cmd == "verify" and payload.get("ok") is not True:
            return f"verify not ok: {payload.get('checks')}"
        if cmd == "chain" and "mutations" not in payload:
            return "chain payload lacks its step record"
        if cmd == "mutate":
            dirs = [int(x) for x in req.args[req.args.index("--mutations") + 1:]]
            if [s["direction"] for s in payload.get("trace", [])] != dirs:
                return "mutate trace does not follow the requested directions"
    want = digests.get(req.key)
    if want is not None and digest(stdout) != want:
        return "stdout digest differs from the recorded one"
    return None
