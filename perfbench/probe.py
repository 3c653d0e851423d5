"""Host-speed probe: a fixed standard-library workload that never changes.

Usage: python3 perfbench/probe.py   (prints one JSON line)

The benchmark runs it in a fresh interpreter after every request and
scales its timings by how long the probe took, so that a shared host
slowing down or speeding up between runs does not read as a change of
qcluster.  Like a request, it starts an interpreter, imports modules and
does exact Fraction and dict work; it uses nothing from qcluster, so
changing qcluster cannot change it.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as a CLI pays)
import dataclasses  # noqa: F401
import json
import random
import statistics  # noqa: F401
from fractions import Fraction


def work() -> int:
    rng = random.Random(0)
    n = 10
    a = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(n)]
         for _ in range(n)]
    prod = a
    for _ in range(2):
        prod = [[sum((prod[i][k] * a[k][j] for k in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    terms = {}
    for i in range(20000):
        key = (i % 97, i % 13, i % 7)
        terms[key] = terms.get(key, 0) + i
    return hash((prod[0][0], len(terms))) & 0xFFFF


if __name__ == "__main__":
    print(json.dumps({"probe": work()}))
