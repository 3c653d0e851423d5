"""Run one library Schubert sweep and print its result as one JSON line.

Usage: python3 perfbench/sweep.py TYPE RANK MAX_LEN   (qcluster importable)

Exit status 0 when every reduced word of length <= MAX_LEN is compatible,
1 otherwise.
"""

import json
import sys

from qcluster import schubertdata


def main(argv) -> int:
    letter, rank, max_len = argv
    # Looked up on the module so that a traced run sees its wrapper.
    checked, failures = schubertdata.compatibility_sweep(
        schubertdata.CartanData(letter, int(rank)), int(max_len)
    )
    result = {
        "type": f"{letter}{rank}",
        "max_len": int(max_len),
        "checked": checked,
        "failures": [list(word) for word, _ in failures],
    }
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
