"""Record the stdout digest of every request of the committed seeds,
in every variant.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right: the gate
then holds every later commit to byte-identical output on these requests.
Requests that fail the other output checks are reported, not recorded.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, Runner
from workloads import COMMITTED_SEEDS, DIGESTS_FILE, VARIANTS, WORKLOADS
from workloads import check_output, digest, requests_for


def main() -> int:
    unique = {}
    for workload in sorted(WORKLOADS):
        for seed in COMMITTED_SEEDS:
            for variant in range(VARIANTS):
                for req in requests_for(workload, seed, variant):
                    unique.setdefault(req.key, req)
    digests, bad = {}, 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        for key, req in sorted(unique.items()):
            o = runner.request(req)
            why = check_output(req, o.code, o.stdout, {})
            if why is None:
                digests[key] = digest(o.stdout)
            else:
                bad += 1
                print(f"not recorded, {why}: {key}", file=sys.stderr)
    with open(DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests, {bad} requests failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
