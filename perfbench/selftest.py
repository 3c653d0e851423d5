"""Self-tests of the benchmark harness (not of qcluster).

Usage, from the root of a checkout: python3 perfbench/selftest.py
(or python3 -m pytest perfbench/selftest.py).  Runs in a few seconds.
"""

import contextlib
import io
import sys
import tempfile
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import ROOT, Gate, Outcome, Runner, end_to_end  # noqa: E402
from tracer import LayerStats, Tracer, qcluster_modules  # noqa: E402
from workloads import (  # noqa: E402
    EXCHANGEABLE,
    VARIANTS,
    WORKLOADS,
    Request,
    requests_for,
)


def test_seed_fixes_the_request_list():
    for workload in WORKLOADS:
        first = requests_for(workload, 7)
        assert first == requests_for(workload, 7), workload
        assert first != requests_for(workload, 8), workload
        assert first != requests_for(workload, 7, 1), workload


def test_every_variant_holds_each_shape_once():
    for workload in WORKLOADS:
        shapes = sorted(r.label() for r in requests_for(workload, 3))
        assert len(set(shapes)) == len(shapes), workload
        for variant in range(1, VARIANTS):
            got = sorted(r.label() for r in requests_for(workload, 3, variant))
            assert got == shapes, (workload, variant)


def test_mutation_directions_are_valid():
    for seed in range(20):
        for req in requests_for("seeds", seed, seed % VARIANTS):
            if req.kind != "cli":
                continue
            a = req.args
            shape = (int(a[a.index("--m") + 1]), int(a[a.index("--n") + 1]))
            dirs = [int(x) for x in a[a.index("--mutations") + 1:]]
            assert set(dirs) <= set(EXCHANGEABLE[shape]), req
            assert all(x != y for x, y in zip(dirs, dirs[1:])), req


def _snapshot():
    import qcluster.cli  # noqa: F401  (imports every qcluster module)

    snap = {}
    for name, mod in qcluster_modules().items():
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


def _lookup(key):
    obj = vars(qcluster_modules()[key[0]])[key[1]]
    return vars(obj)[key[2]] if len(key) == 3 else obj


def test_wrap_and_unwrap_restore_every_function():
    from qcluster.exchangesolver import btilde_for_tau
    from qcluster.orealgebra import quantum_matrix_preset
    from qcluster.xicombinatorics import identity_frame

    before = _snapshot()
    want = btilde_for_tau(identity_frame(quantum_matrix_preset(2, 3)))
    tracer = Tracer()
    tracer.install()
    try:
        changed = [k for k, v in before.items() if _lookup(k) is not v]
        assert ("qcluster.cli", "chain_walk") in changed
        assert ("qcluster.scalarfield", "Coeff", "__rmul__") in changed
        import qcluster.exchangesolver as es
        import qcluster.orealgebra as oa
        import qcluster.xicombinatorics as xc

        got = es.btilde_for_tau(xc.identity_frame(oa.quantum_matrix_preset(2, 3)))
    finally:
        tracer.uninstall()
    assert got == want
    assert "exchangesolver.btilde_for_tau" in tracer.names
    assert len(tracer.fid) > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_child_spans():
    stats = LayerStats()
    meta = {"names": ["a.f", "b.g"], "distinct": {}}
    # f spans [0, 10] and calls g twice, over [2, 5] and [6, 7], so f's
    # self time is 10 - 3 - 1 = 6.
    arrays = (
        array("i", [0, 1, 1]),
        array("i", [-1, 0, 0]),
        array("q", [0, 2, 6]),
        array("q", [10, 5, 7]),
    )
    stats.add(meta, arrays)
    assert stats.self_ns == {"a.f": 6, "b.g": 4}
    assert stats.total_ns == {"a.f": 10, "b.g": 4}
    assert stats.calls == {"a.f": 1, "b.g": 2}
    assert stats.module_self_share() == {"a": 0.6, "b": 0.4}


def test_metrics_use_shape_medians_and_scale_times_only():
    def o(seconds, rss_kb=1024):
        return Outcome(0, b"", b"", seconds, rss_kb)

    passes = [
        (0.0, [("a", o(1.0)), ("b", o(4.0, 2048))]),
        (0.0, [("b", o(2.0)), ("a", o(9.0))]),
        (0.0, [("a", o(2.0)), ("b", o(3.0))]),
    ]
    assert end_to_end(passes, [0.5, 0.1, 0.2], speed=2.0) == {
        "setup_s": 0.4,
        "wall_s": 10.0,
        "request_p50_s": 5.0,
        "request_tail_s": 6.0,
        "peak_rss_mb": 1.0,
    }


def test_wrong_digest_counts_as_failed():
    req = Request("cli", ("--cmd", "primes", "--m", "2", "--n", "2"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        o = runner.request(req)
        gate = Gate()
        gate.digests = {req.key: "0" * 64}
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert not gate.check(req, o)
        assert "digest differs" in err.getvalue()
        assert (gate.attempted, gate.failed) == (1, 1)
        gate.digests = {}
        assert gate.check(req, o)
        assert (gate.attempted, gate.failed) == (2, 1)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
