"""The qcluster benchmark: seeded workloads of real CLI requests.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain|pbw|seeds --seed N \
        --seconds S --trace 0|1

Every request runs in a fresh interpreter, one at a time (one client,
closed loop), with ``src`` on PYTHONPATH.  Each output passes the gate in
``workloads.check_output``; a request that fails it counts in ``failed``
and never stops the run.

``--trace 0`` runs whole passes over the workload's request list while
they fit in ``--seconds`` (at least one) and reports the end-to-end metrics
named in BENCHMARK.json, each built from every request shape's median
latency over the passes; pass ``p`` runs variant ``p % VARIANTS`` of the
seed's list.  Times are scaled by PROBE_REF_S over the run's median time
of ``probe.py``, a fixed workload run after every request, so that they
read as seconds on a host of the reference speed; the detail line also
gives them unscaled.  ``--trace 1`` runs one pass, each request first
untraced and then under ``tracer.py``, requires byte-identical stdout from
the two, and reports the per-layer metrics.  The last stdout line is the
result JSON; the line before it gives per-request detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
from tracer import LayerStats, load_spans  # noqa: E402
from workloads import (  # noqa: E402
    VARIANTS,
    WORKLOADS,
    Request,
    check_output,
    load_digests,
    requests_for,
)

SETUP_SAMPLES = 5  # at the start of a run; two more follow every pass
PROBE_SAMPLES = 5  # at the start of a run; one more follows every request
# Reported times are scaled to a host on which probe.py takes this long.
PROBE_REF_S = 0.15
REQUEST_TIMEOUT_S = 150
PROBE_STDOUT = b'{"probe": %d}\n' % probe.work()


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


class Runner:
    """Spawns one child at a time and times it from spawn to exit."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        # An installed qcluster has its bytecode compiled; so do requests here.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv) -> Outcome:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            watchdog.daemon = True
            watchdog.start()
            try:
                # wait4, not Popen.wait, to get the child's own rusage.
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_bytes(),
            seconds,
            usage.ru_maxrss,
        )

    def request(self, req: Request, trace_rid=None) -> Outcome:
        if req.kind == "cli":
            target = ["-m", "qcluster.cli"]
        else:
            target = [str(HERE / "sweep.py")]
        if trace_rid is not None:
            target = [
                str(HERE / "tracer.py"), self.spans_path(trace_rid),
                str(trace_rid), req.kind,
            ]
        return self.spawn([sys.executable] + target + list(req.args))

    def probe_sample(self) -> float:
        """Seconds to run probe.py, the fixed host-speed reference."""
        o = self.spawn([sys.executable, str(HERE / "probe.py")])
        if o.code != 0 or o.stdout != PROBE_STDOUT:
            raise RuntimeError(f"probe.py failed: {o.stderr[-500:]!r}")
        return o.seconds

    def spans_path(self, rid) -> str:
        return str(self.tmp / f"spans-{rid}")

    def warm(self):
        """Start once untimed, so that the bytecode cache is written."""
        self.setup_sample()

    def setup_sample(self) -> float:
        """Seconds to start an interpreter and import qcluster.cli."""
        o = self.spawn([sys.executable, "-c", "import qcluster.cli"])
        if o.code != 0:
            raise RuntimeError(f"import qcluster.cli failed: {o.stderr[-500:]!r}")
        return o.seconds


class Gate:
    """Counts attempted and failed requests; reports failures on stderr."""

    def __init__(self):
        self.digests = load_digests()
        self.attempted = 0
        self.failed = 0

    def check(self, req: Request, o: Outcome) -> bool:
        self.attempted += 1
        why = check_output(req, o.code, o.stdout, self.digests)
        if why is not None:
            self.fail(req, why, o)
        return why is None

    def fail(self, req: Request, why: str, o: Outcome):
        self.failed += 1
        tail = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"FAILED {req.key}: {why} {tail}", file=sys.stderr)


def run_untraced(runner, gate, workload, seed, seconds):
    """Whole passes while the next one is expected to fit in `seconds`;
    pass p runs the list of variant p % VARIANTS.  Set-up is timed at the
    start and after every pass, and the probe at the start and after every
    request, so that their medians, like the requests', span the whole run.
    Returns the passes, the set-up samples and the probe samples."""
    passes = []
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    probes = [runner.probe_sample() for _ in range(PROBE_SAMPLES)]
    t_start = time.perf_counter()
    while True:
        reqs = requests_for(workload, seed, len(passes) % VARIANTS)
        t0 = time.perf_counter()
        samples = []
        for req in reqs:
            o = runner.request(req)
            gate.check(req, o)
            samples.append((req.label(), o))
            probes.append(runner.probe_sample())
        setup += [runner.setup_sample(), runner.setup_sample()]
        passes.append((time.perf_counter() - t0, samples))
        longest = max(wall for wall, _ in passes)
        if time.perf_counter() - t_start + longest > seconds:
            return passes, setup, probes


def shape_medians(passes, stat):
    """Each request shape's median of `stat` over the run's passes."""
    by_shape = {}
    for _, samples in passes:
        for label, o in samples:
            by_shape.setdefault(label, []).append(stat(o))
    return {k: statistics.median(v) for k, v in sorted(by_shape.items())}


def end_to_end(passes, setup, speed=1.0):
    """Every metric is built from each request shape's median over the
    passes, so one slow moment of the host, or one costly draw of a seeded
    parameter, moves a single sample and not the result.  Times are
    multiplied by `speed`."""
    seconds = [
        t * speed for t in shape_medians(passes, lambda o: o.seconds).values()
    ]
    rss_kb = shape_medians(passes, lambda o: o.maxrss_kb).values()
    return {
        "setup_s": statistics.median(setup) * speed,
        # Every shape occurs once per pass: this is the time of one pass.
        "wall_s": sum(seconds),
        "request_p50_s": statistics.median(seconds),
        # Which request sits at a pooled percentile would shift with the
        # number of passes, so the tail is the slowest shape's median.
        "request_tail_s": max(seconds),
        "peak_rss_mb": max(rss_kb) / 1024,
    }


def run_traced(runner, gate, reqs):
    """One pass; each request untraced, then traced, stdout compared."""
    stats = LayerStats()
    untraced = traced = 0.0
    for rid, req in enumerate(reqs):
        u = runner.request(req)
        t = runner.request(req, trace_rid=rid)
        untraced += u.seconds
        traced += t.seconds
        if not gate.check(req, u):
            continue
        if (t.code, t.stdout) != (u.code, u.stdout):
            gate.fail(req, "traced stdout differs from untraced stdout", t)
            continue
        stats.add(*load_spans(runner.spans_path(rid)))
    return stats, traced / untraced


def layer_value(name: str, stats: LayerStats, overhead: float):
    fn, stat = name.rsplit(".", 1)
    if stat == "overhead_ratio":
        return overhead
    if stat == "self_share":
        return stats.module_self_share().get(fn, 0.0)
    calls = stats.calls.get(fn, 0)
    if stat == "calls":
        return calls
    if stat == "self_s":
        return stats.self_ns.get(fn, 0) / 1e9
    if stat == "total_s":
        return stats.total_ns.get(fn, 0) / 1e9
    if stat == "distinct_ratio":
        return stats.distinct.get(fn, 0) / calls if calls else 0.0
    raise ValueError(f"unknown per-layer statistic in {name!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Let a termination request unwind, so that the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "qcluster" / "cli.py").is_file():
        print(f"perfbench: no qcluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    gate = Gate()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        if args.trace:
            runner.warm()  # same warm bytecode cache as untraced runs
            reqs = requests_for(args.workload, args.seed)
            stats, overhead = run_traced(runner, gate, reqs)
            metrics = {
                m["name"]: {"value": layer_value(m["name"], stats, overhead),
                            "unit": m["unit"]}
                for m in spec["per_layer"]
            }
            detail = {"spans_by_function": dict(sorted(stats.calls.items()))}
        else:
            runner.warm()
            passes, setup, probes = run_untraced(
                runner, gate, args.workload, args.seed, args.seconds
            )
            # The host's speed during this run, relative to the reference.
            speed = PROBE_REF_S / statistics.median(probes)
            values = end_to_end(passes, setup, speed)
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            detail = {
                "pass_wall_s": [wall for wall, _ in passes],
                "requests_per_pass": len(passes[0][1]),
                "setup_samples": len(setup),
                "probe_median_s": statistics.median(probes),
                "probe_samples": len(probes),
                "speed": speed,
                "measured": end_to_end(passes, setup),
                "median_s_by_request": shape_medians(passes, lambda o: o.seconds),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        failed_ratio=gate.failed / gate.attempted,
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
