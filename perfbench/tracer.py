"""Outside-in tracing of qcluster for the benchmark's per-layer numbers.

The tracer replaces every public qcluster function, in every qcluster
namespace that holds it, with a wrapper that records a span, and wraps a
few hot methods the same way.  qcluster itself is not changed: the
wrappers are installed after import and removed before the process ends.

A span is (function id, parent span, start ns, end ns); spans of one
process share its request id.  They are kept in memory and written out
when the request ends, as ``OUT.json`` (names, distinct-input counts) and
``OUT.bin`` (the four arrays).

Usage, in a fresh interpreter with qcluster importable:

    python3 perfbench/tracer.py OUT RID cli ARGS...     # qcluster CLI
    python3 perfbench/tracer.py OUT RID sweep T R L     # sweep.py
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# Methods wrapped besides the public functions: (module, class, attribute).
HOT_METHODS = (
    ("scalarfield", "Coeff", "__mul__"),
    ("scalarfield", "Coeff", "__rmul__"),
    ("scalarfield", "Coeff", "__add__"),
    ("scalarfield", "Coeff", "__radd__"),
    ("scalarfield", "Coeff", "inv"),
    ("bicharacter", "ExpMatrix", "__init__"),
    ("exchangesolver", "LinearSystem", "solve_unique"),
)


def _pres_key(pres):
    return (pres.names, pres.root, repr(pres.lam.rows), pres.weights)


# Functions whose distinct inputs are counted, with the key of one call.
DISTINCT_KEYS = {
    "primeseq.compute_primes": lambda pres: _pres_key(pres),
    "xicombinatorics.frame_for_tau": (
        lambda pres, tau, *a, **k: (_pres_key(pres), tuple(tau))
    ),
    "exchangesolver.btilde_for_tau": (
        lambda tp: (_pres_key(tp.pres), tuple(tp.tau))
    ),
}


def qcluster_modules():
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qcluster" or name.startswith("qcluster."))
    }


def span_name(fn) -> str:
    """'<module>.<qualname>' with dunders stripped: scalarfield.Coeff.mul."""
    module = fn.__module__.split(".", 1)[1]
    parts = fn.__qualname__.split(".")
    parts[-1] = parts[-1].strip("_")
    return ".".join([module] + parts)


def _public_functions(modules):
    found = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if (
                inspect.isfunction(obj)
                and not obj.__name__.startswith("_")
                and obj.__module__.startswith("qcluster.")
            ):
                found[id(obj)] = obj
    return found


class Tracer:
    """Installs the wrappers and records spans in four parallel arrays."""

    def __init__(self):
        self.names = []
        self.fid = array("i")  # ~fid marks a call nested in the same function
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.seen = {}  # fid -> set of distinct input keys
        self._undo = []  # (owner, attribute, original)

    def _wrap(self, fn):
        name = span_name(fn)
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns
        depth = [0]
        keyfn = DISTINCT_KEYS.get(name)
        seen = None
        if keyfn is not None:
            seen = self.seen[fid] = set()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid if depth[0] == 0 else ~fid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            if seen is not None:
                seen.add(keyfn(*args, **kwargs))
            stack.append(i)
            depth[0] += 1
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[0] -= 1
                stack.pop()

        return wrapper

    def install(self):
        modules = qcluster_modules()
        wrappers = {}
        for key, fn in _public_functions(modules).items():
            wrappers[key] = self._wrap(fn)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for modname, clsname, attr in HOT_METHODS:
            cls = getattr(modules["qcluster." + modname], clsname)
            fn = vars(cls)[attr]
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, w)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, out: str, rid: int):
        meta = {
            "rid": rid,
            "names": self.names,
            "spans": len(self.fid),
            "distinct": {self.names[f]: len(s) for f, s in self.seen.items()},
        }
        with open(out + ".json", "w") as fh:
            json.dump(meta, fh)
        with open(out + ".bin", "wb") as fh:
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(out: str):
    with open(out + ".json") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = []
    with open(out + ".bin", "rb") as fh:
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return meta, arrays


class LayerStats:
    """Per-function totals over the traced requests of one run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)  # outermost calls only
        self.distinct = defaultdict(int)  # summed per request

    def add(self, meta, arrays):
        names = meta["names"]
        fids, parents, starts, ends = arrays
        dur = [e - s for s, e in zip(starts, ends)]
        kids = [0] * len(dur)
        for p, d in zip(parents, dur):
            if p >= 0:
                kids[p] += d
        calls = [0] * len(names)
        own = [0] * len(names)
        total = [0] * len(names)
        for f, d, k in zip(fids, dur, kids):
            if f < 0:
                f = ~f
            else:
                total[f] += d
            calls[f] += 1
            own[f] += d - k
        for f, name in enumerate(names):
            if calls[f]:
                self.calls[name] += calls[f]
                self.self_ns[name] += own[f]
                self.total_ns[name] += total[f]
        for name, count in meta["distinct"].items():
            self.distinct[name] += count

    def module_self_share(self):
        by_module = defaultdict(int)
        for name, ns in self.self_ns.items():
            by_module[name.split(".", 1)[0]] += ns
        whole = sum(by_module.values()) or 1
        return {m: ns / whole for m, ns in by_module.items()}


def main(argv) -> int:
    out, rid, kind, *args = argv
    import qcluster.cli
    import sweep

    tracer = Tracer()
    tracer.install()
    # Fetched after install, so the entry point itself is a traced span.
    entry = qcluster.cli.main if kind == "cli" else sweep.main
    try:
        code = entry(args)
    finally:
        tracer.uninstall()
        tracer.dump(out, int(rid))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
