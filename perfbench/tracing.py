"""Spans and counts at the public functions of mvabscissa's modules.

``Tracer.install`` replaces the module attributes listed in LAYERS with
wrappers and ``Tracer.remove`` puts the originals back.  The library's
modules look these names up at call time (``expr.jet_eval``, ``mvt.big_f``,
...), so calls between layers are traced too, without a change to the
library.  Each span records its name, start, end, parent and one count; the
spans stay in memory and ``save`` writes them out at the end of a run.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np


def _size(x):
    """0 for a scalar argument, else its number of elements."""
    return x.size if isinstance(x, np.ndarray) and x.ndim else 0


def _pair_size(b, c):
    return np.broadcast(b, c).size if _size(b) or _size(c) else 0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# (module, function, what the span's count records) -- the count is the
# number of elements of the evaluation point (0 for a scalar), the number
# of columns, or the bytes returned
LAYERS = [
    ("expr", "parse", None),
    ("expr", "jet_eval", lambda a, k, out: _size(_arg(a, k, 1, "x0"))),
    ("expr", "evaluate", lambda a, k, out: _size(_arg(a, k, 1, "x"))),
    ("mvt", "big_f", lambda a, k, out: _pair_size(_arg(a, k, 1, "b"), _arg(a, k, 2, "c"))),
    ("mvt", "solve_columns", lambda a, k, out: len(_arg(a, k, 1, "bs"))),
    ("mvt", "solution_point", None),
    ("solver", "certify_neighborhood", None),
    ("solver", "fixed_point", None),
    ("solver", "implicit_solve", None),
    ("classify", "classify_point", None),
    ("classify", "morse_coordinates", None),
    ("classify", "MorseChart.x_of_u", None),
    ("classify", "find_extremal_abscissa", None),
    ("continuation", "trace_c_of_b", None),
    ("continuation", "trace_b_of_c", None),
    ("continuation", "branch_seeds_after_degeneracy", None),
    ("scanner", "scan", None),
    ("scanner", "to_csv", lambda a, k, out: len(out)),
    ("scanner", "to_json", lambda a, k, out: len(out)),
    ("scanner", "to_svg", lambda a, k, out: len(out)),
    ("cli", "run", None),
]

# per-pass metric -> (span, statistic); see Tracer.metrics
_STATS = {
    "expr.parse": ("calls", "self_ms"),
    "expr.jet_eval": ("scalar_calls", "array_calls", "array_elems", "self_ms"),
    "expr.evaluate": ("scalar_calls", "array_elems", "self_ms"),
    "mvt.big_f": ("scalar_calls", "array_elems", "self_ms"),
    "mvt.solve_columns": ("calls", "columns", "self_ms"),
    "scanner.scan": ("self_ms",),
    "scanner.to_csv": ("bytes", "self_ms"),
    "scanner.to_json": ("bytes", "self_ms"),
    "scanner.to_svg": ("bytes", "self_ms"),
}
METRICS = [(f"{mod}.{fn}.{stat}", f"{mod}.{fn}", stat)
           for mod, fn, _ in LAYERS
           for stat in _STATS.get(f"{mod}.{fn}", ("calls", "self_ms"))]
UNITS = {"self_ms": "ms", "bytes": "bytes"}

ROOT = "bench.op"  # the span of one benchmark operation


class Tracer:
    def __init__(self, package):
        self.names = [ROOT] + [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.name, self.parent = array("i"), array("i")
        self.start, self.end, self.count = array("d"), array("d"), array("q")
        self.stack = []
        self._patches = []
        for i, (mod, fn, count) in enumerate(LAYERS, start=1):
            owner = getattr(package, mod)
            *cls, attr = fn.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrap(i, original, count)))

    def _wrap(self, nid, fn, count):
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(-1)
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.start[sid] = t0
                self.stack.pop()
            if count is not None:
                self.count[sid] = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def remove(self):
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    def root(self, fn):
        """Call fn inside a root span (one benchmark operation)."""
        return self._wrap(0, fn, None)()

    def mark(self):
        return len(self.name)

    def metrics(self, lo, hi):
        """Per-layer metrics of the spans lo..hi-1 (one pass)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        count = np.frombuffer(self.count, dtype=np.int64)
        child = parent >= 0
        busy = np.bincount(parent[child], weights=dur[child], minlength=name.size)
        self_s = (dur - busy)[lo:hi]
        name, count = name[lo:hi], count[lo:hi]
        out = {}
        for metric, span, stat in METRICS:
            sel = name == self.names.index(span)
            if stat == "calls":
                v = int(sel.sum())
            elif stat == "scalar_calls":
                v = int((sel & (count == 0)).sum())
            elif stat == "array_calls":
                v = int((sel & (count > 0)).sum())
            elif stat == "self_ms":
                v = float(self_s[sel].sum()) * 1e3
            else:  # array_elems, columns, bytes
                v = int(count[sel & (count > 0)].sum())
            out[metric] = v
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), count=np.frombuffer(self.count, dtype=np.int64))
