"""Outside-in tracer for curvelattice: spans and counters without touching src/.

`Tracer.install()` replaces each function named in TARGETS by a wrapper at
every binding site: the attribute of its defining module or class, every
second name a class binds to the same function (`__rmul__ = __mul__`), and
every `from .x import name` copy in any loaded module, aliases such as
`adjunction.matrix_rank` and the benchmark's own imports included.
Function-local imports resolve through the module attribute at call time,
so they see the wrapper too.

Span-kind targets record one span per call: name, start, end and parent
index, kept in memory.  Count-kind targets (the ℚ(ω) scalar operations,
called millions of times per operation) only bump counters.  `summary()`
derives calls, self time (duration minus the time child spans cover) and
total time (outermost calls only, so recursion is not double counted).
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, COUNT = "span", "count"

# (module, attribute path, metric prefix, kind, layer).  The algorithm layer
# additionally reports total_s; kernels and polynomial operations report
# calls and self_s only.
TARGETS = [
    ("algebra", "Cyclo.__mul__", "algebra.Cyclo.mul", COUNT, "scalar"),
    ("algebra", "Cyclo.__add__", "algebra.Cyclo.add", COUNT, "scalar"),
    ("algebra", "Cyclo.inverse", "algebra.Cyclo.inverse", COUNT, "scalar"),
    ("algebra", "MPoly.__mul__", "algebra.MPoly.mul", SPAN, "poly"),
    ("algebra", "MPoly.compose", "algebra.MPoly.compose", SPAN, "poly"),
    ("algebra", "MPoly.eval", "algebra.MPoly.eval", SPAN, "poly"),
    ("algebra", "MPoly.divide_exact", "algebra.MPoly.divide_exact", SPAN, "poly"),
    ("algebra", "UPoly.divmod", "algebra.UPoly.divmod", SPAN, "poly"),
    ("algebra", "UPoly.gcd", "algebra.UPoly.gcd", SPAN, "poly"),
    ("algebra", "UPoly.squarefree_part", "algebra.UPoly.squarefree_part", SPAN, "poly"),
    ("algebra", "resultant", "algebra.resultant", SPAN, "kernel"),
    ("algebra", "det_cyclo", "algebra.det_cyclo", SPAN, "kernel"),
    ("algebra", "qomega_roots", "algebra.qomega_roots", SPAN, "kernel"),
    ("algebra", "poly_sqrt", "algebra.poly_sqrt", SPAN, "kernel"),
    ("algebra", "cyclo_nth_roots", "algebra.cyclo_nth_roots", SPAN, "kernel"),
    ("linalg", "rank", "linalg.rank", SPAN, "kernel"),
    ("linalg", "kernel_basis", "linalg.kernel_basis", SPAN, "kernel"),
    ("linalg", "det_fraction", "linalg.det_fraction", SPAN, "kernel"),
    ("adjunction", "singular_points", "adjunction.singular_points", SPAN, "algorithm"),
    ("adjunction", "classify_point", "adjunction.classify_point", SPAN, "algorithm"),
    ("adjunction", "CuspScheme.count", "adjunction.CuspScheme.count", SPAN, "algorithm"),
    ("adjunction", "CuspScheme.vanishing_dim", "adjunction.CuspScheme.vanishing_dim", SPAN, "algorithm"),
    ("adjunction", "defect", "adjunction.defect", SPAN, "algorithm"),
    ("adjunction", "alexander", "adjunction.alexander", SPAN, "algorithm"),
    ("torus", "seeded_torus_sextic", "torus.seeded_torus_sextic", SPAN, "algorithm"),
    ("torus", "find_toric_sextic", "torus.find_toric_sextic", SPAN, "algorithm"),
    ("torus", "table1_construct", "torus.table1_construct", SPAN, "algorithm"),
    ("torus", "verify_decomposition", "torus.verify_decomposition", SPAN, "algorithm"),
    ("torus", "gram", "torus.gram", SPAN, "algorithm"),
    ("lattice", "shortest_vectors", "lattice.shortest_vectors", SPAN, "algorithm"),
    ("lattice", "identify_saturation", "lattice.identify_saturation", SPAN, "algorithm"),
    ("lattice", "q_compare", "lattice.q_compare", SPAN, "algorithm"),
    ("lattice", "zariski_certificate", "lattice.zariski_certificate", SPAN, "algorithm"),
    ("lattice", "CurveSummary.from_profile", "lattice.CurveSummary.from_profile", SPAN, "algorithm"),
    ("spectrum", "spectrum", "spectrum.spectrum", SPAN, "algorithm"),
    ("mordellweil", "mw_rank", "mordellweil.mw_rank", SPAN, "algorithm"),
    ("weierstrass", "is_minimal", "weierstrass.is_minimal", SPAN, "algorithm"),
    ("cli", "run", "cli.run", SPAN, "cli"),
]

# counts of one span beneath another: (metric, inner span, outer span)
NESTED_COUNTS = [
    ("torus.seeded_torus_sextic.attempts", "adjunction.singular_points",
     "torus.seeded_torus_sextic"),
    ("torus.find_toric_sextic.det_calls", "algebra.det_cyclo",
     "torus.find_toric_sextic"),
]

OP_SPAN = "bench.op"


def stats_for(kind, layer):
    if kind == COUNT:
        return ("calls",)
    if layer == "algorithm":
        return ("calls", "self_s", "total_s")
    return ("calls", "self_s")


def metric_names():
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for _mod, _path, prefix, kind, layer in TARGETS:
        for stat in stats_for(kind, layer):
            out.append((f"{prefix}.{stat}", "count" if stat == "calls" else "s"))
    out += [
        ("algebra.Cyclo.mul.rational_share", "ratio"),
        ("algebra.resultant.max_degree", "count"),
        ("algebra.det_cyclo.qomega_share", "ratio"),
        ("algebra.qomega_roots.missing", "count"),
        ("linalg.rank.max_cells", "count"),
    ]
    out += [(name, "count") for name, _inner, _outer in NESTED_COUNTS]
    out += [
        ("import.sympy_s", "s"),
        ("import.curvelattice_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.uncovered_share", "ratio"),
    ]
    return out


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names = []  # span name per span
        self.starts = []
        self.ends = []
        self.parents = []  # index of the enclosing span, -1 at the root
        self.outermost = []  # no enclosing span of the same name
        self._stack = []
        self._active = {}  # span name -> nesting depth
        self.counts = {}
        self.extra = {
            "algebra.Cyclo.mul.rational": 0,
            "algebra.resultant.max_degree": 0,
            "algebra.det_cyclo.qomega": 0,
            "algebra.qomega_roots.missing": 0,
            "linalg.rank.max_cells": 0,
        }

    # -- recording ------------------------------------------------------
    def enter(self, name):
        i = len(self.names)
        depth = self._active.get(name, 0)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(depth == 0)
        self.ends.append(0.0)
        self._active[name] = depth + 1
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def leave(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[i]] -= 1

    def span(self, name, fn, *args, **kwargs):
        i = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(i)

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every target at every binding site in every loaded module."""
        modules = {
            name: importlib.import_module(f"curvelattice.{name}")
            for name in sorted({t[0] for t in TARGETS})
        }
        replaced = {}  # id(original) -> wrapper
        for mod_name, path, prefix, kind, _layer in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(prefix, kind, original)
            replaced[id(original)] = (original, wrapper)
            # every name in the defining namespace bound to the same function
            for name, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)
        # every other binding: curvelattice's own imports and any caller's
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def _wrap(self, prefix, kind, fn):
        counts = self.counts
        extra = self.extra
        if kind == COUNT:
            counts[prefix] = 0
            if prefix == "algebra.Cyclo.mul":
                def mul(a, b):
                    counts[prefix] += 1
                    if a.b == 0 and getattr(b, "b", 0) == 0:
                        extra["algebra.Cyclo.mul.rational"] += 1
                    return fn(a, b)
                return mul

            def counted(*args, **kwargs):
                counts[prefix] += 1
                return fn(*args, **kwargs)
            return counted

        enter, leave = self.enter, self.leave
        observe = _OBSERVERS.get(prefix)

        def spanned(*args, **kwargs):
            i = enter(prefix)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(i)
            if observe is not None:
                observe(extra, args, result)
            return result

        return spanned

    # -- output ---------------------------------------------------------
    def dump(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "outermost": self.outermost,
            "counts": self.counts,
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        t = Tracer()
        for key in ("names", "starts", "ends", "parents", "outermost", "counts", "extra"):
            setattr(t, key, doc[key])
        return t

    def summary(self):
        """Per-name [calls, self_s, total_s], nested counts, counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        agg = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            a = agg.setdefault(self.names[i], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += dur - child[i]
            if self.outermost[i]:
                a[2] += dur
        nested = {}
        for metric, inner, outer in NESTED_COUNTS:
            c = 0
            for i in range(n):
                if self.names[i] != inner:
                    continue
                p = self.parents[i]
                while p >= 0 and self.names[p] != outer:
                    p = self.parents[p]
                c += p >= 0
            nested[metric] = c
        return {
            "agg": agg,
            "nested": nested,
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "root_s": sum(
                self.ends[i] - self.starts[i] for i in range(n) if self.parents[i] < 0
            ),
        }


def merge(summaries):
    """Combine summaries of several processes (one per CLI command)."""
    out = {"agg": {}, "nested": {}, "counts": {}, "extra": {}, "root_s": 0.0}
    for s in summaries:
        for name, (calls, self_s, total_s) in s["agg"].items():
            cur = out["agg"].setdefault(name, [0, 0.0, 0.0])
            cur[0] += calls
            cur[1] += self_s
            cur[2] += total_s
        for key in ("nested", "counts"):
            for name, c in s[key].items():
                out[key][name] = out[key].get(name, 0) + c
        for name, v in s["extra"].items():
            cur = out["extra"].get(name, 0)
            out["extra"][name] = max(cur, v) if ".max_" in name else cur + v
        out["root_s"] += s["root_s"]
    return out


def _observe_resultant(extra, args, result):
    d = result.degree()
    if d > extra["algebra.resultant.max_degree"]:
        extra["algebra.resultant.max_degree"] = d


def _observe_det(extra, args, result):
    rows = args[0]
    if any(getattr(x, "b", 0) != 0 for row in rows for x in row):
        extra["algebra.det_cyclo.qomega"] += 1


def _observe_roots(extra, args, result):
    extra["algebra.qomega_roots.missing"] += result[1]


def _observe_rank(extra, args, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    if cells > extra["linalg.rank.max_cells"]:
        extra["linalg.rank.max_cells"] = cells


_OBSERVERS = {
    "algebra.resultant": _observe_resultant,
    "algebra.det_cyclo": _observe_det,
    "algebra.qomega_roots": _observe_roots,
    "linalg.rank": _observe_rank,
}
