"""Per-layer spans and counters, recorded from outside valinf.

valinf binds functions by name in each importing module (``solve_linear``
lives in ``exact`` but is also an attribute of ``cluster``, ``richness``
and ``polyfinder``), so patching ``valinf.exact.solve_linear`` alone
would miss most calls.  ``Tracer.install`` therefore replaces every
attribute of every ``valinf`` module that *is* the target function, and
patches methods on their class; ``uninstall`` puts the original objects
back.  Nothing inside ``src/valinf`` is changed.

A span's self time is its duration minus the time of the spans it
encloses, kept with a stack.  Recording happens only while ``active``
is set, so the benchmark can build inputs between ops with the patches
in place.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _rows_cells(args, kwargs, result):
    A = args[0]
    return {"cells": len(A) * len(A[0]) if A else 0}


def _chi_n(args, kwargs, result):
    return {"max_n": args[0].size}


def _geometry_nodes(args, kwargs, result):
    return {"nodes": len(args[0])}


def _minv_nodes(args, kwargs, result):
    return {"max_nodes": len(args[0].comps) - 1}


def _branch_depth(args, kwargs, result):
    depth = args[2] if len(args) > 2 else kwargs["depth"]
    return {"depth": depth, "max_depth": depth}


def _found(args, kwargs, result):
    D = args[1] if len(args) > 1 else kwargs["D"]
    return {"found": int(result is not None), "max_d": D}


def _condition_rows(args, kwargs, result):
    return {"rows": len(result.rows)}


# (module, attribute or Class.method, extra counters from (args, kwargs,
# result)).  Counters named max_* keep the maximum, the others the sum.
SPANS = (
    ("exact", "chi_det", _chi_n),
    ("exact", "solve_linear", _rows_cells),
    ("valuations", "meet", None),
    ("valuations", "compare", None),
    ("valuations", "equal", None),
    ("valuations", "evaluate", None),
    ("cluster", "build_geometry", _geometry_nodes),
    ("cluster", "GeometryTable.minv", _minv_nodes),
    ("cluster", "merge_paths", None),
    ("cluster", "branch_steps", _branch_depth),
    ("cluster", "diverging_steps", None),
    ("cluster", "eval_divisorial", None),
    ("series", "compose_series", None),
    ("series", "LaurentSeries.inverse", None),
    ("richness", "classify", None),
    ("richness", "reduce_with_report", None),
    ("richness", "matrix_alpha", None),
    ("puiseux", "weighted_branches", None),
    ("puiseux", "logplus_laplacian", None),
    ("puiseux", "divisorial_on_segment", None),
    ("poly", "factor_rational", None),
    ("polyfinder", "find_positive", _found),
    ("polyfinder", "find_nonnegative_nonconstant", _found),
    ("polyfinder", "valuation_conditions", _condition_rows),
    ("potential", "measure", None),
    ("adelic", "algebraize", None),
    ("adelic", "branch_membership", None),
    ("randomized", "check_cluster_consistency", None),
    ("scenario", "load_scenario", None),
    ("cli", "main", None),
)


def span_names():
    return [f"{mod}.{attr}" for mod, attr, _ in SPANS]


def targets():
    """(span name, owner, attribute name, original object) per span.

    The owner is the defining module for functions and the class for
    methods.
    """
    out = []
    for mod, attr, _ in SPANS:
        owner = importlib.import_module(f"valinf.{mod}")
        name = attr
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(owner, cls)
            orig = owner.__dict__[name]
        else:
            orig = getattr(owner, name)
        out.append((f"{mod}.{attr}", owner, name, orig))
    return out


def valinf_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "valinf" or n.startswith("valinf."))]


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.top_s = 0.0
        self.stack = []
        self.patched = []       # (owner, attribute, original)
        self.cache_hits = 0

    def _enter(self):
        self.stack.append([time.perf_counter(), 0.0])

    def _exit(self, name):
        start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.top_s += dur

    def _count(self, name, extra):
        for key, val in extra.items():
            k = f"{name}.{key}"
            if key.startswith("max_"):
                self.counters[k] = max(self.counters.get(k, 0), val)
            else:
                self.counters[k] = self.counters.get(k, 0) + val

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            factored = tracer.calls.get("poly.factor_rational", 0)
            tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if extra is not None:
                tracer._count(name, extra(args, kwargs, result))
            if name == "puiseux.weighted_branches" and \
                    tracer.calls.get("poly.factor_rational", 0) == factored:
                # a miss factors Q first; a call that factors nothing
                # was answered from the branch cache
                tracer.cache_hits += 1
            return result

        return wrapper

    def install(self):
        found = targets()
        modules = valinf_modules()
        extras = {f"{mod}.{attr}": extra for mod, attr, extra in SPANS}
        for name, owner, attr, orig in found:
            wrapper = self._wrap(name, orig, extras[name])
            if isinstance(owner, type):
                self.patched.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    def metrics(self, op_s):
        """Every per-layer metric for ``op_s`` seconds of traced op time,
        as name -> (value, unit); layers an op never reached read 0."""
        out = {}
        for name, unit in layer_metrics():
            span, _, key = name.rpartition(".")
            if key == "calls":
                value = self.calls.get(span, 0)
            elif key == "self_share":
                value = self.self_s.get(span, 0.0) / op_s
            elif key == "found_ratio":
                calls = self.calls.get(span, 0)
                value = self.counters.get(f"{span}.found", 0) / calls \
                    if calls else 0.0
            elif key == "cache_hit_ratio":
                calls = self.calls.get(span, 0)
                value = self.cache_hits / calls if calls else 0.0
            else:
                value = self.counters.get(name, 0)
            out[name] = (value, unit)
        out["trace.unattributed_share"] = ((op_s - self.top_s) / op_s,
                                           "share")
        return out


# Extra per-span metrics beyond calls and self_share.
EXTRA_METRICS = {
    "exact.chi_det": (("max_n", "count"),),
    "exact.solve_linear": (("cells", "count"),),
    "cluster.build_geometry": (("nodes", "count"),),
    "cluster.GeometryTable.minv": (("max_nodes", "count"),),
    "cluster.branch_steps": (("depth", "count"), ("max_depth", "count")),
    "polyfinder.find_positive": (("found_ratio", "ratio"),
                                 ("max_d", "count")),
    "polyfinder.find_nonnegative_nonconstant": (("found_ratio", "ratio"),),
    "polyfinder.valuation_conditions": (("rows", "count"),),
    "puiseux.weighted_branches": (("cache_hit_ratio", "ratio"),),
}


def layer_metrics():
    """(name, unit) of every per-span metric, in a fixed order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_share", "share"))
        for key, unit in EXTRA_METRICS.get(name, ()):
            out.append((f"{name}.{key}", unit))
    return out
