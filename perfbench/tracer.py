"""Boundary tracer: spans around calls between elemhyp modules.

The tracer wraps a function by rebinding its name in every elemhyp module
that holds it, so calls made through ``from .x import f`` bindings are seen
as well as calls inside the defining module.  Modules come from
``sys.modules``: the package attribute ``elemhyp.polylog`` is the function,
not the module.  A wrapper goes outside any ``lru_cache`` so that cache hits
are still counted as calls.  Hot double-double primitives (dd_add, dd_mul,
...) stay unwrapped; their cost shows as self time of the caller.

Spans are kept in memory as lists ``[label, start_ns, end_ns, parent, note]``
and summarised or written out after the run; ``restore`` puts every
original function back.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs wrapped by the traced run.  The label of a span is
# "<module without the elemhyp. prefix>.<function>".
BOUNDARIES = (
    ("elemhyp._dd", "power_integral_dd"),
    ("elemhyp._dd", "dd_exp"),
    ("elemhyp._dd", "dd_expm1"),
    ("elemhyp._dd", "dd_log"),
    ("elemhyp.numcore", "sum_series"),
    ("elemhyp.hypergeom", "hyp2f1_eval"),
    ("elemhyp.hypergeom", "_closed_route"),
    ("elemhyp.hypergeom", "hyp2f1_series"),
    ("elemhyp.polylog", "_polylog_dd"),
    ("elemhyp.polylog", "polylog_derivative_series"),
    ("elemhyp.basis", "combo_eval"),
    ("elemhyp.basis", "fnj_combo"),
    ("elemhyp.mkz", "mkz_moment"),
    ("elemhyp.mkz", "gmkz_moment_abel"),
    ("elemhyp.mkz", "gmkz_e1"),
    ("elemhyp.mkz", "ln_moment_e2"),
    ("elemhyp.mkz", "gmkz_apply"),
    ("elemhyp.heun", "heun_eval"),
)

MOMENT_FUNCS = ("mkz_moment", "gmkz_moment_abel", "gmkz_e1", "ln_moment_e2", "gmkz_apply")


def _series_note(res):
    return (res.terms_used, res.converged)


_NOTES = {"numcore.sum_series": _series_note}


class Tracer:
    """Install with ``install()``, run the calls, then ``restore()``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._caches = {}

    def install(self):
        for modname, attr in BOUNDARIES:
            original = getattr(sys.modules[modname], attr)
            label = modname.split(".", 1)[1] + "." + attr
            if hasattr(original, "cache_info"):
                self._caches[label] = (original, original.cache_info())
            wrapper = self._wrap(label, original)
            for name, module in list(sys.modules.items()):
                if (name == "elemhyp" or name.startswith("elemhyp.")) and \
                        module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def cache_hit_ratio(self, label):
        """Hits over lookups since install, from the lru_cache counters."""
        original, before = self._caches[label]
        after = original.cache_info()
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        return hits / lookups if lookups else 0.0

    def _wrap(self, label, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        note = _NOTES.get(label)

        def wrapper(*args, **kwargs):
            rec = [label, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper


def summarize(spans):
    """Per-label call counts and self times, plus the route and leaf facts.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run has one thread.
    """
    child_ns = [0] * len(spans)
    kids = {}
    for label, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            kids.setdefault(parent, set()).add(label)
    calls, self_ns = {}, {}
    for i, (label, start, end, _, _) in enumerate(spans):
        calls[label] = calls.get(label, 0) + 1
        self_ns[label] = self_ns.get(label, 0) + (end - start - child_ns[i])
    routes = {"trivial": 0, "series_only": 0, "closed": 0, "fallback": 0}
    accepted = 0
    terms = not_converged = 0
    leaves = leaf_ns = 0
    for i, (label, start, end, parent, note) in enumerate(spans):
        if label == "hypergeom.hyp2f1_eval":
            closed = "hypergeom._closed_route" in kids.get(i, ())
            series = "hypergeom.hyp2f1_series" in kids.get(i, ())
            route = ("fallback" if series else "closed") if closed else \
                ("series_only" if series else "trivial")
            routes[route] += 1
            accepted += route == "closed"
            if parent >= 0 and spans[parent][0] == "heun.heun_eval":
                leaves += 1
                leaf_ns += end - start
        elif label == "numcore.sum_series" and note is not None:
            terms += note[0]
            not_converged += not note[1]
    return {
        "calls": calls, "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "routes": routes, "closed_accepted": accepted,
        "series_terms": terms, "series_not_converged": not_converged,
        "heun_leaves": leaves, "heun_leaf_s": leaf_ns / 1e9,
    }


def write_spans(spans, path):
    """Spans as tab-separated lines: label, start_ns, end_ns, parent index."""
    with open(path, "w") as fh:
        for label, start, end, parent, _ in spans:
            fh.write(f"{label}\t{start}\t{end}\t{parent}\n")
