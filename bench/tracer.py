"""Spans around shadowsum's public functions, installed from outside.

`Tracer.install()` replaces each traced function in every shadowsum module
namespace that holds it (the defining module, the package, and every
module that imported the name), so calls cannot bypass the wrapper.
`uninstall()` puts the originals back.

Each call of a *span* function records (id, parent, job, name, start, end,
child time) in memory.  *Leaf* functions (sixj and the face weights) run
millions of times per job, so their calls are aggregated per parent span
instead: a call count and a total time.  A span's self time is its
duration minus the time of its direct children, spans and leaves alike.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function, metric name, leaf?)
TARGETS = (
    ("shadowsum.cli", "main", "cli", False),
    ("shadowsum.files", "load_link", "files.load", False),
    ("shadowsum.files", "load_shadow", "files.load", False),
    ("shadowsum.geometry", "validate", "geometry.validate", False),
    ("shadowsum.geometry", "face_complex", "geometry.face_complex", False),
    ("shadowsum.geometry", "crossing_marks", "geometry.crossing_marks", False),
    ("shadowsum.geometry", "loop_min_clearance", "geometry.loop_min_clearance", False),
    ("shadowsum.shadow", "enumerate_colorings", "shadow.enumerate_colorings", False),
    ("shadowsum.shadow", "state_sum_general", "shadow.state_sum", False),
    ("shadowsum.shadow", "state_sum_dpfree", "shadow.state_sum", False),
    ("shadowsum.shadow", "enumerate_pairs", "shadow.enumerate_pairs", False),
    ("shadowsum.shadow", "wlo_dpfree_pairsum", "shadow.pairsum", False),
    ("shadowsum.shadow", "check_bijection", "shadow.check_bijection", False),
    ("shadowsum.linking", "link_number", "linking.link_number", False),
    ("shadowsum.linking", "pushoff", "linking.pushoff", False),
    ("shadowsum.linking", "self_link", "linking.self_link", False),
    ("shadowsum.linking", "lk", "linking.lk", False),
    ("shadowsum.evaluators", "wlo_abelian", "evaluators.wlo_abelian", False),
    ("shadowsum.evaluators", "wlo_abelian_intermediate",
     "evaluators.wlo_abelian_intermediate", False),
    ("shadowsum.quantum", "sixj", "quantum.sixj", True),
    ("shadowsum.quantum", "v_dim", "quantum.weights", True),
    ("shadowsum.quantum", "u_exponent", "quantum.weights", True),
)

LAYERS = sorted({metric for _, _, metric, _ in TARGETS})

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent, job, name, start, end, child_s, leaves]
        self._stack = []
        self._job = None
        self._patches = []     # (namespace, attribute, original)
        self.counters = defaultdict(int)
        self._sixj_seen = set()

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "shadowsum" or name.startswith("shadowsum."))]
        for modname, attr, metric, leaf in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._leaf(original, metric) if leaf else self._span(original, metric)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id):
        self._job = job_id
        self._sixj_seen.clear()
        self._open("job")

    def end_job(self):
        self._close(perf())
        self._job = None
        self.counters["quantum.sixj.distinct"] += len(self._sixj_seen)

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, self._job, name, perf(), None, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec)

    def _close(self, end):
        rec = self._stack.pop()
        rec[5] = end
        if self._stack:
            self._stack[-1][6] += end - rec[4]

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, metric):
        count = _COUNTERS.get(metric)

        def wrapper(*args, **kwargs):
            self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(perf())
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def _leaf(self, fn, metric):
        stack = self._stack
        seen = self._sixj_seen if metric == "quantum.sixj" else None

        def wrapper(*args, **kwargs):
            t = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t
            top = stack[-1]
            top[6] += dt
            leaves = top[7]
            if leaves is None:
                leaves = top[7] = {}
            agg = leaves.get(metric)
            if agg is None:
                leaves[metric] = [1, dt]
            else:
                agg[0] += 1
                agg[1] += dt
            if seen is not None:
                # distinct arguments per Level object: the 6j cache misses
                seen.add((id(args[0]),) + args[1:])
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def layer_totals(self, first_span=0):
        """{metric: [calls, self seconds]} over spans from `first_span` on."""
        out = {m: [0, 0.0] for m in LAYERS}
        for rec in self.spans[first_span:]:
            _id, _parent, _job, name, start, end, child, leaves = rec
            if name in out:
                out[name][0] += 1
                out[name][1] += end - start - child
            for metric, (calls, secs) in (leaves or {}).items():
                out[metric][0] += calls
                out[metric][1] += secs
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for _id, parent, job, name, start, end, child, leaves in self.spans:
                fh.write(json.dumps({
                    "id": _id, "parent": parent, "job": job, "name": name,
                    "start": start, "end": end, "self_s": end - start - child,
                    "leaves": leaves or {}}) + "\n")


def _count_colorings(counters, args, result):
    counters["shadow.enumerate_colorings.accepted"] += len(result)


def _count_pairs(counters, args, result):
    link, level = args[0], args[1]
    counters["shadow.enumerate_pairs.candidates"] += 2 ** len(link.loops) * (level.k + 1)
    counters["shadow.enumerate_pairs.accepted"] += len(result)


_COUNTERS = {
    "shadow.enumerate_colorings": _count_colorings,
    "shadow.enumerate_pairs": _count_pairs,
}
