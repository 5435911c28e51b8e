"""Outside-in span tracing for the psc benchmark.

Public functions of the psc modules are wrapped by ``setattr`` on the module
objects.  The package calls across modules through module attributes
(``col.dsatur_color``, ``emb.square``) and calls inside a module resolve
through the same module globals, so every call is seen without changing the
package.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import wraps

# module name (under psc) -> wrapped public functions.  Per-vertex helpers
# such as dist2_neighborhood stay unwrapped: a span per call would cost more
# than the work it measures.
WRAPPED = {
    "embedding": ("from_pg", "build", "trace_faces", "square", "graph_digest",
                  "to_pg", "mutate_add_edge", "mutate_delete_vertex",
                  "induced_subgraph"),
    "coloring": ("dsatur_color", "greedy_color", "smallest_last_order",
                 "verify"),
    "catalog": ("find_first_witness", "detect_all", "detect_for_audit",
                "find_edge_separator", "find_small_vertex_configs",
                "find_face_two_small", "find_generic_deletable",
                "find_weak_configs_delta6"),
    "discharge": ("audit", "initial_charges", "apply_R1", "classify",
                  "apply_R2_R3_R4"),
    "reducer": ("color_within_budget",),
    "generators": ("gen_corpus",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in WRAPPED.items() for f in fns)

# span record fields
_ID, _PARENT, _NAME, _START, _END, _HIT, _PHASE = range(7)


class Tracer:
    """Records spans (id, parent id, name, start, end) for wrapped calls.

    ``phase`` labels the spans recorded while it is set, so input generation
    and the measured jobs can be summarised apart.
    """

    def __init__(self):
        self.spans = []
        self.phase = "jobs"
        self._stack = []
        self._saved = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, 0.0, 0.0, False, self.phase]
        self.spans.append(rec)
        self._stack.append(rec[_ID])
        rec[_START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[_END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (used for root spans)."""
        rec = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(rec)
        rec[_HIT] = out is not None
        return out

    def install(self, psc_modules):
        """Wrap every function in WRAPPED on the given {name: module} map."""
        for mod_name, fns in WRAPPED.items():
            module = psc_modules[mod_name]
            for attr in fns:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(f"{mod_name}.{attr}", fn))

    def _wrapper(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def summary(self, phase):
        """name -> {"calls", "self_s", "hits", "total_s"} over one phase.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "hits": 0,
                                   "total_s": 0.0})
        for rec in self.spans:
            if rec[_PHASE] != phase:
                continue
            dur = rec[_END] - rec[_START]
            agg = out[rec[_NAME]]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[rec[_ID]]
            agg["hits"] += rec[_HIT]
        return out

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[_ID], "parent": rec[_PARENT], "name": rec[_NAME],
                    "start": rec[_START] - t0, "end": rec[_END] - t0,
                    "phase": rec[_PHASE]}) + "\n")
