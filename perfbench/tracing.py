"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces the public functions below, at the names the
CLI looks them up under, with wrappers that record one span per call:
a name, start and end times, the enclosing span and the query id.  Spans
stay in memory (compact arrays) and ``write`` stores them when the run
ends.  After each query ``end_query`` folds the query's spans into
per-layer sums; ``metrics`` turns those into the per-layer metrics.

A span's self time is its duration minus the time its child spans cover.
Work the program does outside a wrapped function is counted in the self
time of the nearest wrapped caller; for instance the lazy compilation of
a model's bitmask view falls into ``semantics.mask``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# (module, class or None, attribute, span name).  Module-level functions are
# patched where the CLI imported them, so calls from other modules (say
# valid_bounded calling sat_bounded) are not wrapped.
TARGETS = (
    ("glal.cli", None, "main", "cli.main"),
    ("glal.cli", None, "parse", "syntax.parse"),
    ("glal.cli", None, "load", "model.load"),
    ("glal.model", "KripkeModel", "from_partitions", "model.from_partitions"),
    ("glal.cli", None, "check", "semantics.check"),
    ("glal.semantics", "EvalContext", "mask", "semantics.mask"),
    ("glal.semantics", "EvalContext", "refined", "semantics.refined"),
    ("glal.semantics", "EvalContext", "intern", "semantics.intern"),
    ("glal.cli", None, "sat_bounded", "sat.sat_bounded"),
    ("glal.cli", None, "valid_bounded", "sat.valid_bounded"),
    ("glal.cli", None, "pointed_bisim", "bisim.pointed_bisim"),
    ("glal.cli", None, "distinguishing_formula_search", "bisim.distinguish"),
)
NAMES = tuple(target[-1] for target in TARGETS)
SAT_SPANS = ("sat.sat_bounded", "sat.valid_bounded")
SCOPES = SAT_SPANS + ("bisim.distinguish",)

# metric -> (self or total time, span names it sums)
TIME_METRICS = {
    "cli.self_ms": ("self", ("cli.main",)),
    "syntax.parse_ms": ("total", ("syntax.parse",)),
    "model.load_ms": ("total", ("model.load",)),
    "model.from_partitions_ms": ("total", ("model.from_partitions",)),
    "semantics.mask_self_ms": ("self", ("semantics.mask",)),
    "semantics.refined_self_ms": ("self", ("semantics.refined",)),
    "semantics.intern_self_ms": ("self", ("semantics.intern",)),
    "sat.self_ms": ("self", SAT_SPANS),
    "bisim.self_ms": ("self", ("bisim.pointed_bisim",)),
    "bisim.distinguish_self_ms": ("self", ("bisim.distinguish",)),
}
COUNT_METRICS = (
    "semantics.mask_calls",
    "semantics.refined_calls",
    "semantics.refined_new",
    "sat.models_examined",
    "sat.candidates_evaluated",
    "bisim.distinguish_mask_calls",
)
UNITS = {name: "ms" for name in TIME_METRICS}
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS.update({
    "semantics.refined_hit_ratio": "ratio",
    "sat.evaluated_per_examined": "ratio",
    "trace.overhead_ratio": "ratio",
})


class Tracer:
    def __init__(self):
        self.name_id = array("B")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._qid = -1
        self._first = 0
        self._refined_seen = {}
        self._refined_new = 0
        self._patches = []
        self.per_query = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        nid = NAMES.index(name)
        name_id, parent, query, start, end = (
            self.name_id, self.parent, self.query, self.start, self.end
        )
        stack, clock = self._stack, time.perf_counter
        track_new = name == "semantics.refined"

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            query.append(self._qid)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if track_new and id(result) not in self._refined_seen:
                # Keep the model alive so its id cannot be reused in this query.
                self._refined_seen[id(result)] = result
                self._refined_new += 1
            return result

        return wrapper

    def install(self):
        for module, cls, attr, name in TARGETS:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            if isinstance(original, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(original.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per query -------------------------------------------------------------

    def begin_query(self):
        self._qid += 1
        self._first = len(self.start)
        self._refined_seen = {}
        self._refined_new = 0

    def end_query(self, out: str):
        """Fold the query's spans into per-layer sums; ``out`` is the CLI's stdout."""
        total = dict.fromkeys(NAMES, 0.0)
        self_time = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        # The sat or distinguishing span enclosing each span, if any.  Parents
        # precede their children, so one forward pass suffices.
        names, scope = [], []
        candidates = dist_masks = 0
        first = self._first
        for i in range(first, len(self.start)):
            name = NAMES[self.name_id[i]]
            p = self.parent[i] - first
            names.append(name)
            scope.append(name if name in SCOPES else scope[p] if p >= 0 else None)
            duration = self.end[i] - self.start[i]
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if p >= 0:
                self_time[names[p]] -= duration
            if name == "model.from_partitions" and scope[-1] in SAT_SPANS:
                candidates += 1
            elif name == "semantics.mask" and scope[-1] == "bisim.distinguish":
                dist_masks += 1
        record = {}
        for metric, (which, spans) in TIME_METRICS.items():
            if any(calls[s] for s in spans):
                source = self_time if which == "self" else total
                record[metric] = 1000.0 * sum(source[s] for s in spans)
        try:
            examined = json.loads(out).get("models_examined", 0)
        except (ValueError, AttributeError):
            examined = 0
        record.update({
            "semantics.mask_calls": calls["semantics.mask"],
            "semantics.refined_calls": calls["semantics.refined"],
            "semantics.refined_new": self._refined_new,
            "sat.models_examined": examined,
            "sat.candidates_evaluated": candidates,
            "bisim.distinguish_mask_calls": dist_masks,
        })
        self._refined_seen = {}
        self.per_query.append(record)

    # -- results -----------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Times: median over the queries that made the call (0 if none did).
        Counts: mean per query over all traced queries."""
        queries = self.per_query
        out = {}
        for metric in TIME_METRICS:
            values = [q[metric] for q in queries if metric in q]
            out[metric] = statistics.median(values) if values else 0.0
        sums = {m: sum(q[m] for q in queries) for m in COUNT_METRICS}
        for metric in COUNT_METRICS:
            out[metric] = sums[metric] / len(queries)
        calls = sums["semantics.refined_calls"]
        out["semantics.refined_hit_ratio"] = (
            1 - sums["semantics.refined_new"] / calls if calls else 0.0
        )
        examined = sums["sat.models_examined"]
        out["sat.evaluated_per_examined"] = (
            sums["sat.candidates_evaluated"] / examined if examined else 0.0
        )
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": value, "unit": UNITS[name]} for name, value in out.items()}

    def write(self, path: str, header: dict):
        """The spans as one JSON header line followed by the raw arrays."""
        header = dict(header, names=list(NAMES), spans=len(self.start),
                      arrays=["name_id:B", "parent:i", "query:i", "start:d", "end:d"])
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.query, self.start, self.end):
                arr.tofile(handle)
