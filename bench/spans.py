"""Span tracing of lgseries from outside the package, and per-layer metrics.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in every
lgseries module namespace that holds it (``chains.rref`` as well as
``linalg.rref``), so intra-package calls are traced too.  A wrapper records
one span per call, or one span per resume for a generator, with the span
that was open on the same thread as its parent.  Spans stay in memory and
``dump`` writes them to a JSON file; ``layer_metrics`` turns that file into
counts and self times.

Scalar ``fields`` operations are not wrapped: a census makes millions of
them, so a wrapper would measure itself.  Their cost lands in the self time
of the enclosing ``linalg`` spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = ("lgseries", "lgseries.fields", "lgseries.linalg", "lgseries.chains",
           "lgseries.ramification", "lgseries.series", "lgseries.cli")

# (defining module, attribute path, span name)
TARGETS = (
    ("lgseries.linalg", "rref", "linalg.rref"),
    ("lgseries.linalg", "kernel", "linalg.kernel"),
    ("lgseries.linalg", "coords_in_rows", "linalg.coords_in_rows"),
    ("lgseries.linalg", "apply_map", "linalg.apply_map"),
    ("lgseries.linalg", "preimage", "linalg.preimage"),
    ("lgseries.linalg", "intersect", "linalg.intersect"),
    ("lgseries.linalg", "enumerate_subspaces", "linalg.enumerate_subspaces"),
    ("lgseries.linalg", "enumerate_between", "linalg.enumerate_between"),
    ("lgseries.chains", "enumerate_points", "chains.enumerate_points"),
    ("lgseries.chains", "signature", "chains.signature"),
    ("lgseries.chains", "is_exact", "chains.is_exact"),
    ("lgseries.chains", "tangent_dimension", "chains.tangent_dimension"),
    ("lgseries.chains", "is_linked_point", "chains.is_linked_point"),
    ("lgseries.chains", "exactify", "chains.exactify"),
    ("lgseries.chains", "census", "chains.census"),
    ("lgseries.ramification", "vanishing_sequence",
     "ramification.vanishing_sequence"),
    ("lgseries.series", "EHPair.from_subspaces", "series.EHPair.from_subspaces"),
    ("lgseries.series", "forgetful_map", "series.forgetful_map"),
    ("lgseries.series", "enumerate_limit_series",
     "series.enumerate_limit_series"),
    ("lgseries.series", "fr_image_report", "series.fr_image_report"),
    ("lgseries.series", "is_crude", "series.is_crude"),
    ("lgseries.cli", "_emit", "cli.emit"),
)

# Spans that also record process CPU time, for cpu_over_wall.
CPU_SPANS = frozenset({"chains.census"})

# Functions reported with .calls/.self_s; generators also get .yielded.
REPORTED = (
    "linalg.rref", "linalg.kernel", "linalg.coords_in_rows", "linalg.apply_map",
    "linalg.preimage", "linalg.intersect", "linalg.enumerate_subspaces",
    "linalg.enumerate_between", "chains.enumerate_points", "chains.signature",
    "chains.is_exact", "chains.tangent_dimension", "chains.is_linked_point",
    "chains.exactify", "ramification.vanishing_sequence",
    "series.EHPair.from_subspaces", "series.forgetful_map",
    "series.enumerate_limit_series",
)
GENERATORS = ("linalg.enumerate_subspaces", "linalg.enumerate_between",
              "chains.enumerate_points", "series.enumerate_limit_series")


class Tracer:
    """Records spans as (id, parent, name, start, end, flag, call).

    ``flag`` is 1 when a function returned True or a generator resume
    yielded an item; ``call`` numbers the calls of a generator so its
    resumes can be grouped, and is 0 for plain functions.
    """

    def __init__(self):
        self.spans = []
        self.cpu = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap_function(self, fn, name):
        spans, ids, stack, cpu = self.spans, self._ids, self._stack, self.cpu
        clock, process_time = time.perf_counter, time.process_time
        with_cpu = name in CPU_SPANS

        def wrapper(*args, **kwargs):
            st = stack()
            parent = st[-1] if st else 0
            sid = next(ids)
            st.append(sid)
            c0 = process_time() if with_cpu else 0.0
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                if with_cpu:
                    cpu[sid] = process_time() - c0
                st.pop()
                spans.append((sid, parent, name, t0, t1,
                              1 if result is True else 0, 0))

        return wrapper

    def _wrap_generator(self, fn, name):
        spans, ids, stack = self.spans, self._ids, self._stack
        clock = time.perf_counter
        calls = itertools.count(1)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            call = next(calls)
            while True:
                st = stack()
                parent = st[-1] if st else 0
                sid = next(ids)
                st.append(sid)
                t0 = clock()
                got = 0
                try:
                    item = next(it)
                    got = 1
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    st.pop()
                    spans.append((sid, parent, name, t0, t1, got, call))
                yield item

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name in TARGETS:
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(fn, name)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped)
                        if isinstance(raw, classmethod) else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        return self._wrap_function(fn, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "cpu": {str(k): v for k, v in self.cpu.items()}},
                      fh, separators=(",", ":"))


def layer_metrics(path: str) -> dict:
    """Per-layer counts and self times from a span file written by ``dump``.

    Self time is a span's duration minus the durations of its child spans;
    children of one span run on its thread and never overlap.  Spans of the
    census worker threads include time spent waiting for the interpreter
    lock, so their self times are thread wall time, not CPU time.
    """
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    cpu = {int(k): v for k, v in data["cpu"].items()}
    name_of = {s[0]: s[2] for s in spans}
    child_time = defaultdict(float)
    for sid, parent, _name, t0, t1, _flag, _call in spans:
        if parent:
            child_time[parent] += t1 - t0

    n_spans = defaultdict(int)
    self_s = defaultdict(float)
    yielded = defaultdict(int)
    gen_calls = defaultdict(set)
    point_calls = defaultdict(int)
    census_wall = census_cpu = 0.0
    candidates = aspect_pairs = crude = 0
    for sid, parent, name, t0, t1, flag, call in spans:
        n_spans[name] += 1
        self_s[name] += (t1 - t0) - child_time[sid]
        parent_name = name_of.get(parent)
        if call:
            gen_calls[name].add(call)
            yielded[name] += flag
            if name == "chains.enumerate_points":
                point_calls[call] += flag
            elif parent_name == "chains.enumerate_points":
                candidates += flag
        if name == "chains.census":
            census_wall += t1 - t0
            census_cpu += cpu.get(sid, 0.0)
        elif parent_name == "series.fr_image_report":
            if name == "series.EHPair.from_subspaces":
                aspect_pairs += 1
            elif name == "series.is_crude":
                crude += flag

    out = {}
    for name in REPORTED:
        if name in GENERATORS:
            out[name + ".calls"] = len(gen_calls[name])
            out[name + ".yielded"] = yielded[name]
        else:
            out[name + ".calls"] = n_spans[name]
        out[name + ".self_s"] = self_s[name]
    points = yielded["chains.enumerate_points"]
    out["chains.candidates"] = candidates
    out["chains.point_yield"] = points / candidates if candidates else 0.0
    out["chains.census.cpu_over_wall"] = (census_cpu / census_wall
                                          if census_wall else 0.0)
    out["chains.census.max_partition_share"] = (
        max(point_calls.values()) / points
        if census_wall and points else 0.0)
    out["series.aspect_pairs"] = aspect_pairs
    out["series.crude_share"] = crude / aspect_pairs if aspect_pairs else 0.0
    out["cli.emit_s"] = self_s["cli.emit"]
    return out
