"""Span wrappers for the traced run (``--trace 1``).

The tracer patches public entry points of each layer under ``src/repro``
with a wrapper that records calls, total time and self time (total minus
the time covered by directly nested spans of the same thread).  Nothing
in the program knows about it: the wrappers live here and are installed
by the benchmark process and, for the serve workloads, by the gateway
launcher (``launcher.py``); forked pool workers inherit them and write
their own aggregates when the task ends.

A module that bound a function with ``from ... import`` keeps the
original object, so :func:`install` also replaces every module-level
alias of a patched function across the loaded ``repro`` modules.  What
still bypasses a wrapper shows as a span with zero calls, which
:func:`missing_spans` reports for the workload meant to exercise it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

# span name -> entry points ("module:attr" or "module:Class.method").
SPANS: Dict[str, List[str]] = {
    "lang.parse": [
        "repro.lang.parser:parse_program",
        "repro.lang.typecheck:typecheck_program",
        "repro.lang.normalize:normalize_program",
    ],
    "lang.icfg": ["repro.lang.cfg:build_icfg"],
    "service.index": [
        "repro.service.depindex:DependencyIndex.build",
        "repro.service.checkcache:CheckFindingCache.keys_for",
    ],
    "service.query_cache": ["repro.service.checkcache:CheckFindingCache.query_get"],
    "service.session": ["repro.service.session:Session.analyze"],
    "parallel.pool": ["repro.parallel.pool:WorkerPool.run"],
    "parallel.task": ["repro.parallel.pool:_worker_main"],
    "parallel.store": [
        "repro.parallel.store:PersistentSummaryStore.get",
        "repro.parallel.store:PersistentSummaryStore.put",
    ],
    "core.cone": ["repro.core.strategy:backward_cone"],
    "checker.discharge": [
        "repro.checker.safety:answer_query",
        "repro.checker.safety:check_safety",
    ],
    "engine.fixpoint": ["repro.core.interproc:Engine.analyze"],
    "core.post": ["repro.core.transfer:Transfer.post"],
    "core.callret": [
        "repro.core.localheap:build_call_entry",
        "repro.core.localheap:compose_return",
        "repro.core.localheap:restrict_summary_exit",
    ],
    "shape.canon": [
        "repro.shape.abstract_heap:AbstractHeap.canonicalize",
        "repro.shape.graph:HeapGraph.canonical",
        "repro.shape.graph:HeapGraph.canonical_renaming",
    ],
    "shape.fold": [
        "repro.shape.abstract_heap:AbstractHeap.fold",
        "repro.shape.abstract_heap:split_word",
    ],
    "datawords.universal": ["repro.datawords.universal:UniversalDomain.*"],
    "datawords.multiset": ["repro.datawords.multiset:MultisetDomain.*"],
    "datawords.reinterp": ["repro.datawords.reinterp:reinterpret"],
    "numeric.lp": [
        "repro.numeric.simplex:solve_lp",
        "repro.numeric.simplex:is_feasible",
        "repro.numeric.simplex:sample_point",
    ],
    "numeric.entails": [
        "repro.numeric.simplex:entails",
        "repro.numeric.polyhedra:Polyhedron.entails",
        "repro.numeric.polyhedra:Polyhedron.entails_all",
        "repro.numeric.polyhedra:Polyhedron.leq",
    ],
    "numeric.join": ["repro.numeric.polyhedra:Polyhedron.join"],
    "numeric.project": ["repro.numeric.polyhedra:Polyhedron.project"],
    "numeric.minimize": [
        "repro.numeric.polyhedra:Polyhedron.minimized",
        "repro.numeric.simplex:minimize_constraints",
    ],
    "numeric.rref": [
        "repro.numeric.linalg:rref",
        "repro.numeric.linalg:reduce_against",
        "repro.numeric.linalg:nullspace",
    ],
}

# Domain methods too cheap or too cosmetic to time.
_SKIP_METHODS = {"top", "bottom", "is_bottom", "describe"}


class Tracer:
    """Per-span aggregates ``[calls, total_s, self_s]`` plus counters."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}

    def reset(self) -> None:
        with self.lock:
            self.spans = {name: [0, 0.0, 0.0] for name in SPANS}
            self.counters = {}

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer.local, "stack", None)
            if stack is None:
                stack = tracer.local.stack = []
            stack.append(0.0)  # time covered by direct children
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer.lock:
                    agg = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - children
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
            }


# -- counters read off return values -------------------------------------------


def _after_query_get(tracer: Tracer, args, result) -> None:
    tracer.count("service.query_lookups")
    if result is not None:
        tracer.count("service.query_hits")


def _after_session(tracer: Tracer, args, report) -> None:
    tracer.count("service.session_analyzed", len(report.analyzed))
    tracer.count("service.session_reused", len(report.reused))


def _after_cone(tracer: Tracer, args, cone) -> None:
    tracer.count("core.cone_procs", len(cone))


AFTER = {
    "service.query_cache": _after_query_get,
    "service.session": _after_session,
    "core.cone": _after_cone,
}


# -- installation -------------------------------------------------------------------


def _resolve(target: str):
    """``(owner, attr, raw)`` triples for one entry-point spec."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path, getattr(module, path))]
    cls_name, _, method = path.partition(".")
    cls = getattr(module, cls_name)
    if method != "*":
        return [(cls, method, inspect.getattr_static(cls, method))]
    out = []
    for klass in cls.__mro__[:-1]:
        for attr, raw in vars(klass).items():
            if attr.startswith("_") or attr in _SKIP_METHODS:
                continue
            if any(attr == seen for _, seen, _ in out):
                continue
            if inspect.isfunction(raw):
                out.append((cls, attr, raw))
    return out


def install(tracer: Tracer) -> List[str]:
    """Patch every entry point in :data:`SPANS`; returns the patched
    targets.  Also rebinds module-level ``from ... import`` aliases."""
    tracer.reset()
    replaced: Dict[int, Callable] = {}
    patched = []
    for name, targets in SPANS.items():
        after = AFTER.get(name)
        for target in targets:
            for owner, attr, raw in _resolve(target):
                if isinstance(raw, staticmethod):
                    fn = raw.__func__
                    wrapped = tracer.wrap(name, fn, after)
                    setattr(owner, attr, staticmethod(wrapped))
                else:
                    fn = raw
                    wrapped = tracer.wrap(name, fn, after)
                    setattr(owner, attr, wrapped)
                replaced[id(fn)] = wrapped
                patched.append(f"{owner.__name__}.{attr}")
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and inspect.isfunction(value):
                setattr(module, attr, wrapped)
    return patched


def import_all() -> None:
    """Load every module the spans name, so aliases exist to rebind."""
    for targets in SPANS.values():
        for target in targets:
            importlib.import_module(target.partition(":")[0])
    for name in (
        "repro.core.api",
        "repro.gateway.server",
        "repro.service.jobs",
        "repro.service.queries",
        "repro.parallel.batch",
        "repro.checker.safety",
        "repro.fuzz.oracle",
    ):
        importlib.import_module(name)


# -- snapshots across processes ---------------------------------------------------


def write_json(path: str, payload: Dict[str, object]) -> None:
    """Atomic write, so a reader never sees half a snapshot."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def merge(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    spans: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in SPANS}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for name, (calls, total, own) in snap["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def missing_spans(merged: Dict[str, object], expected: Iterable[str]) -> List[str]:
    """Spans the workload should exercise that recorded no call."""
    return [name for name in expected if merged["spans"].get(name, [0])[0] == 0]
