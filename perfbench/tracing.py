"""Spans around permpat's public functions, recorded from outside the package.

Each traced function is replaced at the module attribute its callers look
up (``permpat.backend.count_pattern``, ``permpat.psi.reduce_points``, ...)
by a wrapper that records a span: name, layer, start, end, parent span and
request id, plus the counts a layer reports.  Spans stay in memory until the
run ends.  A target missing from the commit under test is recorded as
absent, and a layer whose every target is missing reports zeros.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Optional

Counter = Optional[Callable[[tuple, dict, Any], dict]]


def _n_points(args, kwargs, result):
    return {"points": len(args[0])}


def _n_result(args, kwargs, result):
    return {"points": len(result)}


def _one_call(args, kwargs, result):
    return {"calls": 1}


def _n_listed(args, kwargs, result):
    return {"listed": len(result[0])}


def _n_elems_init(args, kwargs, result):
    return {"elems": len(args[0])}


def _pattern_stats(args, kwargs, result):
    limit = kwargs.get("limit", args[3] if len(args) > 3 else 0)
    stats = {"calls": 1, "text_elems": len(args[1]), "matches": result}
    if limit:
        stats["detect_calls"] = 1
        stats["detect_hits"] = int(result > 0)
    return stats


def _inversion_stats(args, kwargs, result):
    return {"calls": 1, "elems": len(args[0])}


_MATCHING_API = (
    "contains", "contains_left_aligned", "count_copies", "count_left_aligned",
    "count_left_aligned_direct", "count_left_aligned_by_difference",
    "count_inversions", "approx_count",
)

# layer -> [(module, attribute path, counter)].  Every module that imports a
# function by name gets its own entry, because callers there look it up in
# their own namespace.
TARGETS: dict[str, list[tuple[str, str, Counter]]] = {
    "core.parse": [
        ("permpat.core", "Permutation.__init__", _n_elems_init),
        ("permpat.core", "Permutation.parse", None),
    ],
    "core.reduce_points": [
        ("permpat.core", "reduce_points", _n_points),
        ("permpat.psi", "reduce_points", _n_points),
    ],
    "core.inflate": [
        (mod, fn, None) for mod in ("permpat.core", "permpat.gap") for fn in ("inflate", "layered")
    ],
    "psi.grid": [
        ("permpat.psi", "build_pattern_points", _n_result),
        ("permpat.psi", "build_text_points", _n_result),
    ],
    "psi.oracle": [("permpat.psi", "solve_psi_bruteforce", _one_call)],
    "matching": [("permpat.matching", fn, None) for fn in _MATCHING_API] + [
        ("permpat.psi", "contains_left_aligned", None),
        ("permpat.gap", "contains_left_aligned", None),
        ("permpat.gap", "count_copies", None),
        ("permpat.gap", "count_left_aligned", None),
    ],
    "matching.embeddings": [
        ("permpat.matching", "enumerate_embeddings", _n_listed),
        ("permpat.gap", "enumerate_embeddings", _n_listed),
    ],
    "backend.count_pattern": [("permpat.backend", "count_pattern", _pattern_stats)],
    "backend.count_inversions": [("permpat.backend", "count_inversions", _inversion_stats)],
    "gap": [
        ("permpat.gap", "verify_core", None),
        ("permpat.gap", "copies_touching_initial_block", None),
    ],
    "cli": [("permpat.cli", "main", None)],
}

REQUEST_LAYER = "request"


class Tracer:
    """In-memory span log.  Span: [name, layer, start_ns, end_ns, parent, request, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._request: Optional[int] = None

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, time.perf_counter_ns(), 0, parent, self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack.pop()

    def request(self, request_id: int, fn: Callable[[], Any]) -> Any:
        """Run one request under a root span."""
        self._request = request_id
        span = self._open(REQUEST_LAYER, REQUEST_LAYER)
        try:
            return fn()
        finally:
            self._close(span)
            self._request = None

    def wrap(self, name: str, layer: str, fn: Callable, counter: Counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span[6] = counter(args, kwargs, result)
                except (TypeError, AttributeError, IndexError):  # signature changed under test
                    span[6] = {"uncounted": 1}
            return result

        return traced

    def install(self, targets: dict = TARGETS) -> None:
        """Replace every target that exists by a traced wrapper."""
        for layer, entries in targets.items():
            for module_name, path, counter in entries:
                name = f"{module_name}.{path}"
                try:
                    owner = importlib.import_module(module_name)
                    *owners, attr = path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):  # its counter sees cls as args[0]
                    wrapped = classmethod(self.wrap(name, layer, raw.__func__, counter))
                else:
                    wrapped = self.wrap(name, layer, raw, counter)
                setattr(owner, attr, wrapped)
                self.installed.add(layer)

    def absent_layers(self, targets: dict = TARGETS) -> list[str]:
        return sorted(layer for layer in targets if layer not in self.installed)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, request, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request, "counts": counts,
                }) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per layer: busy_ns (outermost spans of the layer), self_ns (span time
    minus direct child spans), span count, spans per parent layer and
    summed counts."""
    child_ns = [0] * len(spans)
    for name, layer, start, end, parent, request, counts in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, layer, start, end, parent, request, counts) in enumerate(spans):
        t = totals.setdefault(layer, {"busy_ns": 0, "self_ns": 0, "spans": 0, "parents": {}, "counts": {}})
        duration = end - start
        t["self_ns"] += duration - child_ns[i]
        t["spans"] += 1
        parent_layer = spans[parent][1] if parent is not None else None
        t["parents"][parent_layer] = t["parents"].get(parent_layer, 0) + 1
        if not _inside_layer(spans, parent, layer):
            t["busy_ns"] += duration
        for key, value in (counts or {}).items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return totals


def merge_totals(totals: list[dict]) -> dict[str, dict]:
    """Sum ``layer_totals`` results of several workers."""
    merged: dict[str, dict] = {}
    for layers in totals:
        for layer, t in layers.items():
            m = merged.setdefault(layer, {"busy_ns": 0, "self_ns": 0, "spans": 0, "parents": {}, "counts": {}})
            for key in ("busy_ns", "self_ns", "spans"):
                m[key] += t[key]
            for key in ("parents", "counts"):
                for name, value in t[key].items():
                    m[key][name] = m[key].get(name, 0) + value
    return merged


def _inside_layer(spans: list[list], parent: Optional[int], layer: str) -> bool:
    while parent is not None:
        if spans[parent][1] == layer:
            return True
        parent = spans[parent][4]
    return False
