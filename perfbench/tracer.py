"""Span tracing of discweights layers from outside the library.

`Tracer.install()` replaces each public function named in `LAYERS` with a
wrapper in every discweights module that holds it, under whatever name it
was imported (averaging imports `bp_constant` as `tree_bp_constant`), and
wraps the listed methods and properties on their classes.  `uninstall()`
puts the originals back.  Nothing inside the library changes, so a traced
pass computes exactly what an untraced one does.

Each wrapped call records one span (name, start, end, parent) in memory;
self time is a span's duration minus the durations of its direct children.
Geometry is counted at its outermost calls only: a geometry call made
while another geometry span is open runs unwrapped.  Counters that need a
look at arguments or results (cells, pairs, escalations, ...) are taken at
the same boundary, after the span closes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _cells(args, kwargs, result):
    return {"cells": int(np.size(args[0]))}


def _pairs(args, kwargs, result):
    return {"pairs": int(result.pairs)}


def _found(args, kwargs, result):
    return {"found": len(result)}


def _escalations(args, kwargs, result):
    return {"escalations": int(result.escalations)}


def _probe_pairs(args, kwargs, result):
    probes = result.probe_count if hasattr(result, "probe_count") else result["probe_count"]
    return {"pair_terms": probes * len(args[0])}


def _weak_pairs(args, kwargs, result):
    return {"pair_terms": int(result["count"])}


def _build_counts(args, kwargs, result):
    return {"completed_generations": result.completed_generations,
            "selected_nodes": len(result.seq)}


def _report_bytes(args, kwargs, result):
    return {"report_bytes": sum(Path(p).stat().st_size for p in result)}


# (module, attribute or Class.attribute, counter) per traced function.  The
# span name is "<module>.<attribute without class>"; counters land in
# "<module>.<counter key>" when the key names the module's own total
# (escalations, pair_terms, ...) and in "<span name>.<key>" otherwise.
LAYERS = [
    ("weights", "maximal_values", _cells),
    ("weights", "subtree_sums", None),
    ("weights", "TreeWeight.eval_polar", None),
    ("weights", "osc_constants", _pairs),
    ("weights", "bp_constant", None),
    ("weights", "b1_constant", None),
    ("factorization", "rdf_factor", _escalations),
    ("factorization", "op_s", None),
    ("extension", "extend_b1", None),
    ("extension", "extend_bp", None),
    ("averaging", "good_nodes", _found),
    ("averaging", "dyadic_restriction", None),
    ("averaging", "rect_quadrature", None),
    ("averaging", "ContinuousDomain.clip_to_top", None),
    ("averaging", "extend_continuous", None),
    ("averaging", "theta_measure_spectrum", None),
    ("averaging", "avg_beta_check", None),
    ("martingales", "carleson_sup", _probe_pairs),
    ("martingales", "trace_sup_i", _probe_pairs),
    ("martingales", "trace_weak_l1", _weak_pairs),
    ("martingales", "azuma_counts", None),
    ("martingales", "counterexample_build", _build_counts),
    ("cli", "run", None),
    ("cli", "write_artifacts", _report_bytes),
    ("fixtures", "continuous_fixture", None),
]

# counters that are module totals rather than per-function figures
_MODULE_COUNTERS = {"escalations", "pair_terms", "completed_generations",
                    "selected_nodes", "report_bytes"}

# geometry classes whose methods and properties count as geometry calls
_GEOMETRY_CLASSES = ("UnitArc", "GridNode", "DiscPoint")

MODULES = ("geometry", "weights", "factorization", "extension", "averaging",
           "martingales", "fixtures", "cli")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}
        self._stack: list = []
        self._in_geometry = False
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span, such as one operation."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, prefix: str, values: dict) -> None:
        for key, v in values.items():
            full = f"{prefix.split('.')[0]}.{key}" if key in _MODULE_COUNTERS else f"{prefix}.{key}"
            self.counters[full] = self.counters.get(full, 0) + v

    def wrap(self, span_name: str, fn, counter=None):
        nid = self._name_id(span_name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer._count(span_name, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_geometry(self, fn):
        nid = self._name_id("geometry")
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_geometry:
                return fn(*args, **kwargs)
            tracer._in_geometry = True
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._in_geometry = False

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, mods, original, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = [importlib.import_module(f"discweights.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, mods))
        for mod_name, qual, counter in LAYERS:
            mod = by_name[mod_name]
            span_name = f"{mod_name}.{qual.split('.')[-1]}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, attr, self.wrap(span_name, cls.__dict__[attr], counter))
            else:
                original = getattr(mod, qual)
                self._patch_everywhere(mods, original, self.wrap(span_name, original, counter))

        geometry = by_name["geometry"]
        for attr in geometry.__all__:
            obj = getattr(geometry, attr)
            if inspect.isfunction(obj):
                self._patch_everywhere(mods, obj, self.wrap_geometry(obj))
        for cls_name in _GEOMETRY_CLASSES:
            cls = getattr(geometry, cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("__") and attr != "__post_init__":
                    continue
                if isinstance(obj, property):
                    self._set(cls, attr, property(self.wrap_geometry(obj.fget)))
                elif inspect.isfunction(obj):
                    self._set(cls, attr, self.wrap_geometry(obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def layer_totals(self) -> dict:
        """calls and self seconds per span name, plus every counter."""
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        out = dict(self.counters)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(self_s[i])
        return out

    def dump(self, path: Path) -> None:
        """Write every span, with the name table, as one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
