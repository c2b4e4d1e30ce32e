"""Spans and counters around warpbank's public functions.

The tracer patches functions from outside the package: every module of
the package that binds the same function object gets the wrapper, so
calls through ``warpbank.analyze``, ``transform.analyze`` or a name
imported into another module are all seen.  ``uninstall`` puts the
original objects back.

A span records (id, name, start, end, parent).  Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "warpbank"

# span name -> (module, function); layer names are the module names
SPANS = {
    "cli.main": ("cli", "main"),
    "specfile.load_bank_spec": ("specfile", "load_bank_spec"),
    "bank.build_bank": ("bank", "build_bank"),
    "bank.design_tight": ("bank", "design_tight"),
    "transform.analyze": ("transform", "analyze"),
    "transform.synthesize": ("transform", "synthesize"),
    "transform.save_coefficients": ("transform", "save_coefficients"),
    "transform.load_coefficients": ("transform", "load_coefficients"),
    "signal_io.read_wav": ("signal_io", "read_wav"),
    "signal_io.render_spectrogram": ("signal_io", "render_spectrogram"),
    "signal_io.write_pgm": ("signal_io", "write_pgm"),
    "signal_io.write_raw": ("signal_io", "write_raw"),
    "diagnostics.sufficient_bounds": ("diagnostics", "sufficient_bounds"),
    "diagnostics.empirical_bounds": ("diagnostics", "empirical_bounds"),
}

# counter name -> (module, function) whose calls are counted
CALL_COUNTERS = {
    "diagnostics.frame_operator_applies": ("transform", "apply_frame_operator"),
}
# counter name -> (module, classes, methods) whose evaluation points are counted
POINT_COUNTERS = {
    "prototypes.window_points": ("prototypes", ("CosineSumWindow",), ("__call__",)),
    "warping.map_points": (
        "warping", ("LogWarping", "SymPowWarping", "ErbLikeWarping", "SignedPowWarping"),
        ("f", "f_inv")),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, parent) -> None:
        self._stack.pop()
        self.spans.append((sid, name, start, time.perf_counter(), parent))

    def region(self, name: str) -> "Region":
        """A benchmark-level span (an op, the set-up)."""
        return Region(self, name)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start, parent)

        return wrapper

    def _call_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _point_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self_, x, *args, **kwargs):
            counts[name] += int(np.size(x))
            return fn(self_, x, *args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def _patch_everywhere(self, module: str, attr: str, make) -> None:
        if f"{PACKAGE}.{module}" not in sys.modules:
            return  # a layer the workload never imports
        orig = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            self._patch_everywhere(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, (module, attr) in CALL_COUNTERS.items():
            self._patch_everywhere(
                module, attr, lambda fn, n=name: self._call_counter(n, fn))
        for name, (module, classes, methods) in POINT_COUNTERS.items():
            mod = sys.modules[f"{PACKAGE}.{module}"]
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._point_counter(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time in seconds per span name under one root span."""
        children = defaultdict(list)
        by_id = {}
        for sid, name, start, end, parent in self.spans:
            by_id[sid] = (name, start, end)
            children[parent].append(sid)
        out: dict[str, float] = defaultdict(float)
        todo = list(children[root_id])
        while todo:
            sid = todo.pop()
            name, start, end = by_id[sid]
            covered = sum(by_id[c][2] - by_id[c][1] for c in children[sid])
            out[name] += (end - start) - covered
            todo.extend(children[sid])
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)


class Region:
    """Context manager for one benchmark-level span; ``sid`` is its id."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.start, self.parent)
        return False
