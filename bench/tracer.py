"""Span tracing of opcalc from outside the library.

``Tracer.install`` replaces every public function of each ``opcalc.<module>``
namespace with a timing wrapper, in every namespace that holds it (so
``calculus.verify_sq`` and ``family.verify_sq`` share one wrapper), plus the
methods named in ``METHODS``.  Classes are left alone so ``isinstance`` keeps
working.  Spans stay in memory until the run writes them out; nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("core", "backends", "family", "calculus", "berezin", "inftensor",
          "magnetic", "cli")

#: Methods traced in addition to module-level functions: (module, class, method).
METHODS = (("magnetic", "MagneticBackend", "family"),
           ("inftensor", "RestrictedProduct", "level_stack"))

#: Family constructors whose self time is reported as ``family.closures``.
CLOSURES = ("family.tensor", "family.adjoint_family", "family.compress",
            "family.direct_sum", "family.direct_sum_product")

MB = 1024.0 * 1024.0

# span fields
NAME, LAYER, PARENT, LABEL, START, END, ERROR, NBYTES, STACK_BYTES = range(9)


def _nbytes(x) -> int:
    """Bytes of the largest array held by an argument or result."""
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, (tuple, list)):
        return max((_nbytes(v) for v in x[:8]), default=0)
    return max((a.nbytes for a in (getattr(x, attr, None) for attr in
                                   ("stack", "values", "b2_basis", "kernel"))
                if isinstance(a, np.ndarray)), default=0)


class Tracer:
    """Records one span per call into a traced opcalc callable."""

    def __init__(self):
        self.spans: list[list] = []
        self.label = None           # tag given to spans opened from now on
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self.names: set[str] = set()    # span names of every traced callable

    def _wrap(self, fn, name: str, layer: str):
        spans, open_ids = self.spans, self._open
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, layer, open_ids[-1] if open_ids else -1, self.label,
                    0.0, 0.0, False, 0, 0]
            spans.append(span)
            open_ids.append(sid)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                open_ids.pop()
            stack = getattr(result, "stack", None)
            if isinstance(stack, np.ndarray):
                span[STACK_BYTES] = stack.nbytes
            span[NBYTES] = max(_nbytes(args), _nbytes(list(kwargs.values())),
                               _nbytes(result))
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"opcalc.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == f"opcalc.{layer}"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for ns in (importlib.import_module("opcalc"), *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{layer}.{meth}", layer))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "layer": s[LAYER],
                    "parent": s[PARENT], "pass": s[LABEL],
                    "start": s[START], "end": s[END], "error": s[ERROR],
                    "max_array_bytes": s[NBYTES]}) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans, label) -> dict:
    """Per-name and per-layer totals of the spans tagged ``label``.

    Returns ``{"<layer>.<fn>.calls"|".self_s": ..., "<layer>.calls"|".self_s"|
    ".errors"|".max_array_mb": ..., "family.closures.self_s", "backends.stack_mb",
    "top_level_s"}``; names never called are absent.
    """
    own = self_times(spans)
    out: dict = defaultdict(float)
    for layer in LAYERS:
        for key in ("calls", "self_s", "errors", "max_array_mb"):
            out[f"{layer}.{key}"] = 0.0
    out["family.closures.self_s"] = 0.0
    out["backends.stack_mb"] = 0.0
    out["top_level_s"] = 0.0
    for sid, s in enumerate(spans):
        if s[LABEL] != label:
            continue
        name, layer = s[NAME], s[LAYER]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[sid]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own[sid]
        out[f"{layer}.errors"] += s[ERROR]
        out[f"{layer}.max_array_mb"] = max(out[f"{layer}.max_array_mb"],
                                           s[NBYTES] / MB)
        if name in CLOSURES:
            out["family.closures.self_s"] += own[sid]
        parent_layer = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
        if layer == "backends" and parent_layer != "backends":
            out["backends.stack_mb"] += s[STACK_BYTES] / MB
        if s[PARENT] < 0:
            out["top_level_s"] += s[END] - s[START]
    return dict(out)
