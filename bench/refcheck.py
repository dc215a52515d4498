"""Reference comparison of workload results.

A result is one JSON-like record per checked operation.  ``flatten`` turns a
record into ``{path: (leaf, tol)}``: numeric arrays become their shape, sum and
norm, and ``tol`` is the tolerance the record itself states (the nearest
enclosing ``"tol"`` key).  The stored reference keeps only the leaves on which
several input seeds agree, so it pins the seed-independent part of every
output: verdicts, shapes, residuals and the outputs of fixed probe inputs.
"""

from __future__ import annotations

import numbers

import numpy as np

#: Certificate metadata that ROADMAP item 2 is expected to change while the
#: verdict stays; the error text of a failed task is not a result either.
SKIPPED_KEYS = frozenset({"pairs", "mode", "tested_pairs", "error"})


def flatten(record, tol: float) -> dict:
    out: dict = {}
    _flatten(record, "", tol, out)
    return out


def _flatten(obj, path, tol, out):
    if isinstance(obj, dict):
        if isinstance(obj.get("tol"), numbers.Real):
            tol = float(obj["tol"])
        for key in sorted(obj):
            if key not in SKIPPED_KEYS:
                _flatten(obj[key], f"{path}.{key}" if path else str(key), tol, out)
        return
    if isinstance(obj, (list, tuple, np.ndarray)):
        try:
            arr = np.asarray(obj)
        except ValueError:          # ragged nesting
            arr = np.empty(0, dtype=object)
        if arr.dtype.kind in "biufc" and arr.size:
            out[f"{path}#shape"] = ("x".join(map(str, arr.shape)), tol)
            total = complex(arr.sum())
            out[f"{path}#sum.re"] = (total.real, tol)
            if arr.dtype.kind == "c":
                out[f"{path}#sum.im"] = (total.imag, tol)
            out[f"{path}#norm"] = (float(np.linalg.norm(arr)), tol)
            return
        for i, item in enumerate(obj):
            _flatten(item, f"{path}.{i}", tol, out)
        return
    if isinstance(obj, (bool, str, type(None), np.bool_)):
        out[path] = (obj if not isinstance(obj, np.bool_) else bool(obj), tol)
        return
    if isinstance(obj, numbers.Complex):
        z = complex(obj)
        if isinstance(obj, numbers.Real):
            out[path] = (z.real, tol)
        else:
            out[f"{path}.re"] = (z.real, tol)
            out[f"{path}.im"] = (z.imag, tol)
        return
    raise TypeError(f"cannot flatten {type(obj).__name__} at {path!r}")


def leaf_matches(path: str, got, want, tol: float) -> bool:
    """Equal leaves; numbers within tol (relative above magnitude one).

    A verdict that was ``error`` in the reference may become ``pass``: that is
    a fixed defect, not a wrong result.
    """
    if isinstance(want, bool) or isinstance(got, bool) or \
            isinstance(want, str) or want is None:
        if path.endswith("verdict") and want == "error" and got == "pass":
            return True
        return got == want
    if not isinstance(got, numbers.Real) or isinstance(got, bool):
        return False
    return abs(got - want) <= tol * max(1.0, abs(want))


def mismatches(got: dict, want: dict) -> list[str]:
    """Paths of ``want`` that ``got`` lacks or disagrees on."""
    bad = []
    for path, (value, tol) in want.items():
        if path not in got or not leaf_matches(path, got[path][0], value, tol):
            bad.append(path)
    return bad


def agreeing(flats: list[dict]) -> dict:
    """Leaves present in every flattened record and matching the first."""
    first = flats[0]
    keep = {}
    for path, (value, tol) in first.items():
        if all(path in f and leaf_matches(path, f[path][0], value, tol)
               for f in flats[1:]):
            keep[path] = (value, tol)
    return keep
