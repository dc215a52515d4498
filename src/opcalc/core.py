"""Core value types: weighted point measures, symbols, and dense operator algebra.

Every integral in the library is a weighted sum over finitely many points.
Continuous phase spaces enter only through declared quadrature rules, so all
identities reduce to machine-checkable matrix equalities.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Library-wide absolute tolerance for identity residuals on exact backends.
DEFAULT_TOL = 1e-10

#: Relative drop tolerance for rank decisions (coefficient-symbol spans).
RANK_DROP_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _is_int(x, lo: int | None = None, hi: int | None = None) -> bool:
    """True for an integer (not a bool) in [lo, hi); a bound of None is open."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and (lo is None or lo <= x) and (hi is None or x < hi))


def _is_num(x, positive: bool = True) -> bool:
    """True for a finite real number (not a bool); positive unless positive=False."""
    return (isinstance(x, (int, float, np.integer)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max and (x > 0 or not positive))


def _spec_int(value, name: str, stop: int | None = None) -> int:
    """A size or index, taken only as an integer (not a bool), and in
    [0, stop) if ``stop`` is given: ``int()`` would quietly truncate 2.7 to 2
    and run a smaller backend."""
    _require(_is_int(value), f"{name} must be an integer")
    _require(stop is None or _is_int(value, 0, stop),
             f"{name} {value} is not in [0, {stop})")
    return int(value)


def _spec_keys(spec: dict, keys, name: str, reader: str) -> None:
    """Refuse every key of ``spec`` outside ``keys``, the keys its ``reader``
    reads: a misspelt or leftover key would otherwise be silently ignored."""
    unknown = sorted(set(spec) - set(keys))
    _require(not unknown, f"{name} has unknown keys {', '.join(unknown)} "
             f"(a {reader} reads {', '.join(keys)})")


def _spec_num(value, name: str) -> float:
    """A real number, not a bool or a string (``float()`` reads both); a
    non-finite float passes on to its consumer's range check."""
    _require(_is_num(value, positive=False) or isinstance(value, float),
             f"{name} must be a number")
    return float(value)


def _spec_array(value, name: str, integer: bool = False) -> np.ndarray:
    """A nested list of numbers, or of integers, each read as above."""
    for x in np.asarray(value, dtype=object).reshape(-1):
        (_spec_int if integer else _spec_num)(x, f"each entry of {name}")
    return np.asarray(value, dtype=int if integer else float)


def _spec_complex(re, im) -> np.ndarray:
    """re + 1j * im of two real arrays, without the RuntimeWarning of 0 * inf:
    an infinite im gives nan + inf j, which every reader's finiteness check
    refuses."""
    with np.errstate(invalid="ignore"):
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


# ---------------------------------------------------------------------------
# measure spaces
# ---------------------------------------------------------------------------

class GridLabels:
    """The labels "(r,k)" of a rows x cols grid, row-major, made on demand.
    Distinct integer rows and cols give distinct labels, so a space over a
    grid needs neither the strings nor their uniqueness check."""

    def __init__(self, rows, cols):
        self.rows, self.cols = tuple(map(int, rows)), tuple(map(int, cols))
        _require(len(set(self.rows)) == len(self.rows)
                 and len(set(self.cols)) == len(self.cols),
                 "grid rows and cols must each be distinct")

    def __len__(self):
        return len(self.rows) * len(self.cols)

    def __iter__(self):
        return (f"({r},{k})" for r in self.rows for k in self.cols)

    def __eq__(self, other):
        if isinstance(other, GridLabels):
            return (self.rows, self.cols) == (other.rows, other.cols)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finitely many labelled points with strictly positive weights.

    A discretized continuous space declares its quadrature tolerance ``tol``;
    a genuinely finite space declares none.  That one value is the tolerance
    of every family on the space (``kind`` only names the case).  ``points``
    is a tuple of labels or a :class:`GridLabels` recipe, which keeps its
    labels unmade.  The weights are a private, read-only copy.
    """

    points: tuple | GridLabels
    weights: np.ndarray
    tol: float | None = None

    def __post_init__(self):
        grid = isinstance(self.points, GridLabels)   # labels unique by construction
        pts = self.points if grid else tuple(str(p) for p in self.points)
        w = np.array(self.weights, dtype=float)      # a private copy
        _require(w.ndim == 1 and len(pts) == w.size, "one weight per point")
        _require(w.size > 0, "a measure space needs at least one point")
        _require(bool(np.all(np.isfinite(w)) and np.all(w > 0)),
                 "weights must be strictly positive and finite")
        _require(grid or len(set(pts)) == len(pts), "point labels must be unique")
        _require(self.tol is None or _is_num(self.tol),
                 "a declared quadrature tolerance must be finite and positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def kind(self) -> str:
        return "exact" if self.tol is None else "quadrature"

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return (self.points == other.points
                and self.tol == other.tol
                and np.array_equal(self.weights, other.weights))

    __hash__ = None

    def space_id(self) -> str:
        """Deterministic content hash used in symbol serialization."""
        return self._space_id

    @cached_property
    def _space_id(self) -> str:
        # hashed once: the space is frozen and its weights are read-only
        payload = json.dumps(space_to_json(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def __repr__(self):
        return (f"MeasureSpace({self.npoints} points, mass={self.mass:.6g}, "
                f"kind={self.kind!r})")


def product_space(a: MeasureSpace, b: MeasureSpace) -> MeasureSpace:
    """Cartesian product with product weights.

    Points are ordered with the first factor varying slowest, matching the
    Kronecker convention used for tensor products of operator families.
    """
    points = tuple(f"{p}|{q}" for p in a.points for q in b.points)
    weights = np.multiply.outer(a.weights, b.weights).reshape(-1)
    tol = max((t for t in (a.tol, b.tol) if t is not None), default=None)
    return MeasureSpace(points, weights, tol)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Symbol:
    """Complex-valued function on a measure space, stored pointwise as a
    private, read-only copy of the given values."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)     # a private copy
        _require(v.ndim == 1 and v.size == self.space.npoints,
                 "symbol needs one value per point of its space")
        _require(bool(np.all(np.isfinite(v))), "symbol values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    def __repr__(self):
        return f"Symbol({self.space.npoints} points)"


def _same_space(f: Symbol, g: Symbol) -> MeasureSpace:
    _require(f.space == g.space, "symbols live on different measure spaces")
    return f.space


def integrate(f: Symbol) -> complex:
    """Weighted sum realizing the measure integral of ``f``."""
    return complex(np.dot(f.space.weights, f.values))


def l2_inner(f: Symbol, g: Symbol) -> complex:
    """Weighted inner product, linear in ``f`` and antilinear in ``g``."""
    space = _same_space(f, g)
    return complex(np.dot(space.weights, f.values * np.conj(g.values)))


def l2_norm(f: Symbol) -> float:
    return float(np.sqrt(max(l2_inner(f, f).real, 0.0)))


# ---------------------------------------------------------------------------
# vectors and dense operators (plain complex ndarrays)
# ---------------------------------------------------------------------------

def as_vector(u, dim: int | None = None) -> np.ndarray:
    u = np.asarray(u, dtype=complex).reshape(-1)
    _require(bool(np.all(np.isfinite(u))), "vector entries must be finite")
    if dim is not None:
        _require(u.size == dim, f"expected dimension {dim}, got {u.size}")
    return u


def as_operator(T, dim: int | None = None) -> np.ndarray:
    T = np.asarray(T, dtype=complex)
    _require(T.ndim == 2 and T.shape[0] == T.shape[1], "operators are square matrices")
    _require(bool(np.all(np.isfinite(T))), "operator entries must be finite")
    if dim is not None:
        _require(T.shape[0] == dim, f"expected dimension {dim}, got {T.shape[0]}")
    return T


def vec_inner(u, v) -> complex:
    """Hilbert-space inner product, antilinear in the second argument."""
    u = as_vector(u)
    v = as_vector(v, u.size)
    return complex(np.sum(u * np.conj(v)))


def vec_norm(u) -> float:
    return float(np.linalg.norm(as_vector(u)))


def rank_one(u, v) -> np.ndarray:
    """Rank-one operator sending x to <x, v> u; entries u[i] conj(v[j])."""
    u = as_vector(u)
    v = as_vector(v, u.size)
    return np.outer(u, np.conj(v))


def hs_inner(S, T) -> complex:
    """Hilbert-Schmidt pairing Tr(S T*)."""
    S = as_operator(S)
    T = as_operator(T, S.shape[0])
    return complex(np.vdot(T, S))


def trace(T) -> complex:
    return complex(np.trace(as_operator(T)))


def op_norm(T) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(as_operator(T), 2))


def trace_norm(T) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(as_operator(T), compute_uv=False)))


def hs_norm(T) -> float:
    return float(np.linalg.norm(as_operator(T)))


# ---------------------------------------------------------------------------
# seeded randomness (all library randomness flows through these helpers)
# ---------------------------------------------------------------------------

def random_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = random_vector(rng, dim)
    return u / np.linalg.norm(u)


def random_symbol(rng: np.random.Generator, space: MeasureSpace) -> Symbol:
    return Symbol(space, random_vector(rng, space.npoints))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def space_to_json(space: MeasureSpace) -> dict:
    d = {
        "points": list(space.points),
        "weights": [float(w) for w in space.weights],
        "kind": space.kind,
    }
    if space.tol is not None:
        d["tol"] = float(space.tol)
    return d


def operator_to_json(T) -> dict:
    T = as_operator(T)
    return {"dim": int(T.shape[0]),
            "re": T.real.tolist(),
            "im": T.imag.tolist()}


def operator_from_json(d: dict) -> np.ndarray:
    _spec_keys(d, ("dim", "re", "im"), "operator", "given operator")
    T = _spec_complex(d["re"], d["im"])
    return as_operator(T, _spec_int(d["dim"], "operator dim"))


def symbol_to_json(f: Symbol) -> dict:
    return {"space": f.space.space_id(),
            "re": f.values.real.tolist(),
            "im": f.values.imag.tolist()}


def symbol_from_json(d: dict, space: MeasureSpace) -> Symbol:
    _spec_keys(d, ("space", "re", "im"), "symbol", "given symbol")
    if "space" in d and d["space"] != space.space_id():
        raise ValueError("symbol was serialized against a different measure space")
    values = _spec_complex(d["re"], d["im"])
    return Symbol(space, values)
