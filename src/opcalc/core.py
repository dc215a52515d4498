"""Core value types: weighted point measures, symbols, and dense operator algebra.

Every integral in the library is a weighted sum over finitely many points.
Continuous phase spaces enter only through declared quadrature rules, so all
identities reduce to machine-checkable matrix equalities.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: Library-wide absolute tolerance for identity residuals on exact backends.
DEFAULT_TOL = 1e-10

#: Relative drop tolerance for rank decisions (coefficient-symbol spans).
RANK_DROP_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _require(cond: bool, msg: str, exc=ValueError) -> None:
    if not cond:
        raise exc(msg)


# ---------------------------------------------------------------------------
# measure spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finitely many labelled points with strictly positive weights.

    ``kind`` is ``"exact"`` for genuinely finite spaces and ``"quadrature"``
    for discretized continuous spaces, in which case ``tol`` declares the
    quadrature tolerance.  ``factors`` records the factor spaces of a product
    so product points can be reassembled.
    """

    points: tuple
    weights: np.ndarray
    kind: str = "exact"
    tol: float | None = None
    factors: tuple | None = None

    def __post_init__(self):
        pts = tuple(str(p) for p in self.points)
        w = np.asarray(self.weights, dtype=float)
        _require(w.ndim == 1 and len(pts) == w.size, "one weight per point")
        _require(w.size > 0, "a measure space needs at least one point")
        _require(bool(np.all(np.isfinite(w)) and np.all(w > 0)),
                 "weights must be strictly positive and finite")
        _require(len(set(pts)) == len(pts), "point labels must be unique")
        _require(self.kind in ("exact", "quadrature"), f"unknown kind {self.kind!r}")
        if self.kind == "quadrature":
            _require(self.tol is not None and self.tol > 0,
                     "a quadrature space must declare a positive tolerance")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _readonly(w))

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
                and self.kind == other.kind
                and np.array_equal(self.weights, other.weights))

    __hash__ = None

    def space_id(self) -> str:
        """Deterministic content hash used in symbol serialization."""
        payload = json.dumps(space_to_json(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def __repr__(self):
        return (f"MeasureSpace({self.npoints} points, mass={self.mass:.6g}, "
                f"kind={self.kind!r})")


def product_space(a: MeasureSpace, b: MeasureSpace) -> MeasureSpace:
    """Cartesian product with product weights; factor structure recorded.

    Points are ordered with the first factor varying slowest, matching the
    Kronecker convention used for tensor products of operator families.
    """
    points = tuple(f"{p}|{q}" for p in a.points for q in b.points)
    weights = np.multiply.outer(a.weights, b.weights).reshape(-1)
    kind = "quadrature" if "quadrature" in (a.kind, b.kind) else "exact"
    tol = None
    if kind == "quadrature":
        tol = max(t for t in (a.tol, b.tol) if t is not None)
    return MeasureSpace(points, weights, kind=kind, tol=tol, factors=(a, b))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Symbol:
    """Complex-valued function on a measure space, stored pointwise."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
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
    if space.factors is not None:
        d["factors"] = [space_to_json(f) for f in space.factors]
    return d


def space_from_json(d: dict) -> MeasureSpace:
    factors = d.get("factors")
    return MeasureSpace(
        tuple(d["points"]),
        np.asarray(d["weights"], dtype=float),
        kind=d.get("kind", "exact"),
        tol=d.get("tol"),
        factors=tuple(space_from_json(f) for f in factors) if factors else None,
    )


def operator_to_json(T) -> dict:
    T = as_operator(T)
    return {"dim": int(T.shape[0]),
            "re": T.real.tolist(),
            "im": T.imag.tolist()}


def operator_from_json(d: dict) -> np.ndarray:
    T = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    return as_operator(T, int(d["dim"]))


def symbol_to_json(f: Symbol) -> dict:
    return {"space": f.space.space_id(),
            "re": f.values.real.tolist(),
            "im": f.values.imag.tolist()}


def symbol_from_json(d: dict, space: MeasureSpace) -> Symbol:
    if "space" in d and d["space"] != space.space_id():
        raise ValueError("symbol was serialized against a different measure space")
    values = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    return Symbol(space, values)
