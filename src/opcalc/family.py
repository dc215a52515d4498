"""Operator families over measure spaces and the square-integrability test.

A family assigns a bounded operator to every point of a measure space.  The
central property is the orthogonality relation

    integral of <pi(s)u1,v1> <v2,pi(s)u2> dmu(s)  =  <u1,u2> <v2,v1>,

whose residual is what :func:`verify_sq` measures.  Families passing the test
are irreducible (trivial commutant, no proper invariant subspace) and are
closed under tensor products and compressions; direct sums genuinely fail,
which is why construction helpers for them never claim a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DEFAULT_TOL, MeasureSpace, Symbol, _readonly, _require,
                   as_vector, operator_to_json, product_space, space_to_json,
                   vec_norm)


class OperatorFamily:
    """The pair (measure space, point -> operator) with dimension metadata.

    Operators are stored as one dense stack of shape (npoints, hdim, hdim);
    ``flat`` is its (npoints, hdim^2) coefficient-matrix view, with
    ``flat[s, j*hdim + i] = <pi(s)e_i, e_j>``, which every map reads.
    ``tol`` is None for exact families; quadrature-built families carry the
    declared tolerance of their construction.  The stack and weights are
    read-only, so the square-integrability witness derived from them is
    computed once, on first use.
    """

    def __init__(self, space: MeasureSpace, operators, tol: float | None = None):
        stack = np.asarray(operators, dtype=complex)
        _require(stack.ndim == 3 and stack.shape[0] == space.npoints,
                 "need one operator per point of the space")
        _require(stack.shape[1] == stack.shape[2], "operators must be square")
        _require(bool(np.all(np.isfinite(stack))), "operator entries must be finite")
        self.space = space
        self.stack = _readonly(stack)
        self.flat = self.stack.reshape(space.npoints, -1)
        self.tol = tol

    @property
    def hdim(self) -> int:
        return self.stack.shape[1]

    @property
    def npoints(self) -> int:
        return self.space.npoints

    @property
    def exact(self) -> bool:
        return self.tol is None

    def op(self, i: int) -> np.ndarray:
        return self.stack[i]

    def working_tol(self) -> float:
        return DEFAULT_TOL if self.tol is None else self.tol

    @cached_property
    def _sq_witness(self) -> tuple[float, tuple[int, int, int, int]]:
        """Largest deviation of the basis Gram from the identity, and where."""
        d = self.hdim
        G = _basis_gram(self)
        G[np.diag_indices_from(G)] -= 1.0
        np.abs(G, out=G)
        row, col = divmod(int(G.real.argmax()), d * d)
        (j1, i1), (j2, i2) = divmod(row, d), divmod(col, d)
        return float(G.real[row, col]), (i1, j1, i2, j2)

    def __repr__(self):
        return (f"OperatorFamily(hdim={self.hdim}, npoints={self.npoints}, "
                f"{'exact' if self.exact else f'tol={self.tol:g}'})")


def family_to_json(fam: OperatorFamily) -> dict:
    d = {"space": space_to_json(fam.space),
         "hdim": fam.hdim,
         "operators": [operator_to_json(T) for T in fam.stack]}
    if fam.tol is not None:
        d["tol"] = float(fam.tol)
    return d


def family_from_json(d: dict) -> OperatorFamily:
    from .core import operator_from_json, space_from_json
    space = space_from_json(d["space"])
    ops = np.array([operator_from_json(block) for block in d["operators"]])
    fam = OperatorFamily(space, ops, tol=d.get("tol"))
    _require(fam.hdim == int(d["hdim"]), "declared dimension does not match")
    return fam


def coefficient(fam: OperatorFamily, u, v) -> Symbol:
    """Coefficient symbol s -> <pi(s)u, v>, sesquilinear in (u, v)."""
    u = as_vector(u, fam.hdim)
    v = as_vector(v, fam.hdim)
    values = (fam.stack @ u) @ np.conj(v)
    return Symbol(fam.space, values)


def _basis_gram(fam: OperatorFamily) -> np.ndarray:
    """Weighted Gram matrix of all basis coefficient symbols.

    Entry ((j1,i1),(j2,i2)) is the complex conjugate of the orthogonality
    integral for the basis quadruple (i1, j1, i2, j2); square integrability
    means the matrix is the identity.  It is the Choi matrix of the twirl
    X -> integral of pi(s) X pi(s)* dmu(s).
    """
    A = fam.flat.T.conj()
    A *= fam.space.weights
    return A @ fam.flat


@dataclass(frozen=True)
class SqReport:
    """Outcome of the square-integrability test.

    ``max_deviation`` is the largest residual over all hdim^4 basis
    quadruples (i1, j1, i2, j2); ``worst`` is a quadruple attaining it.
    """

    max_deviation: float
    worst: tuple[int, int, int, int]
    tested_pairs: int
    tol: float
    mode = "basis"      # the only mode: every basis quadruple is covered

    @property
    def verdict(self) -> str:
        return "pass" if self.max_deviation <= self.tol else "fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_deviation": float(self.max_deviation),
            "tested_pairs": int(self.tested_pairs),
            "tol": float(self.tol),
            "mode": self.mode,
            "worst": {"quadruple": list(self.worst),
                      "residual": float(self.max_deviation)},
        }


def verify_sq(fam: OperatorFamily, tol: float | None = None) -> SqReport:
    """Exact square-integrability certificate from the basis Gram matrix.

    By sesquilinearity the orthogonality relation holds iff it holds on all
    canonical-basis quadruples, i.e. iff the basis Gram matrix is the
    identity.  The deviation and its witness are computed once per family;
    ``tol`` is applied on each call.  Failure is a verdict, never an
    exception.
    """
    tol = fam.working_tol() if tol is None else tol
    deviation, worst = fam._sq_witness
    return SqReport(deviation, worst, fam.hdim ** 4, tol)


def commutant_dim(fam: OperatorFamily) -> int:
    """Dimension of {T : T pi(s) = pi(s) T for all s}.

    Nullity of L = sum w B*B, B = pi (x) 1 - 1 (x) pi^T on row-major vec T, read
    off the basis Gram by a reshuffle and two partial traces.  Eigenvalues of L
    square singular values, so couplings below about sqrt(d^2 eps) are lost.
    """
    d, eye = fam.hdim, np.eye(fam.hdim)
    G = _basis_gram(fam).reshape(d, d, d, d)
    X = G.transpose(2, 0, 3, 1).reshape(d * d, d * d)
    L = (np.kron(np.trace(G, axis1=0, axis2=2), eye)
         + np.kron(eye, np.trace(G, axis1=1, axis2=3)) - X - X.conj().T)
    return d * d - int(np.linalg.matrix_rank(L, hermitian=True))


def invariant_subspace_check(fam: OperatorFamily, basis,
                             tol: float | None = None) -> bool:
    """True iff the span of ``basis`` columns is invariant under every pi(s)."""
    tol = fam.working_tol() if tol is None else tol
    B = np.asarray(basis, dtype=complex)
    if B.size == 0:
        return True  # zero subspace
    if B.ndim == 1:
        B = B[:, None]
    _require(B.shape[0] == fam.hdim, "candidate basis lives in the wrong space")
    k = B.shape[1]
    Q, R = np.linalg.qr(B)
    _require(bool(np.min(np.abs(np.diag(R))) > 1e-12 * max(1.0, np.abs(R).max())),
             "candidate basis is not linearly independent")
    if k >= fam.hdim:
        return True  # full space
    proj_out = np.eye(fam.hdim) - Q @ Q.conj().T
    return np.abs(proj_out @ (fam.stack @ Q)).max() <= tol


def tensor(f1: OperatorFamily, f2: OperatorFamily) -> OperatorFamily:
    """Kronecker-product family on the product space."""
    space = product_space(f1.space, f2.space)
    stack = np.kron(f1.stack, f2.stack)
    tols = [t for t in (f1.tol, f2.tol) if t is not None]
    return OperatorFamily(space, stack, tol=max(tols) if tols else None)


def adjoint_family(fam: OperatorFamily) -> OperatorFamily:
    """Pointwise adjoint family; square-integrable iff the original is."""
    return OperatorFamily(fam.space, np.conj(np.swapaxes(fam.stack, 1, 2)),
                          tol=fam.tol)


def compress(f2: OperatorFamily, point_map, target_space: MeasureSpace,
             iota, tol: float | None = None) -> OperatorFamily:
    """Compress a family along a point map and an isometry.

    ``point_map[s2]`` gives the target-point index of source point s2.  The
    pushforward of the source weights must reproduce the target weights, and
    ``iota`` (hdim2 x hdim1) must be an isometry.  The compressed operator at
    a target point is iota* pi2(s2) iota for any s2 in the fibre; all fibre
    representatives must agree to tolerance.
    """
    tol = f2.working_tol() if tol is None else tol
    p = np.asarray(point_map, dtype=int)
    _require(p.shape == (f2.npoints,), "point map needs one entry per source point")
    _require(bool(np.all((0 <= p) & (p < target_space.npoints))),
             "point map hits indices outside the target space")

    push = np.zeros(target_space.npoints)
    np.add.at(push, p, f2.space.weights)
    if np.abs(push - target_space.weights).max() > tol:
        raise ValueError("pushforward of source weights does not match target weights")

    iota = np.asarray(iota, dtype=complex)
    _require(iota.ndim == 2 and iota.shape[0] == f2.hdim,
             "iota must map the target Hilbert space into the source one")
    d1 = iota.shape[1]
    if np.abs(iota.conj().T @ iota - np.eye(d1)).max() > tol:
        raise ValueError("iota is not an isometry")

    compressed = iota.conj().T @ f2.stack @ iota
    stack = np.zeros((target_space.npoints, d1, d1), dtype=complex)
    for t in range(target_space.npoints):
        fibre = compressed[p == t]
        spread = np.abs(fibre - fibre[0]).max() if len(fibre) > 1 else 0.0
        if spread > tol:
            raise ValueError(
                f"fibre over target point {t} is inconsistent (spread {spread:.3e})")
        wts = f2.space.weights[p == t]
        stack[t] = np.tensordot(wts / wts.sum(), fibre, axes=1)
    return OperatorFamily(target_space, stack, tol=f2.tol)


def direct_sum(fams) -> OperatorFamily:
    """Block-diagonal family over one shared measure space.

    The construction is always available but carries no square-integrability
    claim; verify_sq is the only arbiter (it genuinely fails here).
    """
    fams = list(fams)
    _require(len(fams) >= 1, "need at least one family")
    space = fams[0].space
    for f in fams[1:]:
        _require(f.space == space, "direct summands must share one measure space")
    dims = [f.hdim for f in fams]
    D = sum(dims)
    stack = np.zeros((space.npoints, D, D), dtype=complex)
    off = 0
    for f, d in zip(fams, dims):
        stack[:, off:off + d, off:off + d] = f.stack
        off += d
    tols = [f.tol for f in fams if f.tol is not None]
    return OperatorFamily(space, stack, tol=max(tols) if tols else None)


def direct_sum_product(f1: OperatorFamily, f2: OperatorFamily) -> OperatorFamily:
    """Block-diagonal family over the product measure.

    This is the canonical counterexample: even when both summands are
    square-integrable, the result is not (the witness integral picks up the
    mass of the other factor).
    """
    space = product_space(f1.space, f2.space)
    d1, d2 = f1.hdim, f2.hdim
    D = d1 + d2
    stack = np.zeros((space.npoints, D, D), dtype=complex)
    stack[:, :d1, :d1] = np.repeat(f1.stack, f2.npoints, 0)   # first factor slowest
    stack[:, d1:, d1:] = np.tile(f2.stack, (f1.npoints, 1, 1))
    tols = [t for t in (f1.tol, f2.tol) if t is not None]
    return OperatorFamily(space, stack, tol=max(tols) if tols else None)


def bounded_overlap_check(fams, u1, v1, u2, v2,
                          tol: float | None = None) -> float:
    """Absolute overlap integral for the direct sum of families.

    Evaluates the integral of |<pi(s)u1,v1> <v2,pi(s)u2>| for the
    block-diagonal sum over the shared space and asserts the bound
    ||u1|| ||v1|| ||v2|| ||u2||.  Returns the integral value.
    """
    summed = direct_sum(fams)
    tol = summed.working_tol() if tol is None else tol
    f1 = coefficient(summed, u1, v1)
    f2 = coefficient(summed, u2, v2)
    value = float(np.dot(summed.space.weights, np.abs(f1.values) * np.abs(f2.values)))
    bound = vec_norm(u1) * vec_norm(v1) * vec_norm(v2) * vec_norm(u2)
    if value > bound + tol:
        raise ArithmeticError(
            f"overlap integral {value:.6e} exceeds the bound {bound:.6e}")
    return value
