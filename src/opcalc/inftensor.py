"""Restricted tensor products at finite truncation.

A restricted product holds finitely many factors, each a square-integrable
family with a distinguished base point where the family is the identity and a
distinguished unit vector.  The measure sequence indexed by the truncation
level N integrates over the first N factor spaces while the remaining factors
sit at their base points; square integrability holds exactly for vectors
embedded at level M <= N and only in the limit for generic vectors, which is
what the defect curves report.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (MeasureSpace, Symbol, _require, _spec_int, as_vector, product_space,
                   vec_norm)
from .family import OperatorFamily, verify_sq

#: Cap on the entries of the last level array of ``levels``, prod m_k * prod d_k
#: (32 MiB of complex numbers); an SQ factor has m_k >= d_k^2, so it bounds D too.
LEVEL_ENTRY_CAP = 2 ** 21
#: Cap on the entries of a factor's dense view m_k * d_k^2, which ``levels``
#: scatters (256 MiB of complex numbers): the n^4 view of a grid n = 64.
VIEW_ENTRY_CAP = 2 ** 24
FACTOR_CAP = 12


def level_refusal(sizes) -> str | None:
    """Why factors of these (npoints, hdim) sizes are refused, or None."""
    if not 1 <= len(sizes) <= FACTOR_CAP:
        return f"factor count must be between 1 and {FACTOR_CAP}"
    entries = math.prod(m * d for m, d in sizes)     # exact, no wrap
    view = max(m * d * d for m, d in sizes)
    if entries > LEVEL_ENTRY_CAP:
        return f"a level array of {entries} entries exceeds the cap {LEVEL_ENTRY_CAP = }"
    if view > VIEW_ENTRY_CAP:
        return f"a factor view of {view} entries exceeds the cap {VIEW_ENTRY_CAP = }"
    return None


@dataclass(frozen=True)
class Factor:
    fam: OperatorFamily
    base_index: int
    w: np.ndarray


class RestrictedProduct:
    """Finitely many pointed factors; level-N operators act mode by mode."""

    def __init__(self, factors: list[Factor]):
        self.factors = factors
        self.J = len(factors)
        self.dims = [f.fam.hdim for f in factors]
        self.full_dim = int(np.prod(self.dims))
        self._level_spaces: dict[int, MeasureSpace] = {}

    def tail_vector(self, M: int) -> np.ndarray:
        """Kronecker product of the distinguished vectors beyond level M."""
        return functools.reduce(np.kron, [f.w for f in self.factors[M:]],
                                np.ones(1, dtype=complex))

    def embed(self, x, M: int) -> np.ndarray:
        """Embed a level-M vector: append the distinguished tail."""
        x = as_vector(x, int(np.prod(self.dims[:M])) if M else 1)
        return np.kron(x, self.tail_vector(M))

    def level_space(self, N: int) -> MeasureSpace:
        """Product of the first N factor spaces (the support of mu^(N)),
        built by extending the cached level N - 1 by factor N."""
        _require(1 <= N <= self.J, "truncation level out of range")
        if N not in self._level_spaces:
            self._level_spaces[N] = self.factors[0].fam.space if N == 1 else \
                product_space(self.level_space(N - 1), self.factors[N - 1].fam.space)
        return self._level_spaces[N]

    def levels(self, u):
        """Yield (weights, X) for N = 1 ... J: the level-N product measure and
        pi(s) u at every level-N point, as an (m_N, D) array.

        Factor k is one GEMM, ``stack.reshape(m_k d_k, d_k)`` times the mode-k
        unfolding of level k - 1; the tail modes are untouched (the exact
        identity).  Only the points-first array (points so far, modes so far,
        later modes) is carried: m_N * D numbers, not the level stack's m_N * D^2.
        """
        X, weights, P, L = as_vector(u, self.full_dim), np.ones(1), 1, 1
        for f, dk in zip(self.factors, self.dims):
            m = f.fam.npoints
            X = (f.fam.stack.reshape(m * dk, dk)
                 @ X.reshape(P, L, dk, -1).transpose(2, 0, 1, 3).reshape(dk, -1)
                 ).reshape(m, dk, P, L, -1).transpose(2, 0, 3, 1, 4).reshape(P * m, -1)
            P, L = P * m, L * dk
            weights = np.multiply.outer(weights, f.fam.space.weights).reshape(-1)
            yield weights, X

    def level(self, N: int, u) -> tuple[np.ndarray, np.ndarray]:
        """Level N of ``levels(u)``, from a sweep that stops there."""
        _require(1 <= N <= self.J, "truncation level out of range")
        return next(itertools.islice(self.levels(u), N - 1, None))

    def level_stack(self, N: int) -> np.ndarray:
        """Dense level-N operators, tail factors 1: the m_N * D^2 test reference."""
        _require(1 <= N <= self.J, "truncation level out of range")
        tail = np.eye(int(np.prod(self.dims[N:])))
        return functools.reduce(np.kron, [f.fam.stack for f in self.factors[:N]]
                                + [tail])


def build_restricted(factors, tol: float | None = None) -> RestrictedProduct:
    """Validate and assemble a restricted product.

    ``factors`` is a sequence of (family, base point index, unit vector).
    Every family must pass the square-integrability test, act as the
    identity at its base point, and come with a unit distinguished vector.
    """
    factors = list(factors)
    refusal = level_refusal([(fam.npoints, fam.hdim) for fam, _, _ in factors])
    _require(refusal is None, refusal)
    built = []
    for j, (fam, base_index, w) in enumerate(factors):
        t = (fam.working_tol() if tol is None else tol)
        w = as_vector(w, fam.hdim)
        _require(abs(vec_norm(w) - 1.0) <= t, f"factor {j}: vector must be unit")
        base_index = _spec_int(base_index, f"factor {j}: base point", fam.npoints)
        gap = np.abs(fam.op(base_index) - np.eye(fam.hdim)).max()
        _require(gap <= t,
                 f"factor {j} lacks an identity at its base point (gap {gap:.3e})")
        _require(verify_sq(fam, tol=t).passed, f"factor {j} fails square-integrability")
        built.append(Factor(fam, base_index, w))
    return RestrictedProduct(built)


def sq_defect(rp: RestrictedProduct, N: int, u, v) -> float:
    """Distance of the level-N orthogonality integral from its limit value.

    Zero (to tolerance) whenever u and v are embedded at a level M <= N;
    non-increasing to zero in N for arbitrary vectors of the full space.
    """
    u = as_vector(u, rp.full_dim)
    return _sq_defect(*rp.level(N, u), u, as_vector(v, rp.full_dim))


def _sq_defect(weights: np.ndarray, X: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> float:
    """``sq_defect`` from the level vectors X = pi(.)u."""
    phi = X @ np.conj(v)
    integral = float(np.dot(weights, np.abs(phi) ** 2))
    return abs(integral - vec_norm(u) ** 2 * vec_norm(v) ** 2)


def projected_overlap(rp: RestrictedProduct, N: int, M: int,
                      u1, v1, u2, v2) -> tuple[float, float]:
    """Level-N overlap integral against level-M projections, with its bound.

    Returns (integral of |<pi u1, P v1> <P v2, pi u2>| dmu^(N),
    ||u1|| ||P v1|| ||u2|| ||P v2||) where P projects onto the level-M range.
    """
    _require(0 <= M <= rp.J, "level out of range")
    tail = rp.tail_vector(M)
    # P v = iota iota* v, applied without the D x D projector
    pv1, pv2 = (rp.embed(as_vector(v, rp.full_dim).reshape(-1, tail.size)
                         @ tail.conj(), M) for v in (v1, v2))
    u1 = as_vector(u1, rp.full_dim)
    u2 = as_vector(u2, rp.full_dim)
    weights, X = rp.level(N, u1)
    f1 = X @ np.conj(pv1)
    f2 = rp.level(N, u2)[1] @ np.conj(pv2)
    integral = float(np.dot(weights, np.abs(f1) * np.abs(f2)))
    bound = vec_norm(u1) * vec_norm(pv1) * vec_norm(u2) * vec_norm(pv2)
    return integral, bound


def berezin_truncated(rp: RestrictedProduct, N: int, u,
                      f: Symbol) -> np.ndarray:
    """Truncated Berezin operator built on the non-adjoint frame pi(.)u.

    Full-space operator integrating f(s) |pi(s)u><pi(s)u| over the level-N
    measure; norm-bounded by ||u||^2 sup|f| and positive for positive f.
    """
    _require(f.space == rp.level_space(N),
             "symbol must live on the level-N product space")
    return _berezin_truncated(rp.level(N, u)[1], f.space.weights * f.values)


def _berezin_truncated(X: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """``berezin_truncated`` from the level vectors X = pi(.)u and w * f.

    Computed as conj(conj(X^T wf) X), so one m_N x D temporary is made, not two.
    """
    A = X.T * wf
    np.conj(A, out=A)
    return (A @ X).conj()


def frame_kernel_inf(rp: RestrictedProduct):
    """On-demand reproducing kernel of the restricted-product frame.

    Points are given sparsely as {factor index: point index} (missing factors
    sit at their base points); the kernel value is the finite product of
    per-factor pairings <w_j(t_j), w_j(s_j)> with w_j(s) = pi_j(s)* w_j and
    w_j the factor's distinguished unit vector, so base-base factors
    contribute exactly 1.
    """
    factors = rp.factors

    def normalize(point) -> dict:
        out = {}
        for j, idx in point.items() if isinstance(point, dict) else enumerate(point):
            j = _spec_int(j, "factor", rp.J)
            idx = _spec_int(idx, f"factor {j} point", factors[j].fam.npoints)
            if idx != factors[j].base_index:
                out[j] = idx
        return out

    def kernel(s, t) -> complex:
        s, t = normalize(s), normalize(t)
        value = 1.0 + 0.0j
        for j in sorted(set(s) | set(t)):
            fac = factors[j]
            ws = fac.fam.op(s.get(j, fac.base_index)).conj().T @ fac.w
            wt = fac.fam.op(t.get(j, fac.base_index)).conj().T @ fac.w
            value *= complex(np.sum(wt * np.conj(ws)))
        return value

    return kernel
