"""Berezin-Toeplitz layer: frames from a fiducial vector.

Fixing a unit vector w, the field w(s) = pi(s)* w resolves the identity, so
analysis u -> <u, w(.)> is an isometry into symbol space.  Its range is a
reproducing kernel space with kernel <w(t), w(s)>; Berezin operators are
frame-weighted multiplication operators and their Toeplitz compressions act
on the kernel space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MeasureSpace, Symbol, _readonly, _require, as_operator,
                   as_vector, l2_inner, op_norm, product_space, vec_norm)
from .family import OperatorFamily, coefficient, verify_sq
from .calculus import Quantizer, quantize


@dataclass(frozen=True, eq=False)
class Frame:
    """A fiducial unit vector with its derived vector field and kernel.

    ``wfield[s]`` holds pi(s)* w; ``kernel[s, t]`` is <w(t), w(s)>, which is
    conjugate-symmetric and reproduces the range of the analysis map.
    """

    fam: OperatorFamily
    w: np.ndarray
    wfield: np.ndarray
    kernel: np.ndarray

    @property
    def space(self) -> MeasureSpace:
        return self.fam.space


def make_frame(fam: OperatorFamily, w, tol: float | None = None) -> Frame:
    """Build the frame and assert the resolution of identity.

    The weighted sum of the rank-one projections onto w(s) must reproduce
    the identity within tolerance; this is exactly square integrability
    evaluated on the fiducial vector.
    """
    tol = fam.working_tol() if tol is None else tol
    w = as_vector(w, fam.hdim)
    if abs(vec_norm(w) - 1.0) > tol:
        raise ValueError("fiducial vector must be a unit vector")
    if not verify_sq(fam, tol=tol).passed:
        raise ValueError("family fails square-integrability; no frame")
    wfield = np.einsum("sji,j->si", np.conj(fam.stack), w)   # pi(s)* w
    kernel = wfield.conj() @ wfield.T                        # <w(t), w(s)>
    resolution = wfield.T @ (fam.space.weights[:, None] * wfield.conj())
    residual = op_norm(resolution - np.eye(fam.hdim))
    if residual > tol:
        raise ArithmeticError(
            f"resolution of identity fails (residual {residual:.3e} > {tol:.1e})")
    return Frame(fam, _readonly(w), _readonly(wfield), _readonly(kernel))


def resolution_residual(fr: Frame) -> float:
    """Operator-norm distance of the frame's identity resolution from 1."""
    resolution = fr.wfield.T @ (fr.space.weights[:, None] * fr.wfield.conj())
    return op_norm(resolution - np.eye(fr.fam.hdim))


def analysis(fr: Frame, u) -> Symbol:
    """Analysis map: u -> <u, w(.)>, an isometry into symbol space."""
    u = as_vector(u, fr.fam.hdim)
    return Symbol(fr.space, fr.wfield.conj() @ u)


def synthesis(fr: Frame, f: Symbol) -> np.ndarray:
    """Adjoint of analysis: the weighted superposition of frame vectors.

    Equals quantize(f) applied to the fiducial vector; composing with
    analysis gives back the identity on the Hilbert space.
    """
    _require(f.space == fr.space, "symbol lives on a different space")
    return (fr.space.weights * f.values) @ fr.wfield


def kernel_projector(fr: Frame) -> np.ndarray:
    """Matrix of the reproducing projection on symbol value vectors.

    Acts as (P f)(s) = sum_t w_t kernel(s, t) f(t); idempotent, self-adjoint
    in the weighted inner product, with range dimension equal to the Hilbert
    space dimension.
    """
    return fr.kernel * fr.space.weights[None, :]


def berezin_op(fr: Frame, f: Symbol) -> np.ndarray:
    """Weighted sum of rank-one frame projections scaled by the symbol.

    Contractive for the sup norm, positivity preserving, and with trace
    equal to the integral of f against ||w(.)||^2.
    """
    _require(f.space == fr.space, "symbol lives on a different space")
    wf = fr.space.weights * f.values
    return (fr.wfield.T * wf) @ fr.wfield.conj()


def toeplitz_op(fr: Frame, f: Symbol) -> np.ndarray:
    """Toeplitz compression on symbol space: project, multiply, project."""
    _require(f.space == fr.space, "symbol lives on a different space")
    P = kernel_projector(fr)
    return P @ (f.values[:, None] * P)


def covariant_symbol_sigma(fr: Frame, A) -> Symbol:
    """Covariant symbol of an operator on symbol space.

    Pairs A against the analysis images of the frame vectors themselves,
    i.e. against the kernel columns.
    """
    A = np.asarray(A, dtype=complex)
    m = fr.space.npoints
    _require(A.shape == (m, m), "operator must act on symbol value vectors")
    AK = A @ fr.kernel
    values = np.sum(fr.space.weights[:, None] * AK * fr.kernel.conj(), axis=0)
    return Symbol(fr.space, values)


def covariant_symbol_tau(fr: Frame, S) -> Symbol:
    """Covariant symbol of a Hilbert-space operator: s -> <S w(s), w(s)>."""
    S = as_operator(S, fr.fam.hdim)
    values = np.einsum("ij,sj,si->s", S, fr.wfield, fr.wfield.conj())
    return Symbol(fr.space, values)


def covariant_berezin_symbol(fr: Frame, g: Symbol) -> Symbol:
    """The common covariant symbol of the Berezin/Toeplitz pair.

    s -> integral of g(t) |<w(s), w(t)>|^2 dmu(t); equals both
    sigma(toeplitz_op(g)) and tau(berezin_op(g)).
    """
    _require(g.space == fr.space, "symbol lives on a different space")
    values = (np.abs(fr.kernel.T) ** 2) @ (fr.space.weights * g.values)
    return Symbol(fr.space, values)


def berezin_as_quantization(fr: Frame, q: Quantizer, f: Symbol,
                            tol: float | None = None) -> Symbol:
    """Symbol whose quantization is the Berezin operator of f.

    Returns s -> integral of f(t) <pi(s) w(t), w(t)> dmu(t), the pointwise
    trace of the Berezin operator against the family, and asserts that
    quantizing it reproduces berezin_op(fr, f).
    """
    _require(q.fam is fr.fam or q.fam.space == fr.space,
             "quantizer and frame must share a family")
    tol = fr.fam.working_tol() if tol is None else tol
    _require(f.space == fr.space, "symbol lives on a different space")
    # <pi(s) w(t), w(t)> integrated against f over t; this is exactly
    # Tr[berezin_op(f) pi(s)] unfolded through the rank-one trace identities
    pair = np.einsum("sij,tj,ti->st", fr.fam.stack,
                     fr.wfield, fr.wfield.conj())
    values = pair @ (fr.space.weights * f.values)
    smoothed = Symbol(fr.space, values)
    residual = op_norm(quantize(q, smoothed) - berezin_op(fr, f))
    if residual > tol:
        raise ArithmeticError(
            f"Berezin factorization fails (residual {residual:.3e} > {tol:.1e})")
    return smoothed


def upsilon_transform(fr: Frame, g: Symbol) -> Symbol:
    """Isometry into the product space built from frame coefficient symbols.

    Value at (s, t) is the inner product of g with the coefficient symbol of
    the pair (w(t), w(s)); on range symbols the map preserves the norm.
    """
    _require(g.space == fr.space, "symbol lives on a different space")
    # phi[r, t, s] = <pi(r) w(t), w(s)>
    pw = np.einsum("rij,tj->rti", fr.fam.stack, fr.wfield)
    phi = np.einsum("rti,si->rts", pw, fr.wfield.conj())
    wg = fr.space.weights * g.values
    values = np.einsum("r,rts->st", wg, phi.conj())
    return Symbol(product_space(fr.space, fr.space), values.reshape(-1))
