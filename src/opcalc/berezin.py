"""Berezin-Toeplitz layer: frames from a fiducial vector.

Fixing a unit vector w, the field w(s) = pi(s)* w resolves the identity, so
analysis u -> <u, w(.)> is an isometry into symbol space.  Its range is a
reproducing kernel space with kernel <w(t), w(s)>; Berezin operators are
frame-weighted multiplication operators and their Toeplitz compressions act
on the kernel space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (MeasureSpace, Symbol, _readonly, _require, as_operator,
                   as_vector, op_norm, product_space, trace, vec_norm)
from .family import OperatorFamily, verify_sq
from .calculus import Quantizer, _adjoint_sum, quantize


@dataclass(frozen=True, eq=False)
class Frame:
    """A fiducial unit vector with its derived vector field and kernel.

    ``wfield[s]`` holds pi(s)* w; ``kernel[s, t]`` is <w(t), w(s)>, which is
    conjugate-symmetric and reproduces the range of the analysis map.
    ``overlap[s, t]`` is |<w(s), w(t)>|^2, computed on first use.
    """

    fam: OperatorFamily
    w: np.ndarray
    wfield: np.ndarray
    kernel: np.ndarray

    @property
    def space(self) -> MeasureSpace:
        return self.fam.space

    @cached_property
    def overlap(self) -> np.ndarray:
        return _readonly((np.abs(self.kernel.T) ** 2).astype(complex))


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
    wfield = (w.conj() @ fam.stack).conj()                   # pi(s)* w
    kernel = wfield.conj() @ wfield.T                        # <w(t), w(s)>
    fr = Frame(fam, _readonly(w), _readonly(wfield), _readonly(kernel))
    residual = resolution_residual(fr)
    if residual > tol:
        raise ArithmeticError(
            f"resolution of identity fails (residual {residual:.3e} > {tol:.1e})")
    return fr


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
    W = fr.wfield
    values = np.sum((W @ as_operator(S, fr.fam.hdim).T) * W.conj(), axis=1)
    return Symbol(fr.space, values)


def covariant_berezin_symbol(fr: Frame, g: Symbol) -> Symbol:
    """The common covariant symbol of the Berezin/Toeplitz pair.

    s -> integral of g(t) |<w(s), w(t)>|^2 dmu(t); equals both
    sigma(toeplitz_op(g)) and tau(berezin_op(g)).
    """
    _require(g.space == fr.space, "symbol lives on a different space")
    return Symbol(fr.space, fr.overlap @ (fr.space.weights * g.values))


def _frame_pairing(fr: Frame) -> np.ndarray:
    """pair[s, t] = <pi(s) w(t), w(t)>; against f over t, Tr[berezin_op(f) pi(s)]."""
    W = fr.wfield
    R = (W.conj()[:, :, None] * W[:, None, :]).reshape(len(W), -1)  # conj w(t) (x) w(t)
    return fr.fam.flat @ R.T


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
    smoothed = Symbol(fr.space, _frame_pairing(fr) @ (fr.space.weights * f.values))
    residual = op_norm(quantize(q, smoothed) - berezin_op(fr, f))
    if residual > tol:
        raise ArithmeticError(
            f"Berezin factorization fails (residual {residual:.3e} > {tol:.1e})")
    return smoothed


def frame_identities(fr: Frame, q: Quantizer, symbols) -> dict:
    """Residuals of the Berezin-Toeplitz identities, each the worst over symbols.

    Keys: the identity resolution; ||berezin_op(f)|| - sup|f| (at most 0);
    the least eigenvalue of berezin_op(|f|) (at least 0); the trace formula;
    toeplitz_op(f) against analysis-conjugated berezin_op(f); sigma and tau
    against covariant_berezin_symbol(f); and berezin_as_quantization.
    """
    _require(q.fam is fr.fam or q.fam.space == fr.space,
             "quantizer and frame must share a family")
    weights = fr.space.weights
    analysis_mat = fr.wfield.conj()
    synthesis_mat = weights * fr.wfield.T
    w_norms = np.linalg.norm(fr.wfield, axis=1) ** 2
    pair = _frame_pairing(fr)
    norm_margin = pos_floor = trace_res = toeplitz_res = cov_res = fact_res = 0.0
    for f in symbols:
        om = berezin_op(fr, f)
        toep = toeplitz_op(fr, f)
        norm_margin = max(norm_margin, op_norm(om) - float(np.abs(f.values).max()))
        eigs = np.linalg.eigvalsh(berezin_op(fr, Symbol(fr.space, np.abs(f.values))))
        pos_floor = min(pos_floor, float(eigs.min()))
        trace_res = max(trace_res, abs(trace(om) - np.dot(weights, f.values * w_norms)))
        toeplitz_res = max(toeplitz_res, float(np.abs(
            toep - analysis_mat @ om @ synthesis_mat).max()))
        three = covariant_berezin_symbol(fr, f).values
        sigma = covariant_symbol_sigma(fr, toep).values
        tau = covariant_symbol_tau(fr, om).values
        cov_res = max(cov_res, float(np.abs(sigma - three).max()),
                      float(np.abs(tau - three).max()))
        smoothed = Symbol(fr.space, pair @ (weights * f.values))
        fact_res = max(fact_res, op_norm(quantize(q, smoothed) - om))
    return {"resolution_residual": resolution_residual(fr),
            "norm_bound_margin": norm_margin,
            "positivity_floor": pos_floor,
            "trace_identity_residual": trace_res,
            "toeplitz_equality_residual": toeplitz_res,
            "covariant_identity_residual": cov_res,
            "factorization_residual": fact_res}


def upsilon_transform(fr: Frame, g: Symbol) -> Symbol:
    """Isometry into the product space built from frame coefficient symbols.

    Value at (s, t) is the inner product of g with the coefficient symbol of
    the pair (w(t), w(s)); on range symbols the map preserves the norm.
    """
    _require(g.space == fr.space, "symbol lives on a different space")
    # sum over r of w g(r) conj<pi(r) w(t), w(s)> is <Q w(s), w(t)>, Q = sum w g pi*
    W = fr.wfield
    values = W @ _adjoint_sum(fr.fam, fr.space.weights * g.values).T @ W.conj().T
    return Symbol(product_space(fr.space, fr.space), values.reshape(-1))
