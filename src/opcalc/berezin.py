"""Berezin-Toeplitz layer: frames from a fiducial vector.

Fixing a unit vector w, the field w(s) = pi(s)* w resolves the identity, so
analysis u -> <u, w(.)> is an isometry into symbol space.  Its range is a
reproducing kernel space with kernel <w(t), w(s)>; Berezin operators are
frame-weighted multiplication operators and their Toeplitz compressions act
on the kernel space.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import (MeasureSpace, Symbol, _readonly, _require, as_operator,
                   as_vector, op_norm, product_space, trace, vec_norm)
from .family import (OperatorFamily, _adjoint_sum, _diag_blocks, _matrix_blocks,
                     _scatter, _traces, verify_sq)
from .calculus import Quantizer, quantize


class Frame:
    """A fiducial unit vector w with its vector field w(s) = pi(s)* w and kernel.

    ``blocks`` = (rows (k, r), cols (k, c), W (k, r, c)) holds the field, zero
    elsewhere, by the row-class rule of ``OperatorFamily``: k = hdim and c = 1
    for a basis vector on a monomial family, else the one block.  Blocks have
    disjoint supports, so the kernel <w(t), w(s)> is exactly 0 between them;
    ``kernel`` holds its k diagonal (r, r) blocks conj(W[b]) W[b]^T.  Both are
    built unchecked (``make_frame`` checks).  The read-only dense ``wfield`` is
    scattered from the blocks on each read; the blocks' ``overlap``
    |<w(s), w(t)>|^2 is computed on first use.
    """

    def __init__(self, fam: OperatorFamily, w):
        self.fam, self.w = fam, _readonly(as_vector(w, fam.hdim).copy())
        # pi(s)* w: entry l is conj Tr[e_l w* pi(s)]
        field = _traces(fam, self.w.conj() * np.eye(fam.hdim)[:, :, None])
        self.blocks = _matrix_blocks(field.conj())
        W = self.blocks[2]
        self.kernel = _readonly(W.conj() @ W.swapaxes(1, 2))

    @property
    def space(self) -> MeasureSpace:
        return self.fam.space

    @property
    def wfield(self) -> np.ndarray:
        """The dense field, ``wfield[s]`` = pi(s)* w, scattered from the blocks."""
        return _readonly(_scatter(*self.blocks, (self.space.npoints, self.fam.hdim)))

    @cached_property
    def overlap(self) -> np.ndarray:
        """(k, r, r) blocks |kernel^T|^2 on each row class; 0 between classes."""
        return _readonly((np.abs(self.kernel.swapaxes(1, 2)) ** 2).astype(complex))


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
    fr = Frame(fam, w)
    residual = resolution_residual(fr)
    if residual > tol:
        raise ArithmeticError(
            f"resolution of identity fails (residual {residual:.3e} > {tol:.1e})")
    return fr


def resolution_residual(fr: Frame) -> float:
    """Operator-norm distance from 1 of the identity resolution berezin_op(1)."""
    ones = Symbol(fr.space, np.ones(fr.space.npoints))
    return op_norm(berezin_op(fr, ones) - np.eye(fr.fam.hdim))


def _on_points(fr: Frame, x: np.ndarray) -> Symbol:
    """The symbol with value ``x[b, i]`` at point ``rows[b, i]`` of the frame blocks."""
    values = np.zeros(fr.space.npoints, dtype=complex)
    values[fr.blocks[0]] = x
    return Symbol(fr.space, values)


def analysis(fr: Frame, u) -> Symbol:
    """Analysis map: u -> <u, w(.)>, an isometry into symbol space."""
    u = as_vector(u, fr.fam.hdim)
    _, cols, W = fr.blocks
    return _on_points(fr, np.sum(W.conj() * u[cols][:, None, :], axis=2))


def synthesis(fr: Frame, f: Symbol) -> np.ndarray:
    """Adjoint of analysis: the weighted superposition of frame vectors.

    Equals quantize(f) applied to the fiducial vector; composing with
    analysis gives back the identity on the Hilbert space.
    """
    _require(f.space == fr.space, "symbol lives on a different space")
    rows, cols, W = fr.blocks
    out = np.zeros(fr.fam.hdim, dtype=complex)
    out[cols] = ((fr.space.weights * f.values)[rows][:, None, :] @ W)[:, 0]
    return out


def kernel_projector(fr: Frame) -> np.ndarray:
    """Matrix of the reproducing projection on symbol value vectors.

    Acts as (P f)(s) = sum_t w_t kernel(s, t) f(t); idempotent, self-adjoint
    in the weighted inner product, with range dimension equal to the Hilbert
    space dimension.
    """
    rows = fr.blocks[0]
    return _scatter(rows, rows, fr.kernel * fr.space.weights[rows][:, None, :],
                    (fr.space.npoints,) * 2)


def berezin_op(fr: Frame, f: Symbol) -> np.ndarray:
    """Weighted sum of rank-one frame projections scaled by the symbol.

    Contractive for the sup norm, positivity preserving, and with trace
    equal to the integral of f against ||w(.)||^2.
    """
    _require(f.space == fr.space, "symbol lives on a different space")
    rows, cols, W = fr.blocks
    wf = (fr.space.weights * f.values)[rows]
    return _scatter(cols, cols, (W.swapaxes(1, 2) * wf[:, None, :]) @ W.conj(),
                    (fr.fam.hdim,) * 2)


def toeplitz_op(fr: Frame, f: Symbol) -> np.ndarray:
    """Toeplitz compression on symbol space: project, multiply, project."""
    _require(f.space == fr.space, "symbol lives on a different space")
    rows = fr.blocks[0]
    return _scatter(rows, rows, _toeplitz_blocks(fr, f), (fr.space.npoints,) * 2)


def _toeplitz_blocks(fr: Frame, f: Symbol) -> np.ndarray:
    """The (k, r, r) diagonal blocks of ``toeplitz_op``: the kernel projector
    vanishes between row classes, so each is compressed on its own."""
    rows = fr.blocks[0]
    P = fr.kernel * fr.space.weights[rows][:, None, :]
    return P @ (f.values[rows][:, :, None] * P)


def covariant_symbol_sigma(fr: Frame, A) -> Symbol:
    """Covariant symbol of an operator on symbol space.

    Pairs A against the analysis images of the frame vectors themselves,
    i.e. against the kernel columns.  A kernel column is zero outside its
    row class, so only the diagonal blocks of A are read.
    """
    A = np.asarray(A, dtype=complex)
    _require(A.shape == (fr.space.npoints,) * 2, "operator must act on symbol value vectors")
    return _sigma(fr, _diag_blocks(A, fr.blocks[0]))


def _sigma(fr: Frame, A: np.ndarray) -> Symbol:
    """``covariant_symbol_sigma`` from the (k, r, r) diagonal blocks of A."""
    K, w = fr.kernel, fr.space.weights[fr.blocks[0]]
    return _on_points(fr, np.sum(w[:, :, None] * (A @ K) * K.conj(), axis=1))


def covariant_symbol_tau(fr: Frame, S) -> Symbol:
    """Covariant symbol of a Hilbert-space operator: s -> <S w(s), w(s)>."""
    _, cols, W = fr.blocks
    S = _diag_blocks(as_operator(S, fr.fam.hdim), cols)
    return _on_points(fr, np.sum((W @ S.swapaxes(1, 2)) * W.conj(), axis=2))


def covariant_berezin_symbol(fr: Frame, g: Symbol) -> Symbol:
    """The common covariant symbol of the Berezin/Toeplitz pair.

    s -> integral of g(t) |<w(s), w(t)>|^2 dmu(t); equals both
    sigma(toeplitz_op(g)) and tau(berezin_op(g)).
    """
    _require(g.space == fr.space, "symbol lives on a different space")
    wg = (fr.space.weights * g.values)[fr.blocks[0]]
    return _on_points(fr, (fr.overlap @ wg[:, :, None])[:, :, 0])


def _smoothed(fr: Frame, f: Symbol) -> Symbol:
    """s -> integral of f(t) <pi(s) w(t), w(t)> dmu(t): the traces against the
    family of the one operator sum_t w_t f(t) w(t) w(t)*."""
    rows, cols, W = fr.blocks
    wf = (fr.space.weights * f.values)[rows]
    M = (W.conj().swapaxes(1, 2) * wf[:, None, :]) @ W       # its transposed blocks
    return Symbol(fr.space, _traces(fr.fam, _scatter(cols, cols, M, (fr.fam.hdim,) * 2).T))


def berezin_as_quantization(fr: Frame, q: Quantizer, f: Symbol) -> Symbol:
    """Symbol whose quantization is the Berezin operator of f.

    Returns s -> integral of f(t) <pi(s) w(t), w(t)> dmu(t), the pointwise
    trace of the Berezin operator against the family, and asserts that
    quantizing it reproduces berezin_op(fr, f).
    """
    _require(q.fam is fr.fam or q.fam.space == fr.space,
             "quantizer and frame must share a family")
    tol = fr.fam.working_tol()
    _require(f.space == fr.space, "symbol lives on a different space")
    smoothed = _smoothed(fr, f)
    residual = op_norm(quantize(q, smoothed) - berezin_op(fr, f))
    if residual > tol:
        raise ArithmeticError(
            f"Berezin factorization fails (residual {residual:.3e} > {tol:.1e})")
    return smoothed


def frame_identities(fr: Frame, q: Quantizer, symbols) -> dict:
    """Residuals of the Berezin-Toeplitz identities, each the worst over symbols.

    Keys: the identity resolution; ||berezin_op(f)|| - sup|f| (at most 0);
    the least eigenvalue of berezin_op(|f|) (at least 0); the trace formula;
    toeplitz_op(f) against analysis-conjugated berezin_op(f), block by block;
    sigma and tau against covariant_berezin_symbol(f); berezin_as_quantization.
    """
    _require(q.fam is fr.fam or q.fam.space == fr.space,
             "quantizer and frame must share a family")
    (rows, cols, W), weights = fr.blocks, fr.space.weights
    synthesis_blocks = W.swapaxes(1, 2) * weights[rows][:, None, :]
    w_norms = _on_points(fr, np.linalg.norm(W, axis=2) ** 2).values
    norm_margin = pos_floor = trace_res = toeplitz_res = cov_res = fact_res = 0.0
    for f in symbols:
        om = berezin_op(fr, f)
        toep = _toeplitz_blocks(fr, f)
        norm_margin = max(norm_margin, op_norm(om) - float(np.abs(f.values).max()))
        eigs = np.linalg.eigvalsh(berezin_op(fr, Symbol(fr.space, np.abs(f.values))))
        pos_floor = min(pos_floor, float(eigs.min()))
        trace_res = max(trace_res, abs(trace(om) - np.dot(weights, f.values * w_norms)))
        toeplitz_res = max(toeplitz_res, float(np.abs(
            toep - W.conj() @ _diag_blocks(om, cols) @ synthesis_blocks).max()))
        three = covariant_berezin_symbol(fr, f).values
        sigma = _sigma(fr, toep).values
        tau = covariant_symbol_tau(fr, om).values
        cov_res = max(cov_res, float(np.abs(sigma - three).max()),
                      float(np.abs(tau - three).max()))
        fact_res = max(fact_res, op_norm(quantize(q, _smoothed(fr, f)) - om))
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
