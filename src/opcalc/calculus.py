"""Quantization, dequantization, and the transported symbol algebra.

``quantize`` integrates a symbol against the adjoint family and lands in the
Hilbert-Schmidt operators; ``dequantize`` recovers a symbol from traces
against the family.  On the closed span of coefficient symbols the two maps
are mutually inverse isometries, which turns that span into an H*-algebra
under the transported star product and involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DEFAULT_TOL, RANK_DROP_TOL, MeasureSpace, Symbol, _readonly,
                   _require, _spec_int, as_operator, hs_norm, op_norm, trace_norm)
from .family import OperatorFamily, _adjoint_sum, _traces, verify_sq

#: Guard on the stored entries of the three-point kernel, m^3/k on k classes.
_KERNEL_ENTRY_CAP = 20_000_000


@dataclass(frozen=True, eq=False)
class Quantizer:
    """An operator family together with an orthonormal basis of its symbol range.

    ``b2_basis[b]`` holds, per coefficient block b of ``fam.blocks``, symbol
    value vectors on the block's rows ``rows[b]``, orthonormal in the weighted
    inner product; the nonzero ones together span the image of the
    coefficient map inside L2 of the space (all of it for discrete Weyl
    systems, a proper subspace for compact-group backends).  The basis costs
    one batched SVD over the blocks and ``three_point`` holds m^3/k numbers
    on k coefficient classes, so each is computed on first use and then kept.
    """

    fam: OperatorFamily

    @property
    def space(self) -> MeasureSpace:
        return self.fam.space

    @cached_property
    def b2_basis(self) -> np.ndarray:
        """Coefficient symbols orthonormalized block by block, (k, min(c, r), r).

        Blocks share no row and no column, so the singular values of ``flat``
        are those of its blocks together; one counts when it exceeds
        ``RANK_DROP_TOL`` times the largest over all blocks, and the vectors
        of the others are stored as zero rows.
        """
        rows, _, V = self.fam.blocks
        sqrt_w = np.sqrt(self.space.weights)[rows][:, None, :]
        # V^T: one coefficient symbol per row, restricted to the block's rows
        _, svals, Vh = np.linalg.svd(V.swapaxes(1, 2) * sqrt_w, full_matrices=False)
        Vh /= sqrt_w                              # orthonormal in the weighted metric
        Vh[svals <= RANK_DROP_TOL * svals.max()] = 0.0
        return _readonly(Vh)

    @property
    def b2_rank(self) -> int:
        return int(np.count_nonzero(self.b2_basis.any(axis=2)))

    @cached_property
    def three_point(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kernel of the explicit composition law as (rows, target, K) blocks,
        built once per quantizer; see ``_three_point_kernel``."""
        return _three_point_kernel(self)


def build_quantizer(fam: OperatorFamily, tol: float | None = None) -> Quantizer:
    """Quantizer of a family that passes the square-integrability test.

    Raises if the family fails the test.  The range basis is left to
    ``Quantizer.b2_basis``, which only range projections read.
    """
    report = verify_sq(fam, tol=tol)
    if not report.passed:
        raise ValueError(
            f"family fails square-integrability (deviation {report.max_deviation:.3e} "
            f"> tol {report.tol:.1e}); cannot quantize")
    return Quantizer(fam)


def quantize(q: Quantizer, f: Symbol) -> np.ndarray:
    """Weighted sum of f(s) pi(s)*; kills the orthocomplement of the range."""
    _require(f.space == q.space, "symbol lives on a different space")
    return _adjoint_sum(q.fam, q.space.weights * f.values)


def dequantize(q: Quantizer, T) -> Symbol:
    """Symbol of an operator: s -> Tr[T pi(s)]."""
    T = as_operator(T, q.fam.hdim)
    return Symbol(q.space, _traces(q.fam, T))


def project_b2(q: Quantizer, f: Symbol) -> Symbol:
    """Orthogonal projection onto the span of the coefficient symbols."""
    _require(f.space == q.space, "symbol lives on a different space")
    rows, B = q.fam.blocks[0], q.b2_basis
    coeffs = (B @ np.conj(q.space.weights * f.values)[rows][:, :, None]).conj()
    out = np.zeros(q.fam.npoints, dtype=complex)
    out[rows] = (coeffs.swapaxes(1, 2) @ B)[:, 0]
    return Symbol(q.space, out)


def star(q: Quantizer, f: Symbol, g: Symbol) -> Symbol:
    """Transported product: dequantize the operator product.

    Inputs outside the symbol range are first projected (quantize does this
    implicitly), so the product is closed on the range.
    """
    return dequantize(q, quantize(q, f) @ quantize(q, g))


def involution(q: Quantizer, f: Symbol) -> Symbol:
    """Transported involution: dequantize the operator adjoint."""
    return dequantize(q, quantize(q, f).conj().T)


def _kernel_classes(fam: OperatorFamily):
    """(rows (k, r), perm (k, d), target (k, k), val (k, r, d)) of a family
    whose coefficient classes are maps i -> perm[a, i] closed under
    composition (a group on a monomial family), else None.

    Flat column j*d + i of class a means i -> j = perm[a, i], and
    ``val[a, s, i] = <pi(s) e_i, e_perm[a, i]>`` for s = rows[a][s].  The
    composite perm[b] o perm[a] is the class target[a, b].
    """
    rows, cols, V = fam.blocks
    k, d = len(rows), fam.hdim
    src = cols % d
    if k == 1 or cols.shape[1] != d or np.any(np.sort(src, 1) != np.arange(d)):
        return None
    order = np.argsort(src, 1)
    perm = np.take_along_axis(cols // d, order, 1)
    comp = perm[:, perm].swapaxes(0, 1)            # comp[a, b] = perm[b] o perm[a]
    owner = np.full(d * d, -1)
    owner[cols] = np.arange(k)[:, None]
    target = owner[comp[:, :, 0] * d]              # the class holding 0 -> comp(0)
    if np.any(target < 0) or np.any(perm[target] != comp):
        return None
    return rows, perm, target, np.take_along_axis(V, order[:, None, :], 2)


def _three_point_kernel(q: Quantizer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tr[pi(s)* pi(t)* pi(r)] as (rows (k, r), target (k, k), K (k, k, r^2, r)).

    ``K[a, b, i*r + j, l]`` is the kernel at s = rows[a][i], t = rows[b][j],
    r = rows[target[a, b]][l]; every other entry is exactly 0.  On a family
    whose classes compose (``_kernel_classes``), pi(t) pi(s) has the pattern
    of the one class target[a, b], whose columns no other class shares, so
    each block contracts the d nonzero entries of pi(s)* pi(t)* with that
    class: m^3 d/k work and m^3/k stored numbers.  Any other family is the
    one block, one (m^2, d^2) x (d^2, m) product.  A kernel of more than
    ``_KERNEL_ENTRY_CAP`` stored entries is refused before it is built.
    """
    fam = q.fam
    m, d = fam.npoints, fam.hdim
    classes = _kernel_classes(fam)
    entries = m ** 3 // (1 if classes is None else len(classes[0]))
    _require(entries <= _KERNEL_ENTRY_CAP, f"three-point kernel too large: {entries:,} "
             f"stored entries, over _KERNEL_ENTRY_CAP = {_KERNEL_ENTRY_CAP:,}")
    if classes is None:
        stack = fam.stack
        pistar = stack.conj().swapaxes(1, 2)
        # pi(s)* pi(t)*, transposed; the product is freed once it is copied
        ts = (pistar[:, None] @ pistar[None]).swapaxes(2, 3).reshape(m * m, d * d)
        K = (ts @ stack.reshape(m, d * d).T)[None, None]
        return np.arange(m)[None], np.zeros((1, 1), dtype=int), K
    rows, perm, target, val = classes
    k, r = rows.shape
    K = np.empty((k, k, r * r, r), dtype=complex)
    for a in range(k):          # one source class at a time: m^2 d/k gathered
        # the diagonal of pi(s)* pi(t)* against class target[a, b], (k, r, r, d)
        ts = np.conj(val[a][None, :, None, :] * val[:, None, :, perm[a]])
        np.matmul(ts.reshape(k, r * r, d), val[target[a]].swapaxes(1, 2), out=K[a])
    return rows, target, K


def star_explicit(q: Quantizer, f: Symbol, g: Symbol) -> Symbol:
    """Composition law as a double integral against the three-point kernel.

    In finite dimensions the identity is a (right) approximate unit, so the
    limit in the abstract formula collapses to a single evaluation.  Agrees
    with the transported star on range symbols; this is the independent
    route used to cross-check it.  Each kernel block meets the weighted
    symbols on its two source classes and lands on its target class.
    """
    _require(f.space == q.space and g.space == q.space,
             "symbols live on a different space")
    rows, target, K = q.three_point
    k, r = rows.shape
    w = q.space.weights
    wf, wg = (w * f.values)[rows], (w * g.values)[rows]
    pairs = (wf[:, None, :, None] * wg[None, :, None, :]).reshape(k, k, 1, r * r)
    out = np.zeros(q.fam.npoints, dtype=complex)
    np.add.at(out, rows[target], (pairs @ K)[:, :, 0])
    return Symbol(q.space, out)


def involution_explicit(q: Quantizer, f: Symbol) -> Symbol:
    """Explicit involution: r -> integral of Tr[pi(r) pi(s)] conj(f(s))."""
    _require(f.space == q.space, "symbol lives on a different space")
    two_point = _traces(q.fam, q.fam.stack)                # Tr[pi(s) pi(r)] at (r, s)
    return Symbol(q.space, two_point @ (q.space.weights * np.conj(f.values)))


def e_symbol(q: Quantizer, s: int) -> Symbol:
    """Point symbol: the symbol quantizing to pi(s)*."""
    return dequantize(q, q.fam.op(s).conj().T)


def pairing_with_e(q: Quantizer, f: Symbol, s: int) -> complex:
    """Trace pairing Tr[quantize(f) pi(s)]; reproduces f(s) on range symbols."""
    s = _spec_int(s, "point index", q.fam.npoints)
    return complex(dequantize(q, quantize(q, f)).values[s])


def quantize_measure(q: Quantizer, atoms) -> np.ndarray:
    """Quantize a finite complex measure given as (point index, mass) atoms.

    A single unit atom at t returns pi(t)*; a density against the base
    measure reproduces plain quantization.  The operator-norm bound
    ||result|| <= sum over the atoms of |mass| ||pi(t)|| is asserted.
    """
    c = np.zeros(q.fam.npoints, dtype=complex)
    bound = 0.0
    for idx, mass in atoms:
        t = _spec_int(idx, "point index", q.fam.npoints)
        c[t] += complex(mass)
        bound += abs(complex(mass)) * op_norm(q.fam.op(t))
    T = _adjoint_sum(q.fam, c)
    if op_norm(T) > bound + q.fam.working_tol():
        raise ArithmeticError("quantized measure violates the norm bound")
    return T


def symbol_norms(q: Quantizer, f: Symbol) -> tuple[float, float, float]:
    """Trace, Hilbert-Schmidt, and operator norm of the quantized symbol.

    Returns (b1, b2, binf); the chain binf <= b2 <= b1 is asserted.
    """
    T = quantize(q, f)
    b1, b2, binf = trace_norm(T), hs_norm(T), op_norm(T)
    slack = DEFAULT_TOL * max(1.0, b1)
    if not (binf <= b2 + slack and b2 <= b1 + slack):
        raise ArithmeticError("norm chain binf <= b2 <= b1 violated")
    return b1, b2, binf


def trace_pairing(q: Quantizer, f: Symbol, g: Symbol) -> complex:
    """Tr[quantize(f) quantize(g)*], the transported inner product."""
    Tf = quantize(q, f)
    Tg = quantize(q, g)
    return complex(np.vdot(Tg, Tf))


def mixed_trace(q: Quantizer, f: Symbol, S) -> complex:
    """Tr[quantize(f) S], asserted equal to its integral form.

    The integral form pairs f against the dequantized operator:
    integral of f(s) Tr[pi(s)* S] dmu(s).
    """
    S = as_operator(S, q.fam.hdim)
    left = complex(np.trace(quantize(q, f) @ S))
    traces = dequantize(q, S.conj().T).values             # conj Tr[pi(s)* S]
    right = complex(np.vdot(traces, q.space.weights * f.values))
    scale = max(1.0, abs(left))
    if abs(left - right) > max(q.fam.working_tol(), DEFAULT_TOL * scale):
        raise ArithmeticError(
            f"mixed trace mismatch: {left} vs integral form {right}")
    return left
