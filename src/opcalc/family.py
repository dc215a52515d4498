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
                   _spec_array, _spec_int, as_vector, product_space, vec_norm)


class OperatorFamily:
    """The pair (measure space, point -> operator) with dimension metadata.

    The family's one store is its coefficient matrix, the (npoints, hdim^2)
    array ``flat[s, j*hdim + i] = <pi(s)e_i, e_j>``, held as its nonzero
    ``blocks`` = (rows (k, r), cols (k, c), V (k, r, c)), zero elsewhere, with
    ``V[b] = flat[rows[b]][:, cols[b]]``; the per-call maps multiply them only
    in ``_traces`` (dequantization) and ``_adjoint_sum`` (quantization).
    Dense operators become their blocks at construction (``_matrix_blocks``):
    rows are classed by their first nonzero column, and the classes are kept
    when they are equal in size, every row has its class representative's
    nonzero pattern, and the representatives' column sets are disjoint and
    equal in size, as for monomial families (one nonzero per column of every
    pi(s)), where k = hdim.  Otherwise the family is the one block of all
    rows and all columns.  The zero test is exact.  A monomial family
    (``_monomial_family``) is built as its blocks directly.  ``stack``
    (npoints, hdim, hdim) and ``flat`` are read-only dense views scattered
    from the blocks on each read and kept nowhere.  ``tol`` and ``exact`` are
    the space's: a family gates at the quadrature tolerance its space
    declares, or at ``DEFAULT_TOL`` on an exact space.  The store and weights
    are read-only, so the square-integrability witness is computed once, on
    first use.
    """

    def __init__(self, space: MeasureSpace, operators):
        stack = np.array(operators, dtype=complex)        # a private copy
        _require(stack.ndim == 3 and stack.shape[0] == space.npoints,
                 "need one operator per point of the space")
        _require(stack.shape[1] == stack.shape[2], "operators must be square")
        _require(stack.shape[1] > 0, "operator dimension must be at least 1, got 0")
        _require(bool(np.all(np.isfinite(stack))), "operator entries must be finite")
        self.space = space
        self.hdim = stack.shape[1]
        self.blocks = _matrix_blocks(_readonly(stack).reshape(space.npoints, -1))

    @classmethod
    def _from_blocks(cls, space: MeasureSpace, hdim: int, blocks) -> OperatorFamily:
        """A family given by its coefficient blocks (rows, cols, V)."""
        fam = cls.__new__(cls)
        fam.space, fam.hdim = space, hdim
        fam.blocks = tuple(map(_readonly, blocks))
        return fam

    @property
    def npoints(self) -> int:
        return self.space.npoints

    @property
    def tol(self) -> float | None:
        return self.space.tol

    @property
    def exact(self) -> bool:
        return self.tol is None

    @property
    def stack(self) -> np.ndarray:
        """The dense (npoints, hdim, hdim) view, scattered from the blocks."""
        flat = _scatter(*self.blocks, (self.npoints, self.hdim ** 2))
        return _readonly(flat.reshape(self.npoints, self.hdim, self.hdim))

    @property
    def flat(self) -> np.ndarray:
        return self.stack.reshape(self.npoints, -1)

    def op(self, i: int) -> np.ndarray:
        """pi(s_i), read-only, from the point's block row; i must be a point
        index in [0, npoints)."""
        i = _spec_int(i, "point index", self.npoints)
        rows, cols, V = self.blocks
        b, j = divmod(int(self._block_row[i]), rows.shape[1])
        out = np.zeros(self.hdim ** 2, dtype=complex)
        out[cols[b]] = V[b, j]
        return _readonly(out.reshape(self.hdim, self.hdim))

    @cached_property
    def _block_row(self) -> np.ndarray:
        """Where each point's row sits in ``blocks[0].ravel()``: the blocks
        hold every point's row exactly once."""
        return np.argsort(self.blocks[0].ravel())

    def working_tol(self) -> float:
        return DEFAULT_TOL if self.tol is None else self.tol

    @cached_property
    def _sq_witness(self) -> tuple[float, tuple[int, int, int, int]]:
        """Largest deviation of the basis Gram from the identity, and where.

        Read from the k diagonal blocks of the Gram; the d^4 array is never
        formed.  Off the blocks the Gram is 0, so a basis column that no block
        covers deviates by exactly 1 on the diagonal and every other entry
        by 0.  The witness is the row-major first maximum of the d^2 x d^2
        deviation, index 0 when it is 0, as a dense argmax would give.
        """
        d, d2 = self.hdim, self.hdim ** 2
        cols, G = _gram_blocks(self)
        diag = np.arange(G.shape[1])
        G[:, diag, diag] -= 1.0
        dev = np.abs(G)
        uncovered = np.setdiff1d(np.arange(d2), cols)
        top = max(float(dev.max()), 1.0 if uncovered.size else 0.0)
        flat = 0
        if top > 0:
            b, i, j = np.nonzero(dev == top)
            at = cols[b, i] * d2 + cols[b, j]
            if top == 1.0:
                at = np.concatenate([at, uncovered * (d2 + 1)])
            flat = int(at.min())
        row, col = divmod(flat, d2)
        (j1, i1), (j2, i2) = divmod(row, d), divmod(col, d)
        return top, (i1, j1, i2, j2)

    def __repr__(self):
        return (f"OperatorFamily(hdim={self.hdim}, npoints={self.npoints}, "
                f"{'exact' if self.exact else f'tol={self.tol:g}'})")


def _matrix_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A matrix as read-only (rows (k, r), cols (k, c), V (k, r, c)), zero elsewhere.

    The blocks are the row classes of M's nonzero pattern; when its rows
    differ in nonzero count, are all zero, or their classes are not kept, M
    is the one block of all rows and all columns, a view of M.
    """
    mask = M != 0
    count = mask.sum(1)
    classes = None
    if count[0] > 0 and np.all(count == count[0]):
        classes = _row_classes(mask.nonzero()[1].reshape(len(M), -1))
    if classes is None:
        m, n = M.shape
        return (_readonly(np.arange(m)[None]), _readonly(np.arange(n)[None]),
                _readonly(M[None]))
    rows, cols = classes
    return rows, cols, _readonly(M[rows[:, :, None], cols[:, None, :]])


def _diag_blocks(A: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (k, n, n) diagonal blocks ``A[idx[b]][:, idx[b]]`` of a square array."""
    return A[idx[:, :, None], idx[:, None, :]]


def _scatter(rows: np.ndarray, cols: np.ndarray, X: np.ndarray, shape) -> np.ndarray:
    """The 2-D array of ``shape`` with X[b] at rows[b] x cols[b], zeros elsewhere."""
    out = np.zeros(shape, dtype=complex)
    out[rows[:, :, None], cols[:, None, :]] = X
    return out


def _class_sizes(keys: np.ndarray) -> np.ndarray:
    """How often each distinct key occurs, in increasing key order, for
    nonnegative integer keys: ``np.unique(keys, return_counts=True)[1]``
    without its first-call import of ``numpy.ma`` (about 6 ms cold)."""
    counts = np.bincount(keys)
    return counts[counts > 0]


def _row_classes(nz: np.ndarray):
    """(rows, cols) of the row classes of a sparsity pattern, or None.

    ``nz[s]`` holds row s's nonzero columns in increasing order, the same
    count for every row.  Rows are keyed by their first nonzero; see
    ``OperatorFamily`` for when the classes are kept.
    """
    first = nz[:, 0]
    counts = _class_sizes(first)
    if len(counts) < 2 or np.any(counts != counts[0]):
        return None
    rows = np.argsort(first, kind="stable").reshape(len(counts), -1)
    rep = nz[rows[:, 0]]
    if np.any(nz[rows] != rep[:, None]) or _class_sizes(rep.ravel()).max() > 1:
        return None
    return _readonly(rows), _readonly(rep)


def _monomial_family(space: MeasureSpace, perm, values) -> OperatorFamily:
    """The family with pi(s) e_i = values[s, i] e_perm[s, i], built as its blocks.

    ``perm`` and ``values`` are (npoints, hdim); each perm[s] must be a
    permutation.  Row s of ``flat`` has its nonzeros at the increasing
    columns t*hdim + inv[s, t], inv[s] the inverse permutation, so
    ``_row_classes`` runs on that (npoints, hdim) pattern: O(npoints * hdim),
    with the classes, row order, column order and values that
    ``_matrix_blocks`` gives on the dense coefficient matrix.  When a value
    is 0 or the classes are not kept, the dense stack is built and read as
    any dense family.
    """
    perm = np.asarray(perm)
    values = np.asarray(values, dtype=complex)
    m, d = perm.shape
    _require(m == space.npoints and values.shape == (m, d),
             "need one permutation and one value row per point of the space")
    _require(perm.dtype.kind in "iu" and 0 <= perm.min() and perm.max() < d,
             "permutation entries must be basis indices")
    hit = np.zeros((m, d), dtype=bool)
    np.put_along_axis(hit, perm, True, 1)
    _require(bool(hit.all()), "each point needs a permutation of the basis")
    _require(bool(np.all(np.isfinite(values))), "operator entries must be finite")
    inv = np.empty((m, d), dtype=int)
    np.put_along_axis(inv, perm, np.arange(d)[None], 1)
    classes = _row_classes(np.arange(d) * d + inv) if np.all(values != 0) else None
    if classes is not None:
        rows, cols = classes
        V = values[rows[:, :, None], (cols % d)[:, None, :]]
        return OperatorFamily._from_blocks(space, d, (rows, cols, V))
    stack = np.zeros((m, d, d), dtype=complex)
    stack[np.arange(m)[:, None], perm, np.arange(d)] = values
    return OperatorFamily(space, stack)


def coefficient(fam: OperatorFamily, u, v) -> Symbol:
    """Coefficient symbol s -> <pi(s)u, v> = Tr[u v* pi(s)], sesquilinear in (u, v)."""
    u = as_vector(u, fam.hdim)
    v = as_vector(v, fam.hdim)
    return Symbol(fam.space, _traces(fam, np.outer(np.conj(v), u).T))


def _traces(fam: OperatorFamily, T: np.ndarray) -> np.ndarray:
    """s -> Tr[T pi(s)] for T of shape (..., hdim, hdim), as (npoints, ...):
    one block product with vec(T^T), whose entry j*hdim + i is T[i, j]."""
    rows, cols, V = fam.blocks
    x = T.swapaxes(-1, -2).reshape(-1, fam.hdim ** 2).T
    out = np.zeros((fam.npoints, x.shape[1]), dtype=complex)
    out[rows] = V @ x[cols]
    return out.reshape((fam.npoints,) + T.shape[:-2])


def _adjoint_sum(fam: OperatorFamily, c: np.ndarray) -> np.ndarray:
    """The sum over s of c[s] pi(s)*, one block product with the coefficient blocks."""
    rows, cols, V = fam.blocks
    out = np.zeros(fam.hdim ** 2, dtype=complex)
    out[cols] = (np.conj(c)[rows][:, None, :] @ V)[:, 0]
    return out.conj().reshape(fam.hdim, fam.hdim).T


def _gram_blocks(fam: OperatorFamily) -> tuple[np.ndarray, np.ndarray]:
    """(cols (k, c), G (k, c, c)): the nonzero diagonal blocks V*WV of the
    basis Gram, ``G[b]`` at ``cols[b] x cols[b]``; a fresh, writable G."""
    rows, cols, V = fam.blocks
    A = V.conj().swapaxes(1, 2)
    A *= fam.space.weights[rows][:, None, :]
    return cols, A @ V


def _basis_gram(fam: OperatorFamily) -> np.ndarray:
    """Weighted Gram matrix of all basis coefficient symbols.

    Entry ((j1,i1),(j2,i2)) is the complex conjugate of the orthogonality
    integral for the basis quadruple (i1, j1, i2, j2); square integrability
    means the matrix is the identity.  It is the Choi matrix of the twirl
    X -> integral of pi(s) X pi(s)* dmu(s).  Columns of different blocks
    share no row, so only the k diagonal blocks of ``_gram_blocks`` are
    nonzero.
    """
    cols, G = _gram_blocks(fam)
    return _scatter(cols, cols, G, (fam.hdim ** 2,) * 2)


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


def invariant_subspace_check(fam: OperatorFamily, basis) -> bool:
    """True iff the span of ``basis`` columns is invariant under every pi(s)."""
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
    eye = np.eye(fam.hdim)
    proj_out = eye - Q @ Q.conj().T
    # pi(s)q at every point, entry l = Tr[q e_l^T pi(s)], one column q of Q at a time
    return all(np.abs(_traces(fam, eye[:, None, :] * q[:, None]) @ proj_out.T).max()
               <= fam.working_tol() for q in Q.T)


def tensor(f1: OperatorFamily, f2: OperatorFamily) -> OperatorFamily:
    """Kronecker-product family on the product space."""
    space = product_space(f1.space, f2.space)
    return OperatorFamily(space, np.kron(f1.stack, f2.stack))


def adjoint_family(fam: OperatorFamily) -> OperatorFamily:
    """Pointwise adjoint family; square-integrable iff the original is."""
    return OperatorFamily(fam.space, np.conj(np.swapaxes(fam.stack, 1, 2)))


def compress(f2: OperatorFamily, point_map, target_space: MeasureSpace,
             iota) -> OperatorFamily:
    """Compress a family along a point map and an isometry.

    ``point_map[s2]`` gives the target-point index of source point s2.  The
    pushforward of the source weights must reproduce the target weights, and
    ``iota`` (hdim2 x hdim1) must be an isometry.  The compressed operator at
    a target point is iota* pi2(s2) iota for any s2 in the fibre; all fibre
    representatives must agree to tolerance.  The target space must declare
    the source space's quadrature tolerance, since the compressed family
    gates at it.
    """
    _require(target_space.tol == f2.tol,
             f"target space declares tol {target_space.tol}, "
             f"the source space {f2.tol}")
    tol = f2.working_tol()
    p = _spec_array(point_map, "point map", integer=True)
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
    return OperatorFamily(target_space, stack)


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
    return OperatorFamily(space, stack)


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
    return OperatorFamily(space, stack)


def bounded_overlap_check(fams, u1, v1, u2, v2) -> float:
    """Absolute overlap integral for the direct sum of families.

    Evaluates the integral of |<pi(s)u1,v1> <v2,pi(s)u2>| for the
    block-diagonal sum over the shared space and asserts the bound
    ||u1|| ||v1|| ||v2|| ||u2||.  Returns the integral value.
    """
    summed = direct_sum(fams)
    f1 = coefficient(summed, u1, v1)
    f2 = coefficient(summed, u2, v2)
    value = float(np.dot(summed.space.weights, np.abs(f1.values) * np.abs(f2.values)))
    bound = vec_norm(u1) * vec_norm(v1) * vec_norm(v2) * vec_norm(u2)
    if value > bound + summed.working_tol():
        raise ArithmeticError(
            f"overlap integral {value:.6e} exceeds the bound {bound:.6e}")
    return value
