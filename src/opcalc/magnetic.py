"""Magnetic Weyl calculus on a one-dimensional periodic grid.

The spatial box [-L/2, L/2) carries n equispaced nodes; shifts are locked to
integer multiples of the spacing so translations are exact permutations and
all quadrature error lives in the momentum integrals and in the circulation
of the vector potential (trapezoid rule along grid segments).  In one spatial
dimension the field 2-form vanishes identically, so the flux factor of the
composition law is 1 and gauge phases enter only through the circulation.

Conventions: dual frequencies are 2*pi*k/L for k in the symmetric window,
phase-space weights are dx * dxi / (2*pi) = 1/n per family point, and symbols
for the kernel quantizer live on the doubled midpoint grid (2n spatial nodes,
same dual window, weight 1/(2n) per point).

Because dx * xi_k = 2*pi*(k - n/2)/n, the lag transform and the half-step
refinement are DFTs up to signs (-1)^j; they run as FFTs, n^2 log n per
call.  The SQ certificate does not assume that identity: it is what the
certificate checks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .backends import BLOCK_ENTRY_CAP
from .core import GridLabels, MeasureSpace, Symbol, _is_int, _readonly, _require, op_norm
from .family import OperatorFamily, _monomial_family

GRID_MAX_N = 512        # largest grid a backend or a study accepts: each costs n^3
GRID_SIZES = f"an even integer in [4, {GRID_MAX_N}]"    # the rule of grid_size_ok

#: Complex entries per row chunk of ``magnetic_moyal``'s skewed copies: a
#: chunk of SA (512 KiB) and of the twice-as-wide SB (1 MiB) fit a 2 MiB L2.
_CHUNK_ENTRIES = 2 ** 15


def _alternating(idx) -> np.ndarray:
    """(-1)^i for every integer i of idx."""
    return 1.0 - 2.0 * (np.asarray(idx) % 2)


def grid_size_ok(n) -> bool:
    """Whether n is a grid size a backend and a study accept (``GRID_SIZES``)."""
    return _is_int(n, 4, GRID_MAX_N + 1) and n % 2 == 0


def _circulation_table(A: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid circulation of periodic A from node -n to node t - n, t in [0, 3n];
    paths are unwrapped chains of grid segments, so circulation is additive."""
    n = A.size
    ext = A[np.arange(-n, 2 * n + 1) % n]
    steps = 0.5 * (ext[:-1] + ext[1:]) * dx
    return np.concatenate([[0.0], np.cumsum(steps)])


class MagneticBackend:
    """Grid data, circulation table, and the derived quantization maps; the
    tables that depend only on the grid and A are built once, on first use."""

    def __init__(self, n: int, L: float, A=None, tol: float = 1e-6):
        _require(grid_size_ok(n), f"grid size must be {GRID_SIZES}")
        _require(bool(np.isfinite(L)) and L > 0, "box length must be finite and positive")
        _require(bool(np.isfinite(tol)) and tol > 0,
                 "declared quadrature tolerance must be finite and positive")
        self.n = self.hdim = int(n)            # one basis vector per node
        self.L = float(L)
        self.dx = self.L / self.n
        self.x = -self.L / 2 + self.dx * np.arange(self.n)
        self.k = np.arange(-self.n // 2, self.n // 2)
        with np.errstate(over="ignore"):
            self.xi = 2 * np.pi * self.k / self.L
        _require(bool(np.isfinite(self.xi).all()),
                 "box length too small: the dual grid overflows")
        self.tol = float(tol)

        # a copy: the circulation table below is built from A once
        A = np.zeros(self.n) if A is None else np.array(A, dtype=float)
        _require(A.shape == (self.n,), "need one vector-potential sample per node")
        _require(bool(np.all(np.isfinite(A))), "vector potential samples must be finite")
        self.A = _readonly(A)
        with np.errstate(over="ignore", invalid="ignore"):
            self._circ_cum = _circulation_table(A, self.dx)
        _require(bool(np.isfinite(self._circ_cum).all()),
                 "vector potential too large: its circulations overflow")

    # -- circulation -------------------------------------------------------

    def circulation(self, i: int, j: int) -> float:
        """Trapezoid circulation of A along the segment from node i to node j.

        Indices are unwrapped positions (multiples of the spacing); negative
        or beyond-the-box indices follow the periodic extension of A.
        """
        _require(-self.n <= i <= 2 * self.n and -self.n <= j <= 2 * self.n,
                 "path endpoint outside the tabulated extension")
        return float(self._circ_cum[j + self.n] - self._circ_cum[i + self.n])

    # -- spaces and family ---------------------------------------------------

    @cached_property
    def space(self) -> MeasureSpace:
        """The phase space: shift x dual grid, weight dx*dxi/(2*pi) = 1/n per point."""
        return self._grid_space(self.k)

    def _grid_space(self, rows) -> MeasureSpace:
        """Labels "(row,k)" over rows x dual grid, equal weights summing to n."""
        points = GridLabels(rows, self.k)
        return MeasureSpace(points, np.full(len(points), self.n / len(points)), self.tol)

    def _circulations(self, shifts) -> np.ndarray:
        """Circulation from every node m to m + r, shape (len(shifts), n)."""
        m = np.arange(self.n)
        r = np.asarray(shifts)[:, None]
        return self._circ_cum[m + r + self.n] - self._circ_cum[m + self.n]

    def family_refusal(self) -> str | None:
        """Why ``family`` refuses this grid, or None: its blocks hold n^3 entries."""
        return None if self.n ** 3 <= BLOCK_ENTRY_CAP else \
            f"built only for n^3 <= {BLOCK_ENTRY_CAP = }"

    def family(self) -> OperatorFamily:
        """The operator family on ``space`` (unless ``family_refusal``)."""
        refusal = self.family_refusal()
        _require(not refusal, f"the family is {refusal}; use sq_certificate instead")
        return self._family

    @cached_property
    def _family(self) -> OperatorFamily:
        """The family built as its n shift classes: pi(r, xi) e_c = phase e_(c - r)
        with the half-shift, modulation and gauge phase of row c - r."""
        n = self.n
        r = self.k[:, None]
        rows = (np.arange(n) - r) % n                       # [r, c]: row c - r
        x = self.x[rows][:, None]
        circ = np.take_along_axis(self._circulations(self.k), rows, 1)[:, None]
        values = np.exp(-1j * (x + r[:, None] * self.dx / 2.0) * self.xi[:, None]
                        - 1j * circ)
        perm = np.repeat(rows, n, axis=0)
        return _monomial_family(self.space, perm, values.reshape(-1, n))

    # -- square-integrability certificate (no family materialization) -------

    def sq_certificate(self) -> float:
        """Largest deviation of the family's basis Gram from the identity.

        Class r of the family has V_r[xi, m] = h_r(xi) e^{-i x_m xi} g_r(m),
        h_r the half-shift and g_r the gauge phases, both of modulus 1 (the
        potential is real), so its Gram block is conj(g_r) g_r^T times C_r,
        where C_r(d) = sum_xi w e^{i d dx xi} depends only on the signed lag
        d = m1 - m2: one (n, n) x (n, 2n - 1) product, n^3.  The deviation is
        |C_r(0) - 1| on the diagonal and |C_r(d)| off it.  The 2n - 1 lags are
        never folded mod n, since that assumes xi L in 2 pi Z, which is what
        the Gram checks.
        """
        n = self.n
        C = self.space.weights.reshape(n, n) @ np.exp(
            1j * self.dx * np.outer(self.xi, np.arange(1 - n, n)))
        off = np.delete(np.abs(C), n - 1, axis=1).max()
        return float(max(np.abs(C[:, n - 1] - 1.0).max(), off))

    # -- symbol sampling on the doubled midpoint grid ------------------------

    @cached_property
    def midpoint_space(self) -> MeasureSpace:
        return self._grid_space(range(2 * self.n))

    def midpoints(self) -> np.ndarray:
        return -self.L / 2 + (self.dx / 2.0) * np.arange(2 * self.n)

    @cached_property
    def _kernel_tables(self) -> tuple:
        """Lags -n/2..n/2 with their FFT column and sign, and per (row, lag) the
        source column, the arc midpoint and the output gather column."""
        n = self.n
        lags = np.arange(-n // 2, n // 2 + 1)
        i = np.arange(n)[:, None]
        src = (i - lags) % n
        mid = (2 * src + lags) % (2 * n)
        # M[i, j] holds the lag i - j, folded into -n/2..n/2-1, i.e. column
        # (i - j + n/2) mod n of the per-(row, lag) terms
        gather = (i - np.arange(n) + n // 2) % n
        return tuple(map(_readonly, (lags, lags % n, _alternating(lags), src, mid, gather)))

    @cached_property
    def _kernel_phases(self) -> np.ndarray:
        """Weighted arc phases of the backend's own potential, see ``_arc_phases``."""
        return _readonly(_arc_phases(self, self._circ_cum))

    def sample_symbol(self, fn) -> Symbol:
        """Sample a callable a(q, p) on the midpoint grid."""
        Q, P = np.meshgrid(self.midpoints(), self.xi, indexing="ij")
        return Symbol(self.midpoint_space, np.asarray(fn(Q, P), dtype=complex).reshape(-1))


def gaussian_symbol(backend: MagneticBackend, sigma=1.0,
                    center=(0.0, 0.0), modulation=(0.0, 0.0)) -> Symbol:
    """Phase-space Gaussian bump, optionally modulated; decays inside the box.

    ``sigma`` may be a scalar or a (position width, momentum width) pair.
    Band-limited composition tests want the momentum width a few times the
    position width: the operator's lag profile then dies out well inside the
    half-box and the remaining error is pure dual-window truncation, which
    refinement removes.
    """
    sq, sp = (sigma, sigma) if np.isscalar(sigma) else sigma
    q0, p0 = center
    mq, mp = modulation

    def fn(Q, P):
        return np.exp(-(Q - q0) ** 2 / (2.0 * sq ** 2)
                      - (P - p0) ** 2 / (2.0 * sp ** 2)
                      + 1j * (mq * Q + mp * P))

    return backend.sample_symbol(fn)


def op_a(backend: MagneticBackend, a: Symbol) -> np.ndarray:
    """Kernel quantizer: quadrature of the twisted Weyl integral.

    Entry (i, j) integrates exp(i(x_i-x_j)xi) times the gauge phase of the
    segment from x_j to x_i against the symbol at the segment midpoint.  On
    the periodic grid each entry is assigned its nearest lag representative
    and the midpoint of that arc (the unwrapped chord would break translation
    covariance at the seam and with it the composition law); the ambiguous
    Nyquist lag is split evenly between its two representatives.  For A = 0
    this is the standard Weyl quantizer on the grid.
    """
    return _kernel(backend, _lag_transform(backend, a))


def _lag_transform(backend: MagneticBackend, a: Symbol) -> np.ndarray:
    """(1/n) sum_k exp(i lag dx xi_k) a(mid, xi_k) per midpoint, shape (2n, n + 1).

    With dx xi_k lag = 2 pi (k - n/2) lag / n this is (-1)^lag times column
    lag mod n of the inverse FFT over the dual axis: n^2 log n per symbol.
    """
    _require(a.space == backend.midpoint_space,
             "symbol must be sampled on the backend's midpoint grid")
    _, cols, sign, _, _, _ = backend._kernel_tables
    return np.fft.ifft(a.values.reshape(-1, backend.n), axis=1)[:, cols] * sign


def _arc_phases(backend: MagneticBackend, table: np.ndarray) -> np.ndarray:
    """Lag weight times exp(i circulation) on every (row, lag) arc of ``op_a``,
    for the potential whose circulation table is ``table``."""
    n = backend.n
    lags, _, _, src, _, _ = backend._kernel_tables
    # gauge phase exp(-i circulation from row node to column node) along
    # the arc; the reverse orientation negates the trapezoid sum exactly
    circ = table[src + lags + n] - table[src + n]
    weight = np.where(np.abs(lags) == n // 2, 0.5, 1.0)   # the Nyquist lag split in two
    return weight * np.exp(1j * circ)


def _kernel(backend: MagneticBackend, lagT: np.ndarray,
            phases: np.ndarray | None = None) -> np.ndarray:
    """``op_a`` from a lag transform and the ``_arc_phases`` of a potential
    (by default the backend's own, cached)."""
    n = backend.n
    _, _, _, src, mid, gather = backend._kernel_tables
    phases = backend._kernel_phases if phases is None else phases
    # named, so numpy cannot reuse the temporary in place as gathered * phases
    gathered = lagT[mid, np.arange(n + 1)]
    terms = phases * gathered
    # the first n lags reach every entry once, gathered in output layout; the
    # Nyquist lag n/2 lands on the entries of lag -n/2 with its other half
    i = np.arange(n)
    M = terms[i[:, None], gather]
    M[i, src[:, n]] += terms[:, n]
    return M


def _refine_in_xi(backend: MagneticBackend, vals: np.ndarray) -> np.ndarray:
    """Exact trigonometric interpolation from the dual grid to half steps.

    Treats each row as samples of a band-limited function of xi (conjugate
    lattice = the spatial grid, symmetric window) and evaluates it on the
    2n-point half-step window.  Even half-steps reproduce the samples.

    The coefficient of frequency m in -n/2..n/2-1 is (-1)^m fft(vals)[m] / n
    and synthesis at half step q - n carries (-1)^m again, so the signs
    cancel: the result is 2 ifft of fft(vals) zero-padded to length 2n at
    m mod 2n, n^2 log n per row set.
    """
    n = backend.n
    coef = np.fft.fft(vals, axis=1)
    padded = np.zeros((vals.shape[0], 2 * n), dtype=complex)
    padded[:, :n // 2] = coef[:, :n // 2]
    padded[:, -(n // 2):] = coef[:, n // 2:]
    return 2.0 * np.fft.ifft(padded, axis=1)


def magnetic_moyal(backend: MagneticBackend, a: Symbol, b: Symbol) -> Symbol:
    """Composition law as the double phase-space integral.

    The flux factor is 1 here (B = 0 in one dimension); the oscillatory
    kernel exp(-2i[xi(y-z) + eta(z-x) + zeta(x-y)]) is quadratured with y, z
    on the doubled spatial grid and eta, zeta on the half-step dual window,
    which keeps the constant symbol an exact unit.  The map checks nothing
    itself: ``composition_residual`` measures the defining identity, the
    operator product against the requantized symbol.

    The quadrature is regrouped through FFTs.  With the refined symbols
    transformed over the midpoint axis, A[m, q] = sum_u a(u, q) e^{-i pi u m/n},
    q the half-step column, k the output column and all indices mod 2n,

        (2n)^2 out[ax, k] = sum_r e^{-i pi ax r/n} P[k, r],
        P[k, r] = sum_q A[2k - q - r, q] B[q - 2k, q + r],

    so the law costs 4n^3 multiply-adds for P plus FFTs, down from the 8n^4
    of one (2n)^2 x n matrix product per output midpoint.  P is filled in
    chunks of ``_CHUNK_ENTRIES // 2n`` columns r, with the n rows k inside
    each chunk: k shifts the chunk's slices of the skewed copies by two rows,
    so they stay in cache instead of streaming two fresh 2n x 2n windows per
    k.  Every entry is still one BLAS dot of the same two rows, so the
    result is bitwise that of the row-by-row loop.
    """
    _require(a.space == backend.midpoint_space
             and b.space == backend.midpoint_space,
             "symbols must be sampled on the backend's midpoint grid")
    n = backend.n
    two_n = 2 * n
    a_hat = np.fft.fft(_refine_in_xi(backend, a.values.reshape(two_n, n)), axis=0)
    b_hat = np.fft.fft(_refine_in_xi(backend, b.values.reshape(two_n, n)), axis=0)

    # skewed copies turn every entry of P into a dot product of contiguous
    # rows of two blocks: SA[t, q] = A[-t - q, q] (rows doubled) and
    # SB[c, i] = B[i, i + c] (doubled along both axes), so
    # P[k, r] = SA[t + r] . SB[s + r, t:t + 2n] with s = 2k, t = -s mod 2n
    idx = np.arange(two_n)
    SA = np.empty((2 * two_n, two_n), dtype=complex)
    SA[:two_n] = a_hat[(-idx[:, None] - idx) % two_n, idx]
    SA[two_n:] = SA[:two_n]
    SB = np.empty((2 * two_n, 2 * two_n), dtype=complex)
    SB[:two_n, :two_n] = b_hat[idx, (idx + idx[:, None]) % two_n]
    SB[:two_n, two_n:] = SB[:two_n, :two_n]
    SB[two_n:] = SB[:two_n]
    SA, SB = SA[:, None, :], SB[:, :, None]
    # one batched 1 x 2n times 2n x 1 matmul (BLAS dots) per (chunk, k)
    chunk = max(1, _CHUNK_ENTRIES // two_n)
    P = np.empty((n, two_n), dtype=complex)
    for r0 in range(0, two_n, chunk):
        r1 = min(r0 + chunk, two_n)
        for k in range(n):
            s = 2 * k                  # doubled output frequency, index form
            t = -s % two_n
            P[k, r0:r1] = np.matmul(SA[t + r0:t + r1],
                                    SB[s + r0:s + r1, t:t + two_n])[:, 0, 0]
    del SA, SB          # 14 MiB at n = 192, freed before Symbol copies the output
    out = np.fft.fft(P, axis=1).T / two_n ** 2
    return Symbol(backend.midpoint_space, out.reshape(-1))


def composition_residual(backend: MagneticBackend, a: Symbol, b: Symbol) -> float:
    """Relative gap between the operator product and the composed symbol.

    ||op(a) op(b) - op(a # b)|| / (||op(a)|| ||op(b)||); the two sides are
    assembled through unrelated routes (matrix product versus the double
    phase-space integral).
    """
    composed = magnetic_moyal(backend, a, b)
    Ta = op_a(backend, a)
    Tb = op_a(backend, b)
    scale = max(op_norm(Ta) * op_norm(Tb), 1e-300)
    return op_norm(Ta @ Tb - op_a(backend, composed)) / scale


def discrete_gradient(backend: MagneticBackend, rho) -> np.ndarray:
    """Central-difference gradient of periodic samples, matching the
    trapezoid circulation to second order."""
    rho = np.asarray(rho, dtype=float)
    _require(rho.shape == (backend.n,), "need one sample per node")
    return (np.roll(rho, -1) - np.roll(rho, 1)) / (2.0 * backend.dx)


def gauge_transform_check(backend: MagneticBackend, rho, drho=None,
                          symbol: Symbol | None = None) -> float:
    """Residual of gauge covariance for the potential shifted by a gradient.

    Returns ||op^{A+drho}(a) - e^{i rho(Q)} op^A(a) e^{-i rho(Q)}|| for a test
    symbol.  Exact (machine precision) whenever the trapezoid circulation of
    drho telescopes to rho differences, e.g. for linear rho with constant
    gradient; otherwise the residual is a quadrature error that shrinks
    under grid refinement.
    """
    rho = np.asarray(rho, dtype=float)
    _require(rho.shape == (backend.n,) and bool(np.isfinite(rho).all()),
             "rho needs one finite gauge sample per node")
    drho = discrete_gradient(backend, rho) if drho is None \
        else np.asarray(drho, dtype=float)
    _require(drho.shape == (backend.n,) and bool(np.isfinite(drho).all()),
             "drho needs one finite gradient sample per node")
    lagT = _lag_transform(backend, gaussian_symbol(backend) if symbol is None else symbol)
    phase = np.exp(1j * rho)
    conjugated = phase[:, None] * _kernel(backend, lagT) * np.conj(phase)[None, :]
    shifted = _kernel(backend, lagT, _arc_phases(
        backend, _circulation_table(backend.A + drho, backend.dx)))
    return op_norm(shifted - conjugated)


# ---------------------------------------------------------------------------
# reduction oracles and the grid-refinement study
# ---------------------------------------------------------------------------

def standard_momentum_matrix(n: int, L: float) -> np.ndarray:
    """Spectral differentiation matrix of -i d/dy on the periodic grid.

    Built directly from discrete Fourier synthesis/analysis matrices,
    independently of the Weyl kernel quadrature.
    """
    dx = L / n
    x = -L / 2 + dx * np.arange(n)
    xi = 2 * np.pi * np.arange(-n // 2, n // 2) / L
    synth = np.exp(1j * np.outer(x, xi))
    analyze = np.exp(-1j * np.outer(xi, x)) / n
    return synth @ (xi[:, None] * analyze)


def reduction_residual(backend: MagneticBackend) -> float:
    """How far the A = 0 quantizer on the backend's grid sits from standard Weyl.

    Checks the momentum symbol against the spectral differentiation oracle,
    a position-only symbol against plain multiplication, and the constant
    symbol against the identity; returns the largest operator-norm gap.
    The spectral norm is at most the Frobenius norm, so the last two gaps
    skip their SVD when twice that bound stays below the running max.
    """
    n, L = backend.n, backend.L
    # zero circulation table: the backend's potential plays no part
    phases = _arc_phases(backend, np.zeros(3 * n + 1))

    def op0(fn):
        return _kernel(backend, _lag_transform(backend, backend.sample_symbol(fn)), phases)

    p_op = op0(lambda Q, P: P + 0j)
    worst = op_norm(p_op - standard_momentum_matrix(n, L)) / max(1.0, op_norm(p_op))
    g_op = op0(lambda Q, P: np.cos(2 * np.pi * Q / L) + 0j)
    for gap in (g_op - np.diag(np.cos(2 * np.pi * backend.x / L).astype(complex)),
                op0(lambda Q, P: np.ones_like(Q, dtype=complex)) - np.eye(n)):
        if 2 * np.linalg.norm(gap) >= worst:
            worst = max(worst, op_norm(gap))
    return worst


def sine_potential(n: int, L: float, amplitude: float) -> np.ndarray:
    x = -L / 2 + (L / n) * np.arange(n)
    return amplitude * np.sin(2 * np.pi * x / L)


def magnetic_study(grids) -> list[dict]:
    """Grid-refinement study of all identity-class residuals.

    For each grid size reports the square-integrability certificate, the
    A = 0 reduction residual, the gauge-covariance residuals (exact linear
    case and smooth case), and the composition residual between the
    operator product and the composed symbol.  It runs one protocol, the
    one the CLI's gates are set for: L = 12, a sine potential of amplitude
    0.8, and Gaussian widths (1, 3).
    """
    L, sigma = 12.0, (1.0, 3.0)
    rows = []
    for n in grids:
        bk = MagneticBackend(n, L, A=sine_potential(n, L, 0.8))
        a = gaussian_symbol(bk, sigma=sigma, center=(0.4, 0.6),
                            modulation=(0.3, -0.2))
        b = gaussian_symbol(bk, sigma=sigma, center=(-0.5, 0.2),
                            modulation=(-0.4, 0.5))
        comp = composition_residual(bk, a, b)
        alpha = 2 * (2 * np.pi / L)   # torus-compatible linear gauge slope
        gauge_linear = gauge_transform_check(bk, alpha * bk.x, np.full(n, alpha))
        gauge_smooth = gauge_transform_check(bk, 0.3 * np.sin(2 * np.pi * bk.x / L))
        rows.append({
            "n": bk.n,
            "sq_residual": bk.sq_certificate(),
            "reduction_residual": float(reduction_residual(bk)),
            "gauge_linear_residual": float(gauge_linear),
            "gauge_smooth_residual": float(gauge_smooth),
            "composition_residual": float(comp),
        })
    return rows


def composition_refines(rows) -> bool:
    """Whether the composition residuals of a refinement study improve.

    Each refinement step must lower the residual, unless the finer grid's
    residual already sits at the rounding floor n * eps of an n x n matrix
    product, where the ordering of two round-off values carries no signal.
    """
    return all(fine["composition_residual"] < coarse["composition_residual"]
               or fine["composition_residual"] <= fine["n"] * np.finfo(float).eps
               for coarse, fine in zip(rows, rows[1:]))
