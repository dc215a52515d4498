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
"""

from __future__ import annotations

import numpy as np

from .core import MeasureSpace, Symbol, _require, as_vector, op_norm
from .family import OperatorFamily

#: Materializing the full operator family costs n^2 matrices of size n^2.
_FAMILY_MAX_N = 64


class MagneticBackend:
    """Grid data, circulation table, and the derived quantization maps."""

    def __init__(self, n: int, L: float, A=None, B=None, tol: float = 1e-6):
        _require(n >= 4 and n % 2 == 0, "grid size must be an even integer >= 4")
        _require(L > 0, "box length must be positive")
        _require(tol > 0, "declared quadrature tolerance must be positive")
        self.n = int(n)
        self.L = float(L)
        self.dx = self.L / self.n
        self.x = -self.L / 2 + self.dx * np.arange(self.n)
        self.k = np.arange(-self.n // 2, self.n // 2)
        self.xi = 2 * np.pi * self.k / self.L
        self.tol = float(tol)

        A = np.zeros(self.n) if A is None else np.asarray(A, dtype=float)
        _require(A.shape == (self.n,), "need one vector-potential sample per node")
        _require(bool(np.all(np.isfinite(A))), "vector potential samples must be finite")
        self.A = A
        B = np.zeros(self.n) if B is None else np.asarray(B, dtype=float)
        _require(B.shape == (self.n,), "need one field sample per node")
        if np.abs(B).max() > 0:
            raise ValueError("in one spatial dimension the field 2-form vanishes; "
                             "B samples must be identically zero")
        self.B = B

        # trapezoid cumulative of the periodically extended potential; paths are
        # unwrapped chains of grid segments, so circulation is exactly additive
        lo, hi = -self.n, 2 * self.n
        ext = A[np.arange(lo, hi + 1) % self.n]
        steps = 0.5 * (ext[:-1] + ext[1:]) * self.dx
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        self._circ_cum = cum
        self._circ_lo = lo

        self._family = None
        self._mid_space = None
        self._phase_space = None

    # -- circulation -------------------------------------------------------

    def circulation(self, i: int, j: int) -> float:
        """Trapezoid circulation of A along the segment from node i to node j.

        Indices are unwrapped positions (multiples of the spacing); negative
        or beyond-the-box indices follow the periodic extension of A.
        """
        lo = self._circ_lo
        _require(lo <= i <= 2 * self.n and lo <= j <= 2 * self.n,
                 "path endpoint outside the tabulated extension")
        return float(self._circ_cum[j - lo] - self._circ_cum[i - lo])

    # -- spaces and family ---------------------------------------------------

    def phase_space(self) -> MeasureSpace:
        """Shift x dual grid, weight dx*dxi/(2*pi) = 1/n per point."""
        if self._phase_space is None:
            shifts = self.k  # shifts r*dx with r in the symmetric window
            points = tuple(f"({r},{k})" for r in shifts for k in self.k)
            self._phase_space = MeasureSpace(
                points, np.full(self.n * self.n, 1.0 / self.n),
                kind="quadrature", tol=self.tol)
        return self._phase_space

    def weyl_op(self, x_shift: float, xi: float) -> np.ndarray:
        """The twisted phase-space translation at (x, xi).

        x must be an on-grid shift (integer multiple of the spacing) and xi a
        dual-grid frequency; anything else is rejected.
        """
        r_float = x_shift / self.dx
        r = int(round(r_float))
        if abs(r_float - r) > 1e-9 or not (-self.n // 2 <= r < self.n // 2):
            raise ValueError(f"x-shift {x_shift} is off-grid")
        k_float = xi * self.L / (2 * np.pi)
        k = int(round(k_float))
        if abs(k_float - k) > 1e-9 or not (-self.n // 2 <= k < self.n // 2):
            raise ValueError(f"frequency {xi} is off the dual grid")
        return self._op_stack([r], [xi])[0]

    def _circulations(self, shifts) -> np.ndarray:
        """Circulation from every node m to m + r, shape (len(shifts), n)."""
        m = np.arange(self.n)
        r = np.asarray(shifts)[:, None]
        return self._circ_cum[m + r - self._circ_lo] - self._circ_cum[m - self._circ_lo]

    def _op_stack(self, shifts, xis) -> np.ndarray:
        """Operators at every (shift, xi) pair, shift-major, (len*len, n, n)."""
        n = self.n
        m = np.arange(n)
        r = np.asarray(shifts)[:, None, None]
        xi = np.asarray(xis)[None, :, None]
        circ = self._circulations(shifts)[:, None, :]
        phase = np.exp(-1j * (self.x + r * self.dx / 2.0) * xi - 1j * circ)
        ops = np.zeros((r.size, xi.size, n, n), dtype=complex)
        ops[np.arange(r.size)[:, None, None], np.arange(xi.size)[:, None],
            m, (m + r) % n] = phase
        return ops.reshape(-1, n, n)

    def family(self) -> OperatorFamily:
        """Materialized operator family (guarded: n^2 matrices of size n^2)."""
        if self._family is None:
            _require(self.n <= _FAMILY_MAX_N,
                     f"materializing the family needs n <= {_FAMILY_MAX_N}; "
                     "use coefficient_values/sq_residual for larger grids")
            ops = self._op_stack(self.k, self.xi)
            self._family = OperatorFamily(self.phase_space(), ops, tol=self.tol)
        return self._family

    # -- structure-exploiting fast paths (no family materialization) --------

    def coefficient_values(self, u, v) -> np.ndarray:
        """<pi(x,xi)u, v> over the whole phase grid, shape (n shifts, n freqs)."""
        u = as_vector(u, self.n)
        v = as_vector(v, self.n)
        shifted = u[(np.arange(self.n) + self.k[:, None]) % self.n]   # (shifts, nodes)
        G = np.exp(-1j * self._circulations(self.k)) * shifted * np.conj(v)
        D = np.exp(-1j * np.outer(self.x, self.xi))          # nodes x freqs
        half = np.exp(-0.5j * np.outer(self.k * self.dx, self.xi))
        return (G @ D) * half

    def sq_residual(self, u, v) -> float:
        """|integral of |<pi(.)u,v>|^2 - ||u||^2 ||v||^2| via the fast path."""
        phi = self.coefficient_values(u, v)
        integral = float(np.sum(np.abs(phi) ** 2)) / self.n
        expected = float(np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2)
        return abs(integral - expected)

    # -- symbol sampling on the doubled midpoint grid ------------------------

    def midpoint_space(self) -> MeasureSpace:
        if self._mid_space is None:
            points = tuple(f"({a},{k})" for a in range(2 * self.n) for k in self.k)
            self._mid_space = MeasureSpace(
                points, np.full(2 * self.n * self.n, 1.0 / (2 * self.n)),
                kind="quadrature", tol=self.tol)
        return self._mid_space

    def midpoints(self) -> np.ndarray:
        return -self.L / 2 + (self.dx / 2.0) * np.arange(2 * self.n)

    def sample_symbol(self, fn) -> Symbol:
        """Sample a callable a(q, p) on the midpoint grid."""
        Q, P = np.meshgrid(self.midpoints(), self.xi, indexing="ij")
        return Symbol(self.midpoint_space(), np.asarray(fn(Q, P),
                                                        dtype=complex).reshape(-1))


def magnetic_weyl_grid(n: int, L: float, A=None, B=None,
                       tol: float = 1e-6) -> MagneticBackend:
    """Build the twisted Weyl system of a sampled vector potential.

    The returned backend exposes the operator family through ``family()``
    (materialized on demand) together with the kernel quantizer ``op_a``,
    the composition law ``magnetic_moyal`` and the gauge check.
    """
    return MagneticBackend(n, L, A=A, B=B, tol=tol)


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
    _require(a.space == backend.midpoint_space(),
             "symbol must be sampled on the backend's midpoint grid")
    n = backend.n
    vals = a.values.reshape(2 * n, n)
    lags = list(range(-n // 2, n // 2)) + [n // 2]
    # lag transforms: (1/n) sum_k exp(i lag dx xi_k) a(mid, xi_k), per midpoint
    E = np.exp(1j * backend.dx * np.outer(backend.xi, lags))
    lagT = (vals @ E) / n                                    # (2n, nlags)

    cum = backend._circ_cum
    lo = backend._circ_lo
    i = np.arange(n)
    M = np.zeros((n, n), dtype=complex)
    for col, lag in enumerate(lags):
        weight = 0.5 if abs(lag) == n // 2 else 1.0
        src = (i - lag) % n                                  # column indices
        mid = (2 * src + lag) % (2 * n)                      # arc midpoints
        # gauge phase exp(-i circulation from row node to column node) along
        # the arc; the reverse orientation negates the trapezoid sum exactly
        circ = cum[src + lag - lo] - cum[src - lo]
        M[i, src] += weight * np.exp(1j * circ) * lagT[mid, col]
    return M


def _refine_in_xi(backend: MagneticBackend, vals: np.ndarray) -> np.ndarray:
    """Exact trigonometric interpolation from the dual grid to half steps.

    Treats each row as samples of a band-limited function of xi (conjugate
    lattice = the spatial grid, symmetric window) and evaluates it on the
    2n-point half-step window.  Even half-steps reproduce the samples.
    """
    n = backend.n
    msym = np.arange(-n // 2, n // 2)
    qsym = np.arange(-n, n)
    inv = np.exp(-2j * np.pi * np.outer(backend.k, msym) / n) / n   # k -> m
    refine = np.exp(1j * np.pi * np.outer(msym, qsym) / n)          # m -> q
    return vals @ inv @ refine


def magnetic_moyal(backend: MagneticBackend, a: Symbol, b: Symbol,
                   check: bool = True, tol: float | None = None) -> Symbol:
    """Composition law as the double phase-space integral.

    The flux factor is 1 here (B = 0 in one dimension); the oscillatory
    kernel exp(-2i[xi(y-z) + eta(z-x) + zeta(x-y)]) is quadratured with y, z
    on the doubled spatial grid and eta, zeta on the half-step dual window,
    which keeps the constant symbol an exact unit.  When ``check`` is set the
    resulting symbol is requantized and compared against the operator
    product, the identity that defines the composition law.

    The quadrature is regrouped through FFTs.  With the refined symbols
    transformed over the midpoint axis, A[m, q] = sum_u a(u, q) e^{-i pi u m/n},
    q the half-step column, k the output column and all indices mod 2n,

        (2n)^2 out[ax, k] = sum_r e^{-i pi ax r/n} P[k, r],
        P[k, r] = sum_q A[2k - q - r, q] B[q - 2k, q + r],

    so the law costs 4n^3 multiply-adds for P plus FFTs, down from the 8n^4
    of one (2n)^2 x n matrix product per output midpoint.
    """
    _require(a.space == backend.midpoint_space()
             and b.space == backend.midpoint_space(),
             "symbols must be sampled on the backend's midpoint grid")
    n = backend.n
    two_n = 2 * n
    a_hat = np.fft.fft(_refine_in_xi(backend, a.values.reshape(two_n, n)), axis=0)
    b_hat = np.fft.fft(_refine_in_xi(backend, b.values.reshape(two_n, n)), axis=0)

    # skewed copies turn every row of P into a Hadamard product of two
    # contiguous blocks: SA[t, q] = A[-t - q, q] (rows doubled) and
    # SB[c, i] = B[i, i + c] (tiled twice along both axes)
    idx = np.arange(two_n)
    SA = np.tile(a_hat[(-idx[:, None] - idx) % two_n, idx], (2, 1))
    SB = np.tile(b_hat[idx, (idx + idx[:, None]) % two_n], (2, 2))
    P = np.empty((n, two_n), dtype=complex)
    for k in range(n):
        s = 2 * k                      # doubled output frequency, index form
        t = -s % two_n
        P[k] = np.einsum("rq,rq->r", SA[t:t + two_n], SB[s:s + two_n, t:t + two_n])
    out = np.fft.fft(P, axis=1).T / two_n ** 2
    composed = Symbol(backend.midpoint_space(), out.reshape(-1))

    if check:
        tol = backend.tol if tol is None else tol
        residual = composition_residual(backend, a, b, composed)
        if residual > tol:
            raise ArithmeticError(
                f"composition identity fails (residual {residual:.3e} > {tol:.1e})")
    return composed


def composition_residual(backend: MagneticBackend, a: Symbol, b: Symbol,
                         composed: Symbol | None = None) -> float:
    """Relative gap between the operator product and the composed symbol.

    ||op(a) op(b) - op(a # b)|| / (||op(a)|| ||op(b)||); the two sides are
    assembled through unrelated routes (matrix product versus the double
    phase-space integral).
    """
    if composed is None:
        composed = magnetic_moyal(backend, a, b, check=False)
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
    _require(rho.shape == (backend.n,), "need one gauge sample per node")
    drho = discrete_gradient(backend, rho) if drho is None \
        else np.asarray(drho, dtype=float)
    _require(drho.shape == (backend.n,), "need one gradient sample per node")
    shifted = MagneticBackend(backend.n, backend.L, A=backend.A + drho,
                              B=backend.B, tol=backend.tol)
    shifted._mid_space = backend.midpoint_space()   # same grid, same symbols
    a = gaussian_symbol(backend) if symbol is None else symbol
    conj_phase = np.exp(1j * rho)
    conjugated = conj_phase[:, None] * op_a(backend, a) * np.conj(conj_phase)[None, :]
    return op_norm(op_a(shifted, a) - conjugated)


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


def reduction_residual(n: int, L: float) -> float:
    """How far the A = 0 backend sits from the standard Weyl calculus.

    Checks the momentum symbol against the spectral differentiation oracle,
    a position-only symbol against plain multiplication, and the constant
    symbol against the identity; returns the largest operator-norm gap.
    """
    bk = MagneticBackend(n, L, A=None)
    p_op = op_a(bk, bk.sample_symbol(lambda Q, P: P + 0j))
    r1 = op_norm(p_op - standard_momentum_matrix(n, L)) / max(1.0, op_norm(p_op))

    def g(Q, P):
        return np.cos(2 * np.pi * Q / L) + 0j

    g_op = op_a(bk, bk.sample_symbol(g))
    r2 = op_norm(g_op - np.diag(np.cos(2 * np.pi * bk.x / L).astype(complex)))
    r3 = op_norm(op_a(bk, bk.sample_symbol(lambda Q, P: np.ones_like(Q, dtype=complex)))
                 - np.eye(n))
    return max(r1, r2, r3)


def sine_potential(n: int, L: float, amplitude: float) -> np.ndarray:
    x = -L / 2 + (L / n) * np.arange(n)
    return amplitude * np.sin(2 * np.pi * x / L)


def magnetic_study(grids, L: float = 12.0, amplitude: float = 0.8,
                   sigma=(1.0, 3.0), seed: int = 0,
                   sq_trials: int = 20) -> list[dict]:
    """Grid-refinement study of all identity-class residuals.

    For each grid size reports the square-integrability residual over seeded
    random vectors, the A = 0 reduction residual, the gauge-covariance
    residuals (exact linear case and smooth case), and the composition
    residual between the operator product and the composed symbol.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in grids:
        n = int(n)
        A = sine_potential(n, L, amplitude)
        bk = MagneticBackend(n, L, A=A)

        def unit():
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return v / np.linalg.norm(v)

        sq = max(bk.sq_residual(unit(), unit()) for _ in range(sq_trials))
        a = gaussian_symbol(bk, sigma=sigma, center=(0.4, 0.6),
                            modulation=(0.3, -0.2))
        b = gaussian_symbol(bk, sigma=sigma, center=(-0.5, 0.2),
                            modulation=(-0.4, 0.5))
        comp = composition_residual(bk, a, b)
        alpha = 2 * (2 * np.pi / L)   # torus-compatible linear gauge slope
        gauge_linear = gauge_transform_check(bk, alpha * bk.x,
                                             drho=np.full(n, alpha))
        gauge_smooth = gauge_transform_check(bk, 0.3 * np.sin(2 * np.pi * bk.x / L))
        rows.append({
            "n": n,
            "sq_residual": float(sq),
            "reduction_residual": float(reduction_residual(n, L)),
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
