import numpy as np
import pytest

import opcalc as oc
from opcalc import magnetic as mg
from opcalc.family import verify_sq

L = 12.0


def standard_weyl_oracle(n):
    """Literal 'shift and modulate' matrices, built per point with loops."""
    dx = L / n
    x = -L / 2 + dx * np.arange(n)
    ks = np.arange(-n // 2, n // 2)
    mats = {}
    for r in ks:
        for k in ks:
            xi = 2 * np.pi * k / L
            M = np.zeros((n, n), dtype=complex)
            for m in range(n):
                M[m, (m + r) % n] = np.exp(-1j * (x[m] + r * dx / 2.0) * xi)
            mats[(r, k)] = M
    return mats


def circulation_loop_family(bk):
    """The family built entry by entry through the public circulation table."""
    n = bk.n
    m = np.arange(n)
    ops = []
    for r in bk.k:
        circ = np.array([bk.circulation(i, i + r) for i in range(n)])
        for xi in bk.xi:
            M = np.zeros((n, n), dtype=complex)
            M[m, (m + r) % n] = np.exp(-1j * (bk.x + r * bk.dx / 2.0) * xi - 1j * circ)
            ops.append(M)
    return np.array(ops)


@pytest.mark.parametrize("n", [16, 32])
def test_family_matches_circulation_loop_bitwise(n):
    bk = mg.magnetic_weyl_grid(n, L, A=mg.sine_potential(n, L, 0.8))
    assert np.array_equal(bk.family().stack, circulation_loop_family(bk))


def test_family_reduces_to_standard_weyl_entrywise():
    bk = mg.magnetic_weyl_grid(8, L)
    fam = bk.family()
    oracle = standard_weyl_oracle(8)
    idx = 0
    for r in bk.k:
        for k in bk.k:
            assert np.abs(fam.op(idx) - oracle[(r, k)]).max() < 1e-13
            idx += 1


def test_constant_potential_circulation_exact():
    a0 = 0.73
    bk = mg.magnetic_weyl_grid(16, L, A=np.full(16, a0))
    # trapezoid rule integrates constants exactly: circulation = a0 * x
    for i, r in [(0, 3), (5, -4), (12, 7)]:
        assert bk.circulation(i, i + r) == pytest.approx(a0 * r * bk.dx)


def test_family_is_unitary_valued(rng):
    A = mg.sine_potential(16, L, 0.9)
    bk = mg.magnetic_weyl_grid(16, L, A=A)
    fam = bk.family()
    for idx in rng.integers(0, fam.npoints, size=10):
        M = fam.op(int(idx))
        assert np.abs(M.conj().T @ M - np.eye(16)).max() < 1e-13


def test_verify_sq_exact_on_grid():
    A = mg.sine_potential(16, L, 0.9)
    bk = mg.magnetic_weyl_grid(16, L, A=A)
    report = verify_sq(bk.family())
    assert report.passed and report.max_deviation < 1e-12


def test_fast_sq_residual_matches_family_route(rng):
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.5))
    u = oc.random_unit_vector(rng, 16)
    v = oc.random_unit_vector(rng, 16)
    fast = bk.sq_residual(u, v)
    f = oc.coefficient(bk.family(), u, v)
    slow = abs(np.dot(bk.phase_space().weights, np.abs(f.values) ** 2) - 1.0)
    assert fast == pytest.approx(slow, abs=1e-13)
    assert fast < 1e-12


def test_weyl_op_accessor_validates():
    bk = mg.magnetic_weyl_grid(16, L)
    M = bk.weyl_op(2 * bk.dx, 2 * np.pi / L)
    assert np.abs(M - bk.family().op((2 + 8) * 16 + (1 + 8))).max() < 1e-13
    with pytest.raises(ValueError, match="off-grid"):
        bk.weyl_op(0.5 * bk.dx, 0.0)
    with pytest.raises(ValueError, match="dual"):
        bk.weyl_op(bk.dx, 1.234)


def test_nonzero_field_rejected():
    with pytest.raises(ValueError, match="vanishes"):
        mg.magnetic_weyl_grid(16, L, B=np.ones(16))


def test_op_of_unit_symbol_is_identity():
    bk = mg.magnetic_weyl_grid(32, L, A=mg.sine_potential(32, L, 0.8))
    one = bk.sample_symbol(lambda Q, P: np.ones_like(Q, dtype=complex))
    assert np.abs(mg.op_a(bk, one) - np.eye(32)).max() < 1e-12


def test_op_momentum_matches_fft_oracle():
    n = 32
    bk = mg.magnetic_weyl_grid(n, L)
    P = mg.op_a(bk, bk.sample_symbol(lambda Q, Pv: Pv + 0j))
    # spectral differentiation through numpy's FFT, an unrelated code path
    u = np.exp(-bk.x ** 2) * (1 + 0.3j)
    freqs = 2 * np.pi * np.fft.fftfreq(n, d=bk.dx)
    oracle = np.fft.ifft(freqs * np.fft.fft(u))
    assert np.abs(P @ u - oracle).max() < 1e-12


def test_op_position_symbol_is_multiplication():
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.4))
    g = lambda y: np.cos(2 * np.pi * y / L)
    T = mg.op_a(bk, bk.sample_symbol(lambda Q, P: g(Q) + 0j))
    assert np.abs(T - np.diag(g(bk.x)).astype(complex)).max() < 1e-12


def test_op_real_symbol_self_adjoint(rng):
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.6))
    a = bk.sample_symbol(
        lambda Q, P: np.exp(-(Q - 0.4) ** 2 - 0.2 * (P - 0.3) ** 2) + 0j)
    T = mg.op_a(bk, a)
    assert np.abs(T - T.conj().T).max() < 1e-13


def op_a_per_lag(bk, a):
    """The kernel quantizer summed one lag at a time, Nyquist lag split in two."""
    n = bk.n
    vals = a.values.reshape(2 * n, n)
    lags = list(range(-n // 2, n // 2)) + [n // 2]
    E = np.exp(1j * bk.dx * np.outer(bk.xi, lags))
    lagT = (vals @ E) / n
    i = np.arange(n)
    M = np.zeros((n, n), dtype=complex)
    for col, lag in enumerate(lags):
        weight = 0.5 if abs(lag) == n // 2 else 1.0
        src = (i - lag) % n
        mid = (2 * src + lag) % (2 * n)
        circ = np.array([bk.circulation(s, s + lag) for s in src])
        M[i, src] += weight * np.exp(1j * circ) * lagT[mid, col]
    return M


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("amplitude", [0.0, 0.8])
def test_op_matches_per_lag_loop_bitwise(n, amplitude):
    bk = mg.magnetic_weyl_grid(n, L, A=mg.sine_potential(n, L, amplitude))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    assert np.array_equal(mg.op_a(bk, a), op_a_per_lag(bk, a))


def test_op_requires_midpoint_space():
    bk = mg.magnetic_weyl_grid(16, L)
    wrong = oc.Symbol(bk.phase_space(), np.ones(16 * 16))
    with pytest.raises(ValueError, match="midpoint"):
        mg.op_a(bk, wrong)


def test_moyal_unit_both_sides():
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.8))
    one = bk.sample_symbol(lambda Q, P: np.ones_like(Q, dtype=complex))
    a = mg.gaussian_symbol(bk, sigma=(0.8, 2.0), center=(0.3, 0.5))
    left = mg.magnetic_moyal(bk, a, one, check=False)
    right = mg.magnetic_moyal(bk, one, a, check=False)
    assert np.abs(left.values - a.values).max() < 1e-12
    assert np.abs(right.values - a.values).max() < 1e-12


def test_moyal_plane_wave_exact():
    # q#p plane waves compose with the half-commutator phase exactly
    n = 32
    bk = mg.magnetic_weyl_grid(n, L)
    mu = 2 * np.pi / L
    nu = bk.dx
    a = bk.sample_symbol(lambda Q, P: np.exp(1j * mu * Q))
    b = bk.sample_symbol(lambda Q, P: np.exp(1j * nu * P))
    c = mg.magnetic_moyal(bk, a, b, check=False)
    expected = bk.sample_symbol(
        lambda Q, P: np.exp(1j * (mu * Q + nu * P)) * np.exp(-0.5j * mu * nu))
    assert np.abs(c.values - expected.values).max() < 1e-12
    assert np.abs(mg.op_a(bk, a) @ mg.op_a(bk, b) - mg.op_a(bk, c)).max() < 1e-12


def test_moyal_q_only_is_pointwise_product():
    bk = mg.magnetic_weyl_grid(16, L)
    a = bk.sample_symbol(lambda Q, P: np.exp(-Q ** 2 / 2) + 0j)
    b = bk.sample_symbol(lambda Q, P: np.exp(-(Q - 0.7) ** 2 / 1.5) + 0j)
    c = mg.magnetic_moyal(bk, a, b, check=False)
    assert np.abs(c.values - a.values * b.values).max() < 1e-13


def moyal_per_midpoint(bk, a, b):
    """The composition quadrature summed directly, one output midpoint at a time.

    Lag transforms of both refined symbols at all 4n - 1 midpoint differences,
    then one (2n)^2 x n matrix product per output midpoint: 8n^4 work.
    """
    n = bk.n
    a_ref = mg._refine_in_xi(bk, a.values.reshape(2 * n, n))
    b_ref = mg._refine_in_xi(bk, b.values.reshape(2 * n, n))
    qsym = np.arange(-n, n)
    csym = np.arange(-(2 * n - 1), 2 * n)
    F = np.exp(-1j * np.pi * np.outer(qsym, csym) / n)
    a_hat = a_ref @ F
    b_hat = b_ref @ F
    alpha = np.arange(2 * n)
    G = np.exp(-2j * np.pi * np.outer(alpha, bk.k) / n)
    out = np.empty((2 * n, n), dtype=complex)
    offset = 2 * n - 1
    for ax in range(2 * n):
        M = a_hat[:, alpha - ax + offset] * b_hat[:, ax - alpha + offset].T
        out[ax] = np.einsum("yk,yk->k", G, M @ G.conj())
    return out.reshape(-1) / (2 * n) ** 2


@pytest.mark.parametrize("n", [8, 16, 32])
def test_moyal_matches_per_midpoint_sum(n):
    bk = mg.magnetic_weyl_grid(n, L, A=mg.sine_potential(n, L, 0.8))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    b = mg.gaussian_symbol(bk, sigma=(0.7, 2.0), center=(-0.5, 0.2),
                           modulation=(-0.4, 0.5))
    want = moyal_per_midpoint(bk, a, b)
    got = mg.magnetic_moyal(bk, a, b, check=False).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def refinement_rows(*pairs):
    return [{"n": n, "composition_residual": r} for n, r in pairs]


def test_composition_refines_rule():
    eps = np.finfo(float).eps
    # strict decrease passes
    assert mg.composition_refines(refinement_rows((64, 1e-5), (128, 1e-9)))
    # a single grid has no step to fail
    assert mg.composition_refines(refinement_rows((64, 1e-5)))
    # a rise between two round-off values at the finer grid's floor passes
    assert mg.composition_refines(
        refinement_rows((64, 1.2e-9), (128, 1.9e-16), (192, 2.1e-16)))
    assert mg.composition_refines(refinement_rows((64, 1e-16), (128, 128 * eps)))
    # a rise above the floor fails
    assert not mg.composition_refines(refinement_rows((64, 1e-9), (128, 1e-8)))
    assert not mg.composition_refines(
        refinement_rows((64, 1e-16), (128, 2 * 128 * eps)))
    # a flat plateau above the floor fails
    assert not mg.composition_refines(refinement_rows((64, 1e-9), (128, 1e-9)))


def test_composition_residual_decreases():
    residuals = []
    for n in (32, 64):
        bk = mg.magnetic_weyl_grid(n, L, A=mg.sine_potential(n, L, 0.8))
        a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                               modulation=(0.3, -0.2))
        b = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(-0.5, 0.2),
                               modulation=(-0.4, 0.5))
        residuals.append(mg.composition_residual(bk, a, b))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-6


def test_moyal_check_gate():
    bk = mg.magnetic_weyl_grid(32, L)
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.3, 0.4))
    b = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(-0.2, 0.1))
    mg.magnetic_moyal(bk, a, b, check=True, tol=1e-3)  # passes the gate
    with pytest.raises(ArithmeticError, match="composition"):
        mg.magnetic_moyal(bk, a, b, check=True, tol=1e-16)


def test_gauge_zero():
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.7))
    assert mg.gauge_transform_check(bk, np.zeros(16)) < 1e-14


def test_gauge_check_matches_rebuilt_backend_route():
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.7))
    rho = 0.3 * np.sin(2 * np.pi * bk.x / L)
    drho = mg.discrete_gradient(bk, rho)
    # the shifted potential on a backend with its own, separately built spaces
    shifted = mg.magnetic_weyl_grid(16, L, A=bk.A + drho)
    a = mg.gaussian_symbol(bk)
    phase = np.exp(1j * rho)
    conjugated = phase[:, None] * mg.op_a(bk, a) * np.conj(phase)[None, :]
    want = oc.op_norm(mg.op_a(shifted, mg.gaussian_symbol(shifted)) - conjugated)
    assert mg.gauge_transform_check(bk, rho) == want


def test_gauge_check_rejects_nonfinite_input():
    bk = mg.magnetic_weyl_grid(16, L, A=mg.sine_potential(16, L, 0.7))
    drho = np.zeros(16)
    drho[3] = np.nan
    with pytest.raises(ValueError, match="^drho "):
        mg.gauge_transform_check(bk, np.zeros(16), drho=drho)
    rho = np.zeros(16)
    rho[5] = np.inf
    with pytest.raises(ValueError, match="^rho "):
        mg.gauge_transform_check(bk, rho)


def test_gauge_linear_exact():
    bk = mg.magnetic_weyl_grid(32, L, A=mg.sine_potential(32, L, 0.7))
    alpha = 3 * (2 * np.pi / L)   # torus-compatible slope
    rho = alpha * bk.x
    assert mg.gauge_transform_check(bk, rho, drho=np.full(32, alpha)) < 1e-10


def test_gauge_smooth_refines():
    residuals = []
    for n in (16, 32, 64):
        bk = mg.magnetic_weyl_grid(n, L, A=mg.sine_potential(n, L, 0.7))
        rho = 0.3 * np.sin(2 * np.pi * bk.x / L)
        residuals.append(mg.gauge_transform_check(bk, rho))
    assert residuals[0] > residuals[1] > residuals[2]


def test_reduction_residual_small():
    assert mg.reduction_residual(mg.magnetic_weyl_grid(32, L)) < 1e-12


def test_magnetic_study_shape():
    rows = mg.magnetic_study([16, 32], sq_trials=5)
    assert [r["n"] for r in rows] == [16, 32]
    for r in rows:
        assert r["sq_residual"] < 1e-10
        assert r["reduction_residual"] < 1e-10
        assert r["gauge_linear_residual"] < 1e-10


def test_magnetic_study_builds_one_backend_per_grid(monkeypatch):
    backends, spaces = [], []
    init, space = mg.MagneticBackend.__init__, mg.MeasureSpace

    def counting_init(self, n, *args, **kwargs):
        backends.append(n)
        init(self, n, *args, **kwargs)

    def counting_space(points, *args, **kwargs):
        spaces.append(len(points))
        return space(points, *args, **kwargs)

    monkeypatch.setattr(mg.MagneticBackend, "__init__", counting_init)
    monkeypatch.setattr(mg, "MeasureSpace", counting_space)
    mg.magnetic_study([16, 32], sq_trials=2)
    assert backends == [16, 32]
    assert spaces == [2 * 16 * 16, 2 * 32 * 32]   # one midpoint space per grid


def test_family_materialization_guard():
    bk = mg.magnetic_weyl_grid(128, L)
    with pytest.raises(ValueError, match="n <= 64"):
        bk.family()
    # the fast paths still work at this size
    u = np.exp(-bk.x ** 2 / 2).astype(complex)
    u /= np.linalg.norm(u)
    assert bk.sq_residual(u, u) < 1e-11


def test_backend_spec_roundtrip():
    from opcalc.backends import backend_from_spec
    bk = backend_from_spec({"kind": "magnetic_weyl", "n": 16, "L": L,
                            "A": mg.sine_potential(16, L, 0.4).tolist()})
    assert isinstance(bk, mg.MagneticBackend)
    assert bk.n == 16 and bk.phase_space().mass == pytest.approx(16.0)
