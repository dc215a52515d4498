import numpy as np
import pytest

import opcalc as oc
from opcalc import magnetic as mg
from opcalc.core import op_norm
from opcalc.family import verify_sq

from conftest import magnetic_op_stack

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
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    assert np.array_equal(bk.family().stack, circulation_loop_family(bk))


def test_family_reduces_to_standard_weyl_entrywise():
    bk = mg.MagneticBackend(8, L)
    fam = bk.family()
    oracle = standard_weyl_oracle(8)
    idx = 0
    for r in bk.k:
        for k in bk.k:
            assert np.abs(fam.op(idx) - oracle[(r, k)]).max() < 1e-13
            idx += 1


def test_constant_potential_circulation_exact():
    a0 = 0.73
    bk = mg.MagneticBackend(16, L, A=np.full(16, a0))
    # trapezoid rule integrates constants exactly: circulation = a0 * x
    for i, r in [(0, 3), (5, -4), (12, 7)]:
        assert bk.circulation(i, i + r) == pytest.approx(a0 * r * bk.dx)


def test_family_is_unitary_valued(rng):
    A = mg.sine_potential(16, L, 0.9)
    bk = mg.MagneticBackend(16, L, A=A)
    fam = bk.family()
    for idx in rng.integers(0, fam.npoints, size=10):
        M = fam.op(int(idx))
        assert np.abs(M.conj().T @ M - np.eye(16)).max() < 1e-13


def test_verify_sq_exact_on_grid():
    A = mg.sine_potential(16, L, 0.9)
    bk = mg.MagneticBackend(16, L, A=A)
    report = verify_sq(bk.family())
    assert report.passed and report.max_deviation < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("amplitude", [0.0, 0.8])
def test_sq_certificate_matches_verify_sq(n, amplitude):
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, amplitude))
    certificate = bk.sq_certificate()
    assert certificate == pytest.approx(verify_sq(bk.family()).max_deviation, abs=1e-14)
    assert certificate < 1e-14


def scaled_xi_step(bk):
    """A dual grid whose step does not match the box: xi L leaves 2 pi Z."""
    bk.xi = bk.xi * 1.01


def scaled_weights(bk):
    bk.space = oc.MeasureSpace(bk.space.points, 1.01 * bk.space.weights, tol=bk.tol)


@pytest.mark.parametrize("mutate, want", [
    (scaled_xi_step, {8: 0.076, 16: 0.171, 32: 0.382}),
    (scaled_weights, {8: 0.0100, 16: 0.0100, 32: 0.0100}),
], ids=["xi_step", "weights"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_sq_certificate_fails_a_broken_grid(n, mutate, want):
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    mutate(bk)
    certificate = bk.sq_certificate()
    assert certificate > bk.tol
    assert certificate == pytest.approx(want[n], abs=5e-4)
    assert certificate == pytest.approx(verify_sq(bk.family()).max_deviation, abs=1e-12)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_sq_certificate_is_gauge_independent(n):
    A = mg.sine_potential(n, L, 0.8)
    shifted = mg.MagneticBackend(n, L, A=A + 0.37).sq_certificate()
    assert abs(shifted - mg.MagneticBackend(n, L, A=A).sq_certificate()) <= 1e-15


def weyl_op(bk: mg.MagneticBackend, x_shift: float, xi: float) -> np.ndarray:
    """The twisted phase-space translation at (x, xi).

    x must be an on-grid shift (integer multiple of the spacing) and xi a
    dual-grid frequency; anything else is rejected.
    """
    r_float = x_shift / bk.dx
    r = int(round(r_float))
    if abs(r_float - r) > 1e-9 or not (-bk.n // 2 <= r < bk.n // 2):
        raise ValueError(f"x-shift {x_shift} is off-grid")
    k_float = xi * bk.L / (2 * np.pi)
    k = int(round(k_float))
    if abs(k_float - k) > 1e-9 or not (-bk.n // 2 <= k < bk.n // 2):
        raise ValueError(f"frequency {xi} is off the dual grid")
    return magnetic_op_stack(bk, [r], [xi])[0]


def test_weyl_op_accessor_validates():
    bk = mg.MagneticBackend(16, L)
    M = weyl_op(bk, 2 * bk.dx, 2 * np.pi / L)
    assert np.abs(M - bk.family().op((2 + 8) * 16 + (1 + 8))).max() < 1e-13
    with pytest.raises(ValueError, match="off-grid"):
        weyl_op(bk, 0.5 * bk.dx, 0.0)
    with pytest.raises(ValueError, match="dual"):
        weyl_op(bk, bk.dx, 1.234)


def test_nonfinite_field_and_box_rejected():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="box length"):
            mg.MagneticBackend(16, bad)


def test_op_of_unit_symbol_is_identity():
    bk = mg.MagneticBackend(32, L, A=mg.sine_potential(32, L, 0.8))
    one = bk.sample_symbol(lambda Q, P: np.ones_like(Q, dtype=complex))
    assert np.abs(mg.op_a(bk, one) - np.eye(32)).max() < 1e-12


def test_op_momentum_matches_fft_oracle():
    n = 32
    bk = mg.MagneticBackend(n, L)
    P = mg.op_a(bk, bk.sample_symbol(lambda Q, Pv: Pv + 0j))
    # spectral differentiation through numpy's FFT, an unrelated code path
    u = np.exp(-bk.x ** 2) * (1 + 0.3j)
    freqs = 2 * np.pi * np.fft.fftfreq(n, d=bk.dx)
    oracle = np.fft.ifft(freqs * np.fft.fft(u))
    assert np.abs(P @ u - oracle).max() < 1e-12


def test_op_position_symbol_is_multiplication():
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.4))
    g = lambda y: np.cos(2 * np.pi * y / L)
    T = mg.op_a(bk, bk.sample_symbol(lambda Q, P: g(Q) + 0j))
    assert np.abs(T - np.diag(g(bk.x)).astype(complex)).max() < 1e-12


def test_op_real_symbol_self_adjoint(rng):
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.6))
    a = bk.sample_symbol(
        lambda Q, P: np.exp(-(Q - 0.4) ** 2 - 0.2 * (P - 0.3) ** 2) + 0j)
    T = mg.op_a(bk, a)
    assert np.abs(T - T.conj().T).max() < 1e-13


def lag_transform_dft(bk, a):
    """The lag transform as a dense product with its (n, n + 1) DFT matrix E."""
    n = bk.n
    lags = np.arange(-n // 2, n // 2 + 1)
    E = np.exp(1j * bk.dx * np.outer(bk.xi, lags))
    return (a.values.reshape(2 * n, n) @ E) / n


def refine_in_xi_dft(bk, vals):
    """_refine_in_xi as dense analysis (dual grid -> lattice) and synthesis
    (lattice -> half steps) matrices."""
    n = bk.n
    msym = np.arange(-n // 2, n // 2)
    qsym = np.arange(-n, n)
    inv = np.exp(-2j * np.pi * np.outer(bk.k, msym) / n) / n
    refine = np.exp(1j * np.pi * np.outer(msym, qsym) / n)
    return vals @ inv @ refine


def op_a_per_lag(bk, lagT):
    """The kernel quantizer summed one lag at a time, Nyquist lag split in two."""
    n = bk.n
    lags = list(range(-n // 2, n // 2)) + [n // 2]
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
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, amplitude))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    lagT = mg._lag_transform(bk, a)
    assert np.array_equal(mg.op_a(bk, a), op_a_per_lag(bk, lagT))
    # and through the dense lag transform, to rounding
    want = op_a_per_lag(bk, lag_transform_dft(bk, a))
    assert np.abs(mg.op_a(bk, a) - want).max() <= 1e-13 * np.abs(want).max()


def rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n", [8, 16, 64, 192])
def test_fft_routes_match_dft_matrices(n, rng):
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    vals = a.values.reshape(2 * n, n)
    noise = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    assert rel_gap(mg._lag_transform(bk, a), lag_transform_dft(bk, a)) <= 1e-13
    for rows in (vals, noise):
        assert rel_gap(mg._refine_in_xi(bk, rows), refine_in_xi_dft(bk, rows)) <= 1e-13


@pytest.mark.parametrize("n", [8, 64, 192])
def test_refinement_keeps_the_samples_on_even_half_steps(n, rng):
    bk = mg.MagneticBackend(n, L)
    V = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), modulation=(0.3, -0.2))
    for rows in (V, a.values.reshape(2 * n, n)):
        even = mg._refine_in_xi(bk, rows)[:, ::2]
        assert np.abs(even - rows).max() <= 1e-14 * np.abs(rows).max()


def kernel_inline(bk, lagT, table):
    """The kernel quantizer with every index array and phase rebuilt per call,
    scattered lag by lag into a zero matrix."""
    n = bk.n
    lags = np.arange(-n // 2, n // 2 + 1)
    i = np.arange(n)[:, None]
    src = (i - lags) % n
    mid = (2 * src + lags) % (2 * n)
    circ = table[src + lags + n] - table[src + n]
    weight = np.where(np.abs(lags) == n // 2, 0.5, 1.0)
    terms = weight * np.exp(1j * circ) * lagT[mid, np.arange(n + 1)]
    M = np.zeros((n, n), dtype=complex)
    M[i, src[:, :n]] += terms[:, :n]
    M[i, src[:, n:]] += terms[:, n:]
    return M


def gauge_check_inline(bk, rho, drho, lagT):
    """The gauge residual with both kernels rebuilt inline from one lag transform."""
    conj_phase = np.exp(1j * rho)
    conjugated = (conj_phase[:, None] * kernel_inline(bk, lagT, bk._circ_cum)
                  * np.conj(conj_phase)[None, :])
    shifted = kernel_inline(bk, lagT, mg._circulation_table(bk.A + drho, bk.dx))
    return oc.op_norm(shifted - conjugated)


@pytest.mark.parametrize("n", [8, 64, 192])
def test_grid_tables_match_inline_formulas_bitwise(n):
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    lagT = mg._lag_transform(bk, a)
    rho = 0.3 * np.sin(2 * np.pi * bk.x / L)
    for _ in range(2):              # first call builds the tables, second reads them
        assert np.array_equal(mg.op_a(bk, a), kernel_inline(bk, lagT, bk._circ_cum))
        zero = np.zeros(3 * n + 1)
        assert np.array_equal(mg._kernel(bk, lagT, mg._arc_phases(bk, zero)),
                              kernel_inline(bk, lagT, zero))
        assert mg.gauge_transform_check(bk, rho, symbol=a) == gauge_check_inline(
            bk, rho, mg.discrete_gradient(bk, rho), lagT)
    for table in (*bk._kernel_tables, bk._kernel_phases):
        assert not table.flags.writeable


def test_grid_spaces_keep_their_labels():
    bk = mg.MagneticBackend(10, L)
    for space, rows in ((bk.space, bk.k), (bk.midpoint_space, range(20))):
        strings = tuple(f"({r},{k})" for r in rows for k in bk.k)
        flat = oc.MeasureSpace(strings, space.weights, tol=bk.tol)
        assert space == flat and space.space_id() == flat.space_id()


def test_op_requires_midpoint_space():
    bk = mg.MagneticBackend(16, L)
    wrong = oc.Symbol(bk.space, np.ones(16 * 16))
    with pytest.raises(ValueError, match="midpoint"):
        mg.op_a(bk, wrong)


def test_moyal_unit_both_sides():
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.8))
    one = bk.sample_symbol(lambda Q, P: np.ones_like(Q, dtype=complex))
    a = mg.gaussian_symbol(bk, sigma=(0.8, 2.0), center=(0.3, 0.5))
    left = mg.magnetic_moyal(bk, a, one)
    right = mg.magnetic_moyal(bk, one, a)
    assert np.abs(left.values - a.values).max() < 1e-12
    assert np.abs(right.values - a.values).max() < 1e-12


def test_moyal_plane_wave_exact():
    # q#p plane waves compose with the half-commutator phase exactly
    n = 32
    bk = mg.MagneticBackend(n, L)
    mu = 2 * np.pi / L
    nu = bk.dx
    a = bk.sample_symbol(lambda Q, P: np.exp(1j * mu * Q))
    b = bk.sample_symbol(lambda Q, P: np.exp(1j * nu * P))
    c = mg.magnetic_moyal(bk, a, b)
    expected = bk.sample_symbol(
        lambda Q, P: np.exp(1j * (mu * Q + nu * P)) * np.exp(-0.5j * mu * nu))
    assert np.abs(c.values - expected.values).max() < 1e-12
    assert np.abs(mg.op_a(bk, a) @ mg.op_a(bk, b) - mg.op_a(bk, c)).max() < 1e-12


def test_moyal_q_only_is_pointwise_product():
    bk = mg.MagneticBackend(16, L)
    a = bk.sample_symbol(lambda Q, P: np.exp(-Q ** 2 / 2) + 0j)
    b = bk.sample_symbol(lambda Q, P: np.exp(-(Q - 0.7) ** 2 / 1.5) + 0j)
    c = mg.magnetic_moyal(bk, a, b)
    assert np.abs(c.values - a.values * b.values).max() < 1e-13


def moyal_per_midpoint(bk, a, b):
    """The composition quadrature summed directly, one output midpoint at a time.

    The symbols are refined by the dense DFT matrices, so the oracle shares no
    transform with the code it checks.  Lag transforms of both refined symbols at all 4n - 1 midpoint differences,
    then one (2n)^2 x n matrix product per output midpoint: 8n^4 work.
    """
    n = bk.n
    a_ref = refine_in_xi_dft(bk, a.values.reshape(2 * n, n))
    b_ref = refine_in_xi_dft(bk, b.values.reshape(2 * n, n))
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
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    b = mg.gaussian_symbol(bk, sigma=(0.7, 2.0), center=(-0.5, 0.2),
                           modulation=(-0.4, 0.5))
    want = moyal_per_midpoint(bk, a, b)
    got = mg.magnetic_moyal(bk, a, b).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def moyal_row_by_row(bk, a, b):
    """``magnetic_moyal`` with P filled one output row k at a time, each row
    one batched dot over two fresh 2n x 2n windows of the skewed copies."""
    n = bk.n
    two_n = 2 * n
    a_hat = np.fft.fft(mg._refine_in_xi(bk, a.values.reshape(two_n, n)), axis=0)
    b_hat = np.fft.fft(mg._refine_in_xi(bk, b.values.reshape(two_n, n)), axis=0)
    idx = np.arange(two_n)
    SA = np.tile(a_hat[(-idx[:, None] - idx) % two_n, idx], (2, 1))[:, None, :]
    SB = np.tile(b_hat[idx, (idx + idx[:, None]) % two_n], (2, 2))[:, :, None]
    P = np.empty((n, two_n), dtype=complex)
    for k in range(n):
        s = 2 * k
        t = -s % two_n
        P[k] = np.matmul(SA[t:t + two_n], SB[s:s + two_n, t:t + two_n])[:, 0, 0]
    out = np.fft.fft(P, axis=1).T / two_n ** 2
    return oc.Symbol(bk.midpoint_space, out.reshape(-1))


@pytest.mark.parametrize("n", [8, 64, 130])
def test_moyal_matches_row_by_row_loop_bitwise(n):
    # n = 8, 64: one row chunk; n = 130: chunks of 2**15 // 260 = 126 rows,
    # which do not divide 2n = 260
    bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                           modulation=(0.3, -0.2))
    b = mg.gaussian_symbol(bk, sigma=(0.7, 2.0), center=(-0.5, 0.2),
                           modulation=(-0.4, 0.5))
    got = mg.magnetic_moyal(bk, a, b)
    assert np.array_equal(got.values, moyal_row_by_row(bk, a, b).values)


def test_study_report_matches_row_by_row_loop(tmp_path, monkeypatch):
    from opcalc import cli
    # n = 96 runs two row chunks (170 and 22 rows)
    config = {"backend": {"kind": "magnetic_weyl", "n": 8, "L": L}, "seed": 5,
              "tasks": [{"kind": "magnetic_study", "grids": [32, 96]}]}
    cli.run_config(config, str(tmp_path / "chunked.json"))
    grids = []

    def oracle(bk, a, b):
        grids.append(bk.n)
        return moyal_row_by_row(bk, a, b)

    monkeypatch.setattr(mg, "magnetic_moyal", oracle)
    cli.run_config(config, str(tmp_path / "rows.json"))
    assert grids == [32, 96]
    assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "rows.json").read_bytes()


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
        bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
        a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                               modulation=(0.3, -0.2))
        b = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(-0.5, 0.2),
                               modulation=(-0.4, 0.5))
        residuals.append(mg.composition_residual(bk, a, b))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-6


def test_composition_residual_is_small_and_nonzero():
    # the composition law holds to quadrature accuracy, not exactly
    bk = mg.MagneticBackend(32, L)
    a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.3, 0.4))
    b = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(-0.2, 0.1))
    assert 1e-16 < mg.composition_residual(bk, a, b) < 1e-3


def test_gauge_zero():
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.7))
    assert mg.gauge_transform_check(bk, np.zeros(16)) < 1e-14


def test_backend_keeps_its_own_potential():
    A = mg.sine_potential(16, L, 0.7)
    bk = mg.MagneticBackend(16, L, A=A)
    assert mg.gauge_transform_check(bk, np.zeros(16)) == 0.0
    A += 1.0                 # the caller's array; the backend tabulated the old one
    assert mg.gauge_transform_check(bk, np.zeros(16)) == 0.0
    assert not bk.A.flags.writeable


def test_gauge_check_matches_rebuilt_backend_route():
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.7))
    rho = 0.3 * np.sin(2 * np.pi * bk.x / L)
    drho = mg.discrete_gradient(bk, rho)
    # the shifted potential on a backend with its own, separately built spaces
    shifted = mg.MagneticBackend(16, L, A=bk.A + drho)
    a = mg.gaussian_symbol(bk)
    phase = np.exp(1j * rho)
    conjugated = phase[:, None] * mg.op_a(bk, a) * np.conj(phase)[None, :]
    want = oc.op_norm(mg.op_a(shifted, mg.gaussian_symbol(shifted)) - conjugated)
    assert mg.gauge_transform_check(bk, rho) == want


def test_gauge_check_rejects_nonfinite_input():
    bk = mg.MagneticBackend(16, L, A=mg.sine_potential(16, L, 0.7))
    drho = np.zeros(16)
    drho[3] = np.nan
    with pytest.raises(ValueError, match="^drho "):
        mg.gauge_transform_check(bk, np.zeros(16), drho=drho)
    rho = np.zeros(16)
    rho[5] = np.inf
    with pytest.raises(ValueError, match="^rho "):
        mg.gauge_transform_check(bk, rho)


def test_gauge_linear_exact():
    bk = mg.MagneticBackend(32, L, A=mg.sine_potential(32, L, 0.7))
    alpha = 3 * (2 * np.pi / L)   # torus-compatible slope
    rho = alpha * bk.x
    assert mg.gauge_transform_check(bk, rho, drho=np.full(32, alpha)) < 1e-10


def test_gauge_smooth_refines():
    residuals = []
    for n in (16, 32, 64):
        bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.7))
        rho = 0.3 * np.sin(2 * np.pi * bk.x / L)
        residuals.append(mg.gauge_transform_check(bk, rho))
    assert residuals[0] > residuals[1] > residuals[2]


def test_reduction_residual_small():
    assert mg.reduction_residual(mg.MagneticBackend(32, L)) < 1e-12


def reduction_residual_every_svd(backend):
    """``reduction_residual`` with the spectral norm of all three gaps."""
    n, box = backend.n, backend.L
    phases = mg._arc_phases(backend, np.zeros(3 * n + 1))

    def op0(fn):
        return mg._kernel(backend, mg._lag_transform(backend, backend.sample_symbol(fn)),
                          phases)

    p_op = op0(lambda Q, P: P + 0j)
    r1 = op_norm(p_op - mg.standard_momentum_matrix(n, box)) / max(1.0, op_norm(p_op))
    g_op = op0(lambda Q, P: np.cos(2 * np.pi * Q / box) + 0j)
    r2 = op_norm(g_op - np.diag(np.cos(2 * np.pi * backend.x / box).astype(complex)))
    r3 = op_norm(op0(lambda Q, P: np.ones_like(Q, dtype=complex)) - np.eye(n))
    return max(r1, r2, r3)


def test_reduction_residual_prunes_svds_bitwise(monkeypatch):
    grids = [32, 64, 128, 192]
    calls = []
    monkeypatch.setattr(mg, "op_norm", lambda T: calls.append(len(T)) or op_norm(T))
    pruned = mg.magnetic_study(grids)
    # 3 composition, 2 gauge and 2 reduction spectral norms per grid, not 4
    assert len(calls) == 7 * len(grids)
    monkeypatch.setattr(mg, "reduction_residual", reduction_residual_every_svd)
    assert mg.magnetic_study(grids) == pruned


def test_magnetic_study_shape():
    rows = mg.magnetic_study([16, 32])
    assert [r["n"] for r in rows] == [16, 32]
    for r in rows:
        assert r["sq_residual"] < 1e-10
        assert r["reduction_residual"] < 1e-10
        assert r["gauge_linear_residual"] < 1e-10


def test_magnetic_study_refines_on_larger_grids():
    rows = mg.magnetic_study([128, 256])
    assert mg.composition_refines(rows)
    assert all(r["gauge_linear_residual"] <= 1e-10 for r in rows)
    assert all(r["reduction_residual"] <= 1e-8 for r in rows)


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
    mg.magnetic_study([16, 32])
    assert backends == [16, 32]
    # per grid: one midpoint space, and the phase space the certificate reads
    assert spaces == [2 * 16 * 16, 16 * 16, 2 * 32 * 32, 32 * 32]


def test_magnetic_study_gauge_rows_are_public_checks(monkeypatch):
    calls = []
    check = mg.gauge_transform_check

    def counting(backend, *args, **kwargs):
        calls.append(backend.n)
        return check(backend, *args, **kwargs)

    monkeypatch.setattr(mg, "gauge_transform_check", counting)
    rows = mg.magnetic_study([16, 32])
    assert calls == [16, 16, 32, 32]
    monkeypatch.undo()
    # the study's rows are the public check's values bit for bit
    for row in rows:
        n = row["n"]
        bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
        alpha = 2 * (2 * np.pi / L)
        assert row["gauge_linear_residual"] == mg.gauge_transform_check(
            bk, alpha * bk.x, drho=np.full(n, alpha))
        assert row["gauge_smooth_residual"] == mg.gauge_transform_check(
            bk, 0.3 * np.sin(2 * np.pi * bk.x / L))


def test_family_materialization_guard():
    bk = mg.MagneticBackend(130, L)
    with pytest.raises(ValueError, match=r"n\^3 <= BLOCK_ENTRY_CAP = 2097152"):
        bk.family()
    # the certificate still works at this size
    assert bk.sq_certificate() < 1e-14
    # the largest grid whose blocks fit the cap builds its family
    assert mg.MagneticBackend(128, L).family().npoints == 128 ** 2


def test_backend_spec_roundtrip():
    from opcalc.backends import backend_from_spec
    bk = backend_from_spec({"kind": "magnetic_weyl", "n": 16, "L": L,
                            "A": mg.sine_potential(16, L, 0.4).tolist()})
    assert isinstance(bk, mg.MagneticBackend)
    assert bk.n == 16 and bk.space.mass == pytest.approx(16.0)
