import itertools

import numpy as np
import pytest

import opcalc as oc
from opcalc import magnetic as mg
from opcalc.backends import abelian_metaplectic, backend_from_spec
from opcalc.family import _matrix_blocks, verify_sq

from conftest import magnetic_op_stack, refuse_dense_views, weyl_matrices_oracle


def abelian_metaplectic_loop(orders, k: int):
    """The metaplectic points, stack and weights built entry by entry, with the
    calibration integral summed per basis pair."""
    orders = tuple(int(n) for n in orders)
    size = int(np.prod(orders))
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {x: i for i, x in enumerate(elements)}
    phase = np.zeros((size, size))
    for a, xi in enumerate(elements):
        for b, x in enumerate(elements):
            phase[a, b] = sum(xi[l] * x[l] / orders[l] for l in range(len(orders)))
    characters = np.exp(2j * np.pi * phase)
    shifted = np.zeros((size, size), dtype=int)
    for b, x in enumerate(elements):
        for c, z in enumerate(elements):
            shifted[b, c] = index[tuple((z[l] + x[l]) % orders[l]
                                        for l in range(len(orders)))]
    points, ops = [], []
    for x_i, x in enumerate(elements):
        for xi_i, xi in enumerate(elements):
            M = np.zeros((size, size), dtype=complex)
            for z_i in range(size):
                arg = tuple((k * elements[z_i][l] + (k - 1) * x[l]) % orders[l]
                            for l in range(len(orders)))
                M[z_i, shifted[x_i, z_i]] = characters[xi_i, index[arg]]
            points.append(f"({','.join(map(str, x))};{','.join(map(str, xi))})")
            ops.append(M)
    ops = np.array(ops)
    base_weight = 1.0 / size
    if k == 1:
        return points, ops, np.full(size * size, base_weight)
    c_values = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            c_values[i, j] = 1.0 / (base_weight * float(np.sum(np.abs(ops[:, j, i]) ** 2)))
    return points, ops, np.full(size * size, base_weight * float(c_values.mean()))


@pytest.mark.parametrize("orders", [[5], [15], [3, 3]])
@pytest.mark.parametrize("k", [1, 2])
def test_metaplectic_matches_entrywise_loop_bitwise(orders, k):
    fam = abelian_metaplectic(orders, k)
    points, ops, weights = abelian_metaplectic_loop(orders, k)
    assert tuple(fam.space.points) == tuple(points)
    assert np.array_equal(fam.stack, ops)
    assert np.array_equal(np.signbit(fam.stack.view(float)), np.signbit(ops.view(float)))
    assert np.array_equal(fam.space.weights, weights)


def test_trivial_backend():
    fam = oc.trivial_backend()
    report = verify_sq(fam)
    assert report.passed and report.max_deviation == 0.0
    q = oc.build_quantizer(fam)
    assert q.b2_rank == 1


def test_discrete_weyl_requires_two():
    with pytest.raises(ValueError):
        oc.discrete_weyl(1)


def discrete_weyl_loop(N):
    """Labels and operators of the Weyl system, built point by point."""
    omega = np.exp(2j * np.pi / N)
    cols = np.arange(N)
    points, ops = [], []
    for a in range(N):
        for b in range(N):
            M = np.zeros((N, N), dtype=complex)
            M[(cols + a) % N, cols] = omega ** (b * cols)   # U^a V^b
            points.append(f"({a},{b})")
            ops.append(M)
    return tuple(points), np.array(ops)


@pytest.mark.parametrize("N", [3, 8, 16, 24])
def test_discrete_weyl_matches_point_loop_bitwise(N):
    fam = oc.discrete_weyl(N)
    points, ops = discrete_weyl_loop(N)
    assert tuple(fam.space.points) == points
    flat = oc.MeasureSpace(points, fam.space.weights)
    assert fam.space == flat and fam.space.space_id() == flat.space_id()
    assert np.array_equal(fam.stack, ops)
    assert np.array_equal(np.signbit(fam.stack.view(float)), np.signbit(ops.view(float)))


def assert_built_as_blocks(build, ops, monkeypatch):
    """build() reads no dense view, and the blocks of the family it returns
    are bitwise those that the row-class rule finds on the dense operators."""
    refuse_dense_views(monkeypatch)
    fam = build()
    for got, want in zip(fam.blocks, _matrix_blocks(ops.reshape(len(ops), -1))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 8, 12, 16, 24])
def test_discrete_weyl_is_built_as_the_blocks_of_its_stack(N, monkeypatch):
    assert_built_as_blocks(lambda: oc.discrete_weyl(N), discrete_weyl_loop(N)[1], monkeypatch)


@pytest.mark.parametrize("orders", [[3], [5], [15], [3, 3], [27]])
@pytest.mark.parametrize("k", [1, 2])
def test_metaplectic_is_built_as_the_blocks_of_its_stack(orders, k, monkeypatch):
    assert_built_as_blocks(lambda: abelian_metaplectic(orders, k),
                           abelian_metaplectic_loop(orders, k)[1], monkeypatch)


@pytest.mark.parametrize("n", [8, 10, 16, 32])
@pytest.mark.parametrize("amplitude", [0.0, 0.8])
def test_magnetic_family_is_built_as_the_blocks_of_its_stack(n, amplitude, monkeypatch):
    bk = mg.MagneticBackend(n, 12.0, A=mg.sine_potential(n, 12.0, amplitude))
    assert_built_as_blocks(bk.family, magnetic_op_stack(bk, bk.k, bk.xi), monkeypatch)


@pytest.mark.parametrize("build, message", [
    (lambda: oc.discrete_weyl(2.0), "N must be an integer"),
    (lambda: oc.discrete_weyl(True), "N must be an integer"),
    (lambda: oc.abelian_metaplectic([5.5], 1), "each of orders must be an integer"),
    (lambda: oc.abelian_metaplectic([5], 1.0), "k must be an integer"),
    (lambda: oc.cyclic_table(4.5), "n must be an integer"),
    (lambda: oc.cyclic_table(True), "n must be an integer"),
    (lambda: oc.cyclic_character(4.0, 1), "n must be an integer"),
    (lambda: oc.cyclic_character(4, 1.0), "k must be an integer"),
], ids=["weyl_float", "weyl_bool", "metaplectic_orders", "metaplectic_k",
        "cyclic_table_float", "cyclic_table_bool", "cyclic_character_n",
        "cyclic_character_k"])
def test_constructors_reject_non_integer_sizes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cyclic_table_is_sized_before_it_is_built():
    cap = oc.backends.GROUP_ORDER_CAP
    with pytest.raises(ValueError, match=f"group order {cap + 1} exceeds the cap {cap}"):
        oc.cyclic_table(cap + 1)


def test_discrete_weyl_identity_at_origin():
    fam = oc.discrete_weyl(4)
    assert np.abs(fam.op(0) - np.eye(4)).max() == 0.0


def test_discrete_weyl_matches_matrix_power_oracle():
    fam = oc.discrete_weyl(3)
    oracle = weyl_matrices_oracle(3)
    for idx, (a, b) in enumerate((a, b) for a in range(3) for b in range(3)):
        assert np.abs(fam.op(idx) - oracle[(a, b)]).max() < 1e-14


def test_discrete_weyl_trace_orthogonality():
    # Tr[pi(a,b) pi(a',b')*] = N delta, all 81 pairs at N = 3
    oracle = weyl_matrices_oracle(3)
    keys = list(oracle)
    for s in keys:
        for t in keys:
            val = np.trace(oracle[s] @ oracle[t].conj().T)
            assert val == pytest.approx(3.0 if s == t else 0.0, abs=1e-13)

    fam = oc.discrete_weyl(3)
    for i in range(9):
        for j in range(9):
            expected = 3.0 if i == j else 0.0
            assert oc.hs_inner(fam.op(i), fam.op(j)) == pytest.approx(
                expected, abs=1e-13)


def test_discrete_weyl_sq_small_sizes():
    for N in (2, 3, 4, 5):
        report = verify_sq(oc.discrete_weyl(N))
        assert report.passed and report.max_deviation < 1e-12


def test_s3_backend_sq_with_renormalized_haar():
    fam = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
    assert np.allclose(fam.space.weights, 2.0 / 6.0)
    report = verify_sq(fam)
    assert report.passed and report.max_deviation < 1e-12


def test_s3_unrenormalized_fails_by_half():
    fam = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep(),
                                  measure_scale=0.5)
    report = verify_sq(fam)
    assert not report.passed
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)


def test_s3_coefficients_span_four_dimensions():
    fam = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
    symbols = np.array([oc.coefficient(fam, np.eye(2)[i], np.eye(2)[j]).values
                        for i in range(2) for j in range(2)])
    assert np.linalg.matrix_rank(symbols, tol=1e-10) == 4


def test_z4_character_backend():
    fam = oc.finite_group_backend(oc.cyclic_table(4), oc.cyclic_character(4, 1))
    assert np.allclose(fam.space.weights, 0.25)
    assert verify_sq(fam).passed
    assert oc.build_quantizer(fam).b2_rank == 1


def test_group_validation_errors():
    table, _ = oc.s3_table()
    irrep = oc.s3_standard_irrep()
    broken = irrep.copy()
    broken[3] = np.eye(2)  # destroys the homomorphism property
    with pytest.raises(ValueError, match="homomorphism"):
        oc.finite_group_backend(table, broken)
    with pytest.raises(ValueError, match="unitary"):
        oc.finite_group_backend(table, 2.0 * irrep)
    bad_table = np.zeros((3, 3), dtype=int)
    with pytest.raises(ValueError, match="identity"):
        oc.finite_group_backend(bad_table, oc.cyclic_character(3, 1))
    non_assoc = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ValueError, match="associative"):
        oc.finite_group_backend(non_assoc, oc.cyclic_character(3, 1))


def test_metaplectic_k1():
    fam = oc.abelian_metaplectic([3], 1)
    assert fam.hdim == 3 and fam.npoints == 9
    report = verify_sq(fam)
    assert report.passed and report.max_deviation < 1e-12


def test_metaplectic_k2_even_rejected():
    with pytest.raises(ValueError, match="automorphism"):
        oc.abelian_metaplectic([2], 2)
    with pytest.raises(ValueError, match="automorphism"):
        oc.abelian_metaplectic([3, 2], 2)


def test_metaplectic_k2_calibrated():
    # the orthogonality constant is exactly 1, so k = 2 carries the k = 1
    # measure counting x counting/|G|; verify_sq certifies it
    for orders in ([3], [3, 5], [15], [27], [49]):
        fam = oc.abelian_metaplectic(orders, 2)
        size = int(np.prod(orders))
        k1 = oc.abelian_metaplectic(orders, 1).space.weights
        assert np.array_equal(fam.space.weights, k1)
        assert np.array_equal(fam.space.weights, np.full(size * size, 1.0 / size))
        report = verify_sq(fam)
        assert report.passed and report.max_deviation < 1e-12


def test_metaplectic_product_group():
    fam = oc.abelian_metaplectic([3, 3], 1)
    assert fam.hdim == 9 and fam.npoints == 81
    report = verify_sq(fam)
    assert report.passed


def test_backend_from_spec_dispatch():
    assert backend_from_spec({"kind": "trivial"}).hdim == 1
    assert backend_from_spec({"kind": "discrete_weyl", "N": 3}).hdim == 3
    s3 = backend_from_spec({"kind": "finite_group", "preset": "s3_standard"})
    assert s3.hdim == 2 and s3.npoints == 6
    z4 = backend_from_spec({"kind": "finite_group", "preset": "cyclic_character",
                            "order": 4, "k": 1})
    assert z4.hdim == 1 and z4.npoints == 4
    meta = backend_from_spec({"kind": "abelian_metaplectic", "orders": [3], "k": 1})
    assert meta.hdim == 3
    raw = backend_from_spec({
        "kind": "finite_group",
        "table": oc.cyclic_table(3).tolist(),
        "irrep": {"re": oc.cyclic_character(3, 1).real.tolist(),
                  "im": oc.cyclic_character(3, 1).imag.tolist()},
    })
    assert raw.hdim == 1 and verify_sq(raw).passed
    with pytest.raises(ValueError):
        backend_from_spec({"kind": "nonsense"})
    with pytest.raises(ValueError):
        backend_from_spec({"no": "kind"})
