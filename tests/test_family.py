import tracemalloc

import numpy as np
import pytest

import opcalc as oc
from opcalc.family import verify_sq

from conftest import (brute_pairing_integral, brute_inner, random_family,
                      weyl_matrices_oracle)


@pytest.fixture
def weyl2():
    return oc.discrete_weyl(2)


@pytest.fixture
def weyl3():
    return oc.discrete_weyl(3)


def basis(d, i):
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def test_coefficient_trivial():
    fam = oc.trivial_backend()
    f = oc.coefficient(fam, [1.0], [1.0])
    assert f.values[0] == pytest.approx(1.0)


def test_coefficient_matches_direct_evaluation(weyl2):
    mats = weyl_matrices_oracle(2)
    e0 = basis(2, 0)
    f = oc.coefficient(weyl2, e0, e0)
    for idx, (a, b) in enumerate((a, b) for a in range(2) for b in range(2)):
        direct = complex(np.conj(e0) @ (mats[(a, b)] @ e0))
        assert f.values[idx] == pytest.approx(direct)


def test_coefficient_sesquilinear(weyl3, rng):
    u, v = oc.random_vector(rng, 3), oc.random_vector(rng, 3)
    alpha = 0.3 - 1.2j
    scaled = oc.coefficient(weyl3, alpha * u, v)
    assert np.abs(scaled.values - alpha * oc.coefficient(weyl3, u, v).values).max() < 1e-13


def test_verify_sq_trivial_exact():
    report = verify_sq(oc.trivial_backend())
    assert report.passed and report.max_deviation == 0.0
    assert report.tested_pairs == 1


def test_verify_sq_weyl3_matches_brute_force(weyl3):
    report = verify_sq(weyl3)
    assert report.passed and report.max_deviation < 1e-12
    assert report.tested_pairs == 81

    # independent enumeration of all 81 basis quadruples
    mats = list(weyl_matrices_oracle(3).values())
    weights = [1 / 3] * 9
    worst = 0.0
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    val = brute_pairing_integral(mats, weights, basis(3, i1),
                                                 basis(3, j1), basis(3, i2),
                                                 basis(3, j2))
                    expected = (1.0 if (i1, j1) == (i2, j2) else 0.0)
                    worst = max(worst, abs(val - expected))
    assert worst < 1e-12
    assert report.max_deviation == pytest.approx(worst, abs=1e-12)
    # the reported witness attains the brute-force maximum
    i1, j1, i2, j2 = report.worst
    at_witness = brute_pairing_integral(mats, weights, basis(3, i1), basis(3, j1),
                                        basis(3, i2), basis(3, j2))
    expected = 1.0 if (i1, j1) == (i2, j2) else 0.0
    assert abs(at_witness - expected) == pytest.approx(worst, abs=1e-12)


def test_verify_sq_direct_sum_counterexample(weyl2):
    summed = oc.direct_sum_product(weyl2, weyl2)
    report = verify_sq(summed)
    assert not report.passed

    # hand evaluation: the witness integral factorizes as 1 x mass = 2
    witness = basis(4, 0)  # e0 in the first block
    integral = brute_pairing_integral(summed.stack, summed.space.weights,
                                      witness, witness, witness, witness)
    assert integral == pytest.approx(2.0, abs=1e-12)
    assert report.max_deviation == pytest.approx(1.0, abs=1e-12)
    assert report.worst == (0, 0, 0, 0)
    assert report.to_json()["worst"] == {"quadruple": [0, 0, 0, 0],
                                         "residual": pytest.approx(1.0, abs=1e-12)}


def test_verify_sq_worst_matches_brute_force_on_generic_family(rng):
    # random operators: all 81 residuals differ, so the witness is unique and
    # any slip in mapping the Gram index back to (i1, j1, i2, j2) shows
    ops = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    weights = [0.1, 0.2, 0.3, 0.4]
    fam = oc.OperatorFamily(oc.MeasureSpace(tuple(range(4)), np.array(weights)), ops)
    report = verify_sq(fam)
    residual = {}
    for q in np.ndindex(3, 3, 3, 3):
        i1, j1, i2, j2 = q
        val = brute_pairing_integral(ops, weights, basis(3, i1), basis(3, j1),
                                     basis(3, i2), basis(3, j2))
        residual[q] = abs(val - (1.0 if (i1, j1) == (i2, j2) else 0.0))
    assert report.worst == max(residual, key=residual.get)
    assert report.max_deviation == pytest.approx(max(residual.values()), rel=1e-12)


def test_verify_sq_exact_on_hdim16():
    fam = oc.tensor(oc.discrete_weyl(4), oc.discrete_weyl(4))
    report = verify_sq(fam)
    assert report.mode == "basis" and report.tested_pairs == 65536
    assert report.passed and report.max_deviation < 1e-10


def test_sq_report_json(weyl2):
    d = verify_sq(weyl2).to_json()
    assert d["verdict"] == "pass"
    assert d["tested_pairs"] == 16 and "pairs" not in d
    assert len(d["worst"]["quadruple"]) == 4
    assert all(0 <= i < 2 for i in d["worst"]["quadruple"])
    assert d["worst"]["residual"] == d["max_deviation"] < 1e-12


def stacked_commutant_dim(fam):
    """Reference: nullity of the (m*d^2, d^2) system stacking T pi(s) - pi(s) T."""
    d = fam.hdim
    eye = np.eye(d)
    M = np.vstack([np.kron(eye, P) - np.kron(P.T, eye) for P in fam.stack])
    return d * d - int(np.linalg.matrix_rank(M))


def coupled_copies(eps):
    """Two copies of Weyl 3 whose off-diagonal block is eps times a fixed matrix."""
    two = oc.direct_sum([oc.discrete_weyl(3), oc.discrete_weyl(3)])
    stack = two.stack.copy()
    stack[:, :3, 3:] += eps * oc.random_vector(np.random.default_rng(3), 9).reshape(3, 3)
    return oc.OperatorFamily(two.space, stack)


def compressed_weyl3(rng):
    unitary = np.linalg.qr(oc.random_vector(rng, 9).reshape(3, 3))[0]
    w3 = oc.discrete_weyl(3)
    return oc.compress(w3, np.arange(9), w3.space, unitary)


COMMUTANT_CASES = {
    "trivial": (oc.trivial_backend, 1),
    "weyl2": (lambda: oc.discrete_weyl(2), 1),
    "weyl3": (lambda: oc.discrete_weyl(3), 1),
    "weyl4": (lambda: oc.discrete_weyl(4), 1),
    "s3": (lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()), 1),
    "metaplectic5": (lambda: oc.abelian_metaplectic((5,), k=2), 1),
    "tensor23": (lambda: oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)), 1),
    "adjoint3": (lambda: oc.adjoint_family(oc.discrete_weyl(3)), 1),
    "compress3": (lambda: compressed_weyl3(np.random.default_rng(5)), 1),
    "magnetic8": (lambda: oc.magnetic_weyl_grid(8, 6.0).family(), 1),
    "random_generic": (lambda: random_family(np.random.default_rng(7)), 1),
    "two_copies_weyl2": (lambda: oc.direct_sum([oc.discrete_weyl(2)] * 2), 4),
    "direct_sum_product34": (lambda: oc.direct_sum_product(oc.discrete_weyl(3),
                                                           oc.discrete_weyl(4)), 2),
    "coupled_1e-3": (lambda: coupled_copies(1e-3), 2),
    "coupled_1e-5": (lambda: coupled_copies(1e-5), 2),
    "coupled_0": (lambda: coupled_copies(0.0), 4),
}


def test_commutant_dim():
    for name, (build, expected) in COMMUTANT_CASES.items():
        fam = build()
        got = (oc.commutant_dim(fam), stacked_commutant_dim(fam))
        assert got == (expected, expected), name


def test_commutant_dim_memory():
    fam = oc.discrete_weyl(12)
    tracemalloc.start()
    try:
        assert oc.commutant_dim(fam) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20      # the stacked (m*d^2, d^2) system peaks near 96 MB


def test_invariant_subspace_check(weyl2):
    assert oc.invariant_subspace_check(weyl2, np.eye(2))          # full space
    assert oc.invariant_subspace_check(weyl2, np.zeros((2, 0)))   # zero space
    # pi(1,0) e0 = e1 escapes span{e0}
    assert not oc.invariant_subspace_check(weyl2, basis(2, 0))
    with pytest.raises(ValueError):
        oc.invariant_subspace_check(weyl2, np.column_stack([basis(2, 0),
                                                            basis(2, 0)]))


def test_sq_implies_irreducible(weyl3, rng):
    assert verify_sq(weyl3).passed
    assert oc.commutant_dim(weyl3) == 1
    for k in (1, 2):
        cand = np.linalg.qr(oc.random_vector(rng, 3 * k).reshape(3, k))[0]
        assert not oc.invariant_subspace_check(weyl3, cand)


def test_tensor_with_trivial_is_identity(weyl2):
    t = oc.tensor(oc.trivial_backend(), weyl2)
    assert t.hdim == 2 and t.npoints == 4
    assert np.abs(t.stack - weyl2.stack).max() == 0
    assert np.array_equal(t.space.weights, weyl2.space.weights)


def test_tensor_sq_and_coefficient_factorization(weyl2, weyl3, rng):
    t = oc.tensor(weyl2, weyl3)
    assert verify_sq(t).passed
    u1, v1 = oc.random_vector(rng, 2), oc.random_vector(rng, 2)
    u2, v2 = oc.random_vector(rng, 3), oc.random_vector(rng, 3)
    joint = oc.coefficient(t, np.kron(u1, u2), np.kron(v1, v2))
    f1 = oc.coefficient(weyl2, u1, v1)
    f2 = oc.coefficient(weyl3, u2, v2)
    product = np.kron(f1.values, f2.values)  # same lexicographic point order
    assert np.abs(joint.values - product).max() < 1e-12


def test_direct_sum_product_point_order(weyl3):
    # first factor slowest, as in product_space: the plain double loop
    weyl4 = oc.discrete_weyl(4)
    out = oc.direct_sum_product(weyl3, weyl4)
    s = 0
    for a in weyl3.stack:
        for b in weyl4.stack:
            expected = np.zeros((7, 7), dtype=complex)
            expected[:3, :3], expected[3:, 3:] = a, b
            assert np.array_equal(out.stack[s], expected)
            s += 1
    assert s == out.npoints


def test_compress_identity(weyl3):
    out = oc.compress(weyl3, np.arange(9), weyl3.space, np.eye(3))
    assert np.abs(out.stack - weyl3.stack).max() < 1e-14


def test_compress_relabeling_preserves_sq(weyl3, rng):
    perm = rng.permutation(9)
    # uniform weights, so any relabeling pushes forward to the same weights
    target = oc.MeasureSpace(tuple(f"q{i}" for i in range(9)),
                             weyl3.space.weights)
    unitary = np.linalg.qr(oc.random_vector(rng, 9).reshape(3, 3))[0]
    out = oc.compress(weyl3, perm, target, unitary)
    assert verify_sq(out).passed


def test_compress_fiber_inconsistency(weyl2, weyl3, rng):
    big = oc.tensor(weyl2, weyl3)
    # project to the first factor; iota embeds u as u (x) w
    w = oc.random_unit_vector(rng, 3)
    iota = np.kron(np.eye(2), w[:, None])
    point_map = np.repeat(np.arange(4), 9)
    target = oc.MeasureSpace(("a", "b", "c", "d"), np.full(4, 0.5 * 3.0))
    with pytest.raises(ValueError, match="fibre"):
        oc.compress(big, point_map, target, iota)


def test_compress_precondition_errors(weyl2):
    bad_weights = oc.MeasureSpace(("a", "b", "c", "d"), np.full(4, 0.7))
    with pytest.raises(ValueError, match="pushforward"):
        oc.compress(weyl2, np.arange(4), bad_weights, np.eye(2))
    with pytest.raises(ValueError, match="isometry"):
        oc.compress(weyl2, np.arange(4), weyl2.space, 2.0 * np.eye(2))


def test_adjoint_family_sq(weyl3):
    assert verify_sq(oc.adjoint_family(weyl3)).passed


def test_bounded_overlap_single_family(weyl2, rng):
    u = oc.random_unit_vector(rng, 2)
    v = oc.random_unit_vector(rng, 2)
    value = oc.bounded_overlap_check([weyl2], u, v, u, v)
    assert value <= 1.0 + 1e-12


def test_bounded_overlap_zero_vectors(weyl2):
    z = np.zeros(2)
    assert oc.bounded_overlap_check([weyl2], z, z, z, z) == 0.0


def test_bounded_overlap_direct_sum(weyl2):
    u = np.concatenate([basis(2, 0), basis(2, 0)]) / np.sqrt(2)
    value = oc.bounded_overlap_check([weyl2, weyl2], u, u, u, u)
    assert value <= 1.0 + 1e-12


def test_direct_sum_requires_shared_space(weyl2, weyl3):
    with pytest.raises(ValueError):
        oc.direct_sum([weyl2, weyl3])


def test_family_json_roundtrip(weyl3):
    from opcalc.family import family_from_json, family_to_json
    back = family_from_json(family_to_json(weyl3))
    assert back.space == weyl3.space
    assert np.abs(back.stack - weyl3.stack).max() == 0.0
