import numpy as np
import pytest

import opcalc as oc
from opcalc import berezin as bz
from opcalc import calculus as ca
from opcalc import magnetic

from conftest import brute_inner, dense_b2_basis


@pytest.fixture
def weyl2_q():
    return oc.build_quantizer(oc.discrete_weyl(2))


@pytest.fixture
def weyl3_q():
    return oc.build_quantizer(oc.discrete_weyl(3))


@pytest.fixture
def s3_q():
    fam = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
    return oc.build_quantizer(fam)


def b2_random(q, rng):
    return oc.project_b2(q, oc.random_symbol(rng, q.space))


def test_ranks():
    q = oc.build_quantizer(oc.trivial_backend())
    assert "b2_basis" not in vars(q)     # the SVD waits for the first use
    assert q.b2_rank == 1 and "b2_basis" in vars(q)
    for N in (2, 3, 4):
        assert oc.build_quantizer(oc.discrete_weyl(N)).b2_rank == N * N


def test_rank_matches_gram_oracle(s3_q):
    # rank of the coefficient-symbol Gram matrix, assembled by hand
    fam = s3_q.fam
    d, w = fam.hdim, fam.space.weights
    symbols = [oc.coefficient(fam, np.eye(d)[i], np.eye(d)[j]).values
               for i in range(d) for j in range(d)]
    gram = np.array([[np.dot(w, f * np.conj(g)) for g in symbols]
                     for f in symbols])
    assert s3_q.b2_rank == np.linalg.matrix_rank(gram, tol=1e-10) == 4


def test_build_quantizer_rejects_non_sq():
    bad = oc.direct_sum_product(oc.discrete_weyl(2), oc.discrete_weyl(2))
    with pytest.raises(ValueError, match="square-integrability"):
        oc.build_quantizer(bad)


def test_quantize_trivial_constant():
    q = oc.build_quantizer(oc.trivial_backend())
    f = oc.Symbol(q.space, np.array([2.5 - 1.0j]))
    assert oc.quantize(q, f)[0, 0] == pytest.approx(2.5 - 1.0j)


def test_quantize_coefficient_is_rank_one(weyl3_q, rng):
    for _ in range(5):
        u, v = oc.random_vector(rng, 3), oc.random_vector(rng, 3)
        T = oc.quantize(weyl3_q, oc.coefficient(weyl3_q.fam, u, v))
        assert np.abs(T - oc.rank_one(u, v)).max() < 1e-12


def test_quantize_isometry(weyl3_q, rng):
    # Tr[Pi(f) Pi(g)*] equals the weighted L2 pairing; both sides by hand
    for _ in range(5):
        f = oc.random_symbol(rng, weyl3_q.space)
        g = oc.random_symbol(rng, weyl3_q.space)
        lhs = oc.hs_inner(oc.quantize(weyl3_q, f), oc.quantize(weyl3_q, g))
        rhs = np.dot(weyl3_q.space.weights, f.values * np.conj(g.values))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dequantize_inverts_on_coefficients(weyl3_q, rng):
    u, v = oc.random_vector(rng, 3), oc.random_vector(rng, 3)
    f = oc.coefficient(weyl3_q.fam, u, v)
    back = oc.dequantize(weyl3_q, oc.quantize(weyl3_q, f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_dequantize_identity_trivial():
    q = oc.build_quantizer(oc.trivial_backend())
    f = oc.dequantize(q, np.eye(1))
    assert f.values[0] == pytest.approx(1.0)


def test_operator_roundtrip(weyl3_q, rng):
    T = oc.random_vector(rng, 9).reshape(3, 3)
    again = oc.quantize(weyl3_q, oc.dequantize(weyl3_q, T))
    assert oc.op_norm(again - T) < 1e-10


def test_dequantize_quantize_is_projection(s3_q, rng):
    # independent routes: trace pairing versus basis projection
    for _ in range(5):
        f = oc.random_symbol(rng, s3_q.space)
        via_traces = oc.dequantize(s3_q, oc.quantize(s3_q, f))
        via_basis = oc.project_b2(s3_q, f)
        assert np.abs(via_traces.values - via_basis.values).max() < 1e-11


def test_project_b2_stays_independent_of_the_transported_maps(rng, monkeypatch):
    # the basis route is what the round trips above are checked against
    q = oc.build_quantizer(oc.discrete_weyl(4))
    f = oc.random_symbol(rng, q.space)
    expected = oc.project_b2(q, f).values

    def refuse(*args):
        raise AssertionError("project_b2 must not quantize or dequantize")

    for name in ("quantize", "dequantize", "_adjoint_sum", "_traces"):
        monkeypatch.setattr(ca, name, refuse)
    assert np.array_equal(oc.project_b2(q, f).values, expected)


def test_project_b2_fixes_span_and_kills_complement(s3_q, rng):
    f = b2_random(s3_q, rng)
    assert np.abs(oc.project_b2(s3_q, f).values - f.values).max() < 1e-12
    sign = oc.Symbol(s3_q.space, oc.s3_sign_irrep()[:, 0, 0])
    assert oc.l2_norm(oc.project_b2(s3_q, sign)) < 1e-12  # Peter-Weyl


def test_star_coefficient_product_rule(weyl3_q, rng):
    # phi_{u1,v1} * phi_{u2,v2} = <u2,v1> phi_{u1,v2};  phi* = phi_{v,u}
    fam = weyl3_q.fam
    u1, v1, u2, v2 = (oc.random_vector(rng, 3) for _ in range(4))
    prod = oc.star(weyl3_q, oc.coefficient(fam, u1, v1),
                   oc.coefficient(fam, u2, v2))
    expected = brute_inner(u2, v1) * oc.coefficient(fam, u1, v2).values
    assert np.abs(prod.values - expected).max() < 1e-12

    inv = oc.involution(weyl3_q, oc.coefficient(fam, u1, v1))
    assert np.abs(inv.values - oc.coefficient(fam, v1, u1).values).max() < 1e-12


def test_star_trivial_family():
    q = oc.build_quantizer(oc.trivial_backend())
    f = oc.Symbol(q.space, np.array([2.0 + 1.0j]))
    g = oc.Symbol(q.space, np.array([-1.0 + 0.5j]))
    assert oc.star(q, f, g).values[0] == pytest.approx((2 + 1j) * (-1 + 0.5j))
    assert oc.star_explicit(q, f, g).values[0] == pytest.approx((2 + 1j) * (-1 + 0.5j))


def test_star_associative(weyl2_q, rng):
    for _ in range(10):
        f, g, h = (oc.random_symbol(rng, weyl2_q.space) for _ in range(3))
        left = oc.star(weyl2_q, oc.star(weyl2_q, f, g), h)
        right = oc.star(weyl2_q, f, oc.star(weyl2_q, g, h))
        assert np.abs(left.values - right.values).max() < 1e-11


def test_star_explicit_matches_transported(weyl2_q, rng):
    for _ in range(10):
        f, g = b2_random(weyl2_q, rng), b2_random(weyl2_q, rng)
        a = oc.star(weyl2_q, f, g)
        b = oc.star_explicit(weyl2_q, f, g)
        assert np.abs(a.values - b.values).max() < 1e-10


def test_star_explicit_matches_star_on_weyl24(rng):
    # 576 points: past the CLI's star_table check, inside the kernel cap
    q = oc.build_quantizer(oc.discrete_weyl(24))
    for _ in range(2):
        f, g = oc.random_symbol(rng, q.space), oc.random_symbol(rng, q.space)
        gap = oc.Symbol(q.space, oc.star_explicit(q, f, g).values - oc.star(q, f, g).values)
        assert oc.l2_norm(gap) < 1e-10


@pytest.mark.parametrize("fam, entries", [
    (lambda: oc.discrete_weyl(30), "24,300,000"),      # 900^3 / 30 classes
    (lambda: magnetic.MagneticBackend(32, 12.0).family(), "33,554,432")])    # 1024^3 / 32
def test_three_point_kernel_past_the_cap_is_refused(rng, fam, entries):
    q = oc.build_quantizer(fam())
    f = oc.random_symbol(rng, q.space)
    with pytest.raises(ValueError, match=f"three-point kernel too large: {entries} stored "
                       "entries, over _KERNEL_ENTRY_CAP = 20,000,000"):
        oc.star_explicit(q, f, f)
    assert "three_point" not in vars(q)


def test_involution_explicit_matches(weyl3_q, rng):
    f = b2_random(weyl3_q, rng)
    a = oc.involution(weyl3_q, f)
    b = oc.involution_explicit(weyl3_q, f)
    assert np.abs(a.values - b.values).max() < 1e-11


def test_explicit_routes_never_quantize(weyl3_q, rng, monkeypatch):
    # the cross-checks must stay independent of the maps they check
    f, g = b2_random(weyl3_q, rng), b2_random(weyl3_q, rng)
    S = oc.random_vector(rng, 9).reshape(3, 3)
    star, inv = oc.star(weyl3_q, f, g), oc.involution(weyl3_q, f)
    fr = oc.make_frame(weyl3_q.fam, np.eye(3)[0])
    smoothed = oc.berezin_as_quantization(fr, weyl3_q, f)  # before the maps are refused

    def refuse(*args):
        raise AssertionError("an explicit route called the transported maps")

    for mod in (ca, bz):
        for name in ("quantize", "dequantize", "berezin_op"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    assert np.abs(oc.star_explicit(weyl3_q, f, g).values - star.values).max() < 1e-10
    assert np.abs(oc.involution_explicit(weyl3_q, f).values - inv.values).max() < 1e-11
    assert np.array_equal(bz._smoothed(fr, f).values, smoothed.values)
    with pytest.raises(AssertionError, match="explicit route"):
        oc.mixed_trace(weyl3_q, f, S)       # its left side is the quantized route


#: Point indices outside [0, 9) or not integers, for the Weyl 3 quantizer.
BAD_POINTS = [-1, -9, 9, 4.0, 2.7, True, "4"]


def test_e_symbol_quantizes_to_adjoint(weyl3_q):
    for s in range(9):
        T = oc.quantize(weyl3_q, oc.e_symbol(weyl3_q, s))
        assert np.abs(T - weyl3_q.fam.op(s).conj().T).max() < 1e-12
    assert np.array_equal(oc.e_symbol(weyl3_q, np.int64(4)).values,
                          oc.e_symbol(weyl3_q, 4).values)
    for s in BAD_POINTS:
        with pytest.raises(ValueError, match="point"):
            oc.e_symbol(weyl3_q, s)


def test_pairing_with_e_reproduces_values(weyl3_q, rng):
    f = b2_random(weyl3_q, rng)
    for s in range(9):
        assert oc.pairing_with_e(weyl3_q, f, s) == pytest.approx(
            complex(f.values[s]), abs=1e-11)
    for s in BAD_POINTS:
        with pytest.raises(ValueError, match="point"):
            oc.pairing_with_e(weyl3_q, f, s)


def test_e_symbol_trivial_constant():
    q = oc.build_quantizer(oc.trivial_backend())
    assert oc.e_symbol(q, 0).values[0] == pytest.approx(1.0)


def test_e_reproducing_integral(weyl3_q, rng):
    # integral of <f,e_s><e_s,g> recovers <f,g> for range symbols
    f, g = b2_random(weyl3_q, rng), b2_random(weyl3_q, rng)
    w = weyl3_q.space.weights
    pf = np.array([oc.pairing_with_e(weyl3_q, f, s) for s in range(9)])
    pg = np.array([oc.pairing_with_e(weyl3_q, g, s) for s in range(9)])
    integral = np.dot(w, pf * np.conj(pg))
    assert integral == pytest.approx(oc.l2_inner(f, g), abs=1e-11)


def test_quantize_measure(weyl3_q, rng):
    assert np.abs(oc.quantize_measure(weyl3_q, [(4, 1.0)])
                  - weyl3_q.fam.op(4).conj().T).max() < 1e-13
    assert np.abs(oc.quantize_measure(weyl3_q, [])).max() == 0.0
    g = oc.random_symbol(rng, weyl3_q.space)
    atoms = [(s, weyl3_q.space.weights[s] * g.values[s]) for s in range(9)]
    assert np.abs(oc.quantize_measure(weyl3_q, atoms)
                  - oc.quantize(weyl3_q, g)).max() < 1e-12
    for s in BAD_POINTS:
        with pytest.raises(ValueError, match="point"):
            oc.quantize_measure(weyl3_q, [(4, 1.0), (s, 1.0)])


def test_quantize_measure_bound_is_per_atom(weyl3_q, monkeypatch):
    # Weyl 3 with pi(s) scaled by 0.5 + s/8, norms 0.5 ... 1.5: a unit atom at
    # s = 0 is bounded by ||pi(0)|| = 0.5, not by the sup norm 1.5
    scale = 0.5 + np.arange(9) / 8
    fam = oc.OperatorFamily(weyl3_q.space, weyl3_q.fam.stack * scale[:, None, None])
    q = ca.Quantizer(fam)
    T = oc.quantize_measure(q, [(4, 1.0)])
    assert np.abs(T - fam.op(4).conj().T).max() < 1e-13
    assert oc.op_norm(oc.quantize_measure(q, [(0, 1.0)])) == pytest.approx(0.5)
    real = ca._adjoint_sum
    monkeypatch.setattr(ca, "_adjoint_sum", lambda f, c: 2.0 * real(f, c))  # norm 1 < 1.5
    with pytest.raises(ArithmeticError, match="norm bound"):
        oc.quantize_measure(q, [(0, 1.0)])


def test_symbol_norms(weyl3_q, rng):
    u = oc.random_unit_vector(rng, 3)
    f = oc.coefficient(weyl3_q.fam, u, u)
    b1, b2, binf = oc.symbol_norms(weyl3_q, f)
    assert (b1, b2, binf) == pytest.approx((1.0, 1.0, 1.0))

    zero = oc.Symbol(weyl3_q.space, np.zeros(9))
    assert oc.symbol_norms(weyl3_q, zero) == (0.0, 0.0, 0.0)

    for _ in range(50):
        f = oc.random_symbol(rng, weyl3_q.space)
        b1, b2, binf = oc.symbol_norms(weyl3_q, f)
        # cross-check against an eigenvalue oracle for the singular values
        T = oc.quantize(weyl3_q, f)
        svals = np.sqrt(np.maximum(np.linalg.eigvalsh(T.conj().T @ T), 0.0))
        assert binf == pytest.approx(svals.max(), abs=1e-10)
        assert b1 == pytest.approx(svals.sum(), abs=1e-10)
        assert binf <= b2 + 1e-12 <= b1 + 2e-12


def test_trace_pairing_positive(weyl3_q, rng):
    f = oc.random_symbol(rng, weyl3_q.space)
    val = oc.trace_pairing(weyl3_q, f, f)
    assert val.real >= 0 and abs(val.imag) < 1e-12


def test_cyclicity(weyl3_q, rng):
    for _ in range(5):
        f, g, h = (oc.random_symbol(rng, weyl3_q.space) for _ in range(3))
        lhs = oc.l2_inner(oc.star(weyl3_q, f, g), oc.project_b2(weyl3_q, h))
        rhs = oc.l2_inner(oc.project_b2(weyl3_q, g),
                          oc.star(weyl3_q, oc.involution(weyl3_q, f), h))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_mixed_trace(weyl2_q, rng):
    f = oc.random_symbol(rng, weyl2_q.space)
    S = oc.random_vector(rng, 4).reshape(2, 2)
    val = oc.mixed_trace(weyl2_q, f, S)  # asserts both routes agree internally
    assert val == pytest.approx(complex(np.trace(oc.quantize(weyl2_q, f) @ S)))


def test_hstar_axioms(s3_q, rng):
    # <g*, f*> = <f, g> and left-multiplication stays in the span
    f, g = b2_random(s3_q, rng), b2_random(s3_q, rng)
    lhs = oc.l2_inner(oc.involution(s3_q, g), oc.involution(s3_q, f))
    assert lhs == pytest.approx(oc.l2_inner(f, g), abs=1e-11)

    prod = oc.star(s3_q, f, g)
    assert np.abs(oc.project_b2(s3_q, prod).values - prod.values).max() < 1e-11


def test_products_total_in_span(s3_q, rng):
    # the star products of random range symbols span the whole range
    prods = [oc.star(s3_q, b2_random(s3_q, rng), b2_random(s3_q, rng)).values
             for _ in range(12)]
    sqrt_w = np.sqrt(s3_q.space.weights)
    rank = np.linalg.matrix_rank(np.array(prods) * sqrt_w, tol=1e-8)
    assert rank == s3_q.b2_rank


def test_isometry_on_span(s3_q, rng):
    f, g = b2_random(s3_q, rng), b2_random(s3_q, rng)
    lhs = oc.hs_inner(oc.quantize(s3_q, f), oc.quantize(s3_q, g))
    assert lhs == pytest.approx(oc.l2_inner(f, g), abs=1e-11)


def test_b2_basis_projector_invariants(s3_q):
    # the projector assembled from the basis is idempotent and self-adjoint
    # with respect to the weighted inner product
    w = s3_q.space.weights
    B = dense_b2_basis(s3_q)
    P = B.T @ (B.conj() * w)              # acts on plain value vectors
    assert np.abs(P @ P - P).max() < 1e-11
    W = np.diag(w)
    assert np.abs(W @ P - P.conj().T @ W).max() < 1e-12
    gram = (B * w) @ B.conj().T           # basis orthonormality
    assert np.abs(gram - np.eye(s3_q.b2_rank)).max() < 1e-11
