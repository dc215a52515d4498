import json

import numpy as np
import pytest

import opcalc as oc
from opcalc import cli


def unit(d, i=0):
    w = np.zeros(d, dtype=complex)
    w[i] = 1.0
    return w


@pytest.fixture
def weyl3_frame():
    return oc.make_frame(oc.discrete_weyl(3), unit(3))


@pytest.fixture
def weyl2_frame():
    return oc.make_frame(oc.discrete_weyl(2), unit(2))


@pytest.fixture
def s3_frame():
    fam = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
    return oc.make_frame(fam, unit(2))


def test_make_frame_resolution():
    fr = oc.make_frame(oc.trivial_backend(), np.array([1.0]))
    assert oc.resolution_residual(fr) == 0.0


def test_resolution_weyl3_and_s3(weyl3_frame, s3_frame):
    assert oc.resolution_residual(weyl3_frame) < 1e-12
    assert oc.resolution_residual(s3_frame) < 1e-12


def test_make_frame_rejections():
    with pytest.raises(ValueError, match="unit"):
        oc.make_frame(oc.discrete_weyl(2), np.array([1.0, 1.0]))
    bad = oc.direct_sum_product(oc.discrete_weyl(2), oc.discrete_weyl(2))
    with pytest.raises(ValueError, match="square-integrability"):
        oc.make_frame(bad, unit(4))


def test_kernel_conjugate_symmetric(weyl3_frame):
    K = weyl3_frame.kernel
    assert np.abs(K - K.conj().T).max() < 1e-14


def test_analysis_synthesis_roundtrip(weyl2_frame, rng):
    for _ in range(5):
        u = oc.random_vector(rng, 2)
        back = oc.synthesis(weyl2_frame, oc.analysis(weyl2_frame, u))
        assert np.abs(back - u).max() < 1e-11


def test_analysis_isometry(weyl3_frame, rng):
    u = oc.random_vector(rng, 3)
    assert oc.l2_norm(oc.analysis(weyl3_frame, u)) == pytest.approx(
        np.linalg.norm(u), abs=1e-12)


def test_analysis_of_fiducial_is_kernel_column(weyl3_frame):
    # the identity sits at phase-space point (0,0), index 0
    col = oc.analysis(weyl3_frame, weyl3_frame.w)
    assert np.abs(col.values - weyl3_frame.kernel[:, 0]).max() < 1e-13


def test_synthesis_equals_quantize_route(weyl3_frame, rng):
    q = oc.build_quantizer(weyl3_frame.fam)
    f = oc.random_symbol(rng, weyl3_frame.space)
    assert np.abs(oc.synthesis(weyl3_frame, f)
                  - oc.quantize(q, f) @ weyl3_frame.w).max() < 1e-12


def test_kernel_projector(weyl3_frame, rng):
    P = oc.kernel_projector(weyl3_frame)
    u = oc.random_vector(rng, 3)
    img = oc.analysis(weyl3_frame, u).values
    assert np.abs(P @ img - img).max() < 1e-11            # reproducing
    assert np.abs(P @ P - P).max() < 1e-11                # idempotent
    assert np.linalg.matrix_rank(P, tol=1e-8) == 3        # range dim = hdim
    # self-adjoint for the weighted inner product
    W = np.diag(weyl3_frame.space.weights)
    assert np.abs(W @ P - P.conj().T @ W).max() < 1e-12


def test_berezin_resolution_and_indicator(weyl3_frame):
    ones = oc.Symbol(weyl3_frame.space, np.ones(9))
    assert np.abs(oc.berezin_op(weyl3_frame, ones) - np.eye(3)).max() < 1e-12

    ind = np.zeros(9)
    ind[4] = 1.0
    om = oc.berezin_op(weyl3_frame, oc.Symbol(weyl3_frame.space, ind))
    c = weyl3_frame.space.weights[4]
    expected = c * oc.rank_one(weyl3_frame.wfield[4], weyl3_frame.wfield[4])
    assert np.abs(om - expected).max() < 1e-13


def test_berezin_trace_formula(weyl3_frame, rng):
    # both sides assembled independently
    for _ in range(5):
        f = oc.random_symbol(rng, weyl3_frame.space)
        lhs = oc.trace(oc.berezin_op(weyl3_frame, f))
        rhs = sum(w * fv * np.linalg.norm(ws) ** 2
                  for w, fv, ws in zip(weyl3_frame.space.weights,
                                       f.values, weyl3_frame.wfield))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_berezin_norm_bound_and_positivity(weyl3_frame, rng):
    for _ in range(25):
        f = oc.random_symbol(rng, weyl3_frame.space)
        assert oc.op_norm(oc.berezin_op(weyl3_frame, f)) <= \
            np.abs(f.values).max() + 1e-11
        fpos = oc.Symbol(weyl3_frame.space, np.abs(f.values))
        eigs = np.linalg.eigvalsh(oc.berezin_op(weyl3_frame, fpos))
        assert eigs.min() >= -1e-11


def test_toeplitz_unit_is_projector(weyl3_frame):
    ones = oc.Symbol(weyl3_frame.space, np.ones(9))
    assert np.abs(oc.toeplitz_op(weyl3_frame, ones)
                  - oc.kernel_projector(weyl3_frame)).max() < 1e-11


def test_toeplitz_equals_conjugated_berezin(weyl2_frame, rng):
    fr = weyl2_frame
    analysis_mat = fr.wfield.conj()
    synthesis_mat = fr.space.weights * fr.wfield.T
    for _ in range(5):
        f = oc.random_symbol(rng, fr.space)
        direct = oc.toeplitz_op(fr, f)
        routed = analysis_mat @ oc.berezin_op(fr, f) @ synthesis_mat
        assert np.abs(direct - routed).max() < 1e-11


def test_toeplitz_positive_for_positive_symbol(weyl3_frame, rng):
    fr = weyl3_frame
    f = oc.Symbol(fr.space, rng.uniform(0.0, 2.0, size=9))
    T = oc.toeplitz_op(fr, f)
    sqrt_w = np.sqrt(fr.space.weights)
    sym = (sqrt_w[:, None] * T) / sqrt_w[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
    assert eigs.min() >= -1e-11


def test_covariant_tau_of_identity(weyl3_frame):
    tau = oc.covariant_symbol_tau(weyl3_frame, np.eye(3))
    norms = np.linalg.norm(weyl3_frame.wfield, axis=1) ** 2
    assert np.abs(tau.values - norms).max() < 1e-13


def test_covariant_sigma_of_zero(weyl3_frame):
    sigma = oc.covariant_symbol_sigma(weyl3_frame, np.zeros((9, 9)))
    assert np.abs(sigma.values).max() == 0.0


def test_covariant_three_way_identity(weyl2_frame, rng):
    fr = weyl2_frame
    for _ in range(5):
        g = oc.random_symbol(rng, fr.space)
        reference = oc.covariant_berezin_symbol(fr, g)
        via_sigma = oc.covariant_symbol_sigma(fr, oc.toeplitz_op(fr, g))
        via_tau = oc.covariant_symbol_tau(fr, oc.berezin_op(fr, g))
        assert np.abs(via_sigma.values - reference.values).max() < 1e-11
        assert np.abs(via_tau.values - reference.values).max() < 1e-11


def test_overlap_is_memoized_on_first_use(weyl3_frame, rng):
    fr = weyl3_frame
    assert "overlap" not in vars(fr)                 # make_frame does not build it
    g = oc.random_symbol(rng, fr.space)
    first = oc.covariant_berezin_symbol(fr, g)
    memo = vars(fr)["overlap"]
    assert oc.covariant_berezin_symbol(fr, g).values.tolist() == first.values.tolist()
    assert vars(fr)["overlap"] is memo and not memo.flags.writeable
    assert np.array_equal(memo, np.abs(fr.kernel.T) ** 2)


def test_berezin_as_quantization(weyl2_frame, rng):
    q = oc.build_quantizer(weyl2_frame.fam)
    for _ in range(5):
        f = oc.random_symbol(rng, weyl2_frame.space)
        smoothed = oc.berezin_as_quantization(weyl2_frame, q, f)  # asserts inside
        assert np.abs(oc.quantize(q, smoothed)
                      - oc.berezin_op(weyl2_frame, f)).max() < 1e-11


def test_berezin_as_quantization_unit(weyl3_frame):
    q = oc.build_quantizer(weyl3_frame.fam)
    ones = oc.Symbol(weyl3_frame.space, np.ones(9))
    smoothed = oc.berezin_as_quantization(weyl3_frame, q, ones)
    assert np.abs(oc.quantize(q, smoothed) - np.eye(3)).max() < 1e-11


def test_berezin_as_quantization_trivial():
    fam = oc.trivial_backend()
    fr = oc.make_frame(fam, np.array([1.0]))
    q = oc.build_quantizer(fam)
    f = oc.Symbol(fam.space, np.array([0.3 + 0.7j]))
    smoothed = oc.berezin_as_quantization(fr, q, f)
    assert smoothed.values[0] == pytest.approx(0.3 + 0.7j)


@pytest.mark.parametrize("frame", ["weyl3_frame", "s3_frame"])
def test_frame_identities(frame, request, rng):
    fr = request.getfixturevalue(frame)
    q = oc.build_quantizer(fr.fam)
    res = oc.frame_identities(fr, q, [oc.random_symbol(rng, fr.space) for _ in range(3)])
    assert res.pop("positivity_floor") >= -1e-10
    assert all(v <= 1e-10 for v in res.values()), res
    const = oc.Symbol(fr.space, np.full(fr.space.npoints, 2.5 - 1.0j))
    assert abs(oc.frame_identities(fr, q, [const])["norm_bound_margin"]) < 1e-12


def test_frame_identities_are_the_cli_berezin_residuals(weyl3_frame, capsys):
    config = {"backend": {"kind": "discrete_weyl", "N": 3}, "tasks": [{"kind": "berezin"}]}
    assert cli.run_config(config, None) == cli.EXIT_OK
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    res = oc.frame_identities(weyl3_frame, oc.build_quantizer(weyl3_frame.fam), [])
    assert set(res) == set(task) - {"kind", "verdict"}


def test_upsilon_isometry(weyl2_frame, rng):
    for _ in range(5):
        g = oc.random_symbol(rng, weyl2_frame.space)  # full space is the range
        out = oc.upsilon_transform(weyl2_frame, g)
        assert oc.l2_norm(out) == pytest.approx(oc.l2_norm(g), abs=1e-10)


def test_upsilon_on_coefficients(weyl2_frame, rng):
    # value at (s, t) is [analysis u](t) conj([analysis v](s))
    fr = weyl2_frame
    u, v = oc.random_vector(rng, 2), oc.random_vector(rng, 2)
    out = oc.upsilon_transform(fr, oc.coefficient(fr.fam, u, v))
    au = oc.analysis(fr, u).values
    av = oc.analysis(fr, v).values
    expected = np.outer(av.conj(), au)  # (s, t) layout, s-major flattening
    assert np.abs(out.values - expected.reshape(-1)).max() < 1e-12


def test_upsilon_zero(weyl2_frame):
    out = oc.upsilon_transform(weyl2_frame, oc.Symbol(weyl2_frame.space,
                                                      np.zeros(4)))
    assert np.abs(out.values).max() == 0.0
    assert out.space.npoints == 16
