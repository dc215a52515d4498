"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else; exact backends are held to
1e-10 absolute on identity residuals, the quadrature backend to its stated
convergence targets.
"""

import contextlib
import json
import time

import numpy as np
import pytest

import opcalc as oc
from opcalc import cli
from opcalc import magnetic as mg


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def exact_backends():
    return {
        "trivial": oc.trivial_backend(),
        "weyl2": oc.discrete_weyl(2),
        "weyl3": oc.discrete_weyl(3),
        "s3": oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()),
        "z4_char": oc.finite_group_backend(oc.cyclic_table(4),
                                           oc.cyclic_character(4, 1)),
        "meta_z3_k1": oc.abelian_metaplectic([3], 1),
        "meta_z3_k2": oc.abelian_metaplectic([3], 2),
    }


def test_criterion_1_sq_orthogonality():
    with criterion(1, "SQ orthogonality on every exact backend"):
        start = time.perf_counter()
        families = [oc.discrete_weyl(N) for N in (2, 3, 4, 5)]
        families.append(oc.finite_group_backend(oc.s3_table()[0],
                                                oc.s3_standard_irrep()))
        families.append(oc.abelian_metaplectic([3], 1))
        families.append(oc.abelian_metaplectic([3], 2))
        families.append(oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)))
        for fam in families:
            report = oc.verify_sq(fam)
            assert report.mode == "basis"
            assert report.max_deviation < 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_2_isometry_and_roundtrip():
    with criterion(2, "quantization isometry and round trip"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        for name, fam in exact_backends().items():
            q = oc.build_quantizer(fam)
            symbols = [oc.random_symbol(rng, fam.space) for _ in range(50)]
            for f, g in zip(symbols, symbols[1:] + symbols[:1]):
                pf, pg = oc.project_b2(q, f), oc.project_b2(q, g)
                gap = abs(oc.hs_inner(oc.quantize(q, pf), oc.quantize(q, pg))
                          - oc.l2_inner(pf, pg))
                assert gap < 1e-10, name
                roundtrip = oc.dequantize(q, oc.quantize(q, f))
                assert oc.l2_norm(oc.Symbol(fam.space,
                                            roundtrip.values - pf.values)) \
                    < 1e-10, name
        assert time.perf_counter() - start < 5.0


def test_criterion_3_hstar_identities():
    with criterion(3, "H*-algebra identities on discrete Weyl N=3"):
        rng = np.random.default_rng(3)
        fam = oc.discrete_weyl(3)
        q = oc.build_quantizer(fam)
        for _ in range(50):
            u1, v1, u2, v2 = (oc.random_vector(rng, 3) for _ in range(4))
            prod = oc.star(q, oc.coefficient(fam, u1, v1),
                           oc.coefficient(fam, u2, v2))
            rule = oc.vec_inner(u2, v1) * oc.coefficient(fam, u1, v2).values
            assert np.abs(prod.values - rule).max() < 1e-10

            inv = oc.involution(q, oc.coefficient(fam, u1, v1))
            assert np.abs(inv.values
                          - oc.coefficient(fam, v1, u1).values).max() < 1e-10

            f, g, h = (oc.random_symbol(rng, fam.space) for _ in range(3))
            lhs = oc.l2_inner(oc.star(q, f, g), oc.project_b2(q, h))
            rhs = oc.l2_inner(oc.project_b2(q, g),
                              oc.star(q, oc.involution(q, f), h))
            assert abs(lhs - rhs) < 1e-10

            assoc = oc.star(q, oc.star(q, f, g), h).values \
                - oc.star(q, f, oc.star(q, g, h)).values
            assert np.abs(assoc).max() < 1e-10


def test_criterion_4_explicit_kernel_star():
    with criterion(4, "explicit kernel star equals transported star"):
        rng = np.random.default_rng(4)
        for N in (2, 3):
            q = oc.build_quantizer(oc.discrete_weyl(N))
            for _ in range(20):
                f = oc.random_symbol(rng, q.space)
                g = oc.random_symbol(rng, q.space)
                gap = oc.star_explicit(q, f, g).values \
                    - oc.star(q, f, g).values
                assert np.abs(gap).max() < 1e-9


def test_criterion_5_point_symbol_reproduction():
    with criterion(5, "point-symbol reproduction on every exact backend"):
        rng = np.random.default_rng(5)
        for name, fam in exact_backends().items():
            q = oc.build_quantizer(fam)
            for _ in range(5):
                f = oc.random_symbol(rng, fam.space)
                projected = oc.project_b2(q, f)
                for s in range(fam.npoints):
                    gap = abs(oc.pairing_with_e(q, f, s) - projected.values[s])
                    assert gap < 1e-10, name


def test_criterion_6_berezin_suite():
    with criterion(6, "Berezin suite on discrete Weyl N=3 and S3"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        backends = [oc.discrete_weyl(3),
                    oc.finite_group_backend(oc.s3_table()[0],
                                            oc.s3_standard_irrep())]
        for fam in backends:
            q = oc.build_quantizer(fam)
            w = np.zeros(fam.hdim, dtype=complex)
            w[0] = 1.0
            fr = oc.make_frame(fam, w)
            assert oc.resolution_residual(fr) < 1e-10

            analysis_mat = fr.wfield.conj()
            synthesis_mat = fr.space.weights * fr.wfield.T
            P = oc.kernel_projector(fr)
            for _ in range(100):
                f = oc.random_symbol(rng, fam.space)
                om = oc.berezin_op(fr, f)
                assert oc.op_norm(om) <= np.abs(f.values).max() + 1e-10
                fpos = oc.Symbol(fam.space, np.abs(f.values))
                assert np.linalg.eigvalsh(
                    oc.berezin_op(fr, fpos)).min() >= -1e-10

                trace_rhs = np.dot(fam.space.weights, f.values
                                   * np.linalg.norm(fr.wfield, axis=1) ** 2)
                assert abs(oc.trace(om) - trace_rhs) < 1e-10

                direct = oc.toeplitz_op(fr, f)
                assert np.abs(direct
                              - P @ (f.values[:, None] * P)).max() < 1e-10
                routed = analysis_mat @ om @ synthesis_mat
                assert np.abs(direct - routed).max() < 1e-10

                three = oc.covariant_berezin_symbol(fr, f)
                assert np.abs(oc.covariant_symbol_sigma(fr, direct).values
                              - three.values).max() < 1e-10
                assert np.abs(oc.covariant_symbol_tau(fr, om).values
                              - three.values).max() < 1e-10

                smoothed = oc.berezin_as_quantization(fr, q, f)
                assert oc.op_norm(oc.quantize(q, smoothed) - om) < 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_7_b2_rank_structure():
    with criterion(7, "coefficient-span ranks across backend types"):
        for N in (2, 3, 4, 5):
            assert oc.build_quantizer(oc.discrete_weyl(N)).b2_rank == N * N
        s3 = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
        assert oc.build_quantizer(s3).b2_rank == 4
        assert s3.npoints == 6
        z4 = oc.finite_group_backend(oc.cyclic_table(4), oc.cyclic_character(4, 1))
        assert oc.build_quantizer(z4).b2_rank == 1
        assert z4.npoints == 4


def test_criterion_8_irreducibility():
    with criterion(8, "trivial commutants and the direct-sum counterexample"):
        for name, fam in exact_backends().items():
            assert oc.verify_sq(fam).passed, name
            assert oc.commutant_dim(fam) == 1, name
        counterexample = oc.direct_sum_product(oc.discrete_weyl(2),
                                               oc.discrete_weyl(2))
        assert oc.commutant_dim(counterexample) >= 2
        report = oc.verify_sq(counterexample)
        assert not report.passed
        assert abs(report.max_deviation - 1.0) < 1e-10


def test_criterion_9_infinite_tensor():
    with criterion(9, "restricted tensor product defects and Berezin limits"):
        start = time.perf_counter()
        fam = oc.discrete_weyl(2)
        w = np.array([1.0, 0.0], dtype=complex)
        rp = oc.build_restricted([(fam, 0, w)] * 3)

        rng = np.random.default_rng(9)
        for M in (0, 1, 2, 3):
            dim = 2 ** M if M else 1
            vec = rp.embed(oc.random_unit_vector(rng, dim), M)
            for N in range(max(M, 1), 4):
                assert oc.sq_defect(rp, N, vec, vec) < 1e-10

        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        assert oc.sq_defect(rp, 1, ghz, ghz) > 0.1
        assert oc.sq_defect(rp, 2, ghz, ghz) > 0.1
        assert oc.sq_defect(rp, 3, ghz, ghz) < 1e-10

        u = rp.embed(np.ones(1, dtype=complex), 0)
        gaps = []
        for N in (1, 2, 3):
            space = rp.level_space(N)
            ones = oc.Symbol(space, np.ones(space.npoints))
            gaps.append(oc.op_norm(
                oc.berezin_truncated(rp, N, u, ones) - np.eye(8)))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_10_magnetic_calculus():
    with criterion(10, "magnetic Weyl calculus on the periodic grid"):
        start = time.perf_counter()
        L = 12.0
        assert mg.reduction_residual(mg.MagneticBackend(64, L)) < 1e-8

        bk64 = mg.MagneticBackend(64, L, A=mg.sine_potential(64, L, 0.8))
        alpha = 3 * (2 * np.pi / L)
        assert mg.gauge_transform_check(bk64, alpha * bk64.x,
                                        drho=np.full(64, alpha)) < 1e-10

        residuals = []
        for n in (32, 64, 128):
            bk = mg.MagneticBackend(n, L, A=mg.sine_potential(n, L, 0.8))
            a = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(0.4, 0.6),
                                   modulation=(0.3, -0.2))
            b = mg.gaussian_symbol(bk, sigma=(1.0, 3.0), center=(-0.5, 0.2),
                                   modulation=(-0.4, 0.5))
            residuals.append(mg.composition_residual(bk, a, b))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-4
        assert time.perf_counter() - start < 60.0


FULL_SUITE = {
    "backend": {"kind": "discrete_weyl", "N": 3},
    "seed": 2024,
    "tasks": [
        {"kind": "verify_sq"},
        {"kind": "quantize", "n_random": 3},
        {"kind": "dequantize", "n_random": 3},
        {"kind": "star_table", "n_random": 2},
        {"kind": "berezin", "w_index": 0, "n_random": 3},
        {"kind": "inftensor", "copies": 3},
        {"kind": "magnetic_study", "grids": [32, 64]},
    ],
}


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI reports for a fixed seed"):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(FULL_SUITE))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2 and len(b1) > 0
        assert json.loads(b1)["verdict"] == "pass"
