import numpy as np
import pytest

import opcalc as oc
from opcalc import inftensor as it
from opcalc.core import _require

from conftest import brute_pairing_integral


def unit(d, i=0):
    w = np.zeros(d, dtype=complex)
    w[i] = 1.0
    return w


def level_embedding(rp: it.RestrictedProduct, M: int) -> np.ndarray:
    """Isometry from the level-M tensor space into the full space."""
    _require(0 <= M <= rp.J, "level out of range")
    dM = int(np.prod(rp.dims[:M])) if M else 1
    return np.kron(np.eye(dM, dtype=complex), rp.tail_vector(M)[:, None])


@pytest.fixture
def rp3():
    fam = oc.discrete_weyl(2)
    return it.build_restricted([(fam, 0, unit(2))] * 3)


def identity_point(fam):
    return next(s for s in range(fam.npoints)
                if np.abs(fam.op(s) - np.eye(fam.hdim)).max() < 1e-12)


@pytest.fixture(params=["weyl3^3", "weyl2*s3*weyl3"])
def mixed_rp(request):
    w2, w3 = oc.discrete_weyl(2), oc.discrete_weyl(3)
    s3 = oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep())
    fams = [w3] * 3 if request.param == "weyl3^3" else [w2, s3, w3]
    return it.build_restricted([(f, identity_point(f), unit(f.hdim)) for f in fams])


def test_single_factor_is_unchanged():
    fam = oc.discrete_weyl(2)
    rp = it.build_restricted([(fam, 0, unit(2))])
    assert rp.full_dim == 2
    assert rp.level_space(1) == fam.space
    assert np.abs(rp.level_stack(1) - fam.stack).max() == 0.0


def test_three_copies_dimension(rp3):
    assert rp3.full_dim == 8
    assert rp3.level_space(3).npoints == 64


def test_missing_identity_point_rejected():
    fam = oc.discrete_weyl(2)
    with pytest.raises(ValueError, match="identity"):
        it.build_restricted([(fam, 1, unit(2))])  # point (0,1) is not 1
    for bad in (-1, 4, 0.0, True):
        with pytest.raises(ValueError, match="base point"):
            it.build_restricted([(fam, bad, unit(2))])


def test_non_unit_vector_rejected():
    fam = oc.discrete_weyl(2)
    with pytest.raises(ValueError, match="unit"):
        it.build_restricted([(fam, 0, np.array([1.0, 1.0]))])


def test_caps_enforced(monkeypatch):
    def refuse(fam, tol=None):
        raise AssertionError("caps are checked before the SQ test")

    monkeypatch.setattr(it, "verify_sq", refuse)
    fam = oc.discrete_weyl(2)
    with pytest.raises(ValueError, match="factor count"):
        it.build_restricted(iter([(fam, 0, unit(2))] * 13))
    with pytest.raises(ValueError, match="factor count"):
        it.build_restricted([])
    with pytest.raises(ValueError, match="exceeds the cap"):
        it.build_restricted([(oc.discrete_weyl(3), 0, unit(3))] * 8)   # (9*3)^8 entries
    with pytest.raises(ValueError, match="exceeds the cap VIEW_ENTRY_CAP"):
        it.build_restricted([(oc.discrete_weyl(65), 0, unit(65))])     # a 65^4 view


def test_embeddings_are_isometries(rp3):
    for M in range(4):
        iota = level_embedding(rp3, M)
        gap = np.abs(iota.conj().T @ iota - np.eye(iota.shape[1])).max()
        assert gap == 0.0


def test_defect_vanishes_for_embedded_vectors(rp3, rng):
    product_vec = rp3.embed(np.ones(1, dtype=complex), 0)
    for N in (1, 2, 3):
        assert it.sq_defect(rp3, N, product_vec, product_vec) < 1e-11

    x = oc.random_unit_vector(rng, 2)
    first_factor = rp3.embed(x, 1)
    for N in (1, 2, 3):
        assert it.sq_defect(rp3, N, first_factor, first_factor) < 1e-11

    two_level = rp3.embed(oc.random_unit_vector(rng, 4), 2)
    assert it.sq_defect(rp3, 1, two_level, two_level) > 1e-3   # below its level
    for N in (2, 3):
        assert it.sq_defect(rp3, N, two_level, two_level) < 1e-11


def test_defect_entangled_witness(rp3):
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2)

    # brute-force oracle at each truncation level
    for N in (1, 2, 3):
        stack = rp3.level_stack(N)
        weights = rp3.level_space(N).weights
        integral = brute_pairing_integral(stack, weights, ghz, ghz, ghz, ghz)
        defect = abs(integral - 1.0)
        assert it.sq_defect(rp3, N, ghz, ghz) == pytest.approx(defect, abs=1e-13)

    assert it.sq_defect(rp3, 1, ghz, ghz) == pytest.approx(0.5, abs=1e-12)
    assert it.sq_defect(rp3, 2, ghz, ghz) == pytest.approx(0.5, abs=1e-12)
    assert it.sq_defect(rp3, 3, ghz, ghz) < 1e-11


def test_projected_overlap_bound(rp3, rng):
    for N in (1, 2, 3):
        for M in (1, 2, 3):
            u1, v1, u2, v2 = (oc.random_vector(rng, 8) for _ in range(4))
            value, bound = it.projected_overlap(rp3, N, M, u1, v1, u2, v2)
            assert value <= bound + 1e-10


def test_projected_overlap_exact_when_nested(rp3, rng):
    # N >= M: the overlap integral equals the factorized inner products
    u = oc.random_vector(rng, 8)
    iota = level_embedding(rp3, 1)
    P = iota @ iota.conj().T
    v = P @ oc.random_vector(rng, 8)
    value, bound = it.projected_overlap(rp3, 2, 1, u, v, u, v)
    stack = rp3.level_stack(2)
    w = rp3.level_space(2).weights
    direct = brute_pairing_integral(stack, w, u, v, u, v)
    assert value == pytest.approx(abs(direct), abs=1e-11)


def test_level_vectors_match_level_stack(mixed_rp, rng):
    rp = mixed_rp
    u = oc.random_vector(rng, rp.full_dim)
    sweep = list(rp.levels(u))
    assert len(sweep) == rp.J
    for N, (weights, X) in enumerate(sweep, 1):
        assert X.shape == (rp.level_space(N).npoints, rp.full_dim)
        assert np.abs(X - rp.level_stack(N) @ u).max() <= 1e-13
        assert np.array_equal(weights, rp.level_space(N).weights)
        # a sweep stopped at N gives level N of the full sweep bit for bit
        assert np.array_equal(rp.level(N, u)[1], X)


def test_projected_overlap_matches_dense_projector(mixed_rp, rng):
    rp = mixed_rp
    for N in range(1, rp.J + 1):
        stack, weights = rp.level_stack(N), rp.level_space(N).weights
        for M in range(rp.J + 1):
            iota = level_embedding(rp, M)
            P = iota @ iota.conj().T
            u1, v1, u2, v2 = (oc.random_vector(rng, rp.full_dim) for _ in range(4))
            value, bound = it.projected_overlap(rp, N, M, u1, v1, u2, v2)
            f1 = (stack @ u1) @ np.conj(P @ v1)
            f2 = (stack @ u2) @ np.conj(P @ v2)
            assert value == pytest.approx(np.dot(weights, np.abs(f1) * np.abs(f2)),
                                          abs=1e-12)
            norms = [np.linalg.norm(x) for x in (u1, P @ v1, u2, P @ v2)]
            assert bound == pytest.approx(np.prod(norms), abs=1e-12)


def test_berezin_truncated_identity(rp3):
    u = rp3.embed(np.ones(1, dtype=complex), 0)   # product of the fiducials
    gaps = []
    for N in (1, 2, 3):
        space = rp3.level_space(N)
        ones = oc.Symbol(space, np.ones(space.npoints))
        om = it.berezin_truncated(rp3, N, u, ones)
        gaps.append(oc.op_norm(om - np.eye(8)))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 1e-10


def test_berezin_truncated_zero_symbol(rp3):
    space = rp3.level_space(2)
    zero = oc.Symbol(space, np.zeros(space.npoints))
    u = rp3.embed(np.ones(1, dtype=complex), 0)
    assert np.abs(it.berezin_truncated(rp3, 2, u, zero)).max() == 0.0


def test_berezin_truncated_bounds(rp3, rng):
    for _ in range(20):
        u = oc.random_vector(rng, 8)
        N = int(rng.integers(1, 4))
        space = rp3.level_space(N)
        f = oc.random_symbol(rng, space)
        om = it.berezin_truncated(rp3, N, u, f)
        bound = np.linalg.norm(u) ** 2 * np.abs(f.values).max()
        assert oc.op_norm(om) <= bound + 1e-9
        fpos = oc.Symbol(space, np.abs(f.values))
        eigs = np.linalg.eigvalsh(it.berezin_truncated(rp3, N, u, fpos))
        assert eigs.min() >= -1e-10


def test_berezin_truncated_space_mismatch(rp3):
    wrong = oc.Symbol(rp3.level_space(1), np.ones(4))
    with pytest.raises(ValueError):
        it.berezin_truncated(rp3, 2, rp3.embed(np.ones(1), 0), wrong)


def test_full_level_matches_berezin_module(rp3, rng):
    # at N = J the truncated operator is the Berezin operator of the adjoint
    # tensor family with the same fiducial vector
    fams = [f.fam for f in rp3.factors]
    full = oc.tensor(oc.tensor(fams[0], fams[1]), fams[2])
    adj = oc.adjoint_family(full)
    u = oc.random_unit_vector(rng, 8)
    fr = oc.make_frame(adj, u)
    space = rp3.level_space(3)
    f = oc.random_symbol(rng, space)
    fr_symbol = oc.Symbol(adj.space, f.values)
    lhs = it.berezin_truncated(rp3, 3, u, f)
    rhs = oc.berezin_op(fr, fr_symbol)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_frame_kernel(rp3):
    kernel = it.frame_kernel_inf(rp3)
    assert kernel({}, {}) == pytest.approx(1.0)

    # one factor displaced: the value is that factor's pairing alone
    fam = rp3.factors[1].fam
    w = rp3.factors[1].w
    for idx in range(4):
        direct = complex(np.sum((fam.op(0).conj().T @ w)
                                * np.conj(fam.op(idx).conj().T @ w)))
        assert kernel({1: idx}, {}) == pytest.approx(direct, abs=1e-13)

    # conjugate symmetry on sampled sparse pairs
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = {int(rng.integers(3)): int(rng.integers(4))}
        t = {int(rng.integers(3)): int(rng.integers(4))}
        assert kernel(s, t) == pytest.approx(np.conj(kernel(t, s)), abs=1e-13)
        assert kernel(s, s) == pytest.approx(1.0, abs=1e-13)   # ||w(s)||^2


def test_frame_kernel_validates_points(rp3):
    kernel = it.frame_kernel_inf(rp3)
    with pytest.raises(ValueError):
        kernel({5: 0}, {})
    with pytest.raises(ValueError):
        kernel({0: 9}, {})
    for bad in ({0: -1}, {0: 1.5}, {0.0: 1}, {True: 1}, [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            kernel(bad, {})


def from_scratch_level_space(rp, N):
    space = rp.factors[0].fam.space
    for f in rp.factors[1:N]:
        space = oc.product_space(space, f.fam.space)
    return space


@pytest.mark.parametrize("order", ["sweep", "deepest_first"])
def test_level_spaces_extend_the_previous_level(mixed_rp, order):
    rp = mixed_rp
    levels = range(1, rp.J + 1) if order == "sweep" else range(rp.J, 0, -1)
    for N in levels:
        space, ref = rp.level_space(N), from_scratch_level_space(rp, N)
        assert tuple(space.points) == tuple(ref.points)
        assert np.array_equal(space.weights, ref.weights)


def test_level_space_sweep_builds_each_product_once(monkeypatch):
    calls = []
    real_product = it.product_space
    monkeypatch.setattr(it, "product_space",
                        lambda a, b: calls.append(b.npoints) or real_product(a, b))
    fam = oc.discrete_weyl(2)
    rp = it.build_restricted([(fam, 0, unit(2))] * 6)
    for N in range(1, rp.J + 1):
        assert rp.level_space(N).npoints == 4 ** N
    assert len(calls) == rp.J - 1
