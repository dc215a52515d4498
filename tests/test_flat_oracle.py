"""Every map that reads the coefficient matrix against its einsum formula.

The library contracts the operator stack through its (npoints, hdim^2) view
``fam.flat`` with plain matrix products.  The references below spell each
contraction index by index with ``np.einsum`` on the (npoints, hdim, hdim)
stack, so a transposed or conjugated index in the library shows up here.
The random family is not square-integrable and has distinct entries, so no
symmetry of a group family can hide such a slip.
"""

import numpy as np
import pytest

import opcalc as oc
from opcalc import berezin as bz
from opcalc import calculus as ca
from opcalc.core import RANK_DROP_TOL

from conftest import dense_b2_basis, random_family

REL = 1e-13


def close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= REL * np.abs(ref).max()


# ---------------------------------------------------------------------------
# references: the einsum formulas the flat-view products replaced
# ---------------------------------------------------------------------------

def pistar(fam):
    return np.conj(np.swapaxes(fam.stack, 1, 2))


def ref_quantize(fam, c):
    return np.einsum("s,sij->ij", c, pistar(fam))


def ref_dequantize(fam, T):
    return np.einsum("ij,sji->s", T, fam.stack)


def ref_three_point(fam, points=slice(None)):
    """Tr[pi(s)* pi(t)* pi(r)] at s in ``points`` and every (t, r)."""
    ts = np.einsum("sab,tbc->stac", pistar(fam)[points], pistar(fam), optimize=True)
    return np.einsum("stac,rca->str", ts, fam.stack, optimize=True)


def ref_wfield(fam, w):
    return np.einsum("sji,j->si", np.conj(fam.stack), w)


def ref_upsilon(fr, g):
    pw = np.einsum("rij,tj->rti", fr.fam.stack, fr.wfield)
    phi = np.einsum("rti,si->rts", pw, fr.wfield.conj())
    return np.einsum("r,rts->st", fr.space.weights * g.values, phi.conj()).reshape(-1)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

FAMILIES = {
    "random": None,
    "weyl3": lambda: oc.discrete_weyl(3),
    "s3": lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()),
    "metaplectic5": lambda: oc.abelian_metaplectic((5,), k=2),
    "magnetic8": lambda: oc.MagneticBackend(8, 6.0).family(),
}


@pytest.fixture(params=list(FAMILIES))
def setup(request, rng):
    """(quantizer, frame) built directly, so the random family needs no SQ pass."""
    if request.param == "random":
        fam = random_family(rng)
        w = oc.random_unit_vector(rng, fam.hdim)
        fr = bz.Frame(fam, w)
    else:
        fam = FAMILIES[request.param]()
        w = oc.random_unit_vector(rng, fam.hdim)
        fr = oc.make_frame(fam, w)
    close(fr.wfield, ref_wfield(fam, w))
    return ca.Quantizer(fam), fr


def test_flat_is_a_view_of_the_stack(setup):
    fam = setup[0].fam
    assert not fam.flat.flags.writeable and not fam.stack.flags.writeable
    e = np.eye(fam.hdim)
    i, j = 1, 0                       # flat[s, j*d + i] = <pi(s) e_i, e_j>
    assert fam.flat[3, j * fam.hdim + i] == (fam.stack[3] @ e[i]) @ e[j]


def test_quantize_and_dequantize_match_einsum(setup, rng):
    q, _ = setup
    fam = q.fam
    f = oc.random_symbol(rng, fam.space)
    close(oc.quantize(q, f), ref_quantize(fam, fam.space.weights * f.values))
    T = oc.random_vector(rng, fam.hdim ** 2).reshape(fam.hdim, fam.hdim)
    close(oc.dequantize(q, T).values, ref_dequantize(fam, T))
    for s in (0, fam.npoints - 1):
        close(oc.e_symbol(q, s).values, ref_dequantize(fam, pistar(fam)[s]))
        close(oc.pairing_with_e(q, f, s),
              np.einsum("ij,ji->", ref_quantize(fam, fam.space.weights * f.values),
                        fam.stack[s]))
    traces = np.einsum("sji,ji->s", np.conj(fam.stack), T)
    close(oc.mixed_trace(q, f, T), np.dot(fam.space.weights, f.values * traces))


def test_quantize_measure_matches_loop(setup):
    q, _ = setup
    fam = q.fam
    atoms = [(0, 1.5), (fam.npoints - 1, -0.5j), (0, 0.25 + 1j),
             (fam.npoints - 2, 2.0)]
    ref = sum(complex(a) * pistar(fam)[i] for i, a in atoms)
    close(oc.quantize_measure(q, atoms), ref)


def test_explicit_routes_match_einsum(setup, rng):
    q, _ = setup
    fam = q.fam
    m, w = fam.npoints, fam.space.weights
    K = ref_three_point(fam)
    close(kernel_at(q, np.arange(m)), K)
    f, g = oc.random_symbol(rng, fam.space), oc.random_symbol(rng, fam.space)
    close(oc.star_explicit(q, f, g).values,
          np.einsum("s,t,str->r", w * f.values, w * g.values, K))
    two_point = np.einsum("rab,sba->rs", fam.stack, fam.stack)
    close(oc.involution_explicit(q, f).values, two_point @ (w * np.conj(f.values)))


def test_range_projection_matches_swapaxes_basis(setup, rng):
    q, _ = setup
    fam = q.fam
    d, w = fam.hdim, fam.space.weights
    X = np.swapaxes(fam.stack, 1, 2).reshape(fam.npoints, d * d).T
    sqrt_w = np.sqrt(w)
    _, svals, Vh = np.linalg.svd(X * sqrt_w, full_matrices=False)
    rank = int(np.sum(svals > RANK_DROP_TOL * svals[0]))
    B = Vh[:rank] / sqrt_w
    assert q.b2_rank == rank
    # the basis is fixed only up to a unitary; the projector is not
    Q = dense_b2_basis(q)
    close(Q.T @ (Q.conj() * w), B.T @ (B.conj() * w))
    f = oc.random_symbol(rng, fam.space)
    close(oc.project_b2(q, f).values, (B.conj() @ (w * f.values)) @ B)


def test_frame_maps_match_einsum(setup, rng):
    _, fr = setup
    W, d = ref_wfield(fr.fam, fr.w), fr.fam.hdim
    A = oc.random_vector(rng, d * d).reshape(d, d)
    close(oc.covariant_symbol_tau(fr, A).values,
          np.einsum("ij,sj,si->s", A, W, W.conj()))
    g = oc.random_symbol(rng, fr.space)
    pair = np.einsum("sij,tj,ti->st", fr.fam.stack, W, W.conj())   # <pi(s) w(t), w(t)>
    close(bz._smoothed(fr, g).values, pair @ (fr.space.weights * g.values))
    close(oc.upsilon_transform(fr, g).values, ref_upsilon(fr, g))


def test_invariant_subspace_residual_matches_loop(setup, rng):
    fam = setup[0].fam
    B = oc.random_vector(rng, fam.hdim)[:, None]         # a line: proper for hdim >= 2
    Q, _ = np.linalg.qr(B)
    proj_out = np.eye(fam.hdim) - Q @ Q.conj().T
    residual = max(np.abs(proj_out @ (P @ Q)).max() for P in fam.stack)
    # the check gates at its space's tolerance: declare one either side
    for tol, invariant in ((residual * (1 + REL), True), (residual * (1 - REL), False)):
        space = oc.MeasureSpace(fam.space.points, fam.space.weights, tol)
        assert oc.invariant_subspace_check(oc.OperatorFamily(space, fam.stack), B) \
            == invariant


def test_compress_matches_einsum(setup, rng):
    fam = setup[0].fam
    d = fam.hdim
    iota, _ = np.linalg.qr(oc.random_vector(rng, d * d).reshape(d, d))
    out = oc.compress(fam, np.arange(fam.npoints), fam.space, iota)
    close(out.stack, np.einsum("ia,sij,jb->sab", np.conj(iota), fam.stack, iota))


# ---------------------------------------------------------------------------
# the three-point kernel, block by block
# ---------------------------------------------------------------------------

def kernel_at(q, points):
    """The kernel at s in ``points`` and every (t, r), scattered from its blocks."""
    rows, target, K = q.three_point
    k, r = rows.shape
    m = q.fam.npoints
    cls, loc = np.divmod(np.argsort(rows.ravel()), r)      # point -> (class, index)
    out = np.zeros((len(points), m, m), dtype=complex)
    for n, s in enumerate(points):
        a, i = cls[s], loc[s]
        out[n][rows[:, :, None], rows[target[a]][:, None, :]] = K[a, :, i * r:(i + 1) * r]
    return out


def latin5_family():
    """pi(a, b) = P_a diag(omega^(b i)) on a Latin square of order 5 that is
    not a group table: five monomial classes that do not compose."""
    L = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    d, i = 5, np.arange(5)
    ops = np.zeros((d, d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            ops[a, b, L[a], i] = np.exp(2j * np.pi * b * i / d)
    space = oc.MeasureSpace(tuple(f"{a},{b}" for a in range(d) for b in range(d)),
                            np.full(d * d, 1.0 / d))
    return oc.OperatorFamily(space, ops.reshape(d * d, d, d))


def compressed_weyl3():
    fam = oc.discrete_weyl(3)
    iota, _ = np.linalg.qr(oc.random_vector(np.random.default_rng(3), 9).reshape(3, 3))
    return oc.compress(fam, np.arange(fam.npoints), fam.space, iota)


KERNEL_FAMILIES = {          # name: (family, kernel blocks)
    "weyl3": (lambda: oc.discrete_weyl(3), 3),
    "weyl8": (lambda: oc.discrete_weyl(8), 8),
    "weyl16": (lambda: oc.discrete_weyl(16), 16),
    "metaplectic15": (lambda: oc.abelian_metaplectic((15,), k=2), 15),
    "weyl2xweyl3": (lambda: oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)), 6),
    "s3": (FAMILIES["s3"], 1),
    "compress": (compressed_weyl3, 1),
    "latin5": (latin5_family, 1),
}


@pytest.mark.parametrize("name", list(KERNEL_FAMILIES))
def test_block_kernel_matches_einsum(name, rng):
    build, k = KERNEL_FAMILIES[name]
    q = oc.build_quantizer(build())
    fam, m = q.fam, q.fam.npoints
    rows, target, K = q.three_point
    r = m // k
    assert rows.shape == (k, r) and target.shape == (k, k) and K.shape == (k, k, r * r, r)
    # two whole source classes on the large families, every point otherwise
    points = np.arange(m) if m <= 64 else np.r_[rows[0], rows[-1]]
    close(kernel_at(q, points), ref_three_point(fam, points))
    f, g = (oc.project_b2(q, oc.random_symbol(rng, fam.space)) for _ in range(2))
    close(oc.star_explicit(q, f, g).values, oc.star(q, f, g).values)


def test_latin_square_classes_take_the_one_block_route():
    fam = latin5_family()
    assert oc.verify_sq(fam).passed and oc.commutant_dim(fam) == 1
    assert len(fam.blocks[0]) == 5                  # monomial classes ...
    assert ca._kernel_classes(fam) is None          # ... that are not a group
    assert ca._kernel_classes(oc.discrete_weyl(5)) is not None
