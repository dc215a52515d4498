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

from conftest import random_family

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


def ref_three_point(fam):
    ts = np.einsum("sab,tbc->stac", pistar(fam), pistar(fam))
    return np.einsum("stac,rca->str", ts, fam.stack)


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
    "magnetic8": lambda: oc.magnetic_weyl_grid(8, 6.0).family(),
}


@pytest.fixture(params=list(FAMILIES))
def setup(request, rng):
    """(quantizer, frame) built directly, so the random family needs no SQ pass."""
    if request.param == "random":
        fam = random_family(rng)
        w = oc.random_unit_vector(rng, fam.hdim)
        wfield = ref_wfield(fam, w)
        fr = bz.Frame(fam, w, wfield, wfield.conj() @ wfield.T)
    else:
        fam = FAMILIES[request.param]()
        w = oc.random_unit_vector(rng, fam.hdim)
        fr = oc.make_frame(fam, w)
        close(fr.wfield, ref_wfield(fam, w))
    return ca.Quantizer(fam), fr


def test_flat_is_a_view_of_the_stack(setup):
    fam = setup[0].fam
    assert np.shares_memory(fam.flat, fam.stack) and not fam.flat.flags.writeable
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
    atoms = [(0, 1.5), (fam.npoints - 1, -0.5j), (0, 0.25 + 1j), (-2, 2.0)]
    ref = sum(complex(a) * pistar(fam)[i] for i, a in atoms)
    close(oc.quantize_measure(q, atoms, tol=1e-9), ref)


def test_explicit_routes_match_einsum(setup, rng):
    q, _ = setup
    fam = q.fam
    m, w = fam.npoints, fam.space.weights
    K = ref_three_point(fam)
    close(q.three_point.reshape(m, m, m), K)
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
    close(q.b2_basis.T @ (q.b2_basis.conj() * w), B.T @ (B.conj() * w))
    f = oc.random_symbol(rng, fam.space)
    close(oc.project_b2(q, f).values, (B.conj() @ (w * f.values)) @ B)


def test_frame_maps_match_einsum(setup, rng):
    _, fr = setup
    W, d = fr.wfield, fr.fam.hdim
    A = oc.random_vector(rng, d * d).reshape(d, d)
    close(oc.covariant_symbol_tau(fr, A).values,
          np.einsum("ij,sj,si->s", A, W, W.conj()))
    close(bz._frame_pairing(fr), np.einsum("sij,tj,ti->st", fr.fam.stack, W, W.conj()))
    g = oc.random_symbol(rng, fr.space)
    close(oc.upsilon_transform(fr, g).values, ref_upsilon(fr, g))


def test_invariant_subspace_residual_matches_loop(setup, rng):
    fam = setup[0].fam
    B = oc.random_vector(rng, fam.hdim)[:, None]         # a line: proper for hdim >= 2
    Q, _ = np.linalg.qr(B)
    proj_out = np.eye(fam.hdim) - Q @ Q.conj().T
    residual = max(np.abs(proj_out @ (P @ Q)).max() for P in fam.stack)
    assert oc.invariant_subspace_check(fam, B, tol=residual * (1 + REL))
    assert not oc.invariant_subspace_check(fam, B, tol=residual * (1 - REL))


def test_compress_matches_einsum(setup, rng):
    fam = setup[0].fam
    d = fam.hdim
    iota, _ = np.linalg.qr(oc.random_vector(rng, d * d).reshape(d, d))
    out = oc.compress(fam, np.arange(fam.npoints), fam.space, iota)
    close(out.stack, np.einsum("ia,sij,jb->sab", np.conj(iota), fam.stack, iota))
