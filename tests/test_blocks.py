"""Every map that reads the coefficient blocks against the dense formula.

``OperatorFamily.blocks`` stores the (npoints, hdim^2) coefficient matrix
``flat`` as row classes with disjoint column sets; a dense family is the one
block of all rows and all columns.  The references below are the plain
products with ``flat`` that the block products replaced, so a lost block, a
misplaced scatter or a wrong fallback shows up here.  ``Frame.blocks`` holds
a frame's (npoints, hdim) vector field the same way, with its kernel as
diagonal blocks, and its readers are checked against their formulas on the
dense field and the dense (npoints, npoints) kernel formed here.
"""

import numpy as np
import pytest

import opcalc as oc
from opcalc import berezin as bz
from opcalc import calculus as ca
from opcalc import family as fm
from opcalc import magnetic as mg
from opcalc.core import RANK_DROP_TOL

from conftest import dense_b2_basis, random_family, refuse_dense_views

REL = 1e-13


def close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= REL * max(1.0, np.abs(ref).max())


def family_of(ops):
    ops = np.asarray(ops, dtype=complex)
    return oc.OperatorFamily(oc.MeasureSpace(tuple(range(len(ops))), np.ones(len(ops))), ops)


def compressed_weyl3():
    rng = np.random.default_rng(7)
    iota, _ = np.linalg.qr(oc.random_vector(rng, 9).reshape(3, 3))
    fam = oc.discrete_weyl(3)
    return oc.compress(fam, np.arange(fam.npoints), fam.space, iota)


def unequal_classes():
    # rows of flat keyed 0, 0, 1: two classes of sizes 2 and 1
    return family_of([np.eye(2), 2 * np.eye(2), [[0, 1], [1, 0]]])


def zero_inside_a_class():
    stack = np.array(oc.discrete_weyl(3).stack)
    stack[1, 2, 2] = 0.0       # row 1 keeps its key (column 0) but loses a nonzero
    return family_of(stack)


def monomial_of(perm, values):
    perm = np.asarray(perm)
    return fm._monomial_family(oc.MeasureSpace(tuple(range(len(perm))), np.ones(len(perm))),
                              perm, values)


def monomial_zero_value():
    # shifts by a = s // 3 with pi(1)'s value in column 2 set to 0: the dense route
    values = np.ones((9, 3), dtype=complex)
    values[1, 2] = 0.0
    return monomial_of((np.arange(3) + np.arange(9)[:, None] // 3) % 3, values)


def overlapping_columns():
    # equal classes of one row each, whose column sets {0, 1} and {1, 2} overlap
    return family_of([[[1, 1], [0, 0]], [[0, 1], [1, 0]]])


#: name -> (builder, expected number of blocks)
FAMILIES = {
    "random": (lambda: random_family(np.random.default_rng(3)), 1),
    "compress": (compressed_weyl3, 1),
    "s3": (lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()), 1),
    **{f"weyl{N}": (lambda N=N: oc.discrete_weyl(N), N) for N in (2, 3, 4, 5)},
    "metaplectic27_k1": (lambda: oc.abelian_metaplectic((27,), k=1), 27),
    "metaplectic27_k2": (lambda: oc.abelian_metaplectic((27,), k=2), 27),
    "magnetic8": (lambda: oc.MagneticBackend(8, 12.0).family(), 8),
    "tensor_w2_w3": (lambda: oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)), 6),
    "adjoint_weyl4": (lambda: oc.adjoint_family(oc.discrete_weyl(4)), 4),
    "direct_sum_w3_w3": (lambda: oc.direct_sum([oc.discrete_weyl(3)] * 2), 3),
    "unequal_classes": (unequal_classes, 1),
    "zero_inside_a_class": (zero_inside_a_class, 1),
    "overlapping_columns": (overlapping_columns, 1),
    # monomial families whose row classes are not kept fall back to the dense store
    "monomial_unequal_classes": (lambda: monomial_of([[0, 1], [0, 1], [1, 0]],
                                                     [[1, 1], [2, 2], [1, 1]]), 1),
    "monomial_zero_value": (monomial_zero_value, 1),
}


@pytest.fixture(params=list(FAMILIES))
def case(request):
    build, k = FAMILIES[request.param]
    return build(), k


def build_recording(name, monkeypatch):
    """Build a case, with a copy of the dense operators its family was given
    (None when it was built as its blocks)."""
    given = [None]
    init = oc.OperatorFamily.__init__

    def record(self, space, operators):
        given[0] = np.array(operators, dtype=complex)
        init(self, space, operators)

    monkeypatch.setattr(oc.OperatorFamily, "__init__", record)
    build, k = FAMILIES[name]
    fam = build()
    monkeypatch.undo()
    return fam, k, given[0]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_block_count(name, monkeypatch):
    fam, k, given = build_recording(name, monkeypatch)
    rows, cols, V = fam.blocks
    assert rows.shape[0] == cols.shape[0] == V.shape[0] == k
    if k == 1:                 # the one-block route: every row, every column
        assert np.array_equal(rows[0], np.arange(fam.npoints))
        assert np.array_equal(cols[0], np.arange(fam.hdim ** 2))
        assert fam.stack.tobytes() == given.tobytes()    # scattered back bitwise


@pytest.mark.parametrize("name", ["s3", "random", "compress", "tensor_w2_w3",
                                  "direct_sum_w3_w3", "adjoint_weyl4"])
def test_dense_input_keeps_no_dense_store(name, monkeypatch, rng):
    # the given operators become the blocks; no reader below builds the view
    fam, _, given = build_recording(name, monkeypatch)
    d = fam.hdim
    refuse_dense_views(monkeypatch)
    q = ca.Quantizer(fam)
    oc.verify_sq(fam)
    oc.commutant_dim(fam)
    oc.quantize(q, oc.random_symbol(rng, fam.space))
    oc.dequantize(q, oc.random_vector(rng, d * d).reshape(d, d))
    oc.coefficient(fam, oc.random_vector(rng, d), oc.random_vector(rng, d))
    oc.invariant_subspace_check(fam, oc.random_vector(rng, d))
    ops = [fam.op(i) for i in range(fam.npoints)]
    # exact equality: every bit but the sign of a zero, which the store drops
    assert np.array_equal(ops, given)


@pytest.mark.parametrize("name", ["weyl3", "s3"])        # hdim classes, one block
def test_dense_input_is_copied(name):
    # the family keeps its own copy of a C-contiguous complex input: the
    # caller's array stays writable, and writing to it changes neither op(i)
    # nor the view scattered after the write
    build, k = FAMILIES[name]
    ref = build()
    given = np.array(ref.stack)
    fam = oc.OperatorFamily(ref.space, given)
    assert len(fam.blocks[0]) == k
    assert given.flags.writeable and given.flags.c_contiguous
    given[...] = 7.0
    assert np.array_equal([fam.op(i) for i in range(fam.npoints)], ref.stack)
    assert np.array_equal(fam.stack, ref.stack)


def test_blocks_are_flat_with_zeros_elsewhere(case):
    fam, _ = case
    rows, cols, V = fam.blocks
    assert V.shape == (len(rows), rows.shape[1], cols.shape[1])
    assert np.array_equal(np.sort(rows.ravel()), np.arange(fam.npoints))
    assert len(np.unique(cols)) == cols.size              # disjoint column sets
    dense = np.zeros_like(fam.flat)
    dense[rows[:, :, None], cols[:, None, :]] = V
    assert np.array_equal(dense, fam.flat)


def test_blocks_are_computed_once_and_read_only(case):
    fam, _ = case
    first = fam.blocks
    assert fam.blocks is first
    for part in first:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part.flat[0] = part.flat[0]


def test_op_reads_the_store_before_the_view_is_built(case):
    fam, _ = case
    ops = [fam.op(i) for i in range(fam.npoints)]
    assert np.array_equal(ops, fam.stack)


def test_op_checks_the_index_and_is_read_only_with_or_without_the_view(case):
    fam, _ = case
    for _ in range(2):            # from the blocks, then from the built view
        for bad in (-1, fam.npoints, 1.0):
            with pytest.raises(ValueError, match="point index"):
                fam.op(bad)
        assert not fam.op(fam.npoints - 1).flags.writeable
        fam.stack


@pytest.mark.parametrize("perm, values, message", [
    ([[0, 0]], [[1, 1]], "permutation of the basis"),
    ([[0, 2]], [[1, 1]], "basis indices"),
    ([[-1, 0]], [[1, 1]], "basis indices"),
    ([[0.0, 1.0]], [[1, 1]], "basis indices"),
    ([[0, 1]], [[1, np.nan]], "finite"),
])
def test_monomial_family_rejects_bad_input(perm, values, message):
    with pytest.raises(ValueError, match=message):
        monomial_of(perm, values)


def test_readers_match_dense_flat(case, rng):
    fam, _ = case
    q, flat, d, m = ca.Quantizer(fam), fam.flat, fam.hdim, fam.npoints
    w = fam.space.weights
    f = oc.random_symbol(rng, fam.space)
    T = oc.random_vector(rng, d * d).reshape(d, d)
    close(fm._basis_gram(fam), (flat.T.conj() * w) @ flat)
    ref_q = (np.conj(w * f.values) @ flat).conj().reshape(d, d).T
    close(oc.quantize(q, f), ref_q)
    close(oc.dequantize(q, T).values, flat @ T.T.ravel())
    for s in (0, m - 1):
        close(oc.e_symbol(q, s).values, flat @ flat[s].conj())
        close(oc.pairing_with_e(q, f, s), flat[s] @ ref_q.T.ravel())
    close(oc.mixed_trace(q, f, T),
          np.vdot(flat @ T.ravel().conj(), w * f.values))
    atoms = [(0, 1.5), (m - 1, -0.5j), (0, 0.25 + 1j)]
    c = np.zeros(m, dtype=complex)
    for i, a in atoms:
        c[i] += a
    close(oc.quantize_measure(q, atoms),
          (np.conj(c) @ flat).conj().reshape(d, d).T)
    two_point = flat @ fam.stack.swapaxes(1, 2).reshape(m, -1).T
    close(oc.involution_explicit(q, f).values, two_point @ (w * np.conj(f.values)))
    # the two block maps behind quantize and dequantize, on an operator batch
    Ts = oc.random_vector(rng, 3 * d * d).reshape(3, d, d)
    close(fm._traces(fam, Ts), np.einsum("pij,sji->sp", Ts, fam.stack))
    close(fm._traces(fam, T), np.einsum("ij,sji->s", T, fam.stack))
    close(fm._adjoint_sum(fam, c), np.einsum("s,sji->ij", c, fam.stack.conj()))


def test_frame_readers_match_dense_flat(case, rng):
    fam, _ = case
    flat, d = fam.flat, fam.hdim
    v = oc.random_unit_vector(rng, d)
    wfield = (v.conj() @ fam.stack).conj()
    fr = bz.Frame(fam, v)                                     # no SQ gate needed
    close(fr.wfield, wfield)
    R = (wfield.conj()[:, :, None] * wfield[:, None, :]).reshape(len(wfield), -1)
    g = oc.random_symbol(rng, fam.space)
    close(bz._smoothed(fr, g).values, (flat @ R.T) @ (fam.space.weights * g.values))
    Q = (np.conj(fam.space.weights * g.values) @ flat).conj().reshape(d, d).T
    close(oc.upsilon_transform(fr, g).values, (wfield @ Q.T @ wfield.conj().T).ravel())


def test_range_basis_matches_dense_svd(case, rng):
    # the reference is the one SVD of flat^T that the per-block SVDs replaced
    fam, k = case
    q, w = ca.Quantizer(fam), fam.space.weights
    sqrt_w = np.sqrt(w)
    _, svals, Vh = np.linalg.svd(fam.flat.T * sqrt_w, full_matrices=False)
    rank = int(np.sum(svals > RANK_DROP_TOL * svals[0]))
    B = Vh[:rank] / sqrt_w
    rows, cols, _ = fam.blocks
    r, c = rows.shape[1], cols.shape[1]
    assert q.b2_basis.shape == (k, min(c, r), r)       # m*d numbers on monomial families
    assert q.b2_rank == rank
    if k == 1:                 # the one-block route feeds the dense SVD the same matrix
        assert np.array_equal(q.b2_basis[0][:rank], B)
    Q = dense_b2_basis(q)
    close((Q * w) @ Q.conj().T, np.eye(rank))
    close(Q.T @ (Q.conj() * w), B.T @ (B.conj() * w))
    f = oc.random_symbol(rng, fam.space)
    close(oc.project_b2(q, f).values, (B.conj() @ (w * f.values)) @ B)


BITWISE = {
    **{f"weyl{N}": (lambda N=N: oc.discrete_weyl(N)) for N in (4, 8, 16, 24)},
    "magnetic8": lambda: oc.MagneticBackend(8, 12.0).family(),
    "magnetic32": lambda: oc.MagneticBackend(32, 12.0).family(),
}


@pytest.mark.parametrize("name", list(BITWISE))
def test_quantize_and_dequantize_are_bitwise_dense(name, rng):
    # each block product sums the same nonzero terms as the dense product, in
    # the same groups, when the class sizes are multiples of four
    fam = BITWISE[name]()
    q, flat, d = ca.Quantizer(fam), fam.flat, fam.hdim
    f = oc.random_symbol(rng, fam.space)
    T = oc.random_vector(rng, d * d).reshape(d, d)
    c = fam.space.weights * f.values
    assert np.array_equal(oc.quantize(q, f), (np.conj(c) @ flat).conj().reshape(d, d).T)
    assert np.array_equal(oc.dequantize(q, T).values, flat @ T.T.ravel())


def unit(d, i):
    w = np.zeros(d, dtype=complex)
    w[i] = 1.0
    return w


def basis_frame(build, last):
    fam = build()
    return oc.make_frame(fam, unit(fam.hdim, fam.hdim - 1 if last else 0))


def weyl4_two_term():
    # the classes of pi(s)* w share columns: {0, 1}, {3, 0}, ...
    return oc.make_frame(oc.discrete_weyl(4), (unit(4, 0) + unit(4, 1)) / np.sqrt(2))


MONOMIAL = {
    "weyl3": lambda: oc.discrete_weyl(3),
    "weyl4": lambda: oc.discrete_weyl(4),
    "metaplectic5_k2": lambda: oc.abelian_metaplectic((5,), k=2),
    "magnetic8": lambda: oc.MagneticBackend(8, 12.0).family(),
    "tensor_w2_w3": lambda: oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)),
}

#: name -> (frame factory, whether it splits into hdim blocks)
FRAMES = {
    **{f"{name}_e{'last' if last else '0'}": (lambda b=b, last=last: basis_frame(b, last), True)
       for name, b in MONOMIAL.items() for last in (False, True)},
    "random_w": (lambda: oc.make_frame(
        oc.discrete_weyl(3), oc.random_unit_vector(np.random.default_rng(5), 3)), False),
    "s3": (lambda: basis_frame(
        lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()), False),
        False),
    "weyl4_two_term": (weyl4_two_term, False),
}


@pytest.fixture(params=list(FRAMES))
def frame_case(request):
    build, blocked = FRAMES[request.param]
    fr = build()
    return fr, fr.fam.hdim if blocked else 1


def test_frame_block_count(frame_case):
    fr, k = frame_case
    rows, cols, W = fr.blocks
    assert rows.shape[0] == cols.shape[0] == W.shape[0] == k
    if k == 1:                 # the one-block route: the whole dense field
        assert np.array_equal(rows[0], np.arange(fr.space.npoints))
        assert np.array_equal(cols[0], np.arange(fr.fam.hdim))
        assert np.array_equal(W[0], fr.wfield)
    else:                      # one nonzero per frame vector
        assert cols.shape[1] == 1


def test_frame_blocks_are_wfield_and_computed_once(frame_case):
    # the blocks are the one store; the dense field is scattered on each read
    fr, _ = frame_case
    rows, cols, W = fr.blocks
    assert np.array_equal(np.sort(rows.ravel()), np.arange(fr.space.npoints))
    assert len(np.unique(cols)) == cols.size              # disjoint column sets
    dense = np.zeros((fr.space.npoints, fr.fam.hdim), dtype=complex)
    dense[rows[:, :, None], cols[:, None, :]] = W
    close(dense, (fr.w.conj() @ fr.fam.stack).conj())     # pi(s)* w
    assert np.array_equal(dense, fr.wfield)
    for part in (*fr.blocks, fr.kernel, fr.wfield):
        assert not part.flags.writeable


def test_frame_readers_match_dense_wfield(frame_case, rng):
    fr, _ = frame_case
    W, w = (fr.w.conj() @ fr.fam.stack).conj(), fr.space.weights   # pi(s)* w
    K = W.conj() @ W.T                                   # <w(t), w(s)>
    d, m = fr.fam.hdim, fr.space.npoints
    f = oc.random_symbol(rng, fr.space)
    u = oc.random_vector(rng, d)
    S = oc.random_vector(rng, d * d).reshape(d, d)
    A = oc.random_vector(rng, m * m).reshape(m, m)      # off-block entries too
    close(oc.analysis(fr, u).values, W.conj() @ u)
    close(oc.synthesis(fr, f), (w * f.values) @ W)
    close(oc.berezin_op(fr, f), (W.T * (w * f.values)) @ W.conj())
    close(oc.covariant_symbol_tau(fr, S).values, np.sum((W @ S.T) * W.conj(), axis=1))
    close(oc.covariant_berezin_symbol(fr, f).values,
          (np.abs(K.T) ** 2) @ (w * f.values))
    P = K * w[None, :]
    close(oc.kernel_projector(fr), P)
    close(oc.toeplitz_op(fr, f), P @ (f.values[:, None] * P))
    close(oc.covariant_symbol_sigma(fr, A).values,
          np.sum(w[:, None] * (A @ K) * K.conj(), axis=0))


def dense_sq_witness(fam):
    """The witness as the d^2 x d^2 argmax it replaced: the block Gram
    scattered over a zero fill, minus the identity, abs, first maximum."""
    d = fam.hdim
    G = fm._basis_gram(fam)
    G[np.diag_indices_from(G)] -= 1.0
    np.abs(G, out=G)
    row, col = divmod(int(G.real.argmax()), d * d)
    (j1, i1), (j2, i2) = divmod(row, d), divmod(col, d)
    return float(G.real[row, col]), (i1, j1, i2, j2)


def weyl2_padded():
    """Weyl 2 in the top-left corner of 3 x 3 zero operators."""
    fam = oc.discrete_weyl(2)
    stack = np.zeros((fam.npoints, 3, 3), dtype=complex)
    stack[:, :2, :2] = fam.stack
    return oc.OperatorFamily(fam.space, stack)


def magnetic_family(n):
    return oc.MagneticBackend(n, 12.0, A=mg.sine_potential(n, 12.0, 0.8)).family()


@pytest.mark.parametrize("build, expected", [
    (lambda: oc.discrete_weyl(3), None),
    (lambda: oc.discrete_weyl(16), None),
    (lambda: oc.abelian_metaplectic((15,), k=2), None),
    (lambda: magnetic_family(16), None),
    (lambda: magnetic_family(32), None),
    (lambda: oc.tensor(oc.discrete_weyl(2), oc.discrete_weyl(3)), None),
    (lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()), None),
    # 18 of the 36 basis columns lie off both summands and no block covers them
    (lambda: oc.direct_sum([oc.discrete_weyl(3)] * 2), (1.0, (0, 0, 3, 3))),
    (oc.trivial_backend, (0.0, (0, 0, 0, 0))),
    # the blocks pass and only the uncovered columns deviate: 1.0 at column 2
    (weyl2_padded, (1.0, (2, 0, 2, 0))),
], ids=["weyl3", "weyl16", "metaplectic15", "magnetic16", "magnetic32",
        "tensor_w2_w3", "s3", "direct_sum_w3_w3", "trivial", "weyl2_padded"])
def test_sq_witness_matches_dense_argmax(build, expected):
    fam = build()
    want = dense_sq_witness(fam)
    assert fam._sq_witness == want
    assert type(fam._sq_witness[0]) is float
    if expected is not None:
        assert want == expected
