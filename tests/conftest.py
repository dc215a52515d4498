import numpy as np
import pytest

import opcalc as oc


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def space_from_json(d: dict) -> oc.MeasureSpace:
    """The inverse of ``core.space_to_json``; the library never reads a space."""
    return oc.MeasureSpace(tuple(d["points"]), np.asarray(d["weights"], dtype=float),
                           tol=d.get("tol"))


# ---------------------------------------------------------------------------
# independent oracles: everything below is built from first principles with
# plain loops and matrix powers, never through the library's constructors
# ---------------------------------------------------------------------------

def weyl_matrices_oracle(N):
    """pi(a, b) = U^a V^b via literal matrix powers of shift and clock."""
    U = np.zeros((N, N), dtype=complex)
    for j in range(N):
        U[(j + 1) % N, j] = 1.0
    V = np.diag(np.exp(2j * np.pi * np.arange(N) / N))
    out = {}
    for a in range(N):
        for b in range(N):
            out[(a, b)] = np.linalg.matrix_power(U, a) @ np.linalg.matrix_power(V, b)
    return out


def brute_pairing_integral(ops, weights, u1, v1, u2, v2):
    """Plain-loop orthogonality integral of two coefficient functions."""
    total = 0.0 + 0.0j
    for M, w in zip(ops, weights):
        f1 = complex(np.conj(v1) @ (M @ u1))
        f2 = complex(np.conj(v2) @ (M @ u2))
        total += w * f1 * np.conj(f2)
    return total


def random_family(rng):
    """A generic family that is not square-integrable, with distinct entries."""
    m, d = 11, 3        # more points than hdim^2: the range is a proper subspace
    ops = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    space = oc.MeasureSpace(tuple(range(m)), rng.uniform(0.1, 1.0, m))
    return oc.OperatorFamily(space, ops)


def refuse_dense_views(monkeypatch):
    """Make every read of ``OperatorFamily.stack`` (and so ``flat``) and of
    ``Frame.wfield`` raise, so that a reader shows it builds neither view."""
    def refuse(self):
        raise AssertionError("a dense view was scattered from the blocks")

    monkeypatch.setattr(oc.OperatorFamily, "stack", property(refuse))
    monkeypatch.setattr(oc.Frame, "wfield", property(refuse))


def brute_inner(u, v):
    return complex(np.sum(np.asarray(u) * np.conj(v)))


def dense_b2_basis(q):
    """A quantizer's block range basis as one (b2_rank, npoints) array.

    Block b's vectors live on the rows ``fam.blocks[0][b]``; the vectors
    stored as zero rows (dropped singular values) are left out.
    """
    rows, B = q.fam.blocks[0], q.b2_basis
    dense = np.zeros(B.shape[:2] + (q.fam.npoints,), dtype=complex)
    for b, r in enumerate(rows):
        dense[b][:, r] = B[b]
    dense = dense.reshape(-1, q.fam.npoints)
    return dense[dense.any(axis=1)]


def magnetic_op_stack(bk, shifts, xis):
    """The dense operators of a magnetic grid at every (shift, xi) pair,
    shift-major, (len * len, n, n): pi(r, xi) has its phase at row m, column
    m + r.  The construction the grid family was built by before it was built
    as its shift classes."""
    n = bk.n
    m = np.arange(n)
    r = np.asarray(shifts)[:, None, None]
    xi = np.asarray(xis)[None, :, None]
    circ = bk._circulations(shifts)[:, None, :]
    phase = np.exp(-1j * (bk.x + r * bk.dx / 2.0) * xi - 1j * circ)
    ops = np.zeros((r.size, xi.size, n, n), dtype=complex)
    ops[np.arange(r.size)[:, None, None], np.arange(xi.size)[:, None],
        m, (m + r) % n] = phase
    return ops.reshape(-1, n, n)
