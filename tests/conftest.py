import numpy as np
import pytest

import opcalc as oc


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


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


def brute_inner(u, v):
    return complex(np.sum(np.asarray(u) * np.conj(v)))
