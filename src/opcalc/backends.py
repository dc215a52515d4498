"""Concrete square-integrable families: trivial, discrete Weyl, finite-group
irreducibles, and the finite abelian metaplectic systems.

Measure normalization is decided here, never in core: discrete Weyl carries
1/N per phase-space point, group backends carry (irrep dim)/|G| per element
(the renormalized Haar measure that makes Schur orthogonality come out with
constant one), and both metaplectic variants carry counting/|G| on the dual
factor, under which the orthogonality constant is exactly one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (DEFAULT_TOL, GridLabels, MeasureSpace, _require, _spec_array,
                   _spec_complex, _spec_int, _spec_keys, _spec_num)
from .family import OperatorFamily, _monomial_family

#: Largest block store, d^2 points of d values, of a Weyl (d = N) or metaplectic
#: (d = |G|) system: at d = 128 ``describe`` takes 0.6 s and 140 MB.
BLOCK_ENTRY_CAP = 128 ** 3


def trivial_backend() -> OperatorFamily:
    """One point of mass one, represented by the identity on dimension one."""
    space = MeasureSpace(("0",), np.array([1.0]))
    return OperatorFamily(space, np.ones((1, 1, 1), dtype=complex))


def discrete_weyl(N: int) -> OperatorFamily:
    """Finite Weyl system on Z_N x Z_N with weight 1/N per point.

    pi(a, b) = U^a V^b with U the cyclic shift and V the modulation by the
    N-th root of unity; the N^2 operators are an orthogonal basis of the
    Hilbert-Schmidt space with common norm sqrt(N), which is exactly the
    square-integrability normalization.
    """
    N = _spec_int(N, "N")
    _require(N >= 2, "discrete Weyl system needs N >= 2")
    _require(N ** 3 <= BLOCK_ENTRY_CAP, f"N = {N} exceeds the cap N^3 <= {BLOCK_ENTRY_CAP}")
    omega = np.exp(2j * np.pi / N)
    i = np.arange(N)
    a, b, cols = i[:, None, None], i[None, :, None], i[None, None, :]
    # U^a V^b e_c = omega^(b c) e_(c + a)
    perm, values = (np.broadcast_to(v, (N, N, N)).reshape(N * N, N)
                    for v in ((cols + a) % N, omega ** (b * cols)))
    space = MeasureSpace(GridLabels(i, i), np.full(N * N, 1.0 / N))
    return _monomial_family(space, perm, values)


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

#: Largest group order a finite-group backend accepts; its table checks take n^3 steps.
GROUP_ORDER_CAP = 256


def cyclic_table(n: int) -> np.ndarray:
    """Multiplication table of Z_n (index arithmetic mod n)."""
    n = _spec_int(n, "n")
    _require(n >= 1, "group order must be positive")
    _require(n <= GROUP_ORDER_CAP, f"group order {n} exceeds the cap {GROUP_ORDER_CAP}")
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def cyclic_character(n: int, k: int) -> np.ndarray:
    """One-dimensional irrep j -> exp(2 pi i k j / n) as 1x1 matrices."""
    n, k = _spec_int(n, "n"), _spec_int(k, "k")
    chars = np.exp(2j * np.pi * k * np.arange(n) / n)
    return chars.reshape(n, 1, 1)


def s3_table() -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Multiplication table of the permutations of three letters.

    Elements are ordered lexicographically as permutation tuples; entry
    (i, j) is the index of g_i composed with g_j (g_j applied first).
    """
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=int)
    for i, g in enumerate(perms):
        for j, h in enumerate(perms):
            table[i, j] = index[tuple(g[h[m]] for m in range(3))]
    return table, perms


def s3_standard_irrep() -> np.ndarray:
    """The two-dimensional irrep of S3 on the sum-zero plane in C^3."""
    _, perms = s3_table()
    B = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [0.0, -2 / np.sqrt(6)]])
    mats = []
    for g in perms:
        P = np.zeros((3, 3))
        for j in range(3):
            P[g[j], j] = 1.0
        mats.append(B.T @ P @ B)
    return np.array(mats, dtype=complex)


def s3_sign_irrep() -> np.ndarray:
    """The sign character of S3 as 1x1 matrices."""
    _, perms = s3_table()
    signs = []
    for g in perms:
        inversions = sum(1 for a in range(3) for b in range(a + 1, 3)
                         if g[a] > g[b])
        signs.append((-1.0) ** inversions)
    return np.array(signs, dtype=complex).reshape(-1, 1, 1)


def _check_group_table(table: np.ndarray) -> None:
    _require(table.ndim == 2 and len(table) == table.shape[1], "group table must be square")
    n = len(table)
    _require(n <= GROUP_ORDER_CAP, f"group order {n} exceeds the cap {GROUP_ORDER_CAP}")
    _require(bool(np.all((0 <= table) & (table < n))),
             "group table entries must be element indices")
    e = np.arange(n)
    _require(bool(np.any(np.all(table == e, 1) & np.all(table.T == e, 1))),
             "group table has no identity element")
    # associativity on all triples, (ab)c against a(bc) for one a at a time
    for a in range(n):
        left, right = table[table[a]], table[a][table]
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise ValueError(f"group table is not associative at ({a}, {b}, {c})")


def finite_group_backend(table, irrep, measure_scale: float = 1.0) -> OperatorFamily:
    """Family over a finite group from a unitary irreducible representation.

    Weights are measure_scale * d / |G| per element; the default scale 1 is
    the renormalized Haar measure under which Schur orthogonality makes the
    family square integrable.  Passing measure_scale = 1/d reproduces the
    plain normalized Haar measure, which genuinely fails the test.
    """
    table = np.asarray(table, dtype=int)
    _check_group_table(table)
    n = table.shape[0]
    mats = np.asarray(irrep, dtype=complex)
    _require(mats.ndim == 3 and mats.shape[0] == n,
             "need one representation matrix per group element")
    d = mats.shape[1]
    _require(mats.shape[2] == d, "representation matrices must be square")
    # a unitary matrix has no entry of modulus above 1; checked before any product
    with np.errstate(over="ignore"):
        big = ~(np.abs(mats) <= 1 + DEFAULT_TOL).all((1, 2))
    _require(not big.any(), f"representation matrix {big.argmax()} is not unitary: "
             "an entry is not finite or has modulus above 1")
    bad = np.abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(d)).max((1, 2)) > DEFAULT_TOL
    _require(not bad.any(), f"representation matrix {bad.argmax()} is not unitary")
    for g in range(n):          # the pairs (g, h) for all h: n d^2 numbers
        bad = np.abs(mats[g] @ mats - mats[table[g]]).max((1, 2)) > DEFAULT_TOL
        _require(not bad.any(),
                 f"matrices do not form a homomorphism at pair ({g}, {bad.argmax()})")
    _require(measure_scale > 0, "measure scale must be positive")
    weights = np.full(n, measure_scale * d / n)
    space = MeasureSpace(tuple(str(g) for g in range(n)), weights)
    return OperatorFamily(space, mats)


# ---------------------------------------------------------------------------
# finite abelian metaplectic systems
# ---------------------------------------------------------------------------

def abelian_metaplectic(orders, k: int) -> OperatorFamily:
    """Phase-space translation system of a finite abelian group.

    G is the direct sum of cyclic groups of the given orders; the Hilbert
    space is functions on G with the counting norm and the phase space is
    G x dual(G).  The variant k = 1 shifts then modulates; k = 2 is the
    symmetric variant and requires doubling to be an automorphism, i.e. odd
    group order.  For both, the dual measure is counting/|G| (which makes the
    Fourier transform unitary, checked here) and the orthogonality constant
    is exactly one: every entry of pi(x, xi) has modulus one and
    <pi(x, xi) e_i, e_j> is nonzero only for x = i - j, so each basis pair
    integrates |G| unit terms at weight 1/|G|.  ``verify_sq`` certifies it.
    """
    orders = tuple(_spec_int(n, "each of orders") for n in orders)
    _require(len(orders) >= 1 and all(n >= 1 for n in orders),
             "orders must be positive integers")
    _require(_spec_int(k, "k") in (1, 2), "variant k must be 1 or 2")
    size = math.prod(orders)
    _require(size ** 3 <= BLOCK_ENTRY_CAP,
             f"group order {size} exceeds the cap |G|^3 <= {BLOCK_ENTRY_CAP}")
    if k == 2 and size % 2 == 0:
        raise ValueError(
            "k=2 requires the map x -> 2x to be an automorphism of G; "
            f"group order {size} is even so doubling is not invertible")

    elements = list(itertools.product(*(range(n) for n in orders)))
    coords = np.array(elements).reshape(size, len(orders))   # element -> coordinates
    radix = np.array(orders)

    # character <xi, x> = exp(2 pi i sum_l xi_l x_l / n_l)
    phase = 0
    for l, n in enumerate(orders):
        phase = phase + np.outer(coords[:, l], coords[:, l]) / n
    characters = np.exp(2j * np.pi * phase)   # characters[xi, x]

    # Fourier transform L2(G, counting) -> L2(dual, counting/|G|) must be unitary
    F = characters.conj()
    gram = (F.conj().T @ F) / size
    _require(bool(np.abs(gram - np.eye(size)).max() <= max(DEFAULT_TOL, 1e-12 * size)),
             "dual measure normalization does not make the Fourier transform unitary")

    def index(c):   # coordinates (..., len(orders)) mod orders -> element index
        return np.ravel_multi_index(tuple(np.moveaxis(c % radix, -1, 0)), orders)

    # (pi_k(x, xi) u)(z) = <xi, k z + (k-1) x> u(z + x): column c holds that
    # character in row z = c - x
    x, c = coords[:, None], coords[None, :]
    source = index(c - x)                                 # [x, c]: index of c - x
    arg = index(k * coords[source] + (k - 1) * x)         # [x, c]: index of k z + (k-1) x
    perm = np.broadcast_to(source[:, None], (size, size, size))
    values = characters[np.arange(size)[:, None], arg[:, None]]
    labels = [",".join(map(str, e)) for e in elements]
    points = [f"({a};{b})" for a in labels for b in labels]

    space = MeasureSpace(tuple(points), np.full(size * size, 1.0 / size))
    return _monomial_family(space, perm.reshape(-1, size), values.reshape(-1, size))


# ---------------------------------------------------------------------------
# declarative backend specs (the CLI's input format)
# ---------------------------------------------------------------------------

_GROUP_PRESETS = {
    "s3_standard": lambda: (s3_table()[0], s3_standard_irrep()),
    "s3_sign": lambda: (s3_table()[0], s3_sign_irrep()),
}


def backend_from_spec(spec: dict):
    """Build a backend from its JSON description.

    Returns an OperatorFamily for exact kinds and a MagneticBackend for
    "magnetic_weyl".  Raises ValueError on invalid parameters and on any key
    its kind does not read, before anything is built.
    """
    from . import magnetic  # local import: magnetic pulls in grid machinery

    _require(isinstance(spec, dict) and "kind" in spec,
             "backend spec must be an object with a 'kind'")
    kind, preset = spec["kind"], spec.get("preset")
    keys = {"trivial": (), "discrete_weyl": ("N",),
            "finite_group": (("table", "irrep") if preset is None
                             else ("preset", "order", "k") if preset == "cyclic_character"
                             else ("preset",)) + ("measure_scale",),
            "abelian_metaplectic": ("orders", "k"),
            "magnetic_weyl": ("n", "L", "A", "tol")}
    _require(kind in keys, f"unknown backend kind {kind!r}")
    _spec_keys(spec, ("kind", *keys[kind]), "backend", f"{kind} backend")
    if kind == "trivial":
        return trivial_backend()
    if kind == "discrete_weyl":
        return discrete_weyl(spec["N"])
    if kind == "finite_group":
        if preset == "cyclic_character":
            n = _spec_int(spec["order"], "order")
            table = cyclic_table(n)
            irrep = cyclic_character(n, _spec_int(spec.get("k", 1), "k"))
        elif preset is not None:
            _require(preset in _GROUP_PRESETS, f"unknown group preset {preset!r}")
            table, irrep = _GROUP_PRESETS[preset]()
        else:
            table = _spec_array(spec["table"], "table", integer=True)
            raw = spec["irrep"]
            _spec_keys(raw, ("re", "im"), "irrep", "finite_group irrep")
            irrep = _spec_complex(_spec_array(raw["re"], "irrep re"),
                                  _spec_array(raw.get("im", 0.0), "irrep im"))
        return finite_group_backend(
            table, irrep, _spec_num(spec.get("measure_scale", 1.0), "measure_scale"))
    if kind == "abelian_metaplectic":
        return abelian_metaplectic(spec["orders"], spec["k"])
    A = spec.get("A")
    return magnetic.MagneticBackend(
        _spec_int(spec["n"], "n"), _spec_num(spec["L"], "L"),
        A=None if A is None else _spec_array(A, "A"),
        tol=_spec_num(spec.get("tol", 1e-6), "tol"))
