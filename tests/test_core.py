import json

import numpy as np
import pytest

import opcalc as oc
from opcalc import core

from conftest import brute_inner, space_from_json, weyl_matrices_oracle


def space(weights, tol=None):
    return oc.MeasureSpace(tuple(f"p{i}" for i in range(len(weights))),
                           np.asarray(weights, dtype=float), tol=tol)


def test_measure_space_validation():
    with pytest.raises(ValueError):
        space([1.0, -1.0])
    with pytest.raises(ValueError):
        oc.MeasureSpace(("a", "a"), np.array([1.0, 1.0]))
    for bad in (0.0, -1e-6, np.inf, np.nan, True):   # a declared tol is positive
        with pytest.raises(ValueError, match="tolerance"):
            space([1.0], tol=bad)
    s = space([1.0, 2.0], tol=1e-6)
    assert s.tol == 1e-6 and s.kind == "quadrature"
    assert space([1.0]).kind == "exact"


def test_a_space_declares_its_tolerance_once():
    pts, w = ("a", "b"), np.ones(2)
    with pytest.raises(TypeError):                  # no kind to contradict tol
        oc.MeasureSpace(pts, w, kind="exact", tol=1e-3)
    s = oc.MeasureSpace(pts, w, tol=1e-3)
    assert s.kind == "quadrature" and oc.MeasureSpace(pts, w).kind == "exact"
    with pytest.raises(AttributeError):
        s.kind = "exact"
    # equality reads the tolerance, as the space id does
    for other in (oc.MeasureSpace(pts, w), oc.MeasureSpace(pts, w, tol=1e-4),
                  oc.MeasureSpace(pts, w, tol=1e-3)):
        assert (s == other) == (s.space_id() == other.space_id())
    assert s == oc.MeasureSpace(pts, w, tol=1e-3) != oc.MeasureSpace(pts, w)


def test_spaces_and_symbols_keep_private_copies():
    w = np.array([1.0, 2.0])
    s = oc.MeasureSpace(("a", "b"), w)
    v = np.ones(2, dtype=complex)
    f = oc.Symbol(s, v)
    for given, kept in ((w, s.weights), (v, f.values)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)
    w[0] = v[0] = 5.0                   # the caller's buffers stay the caller's
    assert s.weights[0] == 1.0 and f.values[0] == 1.0


def test_grid_labels_stand_for_their_tuple_space():
    rows, cols = range(-2, 3), np.arange(-3, 3)
    labels = core.GridLabels(rows, cols)
    strings = tuple(f"({r},{k})" for r in rows for k in cols)
    w = np.full(len(strings), 0.5)
    grid = oc.MeasureSpace(labels, w, tol=1e-6)
    flat = oc.MeasureSpace(strings, w, tol=1e-6)
    assert grid.points is labels                 # the strings stay unmade
    assert grid.npoints == flat.npoints == len(strings)
    assert core.space_to_json(grid) == core.space_to_json(flat)
    assert grid.space_id() == flat.space_id()
    assert grid == flat and flat == grid
    assert grid == oc.MeasureSpace(core.GridLabels(rows, cols), w, tol=1e-6)
    assert grid != oc.MeasureSpace(core.GridLabels(range(5), cols), w, tol=1e-6)
    assert grid != oc.MeasureSpace(strings[::-1], w, tol=1e-6)
    other = space([1.0, 2.0])
    for over_grid, over_flat in ((oc.product_space(grid, other), oc.product_space(flat, other)),
                                 (oc.product_space(other, grid), oc.product_space(other, flat))):
        assert over_grid == over_flat and over_grid.space_id() == over_flat.space_id()


def test_grid_labels_reject_repeats():
    with pytest.raises(ValueError, match="distinct"):
        core.GridLabels([0, 1, 0], [0, 1])
    with pytest.raises(ValueError, match="distinct"):
        core.GridLabels([0, 1], [2, 2])


def test_integrate_constant_on_mass_four():
    s = space([1.0, 0.5, 1.5, 1.0])
    assert s.mass == pytest.approx(4.0)
    f = oc.Symbol(s, np.ones(4))
    assert oc.integrate(f) == pytest.approx(4.0)


def test_integrate_indicator():
    s = space([0.25, 0.5, 0.25])
    f = oc.Symbol(s, np.array([0.0, 1.0, 0.0]))
    assert oc.integrate(f) == pytest.approx(0.5)


def test_integrate_weyl_coefficient_modulus():
    # brute-force sum over the 4 phase-space points of the N=2 system
    mats = weyl_matrices_oracle(2)
    e0 = np.array([1.0, 0.0], dtype=complex)
    expected = sum(0.5 * abs(np.conj(e0) @ (M @ e0)) ** 2 for M in mats.values())
    assert expected == pytest.approx(1.0)

    fam = oc.discrete_weyl(2)
    f = oc.coefficient(fam, e0, e0)
    sq = oc.Symbol(fam.space, np.abs(f.values) ** 2)
    assert oc.integrate(sq) == pytest.approx(expected)


def test_integrate_linear_and_positive(rng):
    s = space(rng.uniform(0.1, 2.0, size=7))
    f = oc.random_symbol(rng, s)
    g = oc.random_symbol(rng, s)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    combo = oc.Symbol(s, a * f.values + b * g.values)
    assert oc.integrate(combo) == pytest.approx(
        a * oc.integrate(f) + b * oc.integrate(g))
    nonneg = oc.Symbol(s, np.abs(f.values))
    assert oc.integrate(nonneg).real >= 0


def test_product_space_counts_and_mass():
    a = space([1.0, 1.0])
    b = space([1.0, 1.0, 1.0])
    p = oc.product_space(a, b)
    assert p.npoints == 6
    assert np.allclose(p.weights, 1.0)
    assert p.mass == pytest.approx(a.mass * b.mass)

    w = oc.discrete_weyl(2).space
    pw = oc.product_space(w, w)
    assert pw.npoints == 16
    assert np.allclose(pw.weights, 0.25)


def test_l2_inner_definiteness(rng):
    s = space(rng.uniform(0.2, 1.5, size=5))
    f = oc.random_symbol(rng, s)
    assert oc.l2_inner(f, f).real > 0
    assert abs(oc.l2_inner(f, f).imag) < 1e-14
    zero = oc.Symbol(s, np.zeros(5))
    assert oc.l2_inner(zero, zero) == 0


def test_l2_inner_indicators_orthogonal():
    s = space([1.0, 2.0, 3.0])
    e0 = oc.Symbol(s, np.array([1.0, 0, 0]))
    e1 = oc.Symbol(s, np.array([0, 1.0, 0]))
    assert oc.l2_inner(e0, e1) == 0


def test_l2_inner_space_mismatch():
    f = oc.Symbol(space([1.0]), np.array([1.0]))
    g = oc.Symbol(space([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        oc.l2_inner(f, g)


def test_coefficient_orthogonality_weyl3(rng):
    # <phi_{u1,v1}, phi_{u2,v2}> = <u1,u2><v2,v1> on the N=3 system
    fam = oc.discrete_weyl(3)
    for _ in range(5):
        u1, v1, u2, v2 = (oc.random_vector(rng, 3) for _ in range(4))
        lhs = oc.l2_inner(oc.coefficient(fam, u1, v1), oc.coefficient(fam, u2, v2))
        rhs = brute_inner(u1, u2) * brute_inner(v2, v1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hs_inner_and_trace(rng):
    assert oc.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    u = oc.random_vector(rng, 4)
    v = oc.random_vector(rng, 4)
    assert oc.trace(oc.rank_one(u, v)) == pytest.approx(brute_inner(u, v))
    # spectral norm of a rank-one operator is the product of the norms
    assert oc.op_norm(oc.rank_one(u, v)) == pytest.approx(
        np.linalg.norm(u) * np.linalg.norm(v))


def test_rank_one_matrix_entries():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    M = oc.rank_one(e0, e1)
    assert M[0, 1] == 1.0 and np.count_nonzero(M) == 1


def test_rank_one_composition_rules(rng):
    # lambda_{u,v} lambda_{u',v'} = <u',v> lambda_{u,v'} and adjoint/trace rules
    u, v, up, vp = (oc.random_vector(rng, 3) for _ in range(4))
    left = oc.rank_one(u, v) @ oc.rank_one(up, vp)
    right = brute_inner(up, v) * oc.rank_one(u, vp)
    assert np.abs(left - right).max() < 1e-13
    assert np.abs(oc.rank_one(u, v).conj().T - oc.rank_one(v, u)).max() < 1e-15
    S = oc.random_vector(rng, 9).reshape(3, 3)
    assert np.abs(S @ oc.rank_one(u, v) - oc.rank_one(S @ u, v)).max() < 1e-13
    assert np.abs(oc.rank_one(u, v) @ S - oc.rank_one(u, S.conj().T @ v)).max() < 1e-13


def test_rank_one_trace_is_norm_squared(rng):
    u = oc.random_vector(rng, 6)
    expected = sum(abs(x) ** 2 for x in u)  # direct sum of |u_i|^2
    assert oc.trace(oc.rank_one(u, u)) == pytest.approx(expected)


def test_norm_chain(rng):
    for _ in range(10):
        T = oc.random_vector(rng, 16).reshape(4, 4)
        assert oc.trace_norm(T) >= oc.op_norm(T) >= 0
        assert abs(oc.hs_inner(T, T) - np.conj(oc.hs_inner(T, T))) < 1e-12


def test_operator_json_roundtrip(rng):
    T = oc.random_vector(rng, 9).reshape(3, 3)
    d = core.operator_to_json(T)
    assert np.abs(core.operator_from_json(d) - T).max() == 0
    json.dumps(d)  # must be plain JSON types


def test_symbol_json_roundtrip(rng):
    s = space([1.0, 2.0])
    f = oc.random_symbol(rng, s)
    d = core.symbol_to_json(f)
    g = core.symbol_from_json(d, s)
    assert np.array_equal(f.values, g.values)
    with pytest.raises(ValueError):
        core.symbol_from_json(d, space([1.0, 3.0]))


def test_space_json_roundtrip():
    p = oc.product_space(space([0.5, 0.5]), space([1.0, 2.0], 1e-5))
    q = space_from_json(core.space_to_json(p))
    assert q == p
    assert q.kind == "quadrature" and q.tol == 1e-5
