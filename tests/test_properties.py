"""Property tests: the paper's identities on families closed under the
constructions that preserve square integrability.

Families are drawn as recipes (a base backend plus up to two closure steps)
and built in the test body.  ``derandomize=True`` fixes the examples, so the
tests are deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import opcalc as oc  # noqa: E402

BASES = {
    "weyl2": lambda: oc.discrete_weyl(2),
    "weyl3": lambda: oc.discrete_weyl(3),
    "weyl4": lambda: oc.discrete_weyl(4),
    "s3": lambda: oc.finite_group_backend(oc.s3_table()[0], oc.s3_standard_irrep()),
    "metaplectic3": lambda: oc.abelian_metaplectic((3,), k=2),
    "metaplectic5": lambda: oc.abelian_metaplectic((5,), k=2),
}
MAX_POINTS = 100        # keeps the three-point kernel and the commutant small

PROPERTIES = settings(max_examples=12, derandomize=True, deadline=None, database=None)

base_names = st.sampled_from(sorted(BASES))
steps = st.lists(st.one_of(st.tuples(st.just("tensor"), base_names),
                           st.tuples(st.just("compress"), st.integers(0, 2 ** 16)),
                           st.tuples(st.just("adjoint"), st.none())),
                 max_size=2)


def build(base, recipe):
    fam = BASES[base]()
    for step, arg in recipe:
        if step == "tensor":
            other = BASES[arg]()
            if fam.npoints * other.npoints <= MAX_POINTS:
                fam = oc.tensor(fam, other)
        elif step == "compress":
            rng = np.random.default_rng(arg)
            d = fam.hdim
            iota, _ = np.linalg.qr(oc.random_vector(rng, d * d).reshape(d, d))
            fam = oc.compress(fam, np.arange(fam.npoints), fam.space, iota)
        else:
            fam = oc.adjoint_family(fam)
    return fam


def gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / max(1.0, np.abs(b).max())


@PROPERTIES
@given(base_names, steps, st.integers(0, 2 ** 16))
def test_closed_families_satisfy_the_calculus(base, recipe, seed):
    fam = build(base, recipe)
    rng = np.random.default_rng(seed)
    assert oc.verify_sq(fam).passed
    assert oc.commutant_dim(fam) == 1
    q = oc.build_quantizer(fam)
    f, g, h = (oc.project_b2(q, oc.random_symbol(rng, fam.space)) for _ in range(3))
    # the block products against the dense coefficient matrix
    d, c = fam.hdim, fam.space.weights * f.values
    assert gap(oc.quantize(q, f), (np.conj(c) @ fam.flat).conj().reshape(d, d).T) < 1e-13
    T = oc.random_vector(rng, d * d).reshape(d, d)
    assert gap(oc.dequantize(q, T).values, fam.flat @ T.T.ravel()) < 1e-13
    # quantization is an isometry on the range
    assert gap(oc.hs_inner(oc.quantize(q, f), oc.quantize(q, g)), oc.l2_inner(f, g)) < 1e-10
    fg = oc.star(q, f, g)
    assert gap(oc.star(q, fg, h).values, oc.star(q, f, oc.star(q, g, h)).values) < 1e-10
    assert gap(oc.star_explicit(q, f, g).values, fg.values) < 1e-10


@PROPERTIES
@given(base_names, base_names)
def test_direct_sums_fail_sq_and_irreducibility(first, second):
    f1, f2 = BASES[first](), BASES[second]()
    for fam in (oc.direct_sum([f1, oc.adjoint_family(f1)]), oc.direct_sum_product(f1, f2)):
        assert not oc.verify_sq(fam).passed
        assert oc.commutant_dim(fam) > 1
