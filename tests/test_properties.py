"""Hypothesis properties of the canonical RatFunc form.

Every operation must return a coprime numerator/denominator pair whose
denominator is grlex-monic, and exactly 1 when it is constant.  A scaling
automorphism must also agree with plain substitution.
"""

from itertools import permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewmon.actions import (  # noqa: E402
    GeneralAut,
    PermutationAut,
    ScalingAut,
    VariableTable,
)
from skewmon.arith import Polynomial, RatFunc, poly_gcd, substitute  # noqa: E402

NV = 3
ONE = Polynomial.const(NV, 1)
# x and y are acted; q is a parameter, so scalings may multiply by powers of q
SCALING_TABLE = VariableTable(["x", "y"], [], ["q"])
PERM_TABLE = VariableTable(["x", "y", "z"])

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# exponents up to 2 in each variable: sums and products of these reach the
# coprime pairs of total degree 8 to 10 on which a primitive remainder sequence
# without subresultant division ran for minutes
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * NV), coeffs, max_size=4
).map(lambda terms: Polynomial(NV, terms))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
nonzero_ratfuncs = ratfuncs.filter(lambda r: not r.is_zero())
nonzero_coeffs = coeffs.filter(lambda c: c != 0)
scalings = st.builds(
    lambda c0, c1, k0, k1: ScalingAut(
        SCALING_TABLE, (c0, c1, 1), ((0, 0, k0), (0, 0, k1), (0, 0, 0))
    ),
    nonzero_coeffs, nonzero_coeffs, st.integers(-2, 2), st.integers(-2, 2),
)
perm_auts = st.permutations(range(NV)).map(lambda p: PermutationAut(PERM_TABLE, p))

fast = settings(max_examples=60, deadline=None)


def assert_canonical(r):
    if r.den.is_constant():
        assert r.den == ONE
    else:
        assert r.den.leading_term()[1] == 1
    assert poly_gcd(r.num, r.den) == ONE


@fast
@given(polys, nonzero_polys, nonzero_polys)
def test_common_factor_cancels(num, den, h):
    assert RatFunc(h * num, h * den) == RatFunc(num, den)


@fast
@given(ratfuncs, ratfuncs)
def test_sum_and_product_are_canonical(r, s):
    assert_canonical(r + s)
    assert_canonical(r * s)


@fast
@given(nonzero_ratfuncs, st.integers(-2, 2))
def test_inverse_and_powers_are_canonical(r, k):
    assert_canonical(r.invert())
    assert_canonical(r**k)
    assert r**k * r**-k == RatFunc(ONE)


@fast
@given(ratfuncs, scalings)
def test_scaling_is_canonical(r, g):
    assert_canonical(g.apply(r))


@fast
@given(ratfuncs, scalings)
def test_scaling_agrees_with_substitution(r, g):
    # oracle: substitute x_i -> c_i * q^k_i * x_i; a negative k_i puts q in
    # the denominator, so the scaled form must shift the q exponents back
    q = SCALING_TABLE.var("q")
    images = {i: SCALING_TABLE.var(name).scale(g.coeffs[i]) * q ** g.exps[i][2]
              for i, name in enumerate(["x", "y"])}
    assert g.apply(r) == substitute(r, images)


@fast
@given(ratfuncs, perm_auts)
def test_permutation_is_canonical(r, g):
    assert_canonical(g.apply(r))


@pytest.mark.parametrize("perm", list(permutations(range(NV))))
def test_general_aut_accepts_every_permutation(perm):
    v = PERM_TABLE.var
    names = PERM_TABLE.names
    images = {i: v(names[perm[i]]) for i in range(NV)}
    inverse_images = {perm[i]: v(names[i]) for i in range(NV)}
    g = GeneralAut(PERM_TABLE, images, inverse_images)
    f = (v("x") ** 2 + v("y")) / (v("x") - v("z").scale(2) + v("y") * v("z"))
    assert g.apply(f) == PermutationAut(PERM_TABLE, perm).apply(f)
