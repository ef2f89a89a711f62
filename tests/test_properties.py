"""Hypothesis properties of the canonical RatFunc form and of the sparse sums.

Every operation must return a coprime numerator/denominator pair whose
denominator is grlex-monic, and exactly 1 when it is constant.  Sums,
differences and products must equal the quotient of the unreduced pair.  A
scaling automorphism must also agree with plain substitution.  Operations
that accumulate terms in place must leave their operands unchanged.
"""

import copy
import operator
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
from skewmon.analysis import _SpanReducer  # noqa: E402
from skewmon.arith import Polynomial, RatFunc, poly_gcd, substitute  # noqa: E402
from skewmon.constructors import build_shift_algebra  # noqa: E402
from skewmon.skewring import SkewElement, g_action  # noqa: E402

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
# shifts on x1, x2 and the swap of x1 and x2, over the same NV variables
SKEW_CTX = build_shift_algebra(NV, 2, group_generators=[(1, 0, 2)])
skews = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), ratfuncs, max_size=3
).map(lambda coeffs: SkewElement(SKEW_CTX, coeffs))
linear = st.builds(lambda a, b: Polynomial(NV, {(1, 0, 0): a, (0, 0, 0): b}), coeffs, coeffs)
entries = st.builds(RatFunc, linear, linear.filter(lambda p: not p.is_zero())).filter(
    lambda r: not r.is_zero()
)
vectors = st.dictionaries(st.integers(0, 3), entries, min_size=1, max_size=3)

fast = settings(max_examples=60, deadline=None)


def _planted(kind, a, b, c, d, h):
    """Two unreduced (numerator, denominator) pairs; kinds 1-3 plant the
    non-constant factor h where RatFunc arithmetic must cancel it."""
    return [
        ((a, b), (c, d)),
        ((a, h * b), (c, h * d)),  # shared by both denominators
        ((h * a, b), (c, h * d)),  # between a numerator and the other denominator
        ((a, h * b), (h * c - a, h * b)),  # the sum cancels against it
    ][kind]


# exponents up to 1: the reference quotient carries h twice, and its single
# gcd on products of the full-size draws takes tens of seconds
small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * NV), coeffs, max_size=3
).map(lambda terms: Polynomial(NV, terms))
small_nonzero = small_polys.filter(lambda p: not p.is_zero())
unreduced_pairs = st.builds(
    _planted, st.integers(0, 3), small_polys, small_nonzero, small_polys, small_nonzero,
    small_nonzero.filter(lambda p: not p.is_constant()),
)


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
@given(unreduced_pairs)
def test_sum_difference_and_product_equal_the_unreduced_quotients(pairs):
    (a, b), (c, d) = pairs
    r, s = RatFunc(a, b), RatFunc(c, d)
    assert r + s == RatFunc(a * d + c * b, b * d)
    assert r - s == RatFunc(a * d - c * b, b * d)
    assert r * s == RatFunc(a * c, b * d)


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


def _state(x):
    return x.terms if isinstance(x, Polynomial) else x.coeffs


def assert_operands_unchanged(op, *operands):
    before = [copy.deepcopy(_state(x)) for x in operands]
    op(*operands)
    assert [_state(x) for x in operands] == before


@fast
@given(polys, polys, nonzero_polys)
def test_polynomial_operations_leave_operands_unchanged(p, q, d):
    for op in (operator.add, operator.sub, operator.mul, poly_gcd):
        assert_operands_unchanged(op, p, q)
    assert_operands_unchanged(Polynomial.divide_exact, p, d)
    assert_operands_unchanged(Polynomial.divide_exact, p * d, d)


@fast
@given(skews, skews)
def test_skew_operations_leave_operands_unchanged(u, v):
    assert_operands_unchanged(operator.add, u, v)
    assert_operands_unchanged(operator.mul, u, v)
    (swap,) = SKEW_CTX.group.generator_elements()
    assert_operands_unchanged(lambda x: g_action(swap, x), u)


@fast
@given(st.lists(vectors, max_size=3), vectors)
def test_reducer_add_leaves_its_input_and_untouched_rows_unchanged(stored, vec):
    reducer = _SpanReducer()
    for row in stored:
        reducer.add(row)
    rows = {c: (row, copy.deepcopy(row)) for c, row in reducer.pivot_rows.items()}
    vec_before = copy.deepcopy(vec)
    accepted = reducer.add(vec)
    assert vec == vec_before
    new = set(reducer.pivot_rows) - set(rows)
    assert len(new) == accepted
    for c, (row, before) in rows.items():
        if not new & set(before):
            assert reducer.pivot_rows[c] is row and row == before
    for c in new:
        assert reducer.pivot_rows[c] is not vec
