"""Hypothesis properties of the canonical RatFunc form and of the sparse sums.

Every operation must return a coprime numerator/denominator pair whose
denominator is grlex-monic, and exactly 1 when it is constant.  Sums,
differences and products must equal the quotient of the unreduced pair.  A
scaling automorphism must also agree with plain substitution.  Operations
that accumulate terms in place must leave their operands unchanged.  Every
coefficient stays exact: a plain ``int`` when integral, a ``Fraction``
otherwise, and never a float.  A polynomial stores ``int`` numerators over a
positive ``int`` denominator in lowest terms, whatever operation made it.
"""

import copy
import math
import operator
from fractions import Fraction
from itertools import permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, example, given, settings, strategies as st  # noqa: E402

from skewmon.actions import (  # noqa: E402
    GeneralAut,
    PermutationAut,
    ScalingAut,
    ShiftAut,
    VariableTable,
)
from skewmon.analysis import _SpanReducer  # noqa: E402
from skewmon.arith import (  # noqa: E402
    Polynomial,
    RatFunc,
    _pivot,
    _strip,
    poly_gcd,
    substitute,
)
from skewmon.errors import DegenerateSubstitutionError  # noqa: E402
from skewmon.constructors import build_qshift_algebra, build_shift_algebra  # noqa: E402
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

# every phase but explain: a failing property still shrinks, but skips the
# explain phase, which took minutes on each distinct failure
fast = settings(
    max_examples=60,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
)


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


def assert_monic(r):
    if r.den.is_constant():
        assert r.den == ONE
    else:
        assert r.den.leading_term()[1] == 1


def assert_canonical(r):
    assert_monic(r)
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


def assert_exact(*values):
    """No coefficient is a float, and every integral one is a plain int."""
    for x in values:
        for p in (x.num, x.den) if isinstance(x, RatFunc) else (x,):
            for c in p.terms.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@fast
@given(polys, polys, nonzero_polys)
def test_polynomial_coefficients_stay_exact(p, q, d):
    pd, qd = p * d, q * d
    sums = [p + q, p - q, pd]
    exact, maybe = pd.divide_exact(d), p.divide_exact(d)
    g = poly_gcd(pd, qd)
    monics = [(x, x.monic()) for x in filter(None, (d, pd))]
    # exactness first, so that a float shows up as itself, not as a broken identity
    assert_exact(p, q, d, *sums, exact, g, *[m for _, m in monics], *filter(None, [maybe]))
    assert sums[0] - q == p and sums[1] + q == p and exact == p
    assert maybe is None or maybe * d == p
    assert g.divide_exact(d.monic()) is not None
    assert not g or pd.divide_exact(g) is not None and qd.divide_exact(g) is not None
    for x, m in monics:
        assert m.leading_term()[1] == 1
        assert m.scale(x.leading_term()[1]) == x


@fast
@given(ratfuncs, nonzero_ratfuncs, entries, entries)
def test_rational_function_coefficients_stay_exact(r, s, f, g):
    total, product, inverse = r + s, r * s, s.invert()
    images = {1: f, 2: g}
    try:
        mapped = [substitute(x, images) for x in (r, s, product)]
    except DegenerateSubstitutionError:
        mapped = []
    # exactness first, so that a float shows up as itself, not as a broken identity
    assert_exact(r, s, f, g, total, product, inverse, *mapped)
    assert total - s == r and product * inverse == r and s * inverse == RatFunc(ONE)
    if mapped:  # substitution is a ring homomorphism
        assert mapped[0] * mapped[1] == mapped[2]


def _base_factor(v, c, rest):
    """The monic c*x_v + rest, with the terms of rest in x_v dropped: degree 1
    in x_v with a constant coefficient there, such as x - y + 2 or x*z - y."""
    terms = {e: a for e, a in rest.terms.items() if not e[v]}
    terms[tuple(int(i == v) for i in range(NV))] = c
    return Polynomial(NV, terms).monic()


base_factors = st.builds(_base_factor, st.integers(0, NV - 1), nonzero_coeffs, small_polys)
factor_lists = st.lists(st.tuples(base_factors, st.integers(1, 2)), max_size=2)


def _product(factors):
    out = ONE
    for f, e in factors:
        out = out * f**e
    return out


def _factored(num, factors):
    """num / prod f^e, built from inverses of base factors so that it stays factored."""
    r = RatFunc.from_poly(num)
    for f, e in factors:
        r = r * RatFunc.from_poly(f).invert() ** e
    return r


@st.composite
def factored_pairs(draw):
    """Two (numerator, factors) pairs whose denominators share the factors of
    ``shared``, with factors of either denominator planted in the numerators,
    or with equal denominators and a sum that cancels a shared factor."""
    shared, own_r, own_s = draw(factor_lists), draw(factor_lists), draw(factor_lists)
    sum_cancels = bool(shared) and draw(st.booleans())
    dens = (shared, shared) if sum_cancels else (shared + own_r, shared + own_s)
    nums = []
    for den in dens:
        planted = draw(st.lists(st.sampled_from(dens[0] + dens[1]), max_size=2)) if den else []
        num = draw(small_nonzero)
        for f, e in planted:
            num = num * f**e
        nums.append(num)
    if sum_cancels:
        nums[1] = shared[0][0] * nums[1] - nums[0]
        assume(nums[1])
    return list(zip(nums, dens))


def assert_factored(r):
    """r's factorization is over base factors and multiplies out to r.den;
    each key is the (numerators, denom) pair of its factor and carries the
    pivot, pivot numerator and tail of a fresh recomputation.  Base factors
    are irreducible, so r.num and r.den are coprime when r.num is divisible
    by none of them: the same check as assert_canonical's, with no poly_gcd."""
    assert_monic(r)
    for key, e in r.fac.items():
        f, v = key.poly, _pivot(key.poly)
        assert e > 0 and f.leading_term()[1] == 1 and v is not None
        assert r.num.divide_exact(f) is None
        pair = (frozenset(f.ints.items()), f.denom)
        assert key == pair and hash(key) == hash(pair)
        assert key.v == v and key.c == f.ints[tuple(int(i == v) for i in range(NV))]
        assert key.r == tuple((x, -a) for x, a in f.ints.items() if not x[v])
    assert _product([(key.poly, e) for key, e in r.fac.items()]) == r.den


def _dropped(r):
    """r with its factorization dropped, so arithmetic on it runs through
    poly_gcd; a constant denominator keeps its empty one, as RatFunc._raw requires."""
    return RatFunc._raw(r.num, r.den, {} if r.den.is_constant() else None)


@fast
@given(
    factored_pairs(), st.integers(-2, 2), st.tuples(*[st.integers(-2, 2)] * NV), perm_auts,
    scalings,
)
def test_factored_arithmetic_agrees_with_the_gcd_path(pairs, k, offsets, perm, scaling):
    (a, b), (c, d) = pairs
    r, s = _factored(a, b), _factored(c, d)
    for x, (num, den) in ((r, pairs[0]), (s, pairs[1])):
        assert x.fac is not None
        assert_factored(x)
        assert x == RatFunc(num, _product(den))
    shift = ShiftAut(PERM_TABLE, offsets)
    R, S = _dropped(r), _dropped(s)
    kept = [
        (r + s, R + S), (r - s, R - S), (r * s, R * S), (r**abs(k), R**abs(k)),
        (shift.apply(r), shift.apply(R)), (perm.apply(r), perm.apply(R)),
    ]
    for got, want in kept:
        assert got.fac is not None and got == want
        assert_factored(got)
    # these keep a factorization only when every factor's image is a base
    # factor, or when a factored operand meets one without a factorization
    maybe = [(r.invert(), R.invert()), (r**k, R**k), (r / s, R / S),
             (scaling.apply(r), scaling.apply(R)),
             (r * S, R * S), (R * s, R * S), (r + S, R + S), (R + s, R + S)]
    for got, want in maybe:
        assert got == want
        if got.fac is not None:
            assert_factored(got)
    for x in [x for pair in kept + maybe for x in pair]:
        assert x.fac == {} or not x.den.is_constant()


@pytest.mark.parametrize("shared", [False, True], ids=["unshared-monomial", "shared-monomial"])
def test_q_scaling_keeps_a_factorization_that_splits_off_a_monomial(shared):
    # x_i -> q*x_i for both i maps x1 - x2 to q*(x1 - x2), so the monomial q
    # splits off the image of the factor; with the numerator x1 the images of
    # numerator and denominator also share q, which the scaling removes
    ctx = build_qshift_algebra(2, 2)
    assert ctx.table.nvars == NV
    x1, x2 = ctx.table.var("x1"), ctx.table.var("x2")
    r = (x1 - x2).invert()
    if shared:
        r = x1 * r * (x1 + x2).invert()
    for key in [(1, 1), (-1, -1), (1, 0), (-1, 0), (2, -1)]:
        got = ctx.act_key(key, r)
        assert got.fac is not None, key
        assert_factored(got)
        assert got == ctx.act_key(key, _dropped(r))


def test_ring_automorphisms_keep_factorizations_that_move_or_make_a_monomial():
    # a permutation moves the factor x to the monomial y or z; a shift moves
    # x - y + 1 to another base factor, and x + 1 to the monomial x
    x, y = PERM_TABLE.var("x"), PERM_TABLE.var("y")
    r = y * x.invert() * (x - y + PERM_TABLE.poly("1")).invert()
    s = (x + PERM_TABLE.poly("1")).invert()
    auts = [PermutationAut(PERM_TABLE, (1, 2, 0)), PermutationAut(PERM_TABLE, (2, 1, 0)),
            ShiftAut(PERM_TABLE, (1, 0, 0)), ShiftAut(PERM_TABLE, (-1, 2, 1))]
    for aut in auts:
        for t in (r, s, r * s):
            got = aut.apply(t)
            assert got.fac is not None
            assert_factored(got)
            assert got == aut.apply(_dropped(t))


def assert_lowest_terms(*values):
    """Every numerator stored is a nonzero int over an int denominator >= 1
    prime to them all, and zero has denominator 1: no Fraction is stored."""
    for p in values:
        assert type(p.denom) is int and p.denom >= 1, repr(p.denom)
        assert all(type(c) is int and c for c in p.ints.values()), repr(p.ints)
        assert math.gcd(p.denom, *p.ints.values()) == 1, (p.ints, p.denom)
        assert p.ints or p.denom == 1


shift_offsets = st.one_of(st.integers(-2, 2), coeffs)


X0_SQUARED_X2 = Polynomial(NV, {(2, 0, 1): 2})


@fast
@given(polys, polys, nonzero_polys, nonzero_coeffs, st.integers(0, NV - 1),
       st.integers(0, NV), st.lists(st.tuples(st.integers(0, NV - 1), shift_offsets), max_size=2),
       base_factors, st.integers(0, 2))
# d = -p makes pf zero, which _strip does not take
@example(X0_SQUARED_X2, Polynomial.zero(NV), -X0_SQUARED_X2, Fraction(1), 0, 0, [],
         Polynomial.variable(NV, 0), 1)
def test_every_operation_keeps_polynomials_in_lowest_terms(p, q, d, c, var, k, shifts, f, e):
    pd, pf = p * d, (p + d) * f**e
    exact = pd.divide_exact(d)
    assert exact == p
    maybe = p.divide_exact(d)
    quotient = pf
    if pf:
        stripped, quotient = _strip(pf, f)
        assert stripped >= e and quotient * f**stripped == pf
    assert_lowest_terms(
        p + q, p - q, p * q, -p, pd, p.scale(c), q.scale(c), d.monic(), exact,
        *filter(None, [maybe]), p.shift_vars(shifts), *p.coeffs_in(var).values(),
        *p.split_head(k).values(), quotient, p**e, p * Polynomial.const(NV, c),
    )


# canonical operands with the three kinds of factorization: found by the
# constructor, built from base factors, and unknown
canonical_ratfuncs = st.one_of(
    nonzero_ratfuncs,
    st.builds(_factored, small_nonzero, factor_lists),
    st.builds(_factored, small_nonzero, factor_lists).map(_dropped),
)


@fast
@given(canonical_ratfuncs, nonzero_coeffs)
def test_a_constant_factor_scales_the_numerator_and_keeps_the_factorization(f, c):
    expected = RatFunc(f.num.scale(c), f.den)
    for product in (RatFunc.const(NV, c) * f, f * RatFunc.const(NV, c)):
        assert product == expected
        assert product.fac == f.fac
