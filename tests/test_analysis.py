import itertools
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from skewmon import analysis
from skewmon.arith import Polynomial, RatFunc, poly_to_text
from skewmon.actions import LATTICE, Context, MonoidElement, ScalingAut, VariableTable
from skewmon.errors import (
    DefinitionError,
    PreconditionError,
    ResourceCapError,
    SkewmonError,
    UnsupportedModeError,
    WitnessVerificationError,
)
from skewmon.constructors import (
    AlgebraSpec,
    build_qshift_algebra,
    build_shift_algebra,
    demazure_elements,
    gt_embedding,
    gwa_embed,
    symmetric_group_context,
    witten_woronowicz_spec,
)
from skewmon.skewring import SkewElement, commutator
from skewmon.analysis import (
    GrowthProfile,
    center_candidates,
    comm,
    commutant_filter,
    fit_loglog_slope,
    gen,
    growth_profile,
    lattice_contains,
    monoid_growth,
    ore_witness,
    smith_normal_form,
    standard_identity,
    sum_of,
    support_lattice_rank,
    theta_relation_set,
    verify_relations,
)
from skewmon.randomized import ore_witness_trials, random_polynomial, random_ratfunc


class TestVerifyRelations:
    def test_commutative_scalars(self):
        ctx = build_shift_algebra(2, 0)
        spec = AlgebraSpec(
            ctx,
            {
                "x": SkewElement.scalar(ctx, ctx.table.var("x1")),
                "y": SkewElement.scalar(ctx, ctx.table.var("x2")),
            },
            [],
        )
        report = verify_relations(spec, [{"name": "[x,y]=0", "expr": comm(gen("x"), gen("y"))}])
        assert report.passed

    def test_shift_commutator_relation(self):
        ctx = build_shift_algebra(1, 1)
        spec = AlgebraSpec(
            ctx,
            {
                "eps": SkewElement.generator(ctx, (1,)),
                "x": SkewElement.scalar(ctx, ctx.table.var("x1")),
            },
            [],
        )
        rel = {"name": "[eps,x] + eps = 0",
               "expr": sum_of(comm(gen("eps"), gen("x")), gen("eps"))}
        report = verify_relations(spec, [rel])
        assert report.passed, report.failures()

    def test_failure_carries_residual(self):
        ctx = build_shift_algebra(1, 1)
        spec = AlgebraSpec(
            ctx, {"eps": SkewElement.generator(ctx, (1,)),
                  "x": SkewElement.scalar(ctx, ctx.table.var("x1"))}, []
        )
        report = verify_relations(
            spec, [{"name": "bogus", "expr": comm(gen("eps"), gen("x"))}]
        )
        assert not report.passed
        assert report.checks[0].residual == "-1 ⊗ [1]"

    def test_unknown_name(self):
        ctx = build_shift_algebra(1, 1)
        spec = AlgebraSpec(ctx, {}, [])
        with pytest.raises(DefinitionError):
            verify_relations(spec, [{"name": "bad", "expr": gen("nope")}])

    def test_expression_helpers(self):
        from skewmon.analysis import evaluate_expression, prod, scaled

        ctx = build_shift_algebra(1, 1)
        eps = SkewElement.generator(ctx, (1,))
        x = SkewElement.scalar(ctx, ctx.table.var("x1"))
        spec = AlgebraSpec(ctx, {"eps": eps, "x": x}, [])
        assert evaluate_expression(spec, prod(gen("eps"), gen("x"))) == eps * x
        minus_three_halves = SkewElement.scalar(ctx, RatFunc.const(1, "-3/2"))
        assert evaluate_expression(spec, scaled("-3/2", gen("x"))) == minus_three_halves * x
        value = evaluate_expression(spec, sum_of(scaled(2, gen("x")), scaled("-1/2", gen("eps"))))
        assert value == 2 * x - SkewElement.scalar(ctx, RatFunc.const(1, "1/2")) * eps
        const = evaluate_expression(spec, {"const": "5/3"})
        assert const == SkewElement.scalar(ctx, RatFunc.const(1, "5/3"))
        with pytest.raises(DefinitionError):
            evaluate_expression(spec, {"mystery": []})

    def test_prod_makes_one_product_per_factor_after_the_first(self, monkeypatch):
        from skewmon.analysis import evaluate_expression, prod

        ctx = build_shift_algebra(1, 1)
        eps = SkewElement.generator(ctx, (1,))
        x = SkewElement.scalar(ctx, ctx.table.var("x1"))
        spec = AlgebraSpec(ctx, {"eps": eps, "x": x}, [])
        want = eps * x * eps
        products = []
        mul = SkewElement.__mul__

        def counted(a, b):
            products.append(b)
            return mul(a, b)

        monkeypatch.setattr(SkewElement, "__mul__", counted)
        assert evaluate_expression(spec, prod(gen("eps"), gen("x"), gen("eps"))) == want
        assert len(products) == 2
        assert evaluate_expression(spec, prod(gen("x"))) is x
        assert evaluate_expression(spec, prod()) == SkewElement.one(ctx)
        assert len(products) == 2


    def test_theta_relation_table_over_s4(self):
        thetas = demazure_elements(4)
        gens = {f"theta{i}": th for i, th in enumerate(thetas, start=1)}
        spec = AlgebraSpec(thetas[0].context, gens, [])
        report = verify_relations(spec, theta_relation_set(4))
        assert [c.name for c in report.checks] == [
            "theta1^2 = 0", "theta2^2 = 0", "theta3^2 = 0",
            "braid theta1 theta2", "braid theta2 theta3", "[theta1, theta3] = 0",
        ]
        assert report.passed, report.failures()

    def test_element_leaves(self):
        spec = gt_embedding(2)
        e12 = spec.generators["E12"]
        assert analysis.evaluate_expression(spec, "E12") is e12
        assert analysis.evaluate_expression(spec, e12.to_json()) == e12
        with pytest.raises(DefinitionError, match="unknown generator 'E13'"):
            analysis.evaluate_expression(spec, "E13")

class TestSmithNormalForm:
    def test_coprime_pair(self):
        assert smith_normal_form([(2,), (3,)]) == (1, [1])

    def test_empty(self):
        assert smith_normal_form([]) == (0, [])
        assert support_lattice_rank([]) == (0, [])

    def test_divisibility_chain(self):
        rank, divisors = smith_normal_form([[2, 0], [0, 12]])
        assert rank == 2
        assert divisors == [2, 12]
        rank, divisors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert rank == 3
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(PreconditionError, match="row 2 has length 3, row 1 has length 2"):
            smith_normal_form([[2, 0], [0, 3, 7]])
        with pytest.raises(PreconditionError, match="length 3, row 1 has length 2"):
            lattice_contains([[1, 0], [0, 1]], [1, 0, 5])

    @pytest.mark.parametrize("rows, entry", [
        ([[0.5, 1]], "0.5"), ([["3"]], "'3'"), ([[1, 0], [0, True]], "True"),
    ], ids=["float", "string", "bool"])
    def test_non_integer_entries_are_rejected_not_truncated(self, rows, entry):
        with pytest.raises(PreconditionError, match=f"row {len(rows)} has the entry {entry},"):
            smith_normal_form(rows)

    def test_a_non_integer_target_is_rejected_not_truncated(self):
        with pytest.raises(PreconditionError, match="row 2 has the entry 0.5, not an integer"):
            lattice_contains([[1, 0]], [0.5, 0])

    def test_membership_oracle_random(self):
        # certified classes: true members, rational-span outsiders, and
        # fractional-solution outsiders for full-rank square matrices
        rng = random.Random(4242)
        for _ in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
            assert lattice_contains(rows, member)
            rank, _ = smith_normal_form(rows)
            if rank < n:
                # add a vector outside the rational row span
                outside = _outside_row_span(rows, n, rng)
                if outside is not None:
                    assert not lattice_contains(rows, outside)

    def test_membership_full_rank_integrality(self):
        rng = random.Random(97)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = _det(rows)
            if det == 0:
                continue
            checked += 1
            target = [rng.randint(-6, 6) for _ in range(n)]
            # solve x * rows = target over the rationals; member iff integral
            sol = _solve_left(rows, target)
            expected = sol is not None and all(x.denominator == 1 for x in sol)
            assert lattice_contains(rows, target) == expected

    def test_support_lattice_modes(self):
        th = demazure_elements(2)
        with pytest.raises(UnsupportedModeError):
            support_lattice_rank(th)

    def test_support_lattice_from_elements(self):
        ctx = build_shift_algebra(1, 1)
        elems = [
            SkewElement.generator(ctx, (2,)),
            SkewElement.generator(ctx, (3,), ctx.table.var("x1")),
        ]
        assert support_lattice_rank(elems) == (1, [1])


def _det(rows):
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _solve_left(rows, target):
    # solve x * rows = target for square invertible rows
    n = len(rows)
    cols = list(zip(*rows))
    aug = [list(map(Fraction, cols[i])) + [Fraction(target[i])] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def _outside_row_span(rows, n, rng):
    # find a vector not in the rational row span by rejection sampling
    for _ in range(50):
        v = [rng.randint(-4, 4) for _ in range(n)]
        m = [list(map(Fraction, r)) for r in rows]
        rank0 = _rank(m)
        rank1 = _rank(m + [list(map(Fraction, v))])
        if rank1 > rank0:
            return v
    return None


def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


class TestCenter:
    def test_witten_woronowicz_center_is_constants(self):
        alg = gwa_embed(witten_woronowicz_spec())
        basis = center_candidates(alg, 4)
        names = alg.context.table.names
        assert [poly_to_text(b.num, names) for b in basis] == ["1"]

    def test_s23_center_filtration(self):
        ctx = build_shift_algebra(3, 2)
        spec = AlgebraSpec(ctx, {}, [])
        names = ctx.table.names
        b1 = center_candidates(spec, 1)
        assert [poly_to_text(b.num, names) for b in b1] == ["1", "1*x3"]
        b2 = center_candidates(spec, 2)
        assert [poly_to_text(b.num, names) for b in b2] == ["1", "1*x3", "1*x3^2"]

    def test_trivial_monoid_and_group(self):
        ctx = build_shift_algebra(3, 0)
        basis = center_candidates(AlgebraSpec(ctx, {}, []), 1)
        names = ctx.table.names
        assert [poly_to_text(b.num, names) for b in basis] == ["1", "1*x3", "1*x2", "1*x1"]

    def test_group_invariance_constraint(self):
        ctx = build_shift_algebra(2, 0, group_generators=[(1, 0)])
        basis = center_candidates(AlgebraSpec(ctx, {}, []), 2)
        names = ctx.table.names
        texts = [poly_to_text(b.num, names) for b in basis]
        assert texts == ["1", "1*x1 + 1*x2", "1*x1*x2", "1*x1^2 + 1*x2^2"]

    def test_closed_under_products_within_bound(self):
        from skewmon.analysis import _SpanReducer

        ctx = build_shift_algebra(3, 2)
        spec = AlgebraSpec(ctx, {}, [])
        basis = center_candidates(spec, 4)
        assert len(basis) == 5  # 1, x3, x3^2, x3^3, x3^4

        def vec_of(p):
            assert p.is_polynomial()
            return {
                head: RatFunc.from_poly(tail)
                for head, tail in p.num.split_head(ctx.table.n_acted + ctx.table.n_fixed).items()
            }

        reducer = _SpanReducer()
        for b in basis:
            reducer.add(vec_of(b))
        for a in basis:
            for b in basis:
                p = a * b
                if p.num.total_degree() <= 4:
                    assert not reducer.add(vec_of(p))

    def test_parameter_scaling_clears_denominators(self):
        # x -> x/q puts q in the denominator of every image of a power of x
        t = VariableTable(["x", "y"], [], ["q"])
        g = ScalingAut(t, (1, 1, 1), ((0, 0, -1), (0, 0, 1), (0, 0, 0)))
        spec = AlgebraSpec(Context(t, LATTICE, [g]), {}, [])
        basis = center_candidates(spec, 4)
        assert [poly_to_text(b.num, t.names) for b in basis] == ["1", "1*x*y", "1*x^2*y^2"]
        assert all(b.is_polynomial() for b in basis)

    @pytest.mark.parametrize("degree, dimension", [(0, 1), (1, 2), (2, 4), (3, 7)])
    def test_finite_group_keys_give_the_monomial_symmetric_polynomials(self, degree,
                                                                        dimension):
        # the keys S_3 fix a polynomial through the generators of the key group
        ctx = symmetric_group_context(3)
        basis = center_candidates(AlgebraSpec(ctx, {}, []), degree)
        # m_lambda: the sum of x^e over the distinct rearrangements e of lambda
        orbits = {}
        for e in itertools.product(range(degree + 1), repeat=3):
            if sum(e) <= degree:
                orbits.setdefault(tuple(sorted(e)), []).append(e)
        expected = [sum((Polynomial.monomial(3, e) for e in orbit), Polynomial.zero(3))
                    for orbit in orbits.values()]
        names = ctx.table.names
        assert len(basis) == dimension
        assert all(b.is_polynomial() for b in basis)
        assert sorted(poly_to_text(b.num, names) for b in basis) == sorted(
            poly_to_text(m, names) for m in expected)

    def test_always_contains_constants(self):
        alg = gt_embedding(2)
        basis = center_candidates(alg, 0)
        assert len(basis) == 1
        assert basis[0] == RatFunc.const(alg.context.table.nvars, 1)

    @pytest.mark.parametrize("n, degree, texts", [
        (2, 4, [
            "1",
            "1*x21 + 1*x22",
            "1*x21*x22",
            "1*x21^2 + 1*x22^2",
            "1*x21^2*x22 + 1*x21*x22^2",
            "1*x21^3 + 1*x22^3",
            "1*x21^2*x22^2",
            "1*x21^3*x22 + 1*x21*x22^3",
            "1*x21^4 + 1*x22^4",
        ]),
        (3, 2, [
            "1",
            "1*x31 + 1*x32 + 1*x33",
            "1*x31*x32 + 1*x31*x33 + 1*x32*x33",
            "1*x31^2 + 1*x32^2 + 1*x33^2",
        ]),
    ], ids=["gt2-degree-4", "gt3-degree-2"])
    def test_gelfand_tsetlin_centers_are_symmetric_in_the_top_row(self, n, degree, texts):
        # kernels with several terms over Q, cut out by the group as well
        alg = gt_embedding(n)
        basis = center_candidates(alg, degree)
        assert all(b.is_polynomial() for b in basis)
        assert [poly_to_text(b.num, alg.context.table.names) for b in basis] == texts

    @pytest.mark.parametrize("acted, fixed, params", [
        (["x"], [], []), (["x", "y"], ["z"], []), (["x"], ["z"], ["q"]), (["x", "y"], [], ["q", "t"]),
        ([], ["z"], ["q"]),
    ])
    def test_monomials_are_every_exponent_up_to_the_degree_in_grlex_order(self, acted, fixed,
                                                                           params):
        table = VariableTable(acted, fixed, params)
        m = len(acted) + len(fixed)
        for degree in range(6):
            brute = [e + (0,) * len(params) for e in itertools.product(range(degree + 1), repeat=m)
                     if sum(e) <= degree]
            brute.sort(key=lambda e: (sum(e), e))
            assert analysis._monomials_up_to(table, degree) == brute


class TestCommutantFilter:
    def test_gamma_retained_against_diagonal(self):
        alg = gt_embedding(2)
        spec = AlgebraSpec(
            alg.context,
            {"E11": alg.generators["E11"], "E22": alg.generators["E22"]},
            [],
        )
        cands = [SkewElement.scalar(alg.context, g) for g in alg.gamma_generators]
        assert len(commutant_filter(spec, cands)) == len(cands)

    def test_eps_filtered_out(self):
        ctx = build_shift_algebra(1, 1)
        spec = AlgebraSpec(ctx, {"x": SkewElement.scalar(ctx, ctx.table.var("x1"))}, [])
        eps = SkewElement.generator(ctx, (1,))
        one = SkewElement.one(ctx)
        kept = commutant_filter(spec, [eps, one])
        assert kept == [one]


class TestOreWitness:
    def test_trivial_s(self):
        ctx = build_shift_algebra(1, 1)
        u = SkewElement.generator(ctx, (1,))
        u2, r = ore_witness(RatFunc.const(1, 1), u)
        assert u2 == u
        assert r == RatFunc.const(1, 1)

    def test_s11_example(self):
        ctx = build_shift_algebra(1, 1)
        x = ctx.table.var("x1")
        eps = SkewElement.generator(ctx, (1,))
        u2, r = ore_witness(x, eps)
        lhs = eps * SkewElement.scalar(ctx, r)
        rhs = SkewElement.scalar(ctx, x) * u2
        assert lhs == rhs
        assert not r.is_zero() and r.is_polynomial()

    def test_gamma_scalar(self):
        ctx = build_shift_algebra(2, 2, group_generators=[(1, 0)])
        gamma = ctx.table.var("x1") * ctx.table.var("x2")
        s = ctx.table.var("x1") + ctx.table.var("x2")
        u = SkewElement.scalar(ctx, gamma)
        u2, r = ore_witness(s, u)
        assert u * SkewElement.scalar(ctx, r) == SkewElement.scalar(ctx, s) * u2
        for g in ctx.group.generator_elements():
            assert g.apply(r) == r

    def test_rational_coefficients_cleared(self):
        ctx = build_shift_algebra(2, 2)
        x1 = ctx.table.var("x1")
        u = SkewElement.generator(ctx, (1, -1), x1.invert())
        s = ctx.table.var("x2")
        u2, r = ore_witness(s, u)
        for c in u2.coeffs.values():
            assert c.is_polynomial()

    def test_preconditions(self):
        ctx = build_shift_algebra(2, 2, group_generators=[(1, 0)])
        u = SkewElement.one(ctx)
        with pytest.raises(PreconditionError):
            ore_witness(RatFunc.zero(2), u)
        with pytest.raises(PreconditionError):
            ore_witness(ctx.table.var("x1"), u)  # not G-invariant
        with pytest.raises(PreconditionError):
            ore_witness(ctx.table.var("x1").invert(), u)  # not polynomial

    def test_randomized_battery(self):
        ctx = build_shift_algebra(2, 2)
        report = ore_witness_trials(ctx, 30, seed=5)
        assert report.passed, report.failures()

    def test_randomized_with_group(self):
        ctx = build_shift_algebra(2, 2, group_generators=[(1, 0)])
        report = ore_witness_trials(ctx, 15, seed=6)
        assert report.passed, report.failures()

    def test_battery_records_failed_verification(self, monkeypatch):
        import skewmon.randomized as randomized

        def unverified(s, u):
            raise WitnessVerificationError("u*r = s*u' failed to verify")

        assert issubclass(WitnessVerificationError, SkewmonError)
        monkeypatch.setattr(randomized, "ore_witness", unverified)
        report = ore_witness_trials(build_shift_algebra(2, 2), 3, seed=5)
        assert [c.status for c in report.checks] == ["fail"] * 3
        assert report.checks[0].residual == "u*r = s*u' failed to verify"


class TestStandardIdentity:
    def test_commuting_pair_vanishes(self):
        ctx = build_shift_algebra(2, 0)
        a = SkewElement.scalar(ctx, ctx.table.var("x1"))
        b = SkewElement.scalar(ctx, ctx.table.var("x2"))
        assert standard_identity(2, [a, b]).is_zero()

    def test_noncommutative_witness(self):
        ctx = build_shift_algebra(1, 1)
        eps = SkewElement.generator(ctx, (1,))
        xe = SkewElement.scalar(ctx, ctx.table.var("x1"))
        value = standard_identity(2, [eps, xe])
        assert value == -eps
        assert value == commutator(eps, xe)

    def test_repeated_argument_vanishes(self):
        ctx = build_shift_algebra(1, 1)
        rng = random.Random(1)
        for _ in range(5):
            a = SkewElement.generator(ctx, (rng.randint(-1, 1),), random_ratfunc(rng, 1))
            b = SkewElement.generator(ctx, (rng.randint(-1, 1),), random_ratfunc(rng, 1))
            assert standard_identity(3, [a, a, b]).is_zero()

    def test_alternating_and_multilinear(self):
        ctx = build_shift_algebra(1, 1)
        rng = random.Random(2)
        a = SkewElement.generator(ctx, (1,), random_ratfunc(rng, 1))
        b = SkewElement.scalar(ctx, random_ratfunc(rng, 1))
        c = SkewElement.generator(ctx, (-1,), random_ratfunc(rng, 1))
        base = standard_identity(3, [a, b, c])
        assert standard_identity(3, [b, a, c]) == -base
        # multilinearity in the first slot
        d = SkewElement.scalar(ctx, random_ratfunc(rng, 1))
        lhs = standard_identity(3, [a + d, b, c])
        rhs = base + standard_identity(3, [d, b, c])
        assert lhs == rhs

    def test_s3_and_s4_make_one_product_per_index_of_each_subset(self, monkeypatch):
        # n 2^(n-1) - n products: a_i times s(S - {i}) for each i in each
        # subset S of two or more indices, and never one * a
        ctx = build_shift_algebra(1, 1)
        rng = random.Random(3)
        a = SkewElement.generator(ctx, (1,), random_ratfunc(rng, 1))
        b = SkewElement.scalar(ctx, random_ratfunc(rng, 1))
        c = SkewElement.generator(ctx, (-1,), random_ratfunc(rng, 1))
        d = SkewElement.generator(ctx, (1,), random_ratfunc(rng, 1))
        one = SkewElement.one(ctx)
        for elements, count in (([a, b, c], 9), ([a, b, c, d], 28)):
            want = standard_identity(len(elements), elements)
            products = []
            with monkeypatch.context() as m:
                m.setattr(SkewElement, "__mul__", counting(products, SkewElement.__mul__))
                assert standard_identity(len(elements), elements) == want
            assert len(products) == count
            assert not any(one in pair for pair in products)

    @pytest.mark.parametrize("build, nvars, m, rational", [
        (build_shift_algebra, 1, 1, True), (build_shift_algebra, 2, 2, True),
        (build_qshift_algebra, 1, 1, False),
    ], ids=["shift-1-1", "shift-2-2", "qshift-1-1"])
    def test_agrees_with_the_permutation_sum(self, build, nvars, m, rational):
        # the q-shift moves a denominator in x off the factor base, and its
        # n = 5 sums then take minutes, so its coefficients are polynomials
        ctx = build(nvars, m)
        rng = random.Random(nvars + m)
        nv = ctx.table.nvars

        def element():  # never a scalar
            key = tuple(rng.choice((-1, 1)) for _ in range(m))
            f = random_ratfunc(rng, nv) if rational else RatFunc(random_polynomial(rng, nv))
            return (SkewElement.generator(ctx, key, f)
                    + SkewElement.scalar(ctx, random_polynomial(rng, nv, nonzero=True)))

        for n in range(1, 6):
            elements = [element() for _ in range(n)]
            want = SkewElement.zero(ctx)
            for perm in permutations(range(n)):
                prod_elem = SkewElement.one(ctx)
                for i in perm:
                    prod_elem = prod_elem * elements[i]
                inversions = sum(a > b for j, a in enumerate(perm) for b in perm[j + 1 :])
                want = want + (-prod_elem if inversions & 1 else prod_elem)
            assert want, n  # a zero would prove little
            assert standard_identity(n, elements) == want, n

    def test_cost_cap(self):
        ctx = build_shift_algebra(1, 1)
        ones = [SkewElement.one(ctx)] * 7
        with pytest.raises(ResourceCapError):
            standard_identity(7, ones)


def counting(calls, fn):
    """fn, appending to calls on every call."""

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def _weyl_frame():
    # the Weyl frame {1, x1, e1} of the bench growth workload
    ctx = build_shift_algebra(2, 2)
    return [SkewElement.one(ctx), SkewElement.scalar(ctx, ctx.table.var("x1")),
            SkewElement.generator(ctx, (1, 0))]


def _inverse_x_frame():
    # every product by 1/x1 or e1 raises a denominator of key (0,) or (1,),
    # so each layer re-coordinatizes the stored basis
    ctx = build_shift_algebra(1, 1)
    return [SkewElement.one(ctx), SkewElement.scalar(ctx, ctx.table.var("x1").invert()),
            SkewElement.generator(ctx, (1,))]


def _q_frame():
    # the bench q-frame {1, q*x1, e1 + q}: the reducer's entries are RatFuncs in q
    ctx = build_qshift_algebra(1, 1)
    q = ctx.table.var("q")
    return [SkewElement.one(ctx), SkewElement.scalar(ctx, q * ctx.table.var("x1")),
            SkewElement.generator(ctx, (1,)) + SkewElement.scalar(ctx, q)]


def _repeated_one_frame():
    one, inv_x, e1 = _inverse_x_frame()
    return [one, inv_x, one, e1]


class TestGrowth:
    def test_weyl_like_dims(self):
        ctx = build_shift_algebra(1, 1)
        frame = [
            SkewElement.one(ctx),
            SkewElement.scalar(ctx, ctx.table.var("x1")),
            SkewElement.generator(ctx, (1,)),
        ]
        profile = growth_profile(frame, 12)
        assert profile.dims == [(k + 1) * (k + 2) // 2 for k in range(1, 13)]

    def test_polynomial_ring_growth(self):
        ctx = build_shift_algebra(1, 0)
        frame = [SkewElement.one(ctx), SkewElement.scalar(ctx, ctx.table.var("x1"))]
        profile = growth_profile(frame, 10)
        assert profile.dims == list(range(2, 12))
        assert Fraction(4, 5) <= profile.slope <= Fraction(6, 5)

    def test_constant_frame(self):
        ctx = build_shift_algebra(1, 0)
        profile = growth_profile([SkewElement.one(ctx)], 5)
        assert profile.dims == [1] * 5
        assert profile.slope == 0

    def test_requires_identity(self):
        ctx = build_shift_algebra(1, 0)
        with pytest.raises(PreconditionError):
            growth_profile([SkewElement.scalar(ctx, ctx.table.var("x1"))], 4)

    def test_dim_cap(self):
        ctx = build_shift_algebra(1, 1)
        frame = [
            SkewElement.one(ctx),
            SkewElement.scalar(ctx, ctx.table.var("x1")),
            SkewElement.generator(ctx, (1,)),
        ]
        with pytest.raises(ResourceCapError) as info:
            growth_profile(frame, 12, dim_cap=20)
        assert info.value.partial is not None
        assert info.value.partial.dims[0] == 3

    def test_dim_cap_on_the_frame_itself(self, monkeypatch):
        ctx = build_shift_algebra(1, 1)
        frame = [
            SkewElement.one(ctx),
            SkewElement.scalar(ctx, ctx.table.var("x1")),
            SkewElement.generator(ctx, (1,)),
        ]
        products = []
        monkeypatch.setattr(SkewElement, "__mul__", counting(products, SkewElement.__mul__))
        with pytest.raises(ResourceCapError, match="span dimension 3 exceeded the cap 2") as info:
            growth_profile(frame, 3, dim_cap=2)
        assert products == []
        assert info.value.partial is None

    def test_profile_validation(self):
        with pytest.raises(PreconditionError):
            GrowthProfile([3, 2], Fraction(1))
        with pytest.raises(PreconditionError):
            GrowthProfile([2, 5], Fraction(1))  # 5 > 2*2

    def test_rational_coefficient_frame(self):
        # denominators force the per-key common-denominator path
        ctx = build_shift_algebra(1, 1)
        inv_x = SkewElement.scalar(ctx, ctx.table.var("x1").invert())
        frame = [SkewElement.one(ctx), inv_x]
        profile = growth_profile(frame, 6)
        assert profile.dims == [2, 3, 4, 5, 6, 7]

    @staticmethod
    def gt_frame(n):
        spec = gt_embedding(n)
        g = spec.generators
        frame = [SkewElement.one(spec.context)]
        frame += [g[name] for name in sorted(g) if name.startswith("E")]
        if n == 3:
            frame += [commutator(g["E12"], g["E23"]), commutator(g["E32"], g["E21"])]
        return frame

    def test_gl2_pbw_dims(self):
        # U(gl_2) is faithfully realized, so d(k) is the PBW filtration piece
        profile = growth_profile(self.gt_frame(2), 5)
        assert profile.dims == [math.comb(k + 4, 4) for k in range(1, 6)]

    def test_gl3_pbw_dims_rebuild_the_reducer(self, monkeypatch):
        # the denominators x_2i - x_2j of E13 and E31 grow at k = 2, so the
        # stored basis is re-coordinatized into a fresh reducer
        built = []
        monkeypatch.setattr(
            analysis._SpanReducer, "__init__", counting(built, analysis._SpanReducer.__init__)
        )
        profile = growth_profile(self.gt_frame(3), 2)
        assert profile.dims == [10, 55]
        assert len(built) == 2

    def test_only_new_basis_elements_are_multiplied(self, monkeypatch):
        ctx = build_shift_algebra(1, 1)
        frame = [
            SkewElement.one(ctx),
            SkewElement.scalar(ctx, ctx.table.var("x1")),
            SkewElement.generator(ctx, (1,)),
        ]
        products = []
        monkeypatch.setattr(SkewElement, "__mul__", counting(products, SkewElement.__mul__))
        profile = growth_profile(frame, 12)
        assert profile.dims == [(k + 1) * (k + 2) // 2 for k in range(1, 13)]
        # new * 1 = new is in the span already, so 1 multiplies nothing
        assert len(products) == (len(frame) - 1) * profile.dims[10]  # 156

    def test_unchanged_denominators_are_not_divided(self, monkeypatch):
        # every coefficient's denominator is its key's common one, 1, so
        # clearing denominators divides nothing
        frame = _weyl_frame()
        divisions = []
        monkeypatch.setattr(Polynomial, "divide_exact", counting(divisions, Polynomial.divide_exact))
        profile = growth_profile(frame, 12)
        assert profile.dims == [(k + 1) * (k + 2) // 2 for k in range(1, 13)]
        assert divisions == []

    def test_parameter_free_frame_reduces_in_q_without_ratfuncs(self, monkeypatch):
        # shift_algebra(2, 2) has no parameters, so the reducer's entries
        # are exact rationals
        frame = _weyl_frame()
        ops = []
        for name in ("__add__", "__sub__", "__mul__", "__neg__", "__bool__", "invert"):
            monkeypatch.setattr(RatFunc, name, counting(ops, getattr(RatFunc, name)))
        ops_per_add = []

        def add(reducer, vec, add=analysis._SpanReducer.add):
            before = len(ops)
            accepted = add(reducer, vec)
            ops_per_add.append(len(ops) - before)
            return accepted

        entries = []

        def element_vectors(*args, element_vectors=analysis._element_vectors):
            vectors, grown = element_vectors(*args)
            entries.extend(v for vec in vectors for v in vec.values())
            return vectors, grown

        monkeypatch.setattr(analysis._SpanReducer, "add", add)
        monkeypatch.setattr(analysis, "_element_vectors", element_vectors)
        profile = growth_profile(frame, 12)
        assert profile.dims == [(k + 1) * (k + 2) // 2 for k in range(1, 13)]
        assert ops_per_add and set(ops_per_add) == {0}
        assert entries and {type(v) for v in entries} <= {int, Fraction}

    @pytest.mark.parametrize("make_frame, dims", [
        (_inverse_x_frame, [3, 7, 14, 25, 41]),
        (_q_frame, [3, 6, 10, 15]),
        (_repeated_one_frame, [3, 7, 14, 25]),
    ], ids=["inverse-x", "q-frame", "repeated-one"])
    def test_rebuilds_match_fresh_reductions(self, make_frame, dims):
        # growth_profile against the naive span of all words of length k
        frame = make_frame()
        table = frame[0].context.table
        words, expected = [SkewElement.one(frame[0].context)], []
        for _ in dims:
            words = [w * v for w in words for v in frame]
            reducer = analysis._SpanReducer()
            for vec in analysis._element_vectors([w.coeffs for w in words], table)[0]:
                reducer.add(vec)
            expected.append(len(reducer.pivot_rows))
        assert growth_profile(frame, len(dims)).dims == expected == dims


class TestMonoidGrowth:
    def test_z1(self):
        ctx = build_shift_algebra(1, 1)
        gens = [MonoidElement(ctx, (1,)), MonoidElement(ctx, (-1,))]
        assert monoid_growth(gens, 10) == [2 * k + 1 for k in range(1, 11)]

    def test_z2(self):
        sizes = monoid_growth([(1, 0), (-1, 0), (0, 1), (0, -1)], 20)
        assert sizes == [2 * k * k + 2 * k + 1 for k in range(1, 21)]
        slope = fit_loglog_slope(sizes)
        assert Fraction(9, 5) <= slope <= Fraction(11, 5)

    def test_n1_monoid(self):
        assert monoid_growth([(1,)], 8) == list(range(2, 10))

    def test_ragged_generators_are_rejected(self):
        with pytest.raises(PreconditionError,
                           match="generator 2 has length 3, generator 1 has length 2"):
            monoid_growth([(1, 0), (0, 1, 5)], 3)

    def test_non_integer_generators_are_rejected(self):
        with pytest.raises(PreconditionError, match="generator 1 has the entry 0.5, not an integer"):
            monoid_growth([(0.5, 0), (0, 1)], 3)

    def test_ball_above_the_dimension_cap_raises(self):
        # |B_k| = 2k^2 + 2k + 1 crosses 100 at k = 7
        with pytest.raises(ResourceCapError, match="ball size 113 exceeded the cap 100") as info:
            monoid_growth([(1, 0), (-1, 0), (0, 1), (0, -1)], 400, dim_cap=100)
        assert info.value.partial == [5, 13, 25, 41, 61, 85, 113]
