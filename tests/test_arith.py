import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from skewmon import analysis, arith, skewring
from skewmon.arith import (
    NEG_INF,
    Polynomial,
    QQ,
    RatFunc,
    poly_from_text,
    poly_gcd,
    poly_lcm,
    poly_to_text,
    pole_order,
    ratfunc_to_json,
    ratfunc_to_text,
    residue_along,
    restrict_to_hyperplane,
    substitute,
)
from skewmon.actions import ScalingAut, VariableTable
from skewmon.cli import load_scenario_text, run_scenario
from skewmon.constructors import build_qshift_algebra
from skewmon.errors import (
    ContextMismatchError,
    DegenerateSubstitutionError,
    HigherOrderPoleError,
    InvalidDivisorError,
)

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)
ONE = Polynomial.const(2, 1)
NAMES = ("x", "y")


def rf(p, q=None):
    return RatFunc(p, q)


def rand_poly(rng, nvars=2, max_deg=3, nterms=4, nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, nterms)):
            e = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-5, 5)
        p = Polynomial(nvars, terms)
        if not nonzero or not p.is_zero():
            return p


def rand_ratfunc(rng, nvars=2):
    num = rand_poly(rng, nvars)
    den = rand_poly(rng, nvars, max_deg=2, nterms=2, nonzero=True)
    return RatFunc(num, den)


class TestPolynomialOps:
    def test_cancellation(self):
        assert (X + ONE) + (-X) == ONE

    def test_difference_of_squares(self):
        assert (X - ONE) * (X + ONE) == X * X - ONE

    def test_total_degree(self):
        assert (X**2 * Y + Y).total_degree() == 3

    def test_zero_degree_sentinel(self):
        z = Polynomial.zero(2)
        assert z.total_degree() == NEG_INF
        assert z.total_degree() < 0
        assert ONE.total_degree() == 0

    def test_table_mismatch(self):
        with pytest.raises(ContextMismatchError):
            X + Polynomial.variable(3, 0)

    def test_content(self):
        p = X.scale(2) + ONE.scale(2)
        assert p.content() == QQ(2)
        q = X.scale(QQ(1, 2)) + Y.scale(QQ(3, 4))
        assert q.content() == QQ(1, 4)

    def test_qq_is_int_exactly_when_integral(self):
        integral = [QQ(4, 2), QQ("6/3"), QQ(QQ(1, 2) * 4), QQ(7)]
        assert integral == [2, 2, 2, 7] and all(type(v) is int for v in integral)
        fractional = [QQ(3, 2), QQ("-3/2"), QQ(QQ(1, 2))]
        assert fractional == [Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]
        assert all(type(v) is Fraction for v in fractional)

    def test_value_methods_return_fractions(self):
        p = X.scale(2) + ONE.scale(4)
        zero = Polynomial.zero(2)
        values = [p.content(), p.evaluate((1, 0)), ONE.scale(3).constant_value(),
                  zero.constant_value(), zero.content(), zero.evaluate((1, 1))]
        assert values == [2, 6, 3, 0, 0, 0]
        assert all(type(v) is Fraction for v in values)
        assert p.evaluate((1, 0)) / 4 == Fraction(3, 2)

    def test_divide_exact(self):
        p = (X + Y) * (X - Y) * (X + ONE)
        assert p.divide_exact(X + Y) == (X - Y) * (X + ONE)
        assert p.divide_exact(X + ONE.scale(5)) is None

    def test_pow(self):
        assert (X + Y) ** 3 == (X + Y) * (X + Y) * (X + Y)
        assert (X + Y) ** 0 == ONE

    def test_truth_value_is_false_exactly_for_zero(self):
        assert not Polynomial.zero(2) and not X - X
        assert ONE and X and Polynomial.const(2, QQ(-1, 2))
        assert not rf(X - X, Y) and rf(X, Y)


class TestPolyGcd:
    def test_factor_example(self):
        # oracle: divides both exactly and the cofactors are coprime
        p, q = X * X - ONE, X - ONE
        g = poly_gcd(p, q)
        assert p.divide_exact(g) is not None
        assert q.divide_exact(g) is not None
        assert poly_gcd(p.divide_exact(g), q.divide_exact(g)).is_constant()
        assert g == X - ONE

    def test_gcd_with_zero_normalizes(self):
        p = (X * Y).scale(3)
        assert poly_gcd(p, Polynomial.zero(2)) == X * Y
        assert poly_gcd(Polynomial.zero(2), p) == X * Y

    def test_monomial_factor(self):
        assert poly_gcd(X * Y, X) == X

    def test_no_fraction_reaches_the_accumulator(self, monkeypatch):
        # a gcd is defined up to a unit, so the gcd layer runs on integer
        # numerators, and the parser sums its terms in a plain dict
        original, written = arith._accumulate, Counter()

        def spy(out, *args, **kwargs):
            original(out, *args, **kwargs)
            written.update(type(c) for c in out.values())
            return out

        for module in (arith, skewring, analysis):
            monkeypatch.setattr(module, "_accumulate", spy)
        p, q = (X * X - ONE).scale(QQ(1, 2)), (X - ONE).scale(QQ(3, 4))
        assert poly_gcd(p, q) == X - ONE
        assert poly_from_text("1/2*x + 1/3*x", NAMES) == X.scale(QQ(5, 6))
        assert run_scenario(json.loads(load_scenario_text("ore-shift")))["aggregate"] == "pass"
        assert written[int] and not written[Fraction]

    def test_gcd_divides_and_coprime_random(self):
        rng = random.Random(101)
        for _ in range(40):
            a = rand_poly(rng, nonzero=True)
            b = rand_poly(rng, nonzero=True)
            c = rand_poly(rng, nonzero=True)
            p, q = a * c, b * c
            g = poly_gcd(p, q)
            pg, qg = p.divide_exact(g), q.divide_exact(g)
            assert pg is not None and qg is not None
            assert poly_gcd(pg, qg).is_constant()
            # the planted factor divides the gcd
            assert g.divide_exact(poly_gcd(c, g)) is not None
            assert poly_gcd(c, g) == c.monic() or not poly_gcd(pg, qg).is_zero()

    def test_gcd_three_vars(self):
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        one = Polynomial.const(3, 1)
        c = x + y * z + one
        g = poly_gcd(c * (x - y), c * (y + z))
        assert g == c.monic()

    def test_gcd_of_coprime_sum_finishes(self):
        # a coprime pair in 3 variables of total degree 10 and 8; a primitive
        # remainder sequence ran on it for over five minutes
        code = (
            "from skewmon.arith import RatFunc, poly_from_text, poly_gcd, poly_to_text\n"
            "N = ('x', 'y', 'z')\n"
            "def rf(n, d):\n"
            "    return RatFunc(poly_from_text(n, N), poly_from_text(d, N))\n"
            "r = rf('-1/2*x^2*z^2 + 3*y^2*z', 'y^2*z^2 - 2*y*z + 2*x')\n"
            "s = rf('-2/3*x^2*y^2*z^2 - 2/3*x^2*z + y',\n"
            "       'x*y^2*z + 3/2*x^2*y + 4/3*y*z - 3*z^2')\n"
            "t = r + s\n"
            "print(poly_to_text(poly_gcd(t.num, t.den), N))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_lcm(self):
        g = poly_lcm(X * Y, X)
        assert g == X * Y


class TestRatFunc:
    def test_common_denominator_cancels(self):
        x = rf(X)
        assert x.invert() + rf(X - ONE, X) == rf(ONE)

    def test_invert_swaps(self):
        r = rf(X - ONE, X + ONE)
        assert r.invert() == rf(X + ONE, X - ONE)

    def test_normalize_content(self):
        r = rf(X.scale(2) + ONE.scale(2), X.scale(2))
        assert r == rf(X + ONE, X)
        assert poly_to_text(r.den, NAMES) == "1*x"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rf(X, Polynomial.zero(2))

    def test_invert_zero(self):
        with pytest.raises(ZeroDivisionError):
            rf(Polynomial.zero(2)).invert()

    def test_canonical_equality_random(self):
        rng = random.Random(7)
        for _ in range(30):
            a = rand_poly(rng, nonzero=True)
            b = rand_poly(rng, nonzero=True)
            c = rand_poly(rng, nonzero=True)
            r = rf(a, b)
            assert r == rf(a * c, b * c)
            # normalization is idempotent
            assert rf(r.num, r.den) == r

    def test_field_axioms_random(self):
        rng = random.Random(13)
        for _ in range(25):
            r, s, t = (rand_ratfunc(rng) for _ in range(3))
            assert (r + s) + t == r + (s + t)
            assert (r * s) * t == r * (s * t)
            assert r * (s + t) == r * s + r * t
            assert r + s == s + r
            assert r * s == s * r
            if not r.is_zero():
                assert r * r.invert() == rf(ONE)

    def test_pow_negative(self):
        r = rf(X + ONE)
        assert r**-2 == (r * r).invert()

    def test_sum_through_the_gcd_keeps_a_known_factorization(self):
        # x^2 + 1 is not a base factor, so these sums cancel through poly_gcd
        d = X * X + ONE
        one = rf(ONE, d) + rf(X * X, d)
        assert one == rf(ONE) and one.fac == {}
        d = (X + ONE) * d
        single = rf(ONE, d) + rf(X * X, d)
        assert single == rf(X + ONE).invert() and single.fac == rf(X + ONE).invert().fac

    def test_factored_sums_and_products_look_for_no_pivot(self, monkeypatch):
        # the factor keys carry their pivot data, so arithmetic between
        # factored operands never runs the pivot test again
        inv = [rf(f).invert() for f in (X + ONE, X - Y, Y - ONE.scale(2))]
        r, s = rf(Y) * inv[0] * inv[1], rf(X + ONE) * inv[1] * inv[2] ** 2
        t = rf(X) * inv[0] * inv[1] + inv[1]  # cancels x + 1 in the sum
        operands = [r, s, t, -r, r * s]
        assert all(x.fac for x in operands)
        calls = []
        original = arith._pivot
        monkeypatch.setattr(arith, "_pivot", lambda f: calls.append(f) or original(f))
        got = [(x + y, x * y) for x in operands for y in operands]
        assert not calls
        monkeypatch.undo()
        dropped = [RatFunc._raw(x.num, x.den) for x in operands]
        assert got == [(x + y, x * y) for x in dropped for y in dropped]

    def test_construction_through_the_gcd_keeps_a_known_factorization(self):
        # x*(x + 1) is not a base factor, but the reduced denominator x + 1 is
        r = rf(X, X * (X + ONE))
        assert r == rf(X + ONE).invert() and r.fac == rf(X + ONE).invert().fac

    def test_a_denominator_that_divides_the_other_numerator_needs_no_gcd(self, monkeypatch):
        # x^2 + y^2 + 1 is not a base factor, so the product cancels through
        # _cancel, which divides by it before it would run a gcd
        d = X * X + Y * Y + ONE
        r, s = rf(X + Y, d), rf(d * (X - ONE.scale(3)))
        assert r.fac is None
        calls = []
        original = arith.poly_gcd
        monkeypatch.setattr(arith, "poly_gcd", lambda p, q: calls.append((p, q)) or original(p, q))
        got = r * s
        assert not [c for c in calls if not (c[0].is_constant() or c[1].is_constant())]
        monkeypatch.undo()
        assert got == rf((X + Y) * (X - ONE.scale(3)))

    def test_a_one_factor_denominator_is_mapped_once(self):
        # den = x - y + 2 is the one base factor of fac: the map images it
        # once, as the denominator, and reads its factor from that image
        r = rf(X * Y + ONE, X - Y + ONE.scale(2))
        assert list(r.fac.values()) == [1]
        calls = []

        def image(p):  # x -> x + 1, y -> 2y
            calls.append(p)
            return p.substitute_var(0, X + ONE).substitute_var(1, Y.scale(2))

        got = r.map(image)
        assert len(calls) == 2
        want = rf(image(r.num), image(r.den))
        assert got == want and got.fac == want.fac == arith._map_factors(r, image)

    def test_a_map_that_leaves_no_factor_shares_the_empty_factorization(self):
        # x1 -> q*x1 maps the polynomial x1 to q*x1, with no factor to carry
        ctx = build_qshift_algebra(1, 1)
        image = ctx.act_key((1,), ctx.table.var("x1"))
        assert image.fac == {} and image.fac is arith._NO_FACTORS

    @pytest.mark.parametrize("order", ["constant-first", "constant-last"])
    def test_a_laurent_image_of_a_factor_sheds_its_negative_powers(self, order):
        # y -> y/q maps the base factor 1 + x + y to (q + q*x + y)/q, so the
        # image's factor is the polynomial q + q*x + y, whatever term comes first
        t = VariableTable(["x", "y"], [], ["q"])
        g = ScalingAut(t, (1, 1, 1), ((0, 0, 0), (0, 0, -1), (0, 0, 0)))
        x, y, q = (Polynomial.variable(3, i) for i in range(3))
        one = Polynomial.const(3, 1)
        terms = [one, x, y] if order == "constant-first" else [y, x, one]
        factor = Polynomial(3, {e: c for p in terms for e, c in p.terms.items()})
        got = g.apply(RatFunc(one, factor))
        assert got == RatFunc(q, q + q * x + y)
        assert [(key.poly, e) for key, e in got.fac.items()] == [(got.den, 1)]


class TestSubstitute:
    def test_shift(self):
        r = substitute(rf(X * X), {0: rf(X - ONE)})
        assert r == rf(X * X - X.scale(2) + ONE)

    def test_scaling_into_denominator(self):
        # images may be rational: x -> y*x sends 1/x to 1/(y*x)
        r = substitute(rf(X).invert(), {0: rf(Y * X)})
        assert r == rf(ONE, Y * X)

    def test_degenerate(self):
        with pytest.raises(DegenerateSubstitutionError):
            substitute(rf(ONE, X - Y), {0: rf(Y)})

    def test_swap_is_simultaneous(self):
        assert substitute(rf(X * X + Y), {0: rf(Y), 1: rf(X)}) == rf(Y * Y + X)

    def test_polynomial_images_are_not_substituted_again(self):
        # x -> y, y -> x + y sends x*y to y*(x + y), not to (x + y)^2
        assert substitute(rf(X * Y), {0: rf(Y), 1: rf(X + Y)}) == rf(X * Y + Y * Y)

    def test_identity_map(self):
        rng = random.Random(3)
        for _ in range(10):
            r = rand_ratfunc(rng)
            assert substitute(r, {0: rf(X), 1: rf(Y)}) == r

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(10):
            r, s = rand_ratfunc(rng), rand_ratfunc(rng)
            images = {0: rand_ratfunc(rng), 1: rand_ratfunc(rng)}
            try:
                lhs_add = substitute(r + s, images)
                lhs_mul = substitute(r * s, images)
                ra, sa = substitute(r, images), substitute(s, images)
            except DegenerateSubstitutionError:
                continue
            assert lhs_add == ra + sa
            assert lhs_mul == ra * sa


class TestResidues:
    def test_simple_pole_unit(self):
        assert residue_along(rf(ONE, X - Y), X - Y, 0) == rf(ONE)

    def test_no_pole(self):
        assert residue_along(rf(X + Y), X - Y, 0).is_zero()

    def test_higher_order(self):
        with pytest.raises(HigherOrderPoleError):
            residue_along(rf(ONE, (X - Y) * (X - Y)), X - Y, 0)

    def test_invalid_divisor(self):
        with pytest.raises(InvalidDivisorError):
            residue_along(rf(ONE, X), Polynomial.zero(2), 0)
        with pytest.raises(InvalidDivisorError):
            residue_along(rf(ONE, X), X * X - Y, 0)

    def test_pole_order(self):
        assert pole_order(rf(ONE, (X - Y) * (X - Y) * (X + Y)), X - Y, 0) == 2
        assert pole_order(rf(X), X - Y, 0) == 0

    def test_restriction(self):
        r = restrict_to_hyperplane(rf(X * Y), X - Y, 2)
        # x = y + 2
        assert r == rf((Y + ONE.scale(2)) * Y)

    def test_univariate_restriction_oracle(self):
        # parametrize a transverse line and compare with the classical residue
        rng = random.Random(42)
        done = 0
        while done < 50:
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            if a == 0 and b == 0:
                continue
            h = X.scale(a) + Y.scale(b) if a else Y.scale(b)
            c = QQ(rng.randint(-2, 2))
            num = rand_poly(rng, nonzero=True)
            extra = rand_poly(rng, max_deg=1, nterms=2, nonzero=True)
            divisor = h - Polynomial.const(2, c)
            if extra.divide_exact(divisor) is not None:
                continue
            if num.divide_exact(divisor) is not None:
                continue
            r = RatFunc(num, divisor * extra)
            if pole_order(r, h, c) != 1:
                continue
            # point on the hyperplane: pick y, solve for the pivot variable
            if a:
                y0 = QQ(rng.randint(-4, 4))
                x0 = (c - b * y0) / a
            else:
                x0 = QQ(rng.randint(-4, 4))
                y0 = c / b
            point = [x0, y0]
            if extra.evaluate(point) == 0 or num.evaluate(point) == 0:
                continue
            # direction (dx, dy) with h(d) != 0
            dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
            hd = a * dx + b * dy
            if hd == 0:
                continue
            # line x(t) = point + t*d, as univariate rational functions of t
            t = Polynomial.variable(1, 0)
            xt = t.scale(dx) + Polynomial.const(1, x0)
            yt = t.scale(dy) + Polynomial.const(1, y0)

            def along_line(p):
                out = RatFunc.zero(1)
                for e, k in p.terms.items():
                    term = RatFunc.from_poly(Polynomial.const(1, k))
                    term = term * RatFunc.from_poly(xt) ** e[0]
                    term = term * RatFunc.from_poly(yt) ** e[1]
                    out = out + term
                return out

            g = along_line(num) / along_line(divisor * extra)
            t_poly = Polynomial.variable(1, 0)
            if pole_order(g, t_poly, 0) != 1:
                continue
            classical = residue_along(g, t_poly, 0)
            assert classical.is_polynomial() and classical.num.is_constant()
            res_value = residue_along(r, h, c)
            lhs = res_value.num.evaluate(point) / res_value.den.evaluate(point)
            rhs = classical.num.constant_value() * hd
            assert lhs == rhs
            done += 1


class TestTextForms:
    def test_canonical_output(self):
        p = X**2 - Y.scale(QQ(3, 2)) + ONE
        assert poly_to_text(p, NAMES) == "1*x^2 + -3/2*y + 1"

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            p = rand_poly(rng)
            assert poly_from_text(poly_to_text(p, NAMES), NAMES) == p

    def test_ratfunc_text(self):
        p = X**2 - Y.scale(QQ(3, 2)) + ONE
        assert ratfunc_to_text(RatFunc.from_poly(p), NAMES) == poly_to_text(p, NAMES)
        r = RatFunc(p, X - Y)
        json_form = ratfunc_to_json(r, NAMES)
        assert ratfunc_to_text(r, NAMES) == f"({json_form['num']})/({json_form['den']})"
        assert ratfunc_to_text(r, NAMES) == "(1*x^2 + -3/2*y + 1)/(1*x + -1*y)"

    def test_human_variants(self):
        assert poly_from_text("x - y", NAMES) == X - Y
        assert poly_from_text("-x + 2", NAMES) == -X + ONE.scale(2)
        assert poly_from_text("3/2*x*y^2", NAMES) == (X * Y * Y).scale(QQ(3, 2))
        assert poly_from_text("0", NAMES).is_zero()
