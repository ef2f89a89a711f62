"""Differential tests against sympy as an independent oracle.

Each test draws seeded random inputs, computes the result with skewmon and
with sympy, and collects every disagreement, so a failure reports how many
cases disagree and the first few of them.  Rational-function results are
compared with ``sympy.cancel(got - want) == 0``.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_smith  # noqa: E402

from skewmon.analysis import smith_normal_form  # noqa: E402
from skewmon.arith import (  # noqa: E402
    Polynomial,
    RatFunc,
    _pseudo_rem,
    _strip,
    pole_order,
    poly_gcd,
    residue_along,
    substitute,
)
from skewmon.errors import DegenerateSubstitutionError, HigherOrderPoleError  # noqa: E402

NV = 3
SYMS = sympy.symbols(f"x0:{NV}")
CASES = 100


def to_sympy(r):
    if isinstance(r, RatFunc):
        return to_sympy(r.num) / to_sympy(r.den)
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**d for s, d in zip(SYMS, e)])
        for e, c in r.terms.items()
    ])


def from_sympy(expr):
    poly = sympy.Poly(expr, *SYMS)
    return Polynomial(NV, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


def rand_poly(rng, max_deg=2, nterms=3):
    while True:
        terms = {}
        for _ in range(rng.randint(1, nterms)):
            e = [0] * NV
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(NV)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-4, 4)
        p = Polynomial(NV, terms)
        if not p.is_zero():
            return p


def rand_ratfunc(rng):
    return RatFunc(rand_poly(rng), rand_poly(rng, max_deg=1, nterms=2))


def _substitution_mismatches(seed, image):
    rng = random.Random(seed)
    mismatches = []
    compared = 0
    while compared < CASES:
        f = rand_ratfunc(rng)
        targets = rng.sample(range(NV), rng.randint(1, NV))
        images = {i: image(rng) for i in targets}
        try:
            got = substitute(f, images)
        except DegenerateSubstitutionError:
            continue
        compared += 1
        want = to_sympy(f).subs(
            {SYMS[i]: to_sympy(img) for i, img in images.items()}, simultaneous=True
        )
        if sympy.cancel(to_sympy(got) - want) != 0:
            mismatches.append((to_sympy(f), {SYMS[i]: to_sympy(v) for i, v in images.items()}))
    return mismatches


def test_substitute_polynomial_images():
    mismatches = _substitution_mismatches(
        41, lambda rng: RatFunc.from_poly(rand_poly(rng))
    )
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_substitute_rational_images():
    mismatches = _substitution_mismatches(43, rand_ratfunc)
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_poly_gcd():
    rng = random.Random(47)
    mismatches = []
    for _ in range(CASES):
        h = rand_poly(rng)
        p, q = rand_poly(rng) * h, rand_poly(rng) * h
        want = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).monic()
        if poly_gcd(p, q) != want:
            mismatches.append((to_sympy(p), to_sympy(q)))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_divide_exact():
    rng = random.Random(61)
    mismatches = []
    for i in range(CASES):
        d = rand_poly(rng)
        # every other dividend is a planted multiple of the divisor
        p = rand_poly(rng) * d if i % 2 else rand_poly(rng, max_deg=3, nterms=4)
        quo, rem = sympy.div(to_sympy(p), to_sympy(d), *SYMS, domain=sympy.QQ)
        want = from_sympy(quo) if rem == 0 else None
        if p.divide_exact(d) != want:
            mismatches.append((to_sympy(p), to_sympy(d)))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_strip_by_base_factor():
    # f = c*x_v + r with r free of x_v, planted in p up to three times;
    # _strip's synthetic division must find sympy's multiplicity and cofactor
    rng = random.Random(79)
    mismatches = []
    for _ in range(CASES):
        v = rng.randrange(NV)
        rest = {e: c for e, c in rand_poly(rng, nterms=2).terms.items() if not e[v]}
        rest[tuple(int(i == v) for i in range(NV))] = rng.choice([-3, -2, -1, 1, 2, 3])
        f = Polynomial(NV, rest).monic()
        p = rand_poly(rng, max_deg=3, nterms=4) * f ** rng.randint(0, 3)
        cap = rng.choice([None, 1, 2])
        want_k, want = 0, to_sympy(p)
        while want_k != cap:
            quo, rem = sympy.div(want, to_sympy(f), *SYMS, domain=sympy.QQ)
            if rem != 0:
                break
            want_k, want = want_k + 1, quo
        if _strip(p, f, cap) != (want_k, from_sympy(want)):
            mismatches.append((to_sympy(p), to_sympy(f), cap))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_pseudo_remainder():
    rng = random.Random(67)
    mismatches = []
    compared = 0
    while compared < CASES:
        a, b = rand_poly(rng, max_deg=3, nterms=4), rand_poly(rng)
        v = rng.randrange(NV)
        if not 1 <= b.degree_in(v) <= a.degree_in(v):
            continue
        compared += 1
        # sympy takes the first generator as the main variable
        gens = (SYMS[v],) + SYMS[:v] + SYMS[v + 1:]
        want = sympy.prem(to_sympy(a), to_sympy(b), *gens)
        if _pseudo_rem(a.coeffs_in(v), b.coeffs_in(v)) != from_sympy(want).coeffs_in(v):
            mismatches.append((to_sympy(a), to_sympy(b), SYMS[v]))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def rand_univariate(rng, v, low=0, high=4):
    """A polynomial in x_v alone of degree in [low, high], with rational
    coefficients and gaps: a missing degree lets a remainder step drop the
    degree by more than one."""
    while True:
        degrees = rng.sample(range(high + 1), rng.randint(1, high + 1))
        p = Polynomial(NV, {
            tuple(d if i == v else 0 for i in range(NV)):
                Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 3, 6]), rng.choice([1, 1, 2, 3]))
            for d in degrees
        })
        if low <= p.degree_in(v):
            return p


def test_pseudo_remainder_of_rational_views():
    rng = random.Random(71)
    mismatches = []
    for i in range(CASES):
        a = rand_univariate(rng, 0, 1, 5)
        b = rand_univariate(rng, 0, 1, a.degree_in(0))
        if i % 2:
            b = b.monic()  # by a monic divisor the pseudo-remainder is the remainder
        view = lambda p: {e[0]: c for e, c in p.terms.items()}  # noqa: E731
        want = sympy.prem(to_sympy(a), to_sympy(b), SYMS[0])
        if _pseudo_rem(view(a), view(b)) != view(from_sympy(want)):
            mismatches.append((to_sympy(a), to_sympy(b)))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_poly_gcd_of_univariate_pairs():
    # both cofactors and the planted factor lie in one variable, so poly_gcd
    # takes its univariate (monic Euclid) branch
    rng = random.Random(73)
    mismatches = []
    for _ in range(CASES):
        v = rng.randrange(NV)
        h = rand_univariate(rng, v, 1, 2)
        p = rand_univariate(rng, v, 0, 3) * h
        q = rand_univariate(rng, v, 0, 3) * h
        want = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).monic()
        if poly_gcd(p, q) != want:
            mismatches.append((to_sympy(p), to_sympy(q)))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_smith_normal_form():
    rng = random.Random(53)
    mismatches = []
    for _ in range(CASES):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            # a dependent row exercises rank deficiency
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        diag = sympy_smith(sympy.Matrix(rows), domain=sympy.ZZ)
        want = sorted(abs(int(diag[i, i])) for i in range(min(m, n)) if diag[i, i])
        if smith_normal_form(rows) != (len(want), want):
            mismatches.append(rows)
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def _off_hyperplane(rng, make, pivot, image):
    """A draw of make(rng) that does not vanish on the hyperplane pivot = image."""
    while True:
        p = make(rng)
        if sympy.expand(to_sympy(p).subs(SYMS[pivot], image)) != 0:
            return p


def test_pole_order_and_residue():
    rng = random.Random(59)
    mismatches = []
    planted = {0: 0, 1: 0, 2: 0}
    for _ in range(CASES):
        # a hyperplane h = c; the pivot is its first variable, as in skewmon
        support = sorted(rng.sample(range(NV), rng.randint(1, NV)))
        h = Polynomial(NV, {
            **{tuple(int(j == i) for j in range(NV)): rng.choice([-3, -2, -1, 1, 2, 3])
               for i in support},
            (0,) * NV: rng.randint(-3, 3),
        })
        c = rng.randint(-3, 3)
        pivot = support[0]
        image = sympy.solve(to_sympy(h) - c, SYMS[pivot])[0]
        # r = num / (den * (h - c)^m) with num and den regular on the hyperplane
        m = rng.choice([0, 1, 2])
        planted[m] += 1
        num = _off_hyperplane(rng, rand_poly, pivot, image)
        den = _off_hyperplane(rng, lambda rng: rand_poly(rng, max_deg=1, nterms=2), pivot, image)
        linear = h - Polynomial.const(NV, c)
        r = RatFunc(num, den * linear**m)

        r_sym, hc = to_sympy(r), to_sympy(linear)
        want_order, rest = 0, sympy.denom(sympy.cancel(r_sym))
        while sympy.rem(rest, hc, *SYMS) == 0:
            want_order, rest = want_order + 1, sympy.quo(rest, hc, *SYMS)
        if pole_order(r, h, c) != want_order or want_order != m:
            mismatches.append(("order", r_sym, hc, m))
            continue
        if m == 2:
            try:
                residue_along(r, h, c)
            except HigherOrderPoleError:
                continue
            mismatches.append(("no HigherOrderPoleError", r_sym, hc))
            continue
        want = sympy.cancel(hc * r_sym).subs(SYMS[pivot], image)
        if sympy.cancel(to_sympy(residue_along(r, h, c)) - want) != 0:
            mismatches.append(("residue", r_sym, hc))
    assert min(planted.values()) > 0
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"
