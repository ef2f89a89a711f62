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
from skewmon.arith import Polynomial, RatFunc, poly_gcd, substitute  # noqa: E402
from skewmon.errors import DegenerateSubstitutionError  # noqa: E402

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
