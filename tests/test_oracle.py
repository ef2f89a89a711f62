"""Differential tests against sympy as an independent oracle.

Each test draws seeded random inputs, computes the result with skewmon and
with sympy, and collects every disagreement, so a failure reports how many
cases disagree and the first few of them.  Rational-function results are
compared with ``sympy.cancel(got - want) == 0``.  The center search is
checked on fixed tables instead, against sympy's ``linsolve``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_smith  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skewmon.actions import LATTICE, Context, Group, ScalingAut, ShiftAut, VariableTable  # noqa: E402
from skewmon.analysis import _SpanReducer, center_candidates, smith_normal_form  # noqa: E402
from skewmon.arith import (  # noqa: E402
    QQ,
    Polynomial,
    RatFunc,
    _cancel,
    _pseudo_rem,
    _strip,
    pole_order,
    poly_gcd,
    residue_along,
    restrict_to_hyperplane,
    substitute,
)
from skewmon.constructors import AlgebraSpec  # noqa: E402
from skewmon.errors import DegenerateSubstitutionError, HigherOrderPoleError  # noqa: E402

NV = 3
SYMS = sympy.symbols(f"x0:{NV}")
CASES = 100


def to_sympy(r, syms=SYMS):
    if isinstance(r, RatFunc):
        return to_sympy(r.num, syms) / to_sympy(r.den, syms)
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**d for s, d in zip(syms, e)])
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


def _shift_mismatches(got, p, shifts, syms=SYMS):
    """Where ``got`` disagrees with ``p`` shifted by x_i -> x_i + a through
    ``substitute_var`` and through sympy, or keeps an integral Fraction."""
    out = []
    want = p
    for i, a in shifts:
        image = Polynomial.variable(p.nvars, i) + Polynomial.const(p.nvars, a)
        want = want.substitute_var(i, image)
    if got != want:
        out.append("substitute_var")
    oracle = sympy.expand(to_sympy(p, syms).subs(
        {syms[i]: syms[i] + sympy.Rational(a.numerator, a.denominator) for i, a in shifts},
        simultaneous=True,
    ))
    if sympy.expand(to_sympy(got, syms) - oracle) != 0:
        out.append("sympy")
    if any(type(c) is not int and c.denominator == 1 for c in got.terms.values()):
        out.append("integral Fraction")
    return out


def test_shift_vars():
    # a Taylor shift of each column, against Horner substitution and sympy;
    # offsets are integers or Fractions, and one to three variables move
    rng = random.Random(83)
    mismatches = []
    for _ in range(CASES):
        p = rand_poly(rng, max_deg=rng.randint(0, 5), nterms=5)
        if rng.random() < 0.5:
            p = p.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        moved = rng.sample(range(NV), rng.randint(1, NV))
        shifts = tuple(
            (i, rng.choice([rng.randint(-3, 3) or 1, Fraction(rng.randint(-5, 5) or 1, 2)]))
            for i in moved
        )
        got = p.shift_vars(shifts)
        bad = _shift_mismatches(got, p, shifts)
        if bad:
            mismatches.append((to_sympy(p), shifts, bad))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def test_shift_vars_edge_cases():
    x0, x1 = (Polynomial.variable(NV, i) for i in range(2))
    zero, three = Polynomial.zero(NV), Polynomial.const(NV, 3)
    assert zero.shift_vars(((0, 1),)) == zero
    assert three.shift_vars(((0, 1), (1, Fraction(1, 2)))) == three
    # two variables in one call; half-integer offsets, integral results
    p = (x0 * x1).scale(4)
    shifts = ((0, Fraction(1, 2)), (1, Fraction(-1, 2)))
    got = p.shift_vars(shifts)
    assert not _shift_mismatches(got, p, shifts)
    assert got.terms == {(1, 1, 0): 4, (0, 1, 0): 2, (1, 0, 0): -2, (0, 0, 0): -1}
    assert all(type(c) is int for c in got.terms.values())
    # a polynomial free of the shifted variables comes back as itself
    q = rand_poly(random.Random(5)).substitute_var(0, three)
    assert q.shift_vars(((0, 7),)) is q


def test_shift_aut_moves_only_the_acted_variables():
    # acted x0, x1; fixed y; parameter q: a shift never touches y or q
    t = VariableTable(["x0", "x1"], ["y"], ["q"])
    syms = sympy.symbols("x0 x1 y q")
    rng = random.Random(89)
    mismatches = []
    for _ in range(CASES):
        offsets = (rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2), 0, 0)
        aut = ShiftAut(t, offsets)
        assert aut.shifts == tuple((i, c) for i, c in enumerate(offsets) if c)
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(0, 3) for _ in range(4))
            terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
        p = Polynomial(4, terms)
        got = aut.apply_poly(p)
        bad = _shift_mismatches(got, p, aut.shifts, syms)
        if bad:
            mismatches.append((to_sympy(p, syms), offsets, bad))
        fixed = Polynomial(4, {(0, 0) + e[2:]: c for e, c in terms.items()})
        if aut.apply_poly(fixed) is not fixed:
            mismatches.append((to_sympy(fixed, syms), offsets, ["moved y or q"]))
    assert not mismatches, f"{len(mismatches)} of {CASES} disagree, e.g. {mismatches[:3]}"


def rand_fractional_poly(rng, max_deg=2, nterms=3):
    """A nonzero polynomial with coefficients n/d for d in 1, 2, 3, 4, 6, whose
    numerators are often multiples of 2 or 3, so that a product or a sum can
    cancel a factor of the common denominator."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, nterms)):
            e = [0] * NV
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(NV)] += 1
            c = Fraction(rng.randint(-3, 3) * rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 3, 4, 6]))
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
        p = Polynomial(NV, terms)
        if not p.is_zero():
            return p


def test_sums_and_products_of_fractional_polynomials():
    rng = random.Random(97)
    mismatches = []
    for i in range(CASES):
        p = rand_fractional_poly(rng)
        # every fourth q is a constant, which scales p
        q = rand_fractional_poly(rng, max_deg=0 if i % 4 == 0 else 2)
        a, b = to_sympy(p), to_sympy(q)
        cases = [("+", p + q, a + b), ("-", p - q, a - b), ("*", p * q, a * b),
                 ("q*p*p", q * p * p, b * a * a), ("p-p", p - p, 0), ("p**2", p**2, a**2)]
        for name, got, want in cases:
            if got != from_sympy(sympy.expand(want)):
                mismatches.append((name, a, b))
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


def _cancel_pair(rng, shape):
    """A pair (p, q) of one of four shapes: 0 a planted q | p with q neither a
    monomial nor monic nor integral, 1 a proper divisor p of q, 2 a coprime
    pair, 3 a shared proper factor with q not dividing p."""
    while True:
        a, b, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if shape == 0:
            q = rand_fractional_poly(rng)
            if len(q.ints) > 1 and q.denom != 1 and q != q.monic():
                return a * q, q
        elif shape == 1:
            if not (a.is_constant() or b.is_constant()):
                return a, a * b
        elif shape == 2:
            if from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).is_constant():
                return a, b
        elif not h.is_constant():
            p, q = a * h, b * h
            if sympy.div(to_sympy(p), to_sympy(q), *SYMS, domain=sympy.QQ)[1] != 0:
                return p, q


def test_cancel():
    # (g, p/g, q/g) for the monic gcd g; _cancel tries q as the divisor
    # first, so shape 0 takes the division and the others the gcd after a miss
    rng = random.Random(83)
    mismatches = []
    for i in range(CASES):
        p, q = _cancel_pair(rng, i % 4)
        g = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).monic()
        want = tuple(from_sympy(sympy.div(to_sympy(x), to_sympy(g), *SYMS, domain=sympy.QQ)[0])
                     for x in (p, q))
        if _cancel(p, q) != (g, *want):
            mismatches.append((i % 4, to_sympy(p), to_sympy(q)))
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
    # a dividend free of the pivot x_v has no divisor of degree 1 in x_v
    x0, x1, x2 = (Polynomial.variable(NV, i) for i in range(NV))
    free = [
        (Polynomial(NV, terms), f) for f in (x0 - x1, x1 * x2 - x0 + Polynomial.const(NV, 1))
        for terms in ({(0, 1, 1): 2, (0, 0, 0): 1}, {(0, 2, 0): 1, (0, 0, 2): 1}, {(0, 0, 0): 3})
    ]
    for p, f in free:
        assert sympy.div(to_sympy(p), to_sympy(f), *SYMS, domain=sympy.QQ)[1] != 0
        assert _strip(p, f) == (0, p)


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
    # takes its univariate branch: Euclid on the integer numerators
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
    rng, wide_rng = random.Random(53), random.Random(54)
    mismatches = []
    for _ in range(CASES):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            # a dependent row exercises rank deficiency
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        # a wider draw: larger entries, no rows at all, a zero row or column
        wm, wn = wide_rng.randint(0, 5), wide_rng.randint(1, 5)
        wide = [[wide_rng.randint(-12, 12) for _ in range(wn)] for _ in range(wm)]
        if wm and wide_rng.random() < 0.3:
            wide[wide_rng.randrange(wm)] = [0] * wn
        if wide_rng.random() < 0.3:
            column = wide_rng.randrange(wn)
            for row in wide:
                row[column] = 0
        for rows, m, n in ((rows, m, n), (wide, wm, wn)):
            diag = sympy_smith(sympy.Matrix(m, n, sum(rows, [])), domain=sympy.ZZ)
            want = sorted(abs(int(diag[i, i])) for i in range(min(m, n)) if diag[i, i])
            if smith_normal_form(rows) != (len(want), want):
                mismatches.append(rows)
    assert not mismatches, f"{len(mismatches)} of {2 * CASES} disagree, e.g. {mismatches[:3]}"


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
        # restriction: sympy's subs + cancel when r is regular on the
        # hyperplane; a denominator vanishing there must raise
        if m:
            try:
                restrict_to_hyperplane(r, h, c)
            except DegenerateSubstitutionError:
                pass
            else:
                mismatches.append(("no DegenerateSubstitutionError", r_sym, hc))
        elif sympy.cancel(
            to_sympy(restrict_to_hyperplane(r, h, c)) - r_sym.subs(SYMS[pivot], image)
        ) != 0:
            mismatches.append(("restriction", r_sym, hc))
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


def _invariant_space(table, substitutions, degree):
    """Monomials of degree <= ``degree`` in the non-parameter variables, and a
    basis (coefficient vectors over them) of the polynomials fixed by every
    substitution, from sympy's linsolve on the coefficient equations."""
    syms = sympy.symbols(table.names)
    free = syms[: table.n_acted + table.n_fixed]
    monos = [
        sympy.Mul(*[x**d for x, d in zip(free, e)])
        for e in product(range(degree + 1), repeat=len(free))
        if sum(e) <= degree
    ]
    unknowns = sympy.symbols(f"a0:{len(monos)}")
    generic = sum(a * m for a, m in zip(unknowns, monos))
    named = dict(zip(table.names, syms))
    equations = []
    for subs in substitutions:
        moved = generic.subs(subs(named), simultaneous=True) - generic
        equations += sympy.Poly(sympy.numer(sympy.together(moved)), *free).coeffs()
    (solution,) = sympy.linsolve(equations, unknowns)
    params = [a for a in unknowns if a in solution.free_symbols]
    basis = [
        [sympy.cancel(v.subs({b: int(b == a) for b in params})) for v in solution]
        for a in params
    ]
    return syms, free, monos, basis


def _rank(rows):
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field().rank()


_SWAP = lambda s: {s["x1"]: s["x2"], s["x2"]: s["x1"]}  # noqa: E731


def _diagonal_shift_table():
    t = VariableTable(["x1", "x2"], ["x3"])
    ctx = Context(t, LATTICE, [ShiftAut(t, (-1, -1, 0))],
                  group=Group.from_generators(t, [(1, 0, 2)]))
    return ctx, [lambda s: {s["x1"]: s["x1"] - 1, s["x2"]: s["x2"] - 1}, _SWAP]


def _qscaling_table():
    # x1 -> 2q x1, x2 -> x2/(2q): non-unit rational multipliers
    t = VariableTable(["x1", "x2"], ["x3"], ["q"])
    g = ScalingAut(t, (2, "1/2", 1, 1), ((0, 0, 0, 1), (0, 0, 0, -1), (0,) * 4, (0,) * 4))
    ctx = Context(t, LATTICE, [g], group=Group.from_generators(t, [(1, 0, 2, 3)]))
    q = sympy.Symbol("q")
    return ctx, [lambda s: {s["x1"]: 2 * q * s["x1"], s["x2"]: s["x2"] / (2 * q)}, _SWAP]


def _parameter_denominator_table():
    # the table of test_parameter_scaling_clears_denominators: x -> x/q puts
    # q in the denominator of every image of a power of x
    t = VariableTable(["x", "y"], [], ["q"])
    g = ScalingAut(t, (1, 1, 1), ((0, 0, -1), (0, 0, 1), (0, 0, 0)))
    q = sympy.Symbol("q")
    return Context(t, LATTICE, [g]), [lambda s: {s["x"]: s["x"] / q, s["y"]: q * s["y"]}]


@pytest.mark.parametrize("build", [
    _diagonal_shift_table, _qscaling_table, _parameter_denominator_table,
], ids=["shift", "q-scaling", "parameter-denominator"])
def test_center_candidates_span_the_invariant_space(build):
    ctx, substitutions = build()
    degree = 3
    syms, free, monos, want = _invariant_space(ctx.table, substitutions, degree)
    got = []
    for b in center_candidates(AlgebraSpec(ctx, {}, []), degree):
        poly = sympy.Poly(sympy.cancel(to_sympy(b, syms)), *free)
        got.append([poly.coeff_monomial(m) for m in monos])
    # equal dimensions and a joint rank of that dimension: the same space
    assert len(got) == len(want) == _rank(want) == _rank(got) == _rank(want + got)


# Sparse vectors for the span reducer, over Q and over Q(q).  Four
# coordinates make every list of five or more vectors dependent.
WIDTH = 4
Q = sympy.Symbol("q")
rational_entries = st.fractions(-3, 3, max_denominator=3).filter(bool).map(QQ)
q_linear = st.builds(lambda a, b: Polynomial(1, {(1,): a, (0,): b}),
                     st.integers(-2, 2), st.integers(-2, 2)).filter(bool)
q_entries = st.builds(RatFunc, q_linear, q_linear)


def _sparse_vectors(entries):
    return st.lists(st.dictionaries(st.integers(0, WIDTH - 1), entries, max_size=WIDTH),
                    max_size=7)


def _dense(vec):
    return [
        to_sympy(vec[c], (Q,)) if isinstance(vec.get(c), RatFunc) else sympy.Rational(vec.get(c, 0))
        for c in range(WIDTH)
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_sparse_vectors(rational_entries), _sparse_vectors(q_entries)))
def test_reducer_accepts_exactly_the_vectors_that_raise_the_rank(vectors):
    dense = [_dense(v) for v in vectors]
    reducer = _SpanReducer()
    rank = 0
    for i, vec in enumerate(vectors):
        accepted = reducer.add(vec)
        prefix_rank = _rank(dense[: i + 1])
        assert accepted == (prefix_rank > rank)
        rank = prefix_rank
        assert len(reducer.pivot_rows) == rank
    # echelon rows e_p + tail span the same space
    rows = reducer.pivot_rows
    dense_rows = [_dense({p: QQ(1), **tail}) for p, tail in rows.items()]
    assert (_rank(dense_rows) if rows else 0) == rank
    if dense:
        assert _rank(dense_rows + dense) == rank
    if not any(isinstance(v, RatFunc) for vec in vectors for v in vec.values()):
        assert {type(v) for tail in rows.values() for v in tail.values()} <= {int, Fraction}
