"""Exact arithmetic tower: rationals, sparse multivariate polynomials, rational
functions.

Representation
--------------
A polynomial in ``n`` variables is stored as integer numerators over one
common denominator (the rational content of Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 7): a dict ``ints`` mapping
exponent tuples (length ``n``, one entry per variable) to nonzero ``int``
numerators, and a positive ``int`` ``denom``::

    x0^2*x1 + 3/2   ->   ints {(2, 1): 2, (0, 0): 3}, denom 2

The pair is kept in lowest terms: gcd(denom, every numerator) = 1, and the
zero polynomial (the empty dict) has denom 1, so structural equality is
equality.  The kernels (sums, products, scaling, shifts, factor stripping,
gcds) run on plain ``int``s and reduce a result once, by a gcd pass over its
numerators that stops when the gcd reaches 1; with denom 1 there is nothing
to reduce.  ``Polynomial.terms`` is a read-only rational view
``{exponents: QQ(numerator, denom)}``; exact rationals enter and leave
through ``QQ`` (an ``int`` when integral, a ``fractions.Fraction``
otherwise), since ``int / int`` would be a float; no floating point enters
anywhere in this module.

Term order is graded lexicographic (grlex) over the variable order of the
table: compare total degree first, then the exponent tuples lexicographically.
Canonical forms are defined against this order: the canonical representative
of a polynomial up to scalars has grlex leading coefficient 1, and a
``RatFunc`` stores a coprime numerator/denominator pair whose denominator is
canonical in that sense.

A ``RatFunc`` may also carry its denominator factored, as an exponent dict
over *base factors*: grlex-monic polynomials ``c*x_v + r`` of degree 1 in some
pivot variable ``x_v``, with ``c`` a nonzero rational and ``r`` free of
``x_v``.  Such a factor is primitive of degree 1 in ``x_v``, hence
irreducible, so distinct base factors are coprime.  The root-hyperplane forms
``x_i - x_j + c`` and ``q*x_i - x_j`` are base factors.  A factor's key
carries its pivot data, found once when the factor is recognized.  Between
factored operands, the gcd of two denominators is an exponent minimum, the lcm
a maximum, and a numerator is cancelled by synthetic division in each factor's
pivot variable, so no polynomial gcd runs.  The division is by the factor's
numerators, a primitive integer polynomial: by Gauss's lemma a quotient by it
is integral, so every step is an exact integer division and the first inexact
one proves a miss.
The expanded ``den`` is kept as well and stays the canonical form; an operand
without a factorization (``fac`` is None) takes the gcd path.

This module is the only one that builds term dicts, canonical pairs and
factorizations.  Automorphisms reach them through ``RatFunc.map`` (ring
automorphisms of the polynomial ring: shifts and permutations) and
``RatFunc.scale_vars`` (monomial scalings), and a hyperplane ``h = c`` is the
base factor ``(h - c).monic()``.

A shift x_i -> x_i + a is a Taylor shift (``Polynomial.shift_vars``): the
terms are grouped into columns {degree in x_i: coefficient} keyed by the other
exponents, and a column of degree n is shifted in place by n synthetic
divisions, the classical O(n^2) method (von zur Gathen & Gerhard, ISSAC 1997).
A ``RatFunc`` is immutable, so ``RatFunc.image(aut)`` keeps its image under
each automorphism object it has been mapped by; ``Context.act_key`` goes
through it, and a coefficient met again under the same key is not mapped again.

GCD is computed exactly by content/primitive-part recursion with the
subresultant pseudo-remainder sequence (Collins 1967; Brown 1971) in a chosen
main variable v, on views ``{degree in v: coefficient}`` of the operands.  Its
exact divisions keep coefficient growth polynomial.  A gcd is defined up to a
unit, so ``poly_gcd`` drops the operands' denominators and the recursion runs
on integer numerators; one pseudo-remainder also serves the univariate base,
Euclid with each remainder cut to its primitive part.  No modular or
heuristic shortcuts are used.  A cancellation first tries the denominator as
the divisor: when it divides, it is the gcd up to a unit, and none is computed.
"""

import math
from fractions import Fraction
from operator import add, sub

from .errors import (
    ContextMismatchError,
    DegenerateSubstitutionError,
    HigherOrderPoleError,
    InvalidDivisorError,
)


def QQ(a, b=None):
    """The exact rational ``a`` (or ``a / b``): an ``int`` when it is integral,
    a ``Fraction`` otherwise.  ``a`` may also be a string such as ``"3/2"``."""
    if b is None:
        if type(a) is int:
            return a
        if type(a) is not Fraction:
            a = Fraction(a)
    elif type(a) is int and type(b) is int and not a % b:
        return a // b
    else:
        a = Fraction(a, b)
    return a.numerator if a.denominator == 1 else a


#: Degree of the zero polynomial.  A sentinel for comparisons only; it never
#: participates in coefficient arithmetic.
NEG_INF = float("-inf")


def _grlex(e):
    """Sort key of the grlex term order: total degree, then lexicographic."""
    return (sum(e), e)


def _accumulate(out, terms, coeff=None, shift=None):
    """Add ``(key, coefficient)`` terms into the sparse dict ``out`` in place
    and return it: coefficients times ``coeff`` and exponent keys moved by
    ``shift`` when given, and keys whose sum is zero deleted.  ``out`` must be
    a new dict, never an operand's own."""
    for key, c in terms:
        if shift is not None:
            key = tuple(map(add, key, shift))
        if coeff is not None:
            c = c * coeff
        s = out.get(key)
        c = c if s is None else s + c
        if c:  # an int, or a QQ or RatFunc in skew sums and reducer rows
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _content(ints, g=0):
    """gcd of ``g`` and every value of ``ints``, stopping once it is 1."""
    for c in ints.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _reduced(nvars, ints, denom):
    """The polynomial ``ints / denom`` in lowest terms; the numerators need
    not be reduced against the positive ``denom``."""
    if denom != 1:
        g = _content(ints, denom)
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            denom //= g
    return Polynomial._raw(nvars, ints, denom)


def _over_lcm(terms):
    """``(numerators, denominator)`` of a dict of nonzero exact rationals
    (``int`` or ``Fraction``), over the lcm of their denominators.  That pair
    is in lowest terms already: each prime power of the lcm divides some
    term's denominator fully, and that term's numerator is prime to it."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}, denom


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients, stored
    as integer numerators ``ints`` over one positive denominator ``denom`` in
    lowest terms (see the module docstring)."""

    __slots__ = ("nvars", "ints", "denom")

    def __init__(self, nvars, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ContextMismatchError(
                    f"bad exponent vector {exps} for {nvars} variables"
                )
            coeff = QQ(coeff)
            if coeff != 0:
                clean[tuple(exps)] = coeff
        self.nvars = nvars
        self.ints, self.denom = _over_lcm(clean)

    @classmethod
    def _raw(cls, nvars, ints, denom=1):
        # internal fast path: caller guarantees nonzero int numerators in
        # lowest terms over denom
        p = object.__new__(cls)
        p.nvars = nvars
        p.ints = ints
        p.denom = denom
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = QQ(c)
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise ContextMismatchError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    @property
    def terms(self):
        """Read-only rational view ``{exponents: coefficient}``; with denom 1
        it is the stored dict itself."""
        denom = self.denom
        if denom == 1:
            return self.ints
        return {e: QQ(c, denom) for e, c in self.ints.items()}

    def coefficients(self):
        """A new dict ``{exponents: coefficient}``, each coefficient an exact
        rational as ``QQ`` gives it; unlike ``terms``, the caller may keep it."""
        denom = self.denom
        if denom == 1:
            return dict(self.ints)
        return {e: QQ(c, denom) for e, c in self.ints.items()}

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def is_constant(self):
        return not self.ints or (len(self.ints) == 1 and not any(next(iter(self.ints))))

    def constant_value(self):
        if not self.ints:
            return Fraction(0)
        ((exps, coeff),) = self.ints.items()
        if any(exps):
            raise ValueError("polynomial is not constant")
        return Fraction(coeff, self.denom)

    def total_degree(self):
        if not self.ints:
            return NEG_INF
        return max(sum(e) for e in self.ints)

    def degree_in(self, var):
        if not self.ints:
            return NEG_INF
        return max(e[var] for e in self.ints)

    def variables_present(self):
        present = set()
        for e in self.ints:
            for i, d in enumerate(e):
                if d:
                    present.add(i)
        return present

    def leading_term(self):
        """Return ``(exponents, coefficient)`` of the grlex-leading term."""
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.ints, key=_grlex)
        return e, QQ(self.ints[e], self.denom)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ContextMismatchError("polynomials over different variable tables")

    def _combine(self, other, sign):
        """self + sign*other for sign 1 or -1, over the lcm of the denominators."""
        da, db = self.denom, other.denom
        if da == db:
            out = _accumulate(dict(self.ints), other.ints.items(), coeff=None if sign == 1 else -1)
            return _reduced(self.nvars, out, da)
        g = math.gcd(da, db)
        ka, kb = db // g, da // g
        out = _accumulate({e: c * ka for e, c in self.ints.items()}, other.ints.items(),
                          coeff=sign * kb)
        return _reduced(self.nvars, out, da * ka)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if not self.ints:
            return other
        if not other.ints:
            return self
        return self._combine(other, 1)

    def __neg__(self):
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.ints.items()}, self.denom)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self._combine(other, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        # iterate over the shorter operand outside
        p, q = (self, other) if len(self.ints) <= len(other.ints) else (other, self)
        a, b = p.ints, q.ints
        if len(a) == 1:
            ((ea, ca),) = a.items()
            if not any(ea):  # a constant scales the other operand
                return q if ca == p.denom == 1 else q._scaled(ca, p.denom)
        elif not a:
            return p
        da, db = p.denom, q.denom
        den = 1
        if da != 1 or db != 1:
            # Gauss's lemma: the content of a product is the product of the
            # contents, so a denominator can share a factor only with the
            # other operand's content; cancel it there
            ga, gb = _content(b, da), _content(a, db)
            if ga != 1:
                b = {e: c // ga for e, c in b.items()}
            if gb != 1:
                a = {e: c // gb for e, c in a.items()}
            den = da // ga * (db // gb)
        out = {}
        for ea, ca in a.items():
            _accumulate(out, b.items(), coeff=ca, shift=ea)
        return Polynomial._raw(self.nvars, out, den)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not k:
            return Polynomial.const(self.nvars, 1)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def _scaled(self, n, d):
        """self * n/d for a nonzero self and coprime ints n != 0, d > 0.  Only
        n with denom and d with the numerators can share a factor."""
        ints, denom = self.ints, self.denom
        g = math.gcd(denom, n)
        h = _content(ints, d) if d != 1 else 1
        n, denom, d = n // g, denom // g, d // h
        if n != 1 or h != 1:
            ints = {e: c // h * n for e, c in ints.items()}
        return Polynomial._raw(self.nvars, ints, denom * d)

    def scale(self, c):
        c = QQ(c)
        if c == 0 or not self.ints:
            return Polynomial.zero(self.nvars)
        return self._scaled(c.numerator, c.denominator)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.denom == other.denom and self.ints == other.ints

    __hash__ = None

    # -- content and normal forms ---------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        return Fraction(_content(self.ints), self.denom)

    def monic(self):
        """Scale so the grlex leading coefficient is 1 (canonical up to scalars):
        the numerators over the leading one, whatever denom is."""
        ints = self.ints
        if not ints:
            return self
        lc = ints[max(ints, key=_grlex)]
        if lc == self.denom:
            return self
        h = _content(ints, lc)
        if lc < 0:
            h = -h
        if h != 1:
            ints = {e: c // h for e, c in ints.items()}
        return Polynomial._raw(self.nvars, ints, lc // h)

    def monomial_content(self):
        """Exponent vector of the largest monomial dividing every term."""
        if not self.ints:
            return (0,) * self.nvars
        it = iter(self.ints)
        m = list(next(it))
        for e in it:
            for i, d in enumerate(e):
                if d < m[i]:
                    m[i] = d
            if not any(m):
                break
        return tuple(m)

    def _shifted(self, shift):
        """self times the monomial x^shift; a negative shift must divide."""
        return Polynomial._raw(self.nvars, _accumulate({}, self.ints.items(), shift=shift),
                               self.denom)

    def divide_exact(self, d):
        """Exact quotient self/d, or None when d does not divide self.

        The numerators are divided by the primitive part D of d's: a quotient
        by D is integral (Gauss's lemma), so an inexact step proves a miss."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._check(d)
        if d.is_constant():
            ((_, c),) = d.ints.items()
            return self.scale(QQ(d.denom, c))
        cont = _content(d.ints)
        D = d.ints if cont == 1 else {e: c // cont for e, c in d.ints.items()}
        de = max(D, key=_grlex)
        dc = D[de]
        q = {}
        r = dict(self.ints)
        while r:
            re = max(r, key=_grlex)
            diff = tuple(map(sub, re, de))
            if min(diff) < 0:
                return None
            c, m = divmod(r[re], dc)
            if m:
                return None
            q[diff] = c
            _accumulate(r, D.items(), coeff=-c, shift=diff)
        if d.denom != 1:
            q = {e: c * d.denom for e, c in q.items()}
        return _reduced(self.nvars, q, self.denom * cont)

    # -- calculus-free structural operations ----------------------------------

    def coeffs_in(self, var):
        """View as univariate in ``var``: map degree -> coefficient polynomial.

        Coefficient polynomials keep the full variable count with the ``var``
        exponent set to zero.
        """
        out = {}
        for e, c in self.ints.items():
            stripped = e[:var] + (0,) + e[var + 1 :]
            out.setdefault(e[var], {})[stripped] = c
        return {d: _reduced(self.nvars, b, self.denom) for d, b in out.items()}

    def split_head(self, k):
        """Group the terms by their first ``k`` exponents: map head exponent
        tuple -> the polynomial of those terms with the head set to zero."""
        pad = (0,) * k
        out = {}
        for e, c in self.ints.items():
            out.setdefault(e[:k], {})[pad + e[k:]] = c
        return {head: _reduced(self.nvars, b, self.denom) for head, b in out.items()}

    def substitute_var(self, var, image):
        """Substitute ``image`` (a Polynomial) for one variable, exactly."""
        self._check(image)
        by_deg = self.coeffs_in(var)
        if not by_deg:
            return Polynomial.zero(self.nvars)
        top = max(by_deg)
        result = Polynomial.zero(self.nvars)
        for d in range(top, -1, -1):  # Horner
            result = result * image
            if d in by_deg:
                result = result + by_deg[d]
        return result

    def shift_vars(self, shifts):
        """The image under x_i -> x_i + a for the pairs ``(i, a)`` of
        ``shifts``, one variable at a time: each column of degree n in x_i is
        Taylor-shifted in place by n synthetic divisions by x_i - a.  An
        integer shift is invertible over Z[x], so it keeps the content and
        denom; a rational one is brought back to lowest terms at the end."""
        terms = self.ints
        for i, a in shifts:
            if not any(e[i] for e in terms):
                continue
            cols = {}
            for e, c in terms.items():
                cols.setdefault((e[:i], e[i + 1 :]), {})[e[i]] = c
            out = {}
            for (head, tail), col in cols.items():
                n = max(col)
                col = [col.get(j, 0) for j in range(n + 1)]
                for k in range(n):
                    for j in range(n - 1, k - 1, -1):
                        col[j] += a * col[j + 1]
                for j, c in enumerate(col):
                    if c:
                        out[head + (j,) + tail] = c
            terms = out
        if terms is self.ints:
            return self
        if all(type(a) is int for _, a in shifts):
            return Polynomial._raw(self.nvars, terms, self.denom)
        ints, denom = _over_lcm(terms)
        return _reduced(self.nvars, ints, denom * self.denom)

    def permute_vars(self, images):
        """Apply the variable permutation ``i -> images[i]`` to exponents."""
        out = {}
        for e, c in self.ints.items():
            ne = [0] * self.nvars
            for i, d in enumerate(e):
                ne[images[i]] = d
            out[tuple(ne)] = c
        return Polynomial._raw(self.nvars, out, self.denom)

    def derivative(self, var):
        return _reduced(self.nvars, {
            e[:var] + (e[var] - 1,) + e[var + 1 :]: c * e[var]
            for e, c in self.ints.items()
            if e[var]
        }, self.denom)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ContextMismatchError("evaluation point has wrong length")
        total = Fraction(0)
        for e, c in self.ints.items():
            v = c
            for i, d in enumerate(e):
                if d:
                    v = v * QQ(point[i]) ** d
            total += v
        return total / self.denom

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# GCD
# ---------------------------------------------------------------------------


def poly_gcd(p, q):
    """Canonical (grlex-monic) greatest common divisor of two polynomials.

    gcd(p, 0) is the canonical form of p; gcd(0, 0) = 0.
    """
    if p.nvars != q.nvars:
        raise ContextMismatchError("gcd of polynomials over different tables")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.nvars, 1)

    # a gcd is defined up to a unit: keep the integer numerators, and split
    # off the common monomial factor first: cheap and frequent
    mp = p.monomial_content()
    mq = q.monomial_content()
    common = tuple(min(a, b) for a, b in zip(mp, mq))
    p1 = Polynomial._raw(p.nvars, _accumulate({}, p.ints.items(), shift=[-d for d in mp]))
    q1 = Polynomial._raw(q.nvars, _accumulate({}, q.ints.items(), shift=[-d for d in mq]))

    g = _gcd_primitive_parts(p1, q1)
    if any(common):
        g = g._shifted(common)
    return g.monic()


def _gcd_primitive_parts(p, q):
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.nvars, 1)
    if p == q:
        return p
    pv = p.variables_present()
    qv = q.variables_present()
    both = pv & qv
    if not both:
        return Polynomial.const(p.nvars, 1)
    # main variable: smallest combined degree keeps the remainder sequence short
    v = min(both, key=lambda i: (p.degree_in(i) + q.degree_in(i), i))
    a, b = (p, q) if p.degree_in(v) >= q.degree_in(v) else (q, p)

    if pv == qv == {v}:
        # Euclid on the integer numerators, each pseudo-remainder cut to its
        # primitive part
        a, b = ({e[v]: c for e, c in x.ints.items()} for x in (a, b))
        while b:
            r = _pseudo_rem(a, b)
            k = _content(r)
            a, b = b, r if k == 1 else {d: c // k for d, c in r.items()}
        pad = (0,) * (p.nvars - v - 1)
        return Polynomial._raw(p.nvars, {(0,) * v + (d,) + pad: c for d, c in a.items()})

    # the subresultant sequence, on views {degree in v: coefficient}
    ca, a = _content_and_primitive(a.coeffs_in(v))
    cb, b = _content_and_primitive(b.coeffs_in(v))
    c = poly_gcd(ca, cb)
    first = b
    g = h = Polynomial.const(p.nvars, 1)
    while True:
        delta = max(a) - max(b)
        r = _pseudo_rem(a, b)
        if not r:
            # the first b is a primitive part already; the coefficients are
            # integral, as the divisions above are exact over Z[other variables]
            b = b if b is first else _content_and_primitive(b)[1]
            out = {e[:v] + (d,) + e[v + 1 :]: k for d, x in b.items() for e, k in x.ints.items()}
            return c * Polynomial._raw(p.nvars, out)
        if max(r) == 0:
            return c
        divisor = g * h**delta
        a, b = b, {d: x.divide_exact(divisor) for d, x in r.items()}
        g = a[max(a)]
        if delta:
            h = (g**delta).divide_exact(h ** (delta - 1))


def _content_and_primitive(view):
    """Content (canonical, free of the main variable) and primitive part of a
    view; by Gauss's lemma the part of integral coefficients is integral."""
    coeffs = iter(view.values())
    content = next(coeffs)
    for c in coeffs:
        if content.is_constant():
            break
        content = poly_gcd(content, c)
    content = content.monic()
    if content.is_constant():
        return content, view
    return content, {d: c.divide_exact(content) for d, c in view.items()}


def _pseudo_rem(a, b):
    """The view of lc(b)^(deg a - deg b + 1) * a mod b for views ``{degree:
    coefficient}`` with deg a >= deg b, whose coefficients are rationals (ints
    in the gcd) or polynomials free of the main variable; the plain remainder
    when lc(b) = 1."""
    db = max(b)
    lcb = b[db]
    lower = [(d, c) for d, c in b.items() if d != db]
    missing = max(a) - db + 1  # factors of lc(b) still owed
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lcr = r.pop(dr)
        if lcb != 1:  # true for every polynomial coefficient
            r = {d: c * lcb for d, c in r.items()}
        _accumulate(r, [(d + dr - db, c) for d, c in lower], coeff=-lcr)
        missing -= 1
    if missing and r and lcb != 1:
        lcb = lcb**missing
        r = {d: c * lcb for d, c in r.items()}
    return r


def _cancel(p, q):
    """``(g, p/g, q/g)`` for g = poly_gcd(p, q); p and q themselves when g is
    constant.  A q that is not a monomial is tried as the divisor g first."""
    if len(q.ints) > 1:
        g = q.monic()
        quotient = p.divide_exact(g)
        if quotient is not None:
            return g, quotient, q.divide_exact(g)
    g = poly_gcd(p, q)
    if g.is_constant():
        return g, p, q
    return g, p.divide_exact(g), q.divide_exact(g)


def _pivot(f):
    """The smallest v with f = c*x_v + r for a nonzero rational c and r free
    of x_v, or None when there is none (then f is not a base factor)."""
    ints = f.ints
    for v in sorted(e.index(1) for e in ints if sum(e) == 1):
        if sum(1 for e in ints if e[v]) == 1:
            return v
    return None


class _Factor(tuple):
    """The key of a base factor f, hashed and compared as the pair
    ``(frozenset(f.ints.items()), f.denom)``.  It carries f as ``poly`` and
    the pivot ``v``, pivot numerator ``c`` and tail ``r`` of _divide_linear."""

    def __new__(cls, f, v):
        key = tuple.__new__(cls, (frozenset(f.ints.items()), f.denom))
        key.poly, key.v = f, v
        key.c = f.ints[(0,) * v + (1,) + (0,) * (f.nvars - v - 1)]
        key.r = tuple((e, -a) for e, a in f.ints.items() if not e[v])
        return key

    def __getnewargs__(self):  # for copy and pickle, which would pass the pair
        return self.poly, self.v


def _strip(p, f, cap=None):
    """``(k, p/f^k)`` for the largest k, at most ``cap``, with f^k dividing p;
    p must be nonzero and f a grlex-monic base factor."""
    key = _Factor(f, _pivot(f))
    cap = p.degree_in(key.v) if cap is None else cap
    p, left = _strip_factors(p, {key: cap})
    return cap - left.get(key, 0), p


def _divide_linear(ints, v, c, r):
    """The integer quotient of ``ints`` by the primitive F = c*x_v - sum r,
    with ``r`` the ``(exponents, coefficient)`` pairs free of x_v, or None
    when F does not divide it.

    Synthetic division in x_v: the quotient coefficients q_{d-1} = (P_d +
    r*q_d)/c come out from the top degree down.  They are integral when F
    divides, so the first inexact division proves a miss; otherwise F divides
    exactly when the last remainder P_0 + r*q_0 vanishes.  A nonzero P free
    of x_v has no divisor of degree 1 in x_v.
    """
    if not any(e[v] for e in ints):
        return None
    view = {}
    for e, a in ints.items():
        view.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = a
    quotient, q = {}, {}
    for d in range(max(view), -1, -1):
        rem = dict(view.get(d, ()))
        for e, a in r:
            _accumulate(rem, q.items(), coeff=a, shift=e)
        if not d:
            return None if rem else quotient
        if c != 1:
            q = {}
            for e, a in rem.items():
                a, m = divmod(a, c)
                if m:
                    return None
                q[e] = a
        else:
            q = rem
        for e, a in q.items():
            quotient[e[:v] + (d - 1,) + e[v + 1 :]] = a


#: The factorization of a constant denominator; no factorization is mutated.
_NO_FACTORS = {}


def _expand(fac, nvars):
    """The monic polynomial prod f^e of a factorization ``{key of f: e}``."""
    out = None
    for key, e in fac.items():
        f = key.poly**e
        out = f if out is None else out * f
    return Polynomial.const(nvars, 1) if out is None else out


def _times(fac, other, sign=1):
    """The factorization fac * other**sign; with sign -1, other divides fac."""
    out = dict(fac)
    for key, e in other.items():
        e = out.pop(key, 0) + sign * e
        if e:
            out[key] = e
    return out or _NO_FACTORS


def _strip_factors(p, fac):
    """``(p/h, fac/h)`` for h the largest divisor of p that divides the
    factored polynomial ``fac``.

    A monic f is F/d for F = f.ints and d = f.denom = lc(F), so F is
    primitive: F^k divides the numerators P of p exactly when f^k divides p,
    and then P/F^k is integral (Gauss's lemma) with the content of P.  So
    p/h = (P/H) * lc(H) / p.denom needs only the gcd of p.denom and lc(H).
    """
    ints, left, m = p.ints, {}, 1
    for key, e in fac.items():
        k = 0
        while k != e:
            quotient = _divide_linear(ints, key.v, key.c, key.r)
            if quotient is None:
                break
            ints, k = quotient, k + 1
        if k != e:
            left[key] = e - k
        m *= key[1] ** k
    if ints is p.ints:
        return p, left
    g = math.gcd(p.denom, m)
    if m != g:
        ints = {e: a * (m // g) for e, a in ints.items()}
    return Polynomial._raw(p.nvars, ints, p.denom // g), left


def _single_factor(den):
    """The factorization of a monic denominator that is constant or one base
    factor, and None for any other."""
    if den.is_constant():
        return _NO_FACTORS
    v = _pivot(den)
    return None if v is None else {_Factor(den, v): 1}


def _map_factors(r, image, low=None):
    """The factorization of the image of r's denominator under a map that is
    ``image`` on polynomials up to a scalar: a ring automorphism, which keeps
    a base factor irreducible, or a monomial scaling (``low`` given) whose
    images may be Laurent.  A factor's image under a scaling splits into a
    monomial and a rest that must be a base factor; the monomials, less
    ``low`` (the monomial that both images of a coprime pair shed), are
    carried as base factors x_v.  None when r has no factorization or some
    image or rest is not a base factor."""
    if r.fac is None:
        return None
    nvars = r.nvars
    mono = [-x for x in low] if low else [0] * nvars
    out = {}
    for key, e in r.fac.items():
        g = image(key.poly)
        m = tuple(map(min, zip(*g.ints))) if low else ()  # g may be Laurent
        if any(m):
            g = g._shifted([-x for x in m])
            mono = [a + e * x for a, x in zip(mono, m)]
        if not g.is_constant():
            g = g.monic()
            v = _pivot(g)
            if v is None:
                return None
            out[_Factor(g, v)] = e
    # the map is invertible on Laurent polynomials, so the rests of distinct
    # factors are distinct, and none is a monomial
    out.update((_Factor(Polynomial.variable(nvars, v), v), e) for v, e in enumerate(mono) if e)
    return out or _NO_FACTORS


def poly_lcm(p, q):
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.nvars)
    return (p * _cancel(p, q)[2]).monic()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of polynomials in canonical form.

    Invariants: the denominator is nonzero and grlex-monic, and numerator and
    denominator are coprime.  Structural equality of canonical forms is
    semantic equality.  ``fac`` holds the denominator as exponents ``{factor
    key: exponent}`` over base factors, or None when it is not known.

    A RatFunc is never mutated after construction.  The one slot that changes
    is the image cache of ``image``, set on first use, which maps an
    automorphism object to the image of self under it; that is sound because
    the value it is computed from never changes.
    """

    __slots__ = ("num", "den", "fac", "_images")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.const(num.nvars, 1)
        if num.nvars != den.nvars:
            raise ContextMismatchError("numerator/denominator table mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den, self.fac = num, Polynomial.const(num.nvars, 1), _NO_FACTORS
            return
        num, den = _monic_den(num, den)
        fac = _single_factor(den)
        if fac is None:
            _, num, den = _cancel(num, den)
            fac = _single_factor(den)
        elif fac:
            num, fac = _strip_factors(num, fac)
            den = _expand(fac, num.nvars)
        self.num, self.den, self.fac = num, den, fac

    @classmethod
    def _raw(cls, num, den, fac=None):
        """A RatFunc from a canonical pair, without checks.  ``fac`` is the
        factorization of ``den``, or None when it is not known; a constant
        ``den`` must have the empty one."""
        r = object.__new__(cls)
        r.num = num
        r.den = den
        r.fac = fac
        return r

    @classmethod
    def from_poly(cls, p):
        return cls._raw(p, Polynomial.const(p.nvars, 1), _NO_FACTORS)

    @classmethod
    def const(cls, nvars, c):
        return cls.from_poly(Polynomial.const(nvars, c))

    @classmethod
    def variable(cls, nvars, i):
        return cls.from_poly(Polynomial.variable(nvars, i))

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self):
        return self.den.is_constant()

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ContextMismatchError("rational functions over different tables")

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        self._check(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        b, d = self.den, other.den
        if b.is_constant() and d.is_constant():
            return RatFunc.from_poly(self.num + other.num)
        if self.fac is None or other.fac is None:
            g, b1, d1 = _cancel(b, d)
            num = self.num * d1 + other.num * b1
            if num.is_zero():
                return RatFunc.zero(self.nvars)
            # a common factor of num and b1*d1*g divides g; monic quotients keep _raw safe
            _, num, g = _cancel(num, g)
            den = b1 * d1 * g
            return RatFunc._raw(num, den, _single_factor(den))
        fb, fd = self.fac, other.fac
        g = {key: min(e, fd[key]) for key, e in fb.items() if key in fd}  # gcd(b, d)
        if g:
            fb, fd = _times(fb, g, -1), _times(fd, g, -1)
            b, d = _expand(fb, self.nvars), _expand(fd, self.nvars)
        num = self.num * d + other.num * b
        if num.is_zero():
            return RatFunc.zero(self.nvars)
        # as above, only the factors of g can cancel; b/g and d/g are coprime
        num, left = _strip_factors(num, g)
        return RatFunc._raw(num, b * d * _expand(left, self.nvars), _times(_times(fb, fd), left))

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den, self.fac)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        self._check(other)
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc.zero(self.nvars)
        # a nonzero constant is a unit: it scales the other numerator, and
        # nothing cancels
        if len(self.num.ints) == 1 and self._is_const():
            return other._scaled_by(self.num)
        if len(other.num.ints) == 1 and other._is_const():
            return self._scaled_by(other.num)
        if self.fac is None or other.fac is None or not (self.fac or other.fac):
            _, a, d = _cancel(self.num, other.den)
            _, c, b = _cancel(other.num, self.den)
            # monic denominators over the monic gcd: b*d is monic, and 1 when constant
            den = b * d
            return RatFunc._raw(a * c, den, _single_factor(den))
        a, fd = _strip_factors(self.num, other.fac)
        c, fb = _strip_factors(other.num, self.fac)
        b = self.den if c is other.num else _expand(fb, self.nvars)
        d = other.den if a is self.num else _expand(fd, self.nvars)
        return RatFunc._raw(a * c, b * d, _times(fb, fd))

    def _is_const(self):
        """Whether self, with a one-term numerator, is a constant."""
        return not any(next(iter(self.num.ints))) and self.den.is_constant()

    def _scaled_by(self, c):
        """self * c for a nonzero constant polynomial c; self when c is 1."""
        ((_, n),) = c.ints.items()
        if n == c.denom == 1:
            return self
        return RatFunc._raw(self.num._scaled(n, c.denom), self.den, self.fac)

    def invert(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inversion of the zero rational function")
        num, den = _monic_den(self.den, self.num)
        return RatFunc._raw(num, den, _single_factor(den))

    def __truediv__(self, other):
        return self * other.invert()

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        # powers of a coprime pair are coprime, and of a monic polynomial monic
        fac = self.fac and {key: e * k for key, e in self.fac.items()}
        return RatFunc._raw(self.num**k, self.den**k, fac if k else _NO_FACTORS)

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return RatFunc.zero(self.nvars)
        return RatFunc._raw(self.num.scale(c), self.den, self.fac)

    def map(self, image):
        """The image of self under a ring automorphism of the polynomial ring,
        such as a shift or a permutation of the variables, that is ``image``
        on polynomials.  It keeps the pair coprime and maps base factors to
        base factors; only the denominator's leading coefficient can change."""
        num = image(self.num)
        if self.den.is_constant():  # the canonical 1, which every automorphism fixes
            return RatFunc._raw(num, self.den, self.fac)
        num, den = _monic_den(num, image(self.den))
        if self.fac is not None and list(self.fac.values()) == [1]:  # den is the one factor
            return RatFunc._raw(num, den, _single_factor(den))
        return RatFunc._raw(num, den, _map_factors(self, image))

    def image(self, aut):
        """``aut.apply(self)``, computed once per automorphism object and kept
        for as long as self lives."""
        try:
            cache = self._images
        except AttributeError:  # the slot is left unset until the first image
            cache = self._images = {}
        out = cache.get(aut)
        if out is None:
            out = cache[aut] = aut.apply(self)
        return out

    def scale_vars(self, coeffs, exps):
        """The image of self under x_i -> coeffs[i] * x^exps[i] * x_i.  Distinct
        monomials have distinct images, so each term is written once.  The
        images of a coprime pair can share only a monomial, which the smallest
        exponent of each variable removes.  A factored denominator stays
        factored: each factor's image is a monomial times a base factor, and
        the monomials left after that removal are base factors x_v."""
        nvars = self.nvars
        unit = all(c == 1 for c in coeffs)

        def image(p):
            out = {}
            for e, c in p.ints.items():
                ne = list(e)
                for i, d in enumerate(e):
                    if d:
                        if coeffs[i] != 1:
                            c = c * coeffs[i] ** d
                        for j, x in enumerate(exps[i]):
                            if x:
                                ne[j] += x * d
                out[tuple(ne)] = c
            if unit:  # only the monomials move: the content stays
                return Polynomial._raw(nvars, out, p.denom)
            ints, denom = _over_lcm(out)
            return _reduced(nvars, ints, denom * p.denom)

        num, den = image(self.num), image(self.den)
        low = tuple(map(min, zip(*num.ints, *den.ints)))
        if any(low):
            shift = [-x for x in low]
            num, den = num._shifted(shift), den._shifted(shift)
        fac = _map_factors(self, image, low)
        num, den = _monic_den(num, den)
        return RatFunc._raw(num, den, _single_factor(den) if fac is None else fac)

    @classmethod
    def zero(cls, nvars):
        return cls.from_poly(Polynomial.zero(nvars))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _monic_den(num, den):
    """Canonical scaling of a coprime pair: the denominator becomes
    grlex-monic, and exactly the unit polynomial when it is constant."""
    ints = den.ints
    lc = ints[max(ints, key=_grlex)]
    if lc == den.denom:
        return num, den
    return num.scale(QQ(den.denom, lc)), den.monic()


def substitute(r, images):
    """Apply the substitution ``variable index -> RatFunc`` to r, exactly.

    All images are substituted at once, so ``{x -> y, y -> x}`` swaps x and
    y.  Variables without an image are left fixed.  Raises
    DegenerateSubstitutionError when the substituted denominator vanishes
    identically.
    """
    nvars = r.nvars
    rf_images = {}
    for i, img in images.items():
        if isinstance(img, Polynomial):
            img = RatFunc.from_poly(img)
        if img.nvars != nvars:
            raise ContextMismatchError("substitution image over a different table")
        rf_images[i] = img
    num = _ratfunc_substitute(r.num, rf_images)
    den = _ratfunc_substitute(r.den, rf_images)
    if den.is_zero():
        raise DegenerateSubstitutionError("denominator vanished under substitution")
    return num / den


def _ratfunc_substitute(p, images):
    nvars = p.nvars
    powers = {i: [RatFunc.const(nvars, 1)] for i in images}
    total = RatFunc.zero(nvars)
    for e, c in p.terms.items():
        term = RatFunc.const(nvars, c)
        plain = [0] * nvars
        for i, d in enumerate(e):
            if not d:
                continue
            if i in images:
                cache = powers[i]
                while len(cache) <= d:
                    cache.append(cache[-1] * images[i])
                term = term * cache[d]
            else:
                plain[i] = d
        if any(plain):
            term = term * RatFunc.from_poly(Polynomial.monomial(nvars, plain))
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Hyperplane restriction and residues
# ---------------------------------------------------------------------------


def _hyperplane(h, c):
    """The base factor (h - c).monic() of the hyperplane h = c; h must be a
    linear form.  Its pivot is the first variable of h, with coefficient 1."""
    if h.is_zero() or h.is_constant():
        raise InvalidDivisorError("divisor is not a hyperplane")
    if h.total_degree() != 1:
        raise InvalidDivisorError("divisor must be a linear form")
    return (h - Polynomial.const(h.nvars, c)).monic()


def _restrict(num, den, f):
    """num/den restricted to the hyperplane f = 0 of a base factor f = x_v +
    r, by eliminating its pivot: x_v -> x_v - f = -r."""
    v = _pivot(f)
    image = Polynomial.variable(f.nvars, v) - f
    num, den = num.substitute_var(v, image), den.substitute_var(v, image)
    if den.is_zero():
        raise DegenerateSubstitutionError("denominator vanishes on the hyperplane")
    return RatFunc(num, den)


def pole_order(r, h, c):
    """Order of the pole of r along the hyperplane h = c (0 when regular)."""
    return _strip(r.den, _hyperplane(h, c))[0]


def restrict_to_hyperplane(r, h, c):
    """Restrict r to the hyperplane h = c by eliminating one variable."""
    return _restrict(r.num, r.den, _hyperplane(h, c))


def residue_along(r, h, c):
    """First-order residue of r along the hyperplane h = c.

    Returns the restriction of (h - c) * r to the hyperplane: zero when r is
    regular there, and the classical residue coefficient for a simple pole.
    Raises HigherOrderPoleError when the pole order is two or more.
    """
    f = _hyperplane(h, c)
    order, rest = _strip(r.den, f)
    if order >= 2:
        raise HigherOrderPoleError(f"pole of order {order} along the divisor")
    if order == 0:
        return RatFunc.zero(r.nvars)
    # (h - c) * r = lc(h) * f * num / (f * rest), with f the monic h - c
    return _restrict(r.num.scale(h.leading_term()[1]), rest, f)


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def poly_to_text(p, names):
    """Canonical text form: grlex-descending terms ``coeff*x^e*...`` joined by ' + '."""
    if p.is_zero():
        return "0"
    if len(names) != p.nvars:
        raise ContextMismatchError("name list does not match variable count")
    parts = []
    for e in sorted(p.ints, key=_grlex, reverse=True):
        factors = [str(QQ(p.ints[e], p.denom))]
        for i, d in enumerate(e):
            if d == 1:
                factors.append(names[i])
            elif d > 1:
                factors.append(f"{names[i]}^{d}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def poly_from_text(text, names):
    """Parse the canonical text form (plus obvious human variants)."""
    index = {n: i for i, n in enumerate(names)}
    nvars = len(names)
    text = text.strip()
    if text in ("0", ""):
        return Polynomial.zero(nvars)
    terms = {}
    for chunk in _split_terms(text):
        coeff = QQ(1)
        chunk = chunk.strip()
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                coeff = -coeff
            chunk = chunk[1:].lstrip()
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if "^" in factor:
                base, _, power = factor.partition("^")
                base = base.strip()
                if base not in index:
                    raise ValueError(f"unknown variable {base!r}")
                exps[index[base]] += int(power)
            elif factor in index:
                exps[index[factor]] += 1
            else:
                coeff = coeff * QQ(factor.replace(" ", ""))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return Polynomial(nvars, terms)  # which drops the zero sums


def _split_terms(text):
    """Split on top-level '+' and '-' (keeping the sign with the term)."""
    chunks = []
    current = []
    prev = ""
    for ch in text:
        if ch == "+" and prev not in ("^", "*", "/", ""):
            chunks.append("".join(current))
            current = []
        elif ch == "-" and prev not in ("^", "*", "/", ""):
            chunks.append("".join(current))
            current = ["-"]
        else:
            current.append(ch)
        if not ch.isspace():
            prev = ch
    chunks.append("".join(current))
    return [c.strip() for c in chunks if c.strip()]


def ratfunc_to_text(r, names):
    """Canonical text of a rational function: ``num``, or ``(num)/(den)``
    when the denominator is not constant."""
    if r.is_polynomial():
        return poly_to_text(r.num, names)
    return f"({poly_to_text(r.num, names)})/({poly_to_text(r.den, names)})"


def ratfunc_to_json(r, names):
    out = {"num": poly_to_text(r.num, names)}
    if not r.den.is_constant():
        out["den"] = poly_to_text(r.den, names)
    return out


def ratfunc_from_json(obj, names):
    if isinstance(obj, str):
        return RatFunc.from_poly(poly_from_text(obj, names))
    num = poly_from_text(obj["num"], names)
    den = poly_from_text(obj["den"], names) if "den" in obj else None
    return RatFunc(num, den)
