"""Exact arithmetic tower: rationals, sparse multivariate polynomials, rational
functions.

Representation
--------------
A polynomial in ``n`` variables is a dict mapping exponent tuples (length
``n``, one entry per variable) to nonzero rational coefficients::

    x0^2*x1 + 3/2   ->   {(2, 1): 1, (0, 0): 3/2}

The zero polynomial is the empty dict.  Coefficients are exact rationals
(``fractions.Fraction``); no floating point enters anywhere in this module.

Term order is graded lexicographic (grlex) over the variable order of the
table: compare total degree first, then the exponent tuples lexicographically.
Canonical forms are defined against this order: the canonical representative
of a polynomial up to scalars has grlex leading coefficient 1, and a
``RatFunc`` stores a coprime numerator/denominator pair whose denominator is
canonical in that sense.

GCD is computed exactly by content/primitive-part recursion with the
subresultant pseudo-remainder sequence (Collins 1967; Brown 1971) in a chosen
main variable, whose exact divisions keep coefficient growth polynomial, and
monic Euclid at the univariate base.  No modular or heuristic shortcuts are
used.
"""

import math
from fractions import Fraction
from operator import add

from .errors import (
    ContextMismatchError,
    DegenerateSubstitutionError,
    HigherOrderPoleError,
    InvalidDivisorError,
)

QQ = Fraction

#: Degree of the zero polynomial.  A sentinel for comparisons only; it never
#: participates in coefficient arithmetic.
NEG_INF = float("-inf")


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
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ContextMismatchError(
                    f"bad exponent vector {exps} for {nvars} variables"
                )
            coeff = QQ(coeff)
            if coeff != 0:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        # internal fast path: caller guarantees normalized terms
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = QQ(c)
        if c == 0:
            return cls.zero(nvars)
        return cls._raw(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise ContextMismatchError(f"variable index {i} out of range")
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): QQ(1)})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self):
        if not self.terms:
            return QQ(0)
        ((exps, coeff),) = self.terms.items()
        if any(exps):
            raise ValueError("polynomial is not constant")
        return coeff

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return NEG_INF
        return max(e[var] for e in self.terms)

    def variables_present(self):
        present = set()
        for e in self.terms:
            for i, d in enumerate(e):
                if d:
                    present.add(i)
        return present

    def leading_term(self):
        """Return ``(exponents, coefficient)`` of the grlex-leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ContextMismatchError("polynomials over different variable tables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return Polynomial._raw(self.nvars, _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = _accumulate(dict(self.terms), other.terms.items(), coeff=-1)
        return Polynomial._raw(self.nvars, out)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        # iterate over the shorter operand outside
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            _accumulate(out, b.items(), coeff=ca, shift=ea)
        return Polynomial._raw(self.nvars, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial._raw(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    # -- content and normal forms ---------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return QQ(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = math.lcm(den_lcm, c.denominator)
        return QQ(num_gcd, den_lcm)

    def monic(self):
        """Scale so the grlex leading coefficient is 1 (canonical up to scalars)."""
        if not self.terms:
            return self
        _, lc = self.leading_term()
        if lc == 1:
            return self
        inv = 1 / lc
        return Polynomial._raw(self.nvars, {e: c * inv for e, c in self.terms.items()})

    def monomial_content(self):
        """Exponent vector of the largest monomial dividing every term."""
        if not self.terms:
            return (0,) * self.nvars
        it = iter(self.terms)
        m = list(next(it))
        for e in it:
            for i, d in enumerate(e):
                if d < m[i]:
                    m[i] = d
            if not any(m):
                break
        return tuple(m)

    def divide_exact(self, d):
        """Exact quotient self/d, or None when d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        self._check(d)
        if d.is_constant():
            return self.scale(1 / d.constant_value())
        de, dc = d.leading_term()
        q = {}
        r = dict(self.terms)
        while r:
            re = max(r, key=lambda t: (sum(t), t))
            diff = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in diff):
                return None
            c = r[re] / dc
            q[diff] = c
            _accumulate(r, d.terms.items(), coeff=-c, shift=diff)
        return Polynomial._raw(self.nvars, q)

    # -- calculus-free structural operations ----------------------------------

    def coeffs_in(self, var):
        """View as univariate in ``var``: map degree -> coefficient polynomial.

        Coefficient polynomials keep the full variable count with the ``var``
        exponent set to zero.
        """
        out = {}
        for e, c in self.terms.items():
            stripped = e[:var] + (0,) + e[var + 1 :]
            out.setdefault(e[var], {})[stripped] = c
        return {d: Polynomial._raw(self.nvars, b) for d, b in out.items()}

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

    def permute_vars(self, images):
        """Apply the variable permutation ``i -> images[i]`` to exponents."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, d in enumerate(e):
                ne[images[i]] = d
            out[tuple(ne)] = c
        return Polynomial._raw(self.nvars, out)

    def derivative(self, var):
        return Polynomial._raw(self.nvars, {
            e[:var] + (e[var] - 1,) + e[var + 1 :]: c * e[var]
            for e, c in self.terms.items()
            if e[var]
        })

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ContextMismatchError("evaluation point has wrong length")
        total = QQ(0)
        for e, c in self.terms.items():
            v = c
            for i, d in enumerate(e):
                if d:
                    v = v * QQ(point[i]) ** d
            total += v
        return total

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

    # split off the common monomial factor first: cheap and frequent
    mp = p.monomial_content()
    mq = q.monomial_content()
    common = tuple(min(a, b) for a, b in zip(mp, mq))
    p1 = Polynomial._raw(p.nvars, _accumulate({}, p.terms.items(), shift=[-d for d in mp]))
    q1 = Polynomial._raw(q.nvars, _accumulate({}, q.terms.items(), shift=[-d for d in mq]))

    g = _gcd_primitive_parts(p1, q1)
    if any(common):
        g = Polynomial._raw(g.nvars, _accumulate({}, g.terms.items(), shift=common))
    return g.monic()


def _gcd_primitive_parts(p, q):
    if p.is_constant() or q.is_constant():
        return Polynomial.const(p.nvars, 1)
    if p.terms == q.terms:
        return p
    pv = p.variables_present()
    qv = q.variables_present()
    both = pv & qv
    if not both:
        return Polynomial.const(p.nvars, 1)
    # main variable: smallest combined degree keeps the remainder sequence short
    v = min(both, key=lambda i: (p.degree_in(i) + q.degree_in(i), i))

    if pv == {v} and qv == {v}:
        return _gcd_univariate(p, q, v)

    cp, pp = _content_and_primitive(p, v)
    cq, qp = _content_and_primitive(q, v)
    c = poly_gcd(cp, cq)

    # both primitive parts have positive degree in v, and so has every b below
    a, b = (pp, qp) if p.degree_in(v) >= q.degree_in(v) else (qp, pp)
    g = h = Polynomial.const(p.nvars, 1)
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            # the first b is one of the primitive parts already
            return c * (b if b is pp or b is qp else _content_and_primitive(b, v)[1])
        if r.degree_in(v) == 0:
            return c
        a, b = b, r.divide_exact(g * h**delta)
        g = a.coeffs_in(v)[a.degree_in(v)]
        if delta:
            h = (g**delta).divide_exact(h ** (delta - 1))


def _gcd_univariate(p, q, v):
    # monic Euclid over the rationals
    a, b = p, q
    while not b.is_zero():
        a, b = b, _uni_rem(a, b, v)
    return a.monic()


def _uni_rem(a, b, v):
    db = b.degree_in(v)
    lcb = b.terms[max(b.terms, key=lambda e: e[v])]
    r = dict(a.terms)
    shift = [0] * a.nvars
    while r:
        e = max(r, key=lambda t: t[v])
        if e[v] < db:
            break
        shift[v] = e[v] - db
        _accumulate(r, b.terms.items(), coeff=-(r[e] / lcb), shift=shift)
    return Polynomial._raw(a.nvars, r)


def _content_and_primitive(p, v):
    by_deg = p.coeffs_in(v)
    coeffs = list(by_deg.values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)
        if content.is_constant():
            content = Polynomial.const(p.nvars, 1)
            break
    else:
        content = content.monic()
    if content.is_constant() and content.constant_value() == 1:
        return content, p
    # divide degree-by-degree: cheaper than a full multivariate reduction
    out = {}
    for d, c in by_deg.items():
        q = c.divide_exact(content)
        for e, k in q.terms.items():
            out[e[:v] + (d,) + e[v + 1 :]] = k
    return content, Polynomial._raw(p.nvars, out)


def _pseudo_rem(a, b, v):
    """The exact pseudo-remainder lc_v(b)^(deg_v(a) - deg_v(b) + 1) * a mod b."""
    db = b.degree_in(v)
    lcb = b.coeffs_in(v)[db]
    missing = a.degree_in(v) - db + 1  # factors of lc(b) still owed
    r = a
    shift = [0] * a.nvars
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        lcr = r.coeffs_in(v)[dr]
        shift[v] = dr - db
        r = lcb * r  # a new polynomial, so its terms may be updated in place
        _accumulate(r.terms, (b * lcr).terms.items(), coeff=-1, shift=shift)
        missing -= 1
    return lcb**missing * r if missing and not r.is_zero() else r


def poly_lcm(p, q):
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.nvars)
    g = poly_gcd(p, q)
    return (p * q.divide_exact(g)).monic()


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Quotient of polynomials in canonical form.

    Invariants: the denominator is nonzero and grlex-monic, and numerator and
    denominator are coprime.  Structural equality of canonical forms is
    semantic equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.const(num.nvars, 1)
        if num.nvars != den.nvars:
            raise ContextMismatchError("numerator/denominator table mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.const(num.nvars, 1)
            return
        if not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = num.divide_exact(g)
                den = den.divide_exact(g)
        self.num, self.den = _monic_den(num, den)

    @classmethod
    def _raw(cls, num, den):
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def from_poly(cls, p):
        return cls._raw(p, Polynomial.const(p.nvars, 1))

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
        return bool(self.num.terms)

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
        g = poly_gcd(b, d)
        if g.is_constant():
            num = self.num * d + other.num * b
            den = b * d
            if num.is_zero():
                return RatFunc.zero(self.nvars)
            # b, d coprime and coprime to their numerators: already reduced
            return RatFunc._raw(num, den)
        b1 = b.divide_exact(g)
        d1 = d.divide_exact(g)
        num = self.num * d1 + other.num * b1
        if num.is_zero():
            return RatFunc.zero(self.nvars)
        # any common factor of num and b*d1 divides g; quotients of monic
        # by monic stay monic, so _raw is safe on both branches
        h = poly_gcd(num, g)
        if h.is_constant():
            return RatFunc._raw(num, b * d1)
        return RatFunc._raw(num.divide_exact(h), (b * d1).divide_exact(h))

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        self._check(other)
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc.zero(self.nvars)
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = poly_gcd(a, d)
        if not g1.is_constant():
            a = a.divide_exact(g1)
            d = d.divide_exact(g1)
        g2 = poly_gcd(c, b)
        if not g2.is_constant():
            c = c.divide_exact(g2)
            b = b.divide_exact(g2)
        return RatFunc._raw(*_monic_den(a * c, b * d))

    def invert(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inversion of the zero rational function")
        return RatFunc._raw(*_monic_den(self.den, self.num))

    def __truediv__(self, other):
        return self * other.invert()

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        # powers of a coprime pair are coprime, and of a monic polynomial monic
        return RatFunc._raw(self.num**k, self.den**k)

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return RatFunc.zero(self.nvars)
        return RatFunc._raw(self.num.scale(c), self.den)

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
    lc = den.constant_value() if den.is_constant() else den.leading_term()[1]
    if lc == 1:
        return num, den
    inv = 1 / lc
    return num.scale(inv), den.scale(inv)


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


def _hyperplane_pivot(h, c):
    """Validate the linear form h and return (pivot index, elimination image).

    The image is the polynomial expressing the pivot variable on the
    hyperplane h = c.
    """
    if h.is_zero() or h.is_constant():
        raise InvalidDivisorError("divisor is not a hyperplane")
    if h.total_degree() != 1:
        raise InvalidDivisorError("divisor must be a linear form")
    coeffs = {}
    const = QQ(0)
    for e, k in h.terms.items():
        if sum(e) == 0:
            const = k
        else:
            coeffs[e.index(1)] = k
    pivot = min(coeffs)
    a = coeffs[pivot]
    image = Polynomial.const(h.nvars, (QQ(c) - const) / a)
    for i, k in coeffs.items():
        if i != pivot:
            image = image + Polynomial.variable(h.nvars, i).scale(-k / a)
    return pivot, image


def pole_order(r, h, c):
    """Order of the pole of r along the hyperplane h = c (0 when regular)."""
    divisor = (h - Polynomial.const(h.nvars, c)).monic()
    _hyperplane_pivot(h, c)
    order = 0
    den = r.den
    while True:
        q = den.divide_exact(divisor)
        if q is None:
            return order
        order += 1
        den = q


def restrict_to_hyperplane(r, h, c):
    """Restrict r to the hyperplane h = c by eliminating one variable."""
    pivot, image = _hyperplane_pivot(h, c)
    num = r.num.substitute_var(pivot, image)
    den = r.den.substitute_var(pivot, image)
    if den.is_zero():
        raise DegenerateSubstitutionError("denominator vanishes on the hyperplane")
    return RatFunc(num, den)


def residue_along(r, h, c):
    """First-order residue of r along the hyperplane h = c.

    Returns the restriction of (h - c) * r to the hyperplane: zero when r is
    regular there, and the classical residue coefficient for a simple pole.
    Raises HigherOrderPoleError when the pole order is two or more.
    """
    order = pole_order(r, h, c)
    if order >= 2:
        raise HigherOrderPoleError(f"pole of order {order} along the divisor")
    if order == 0:
        return RatFunc.zero(r.nvars)
    divisor = h - Polynomial.const(h.nvars, c)
    cleared = RatFunc.from_poly(divisor) * r
    return restrict_to_hyperplane(cleared, h, c)


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
    for e in sorted(p.terms, key=lambda t: (sum(t), t), reverse=True):
        c = p.terms[e]
        factors = [str(c)]
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
                coeff = coeff * QQ(Fraction(factor.replace(" ", "")))
        _accumulate(terms, [(tuple(exps), coeff)])
    return Polynomial(nvars, terms)


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
