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
main variable v, on views ``{degree in v: coefficient}`` of the operands.  Its
exact divisions keep coefficient growth polynomial.  One pseudo-remainder also
serves the univariate base, which stays monic Euclid over the rationals.  No
modular or heuristic shortcuts are used.
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

    def __bool__(self):
        return bool(self.terms)

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
    a, b = (p, q) if p.degree_in(v) >= q.degree_in(v) else (q, p)

    if pv == qv == {v}:
        # monic Euclid over the rationals: by a monic divisor the
        # pseudo-remainder is the plain remainder
        a, b = ({e[v]: c for e, c in x.terms.items()} for x in (a, b))
        while b:
            lcb = b[max(b)]
            b = {d: c / lcb for d, c in b.items()}
            a, b = b, _pseudo_rem(a, b)
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
            # the first b is a primitive part already
            b = b if b is first else _content_and_primitive(b)[1]
            out = {e[:v] + (d,) + e[v + 1 :]: k for d, x in b.items() for e, k in x.terms.items()}
            return c * Polynomial._raw(p.nvars, out)
        if max(r) == 0:
            return c
        divisor = g * h**delta
        a, b = b, {d: x.divide_exact(divisor) for d, x in r.items()}
        g = a[max(a)]
        if delta:
            h = (g**delta).divide_exact(h ** (delta - 1))


def _content_and_primitive(view):
    """Content (canonical, free of the main variable) and primitive part of a view."""
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
    coefficient}`` with deg a >= deg b, whose coefficients are rationals or
    polynomials free of the main variable; the plain remainder when lc(b) = 1."""
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
    """``(g, p/g, q/g)`` for g = poly_gcd(p, q); p and q themselves when g is constant."""
    g = poly_gcd(p, q)
    if g.is_constant():
        return g, p, q
    return g, p.divide_exact(g), q.divide_exact(g)


def _strip(p, f):
    """``(k, p/f^k)`` for the largest k with f^k dividing p; f must not be constant."""
    k, q = 0, p.divide_exact(f)
    while q is not None:
        k, p, q = k + 1, q, q.divide_exact(f)
    return k, p


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
            _, num, den = _cancel(num, den)
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
        g, b1, d1 = _cancel(b, d)
        num = self.num * d1 + other.num * b1
        if num.is_zero():
            return RatFunc.zero(self.nvars)
        # a common factor of num and b1*d1*g divides g; monic quotients keep _raw safe
        _, num, g = _cancel(num, g)
        return RatFunc._raw(num, b1 * d1 * g)

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
        _, a, d = _cancel(self.num, other.den)
        _, c, b = _cancel(other.num, self.den)
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
    _hyperplane_pivot(h, c)
    return _strip(r.den, (h - Polynomial.const(h.nvars, c)).monic())[0]


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
