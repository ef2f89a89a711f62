"""Elements of the skew monoid ring L*M and their G-invariant combinations.

An element is a finite sum  sum_mu  l_mu * mu  with l_mu in the rational
function field L and mu ranging over the acting monoid.  The product rule is
the smash-product convention

    (a mu) (b nu) = a * mu(b) * (mu nu),

i.e. the automorphism of the LEFT factor's key is applied to the RIGHT
factor's coefficient.  Sign and side conventions are the main
interoperability hazard for this kind of algebra, so everything in the
package (including the Ore-witness construction u*gamma = sum l_mu mu(gamma) mu)
is derived from this one rule.

The group G acts by (a mu)^g = g(a) (g mu g^{-1}); orbit sums over cosets of
the stabilizer build G-invariant elements.
"""

from .arith import (
    Polynomial,
    RatFunc,
    _accumulate,
    ratfunc_from_json,
    ratfunc_to_json,
    ratfunc_to_text,
)
from .errors import (
    ContextMismatchError,
    InvarianceError,
    StabilizerInvarianceError,
)
from .actions import MonoidElement


class SkewElement:
    """A finite map from monoid keys to nonzero rational-function coefficients."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs=None):
        self.context = context
        clean = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if not context.key_valid(key):
                raise ContextMismatchError(f"invalid key {key} for this context")
            if isinstance(val, Polynomial):
                val = RatFunc.from_poly(val)
            if not val.is_zero():
                clean[key] = val
        self.coeffs = clean

    @classmethod
    def _raw(cls, context, coeffs):
        u = object.__new__(cls)
        u.context = context
        u.coeffs = coeffs
        return u

    @classmethod
    def zero(cls, context):
        return cls._raw(context, {})

    @classmethod
    def one(cls, context):
        return cls.scalar(context, RatFunc.const(context.table.nvars, 1))

    @classmethod
    def scalar(cls, context, a):
        """Embed a coefficient at the identity key."""
        if isinstance(a, Polynomial):
            a = RatFunc.from_poly(a)
        elif not isinstance(a, RatFunc):
            a = RatFunc.const(context.table.nvars, a)
        if a.is_zero():
            return cls.zero(context)
        return cls._raw(context, {context.key_identity(): a})

    @classmethod
    def generator(cls, context, key, coeff=None):
        """The element coeff * key (coefficient 1 by default)."""
        if coeff is None:
            coeff = RatFunc.const(context.table.nvars, 1)
        return cls(context, {tuple(key): coeff})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, key):
        key = tuple(key)
        return self.coeffs.get(key, RatFunc.zero(self.context.table.nvars))

    def _check(self, other):
        if self.context is not other.context:
            raise ContextMismatchError("skew elements from different contexts")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = _accumulate(dict(self.coeffs), other.coeffs.items())
        return SkewElement._raw(self.context, out)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return SkewElement._raw(self.context, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, SkewElement):
            return other
        if isinstance(other, (RatFunc, Polynomial, int)) or hasattr(other, "denominator"):
            return SkewElement.scalar(self.context, other)
        raise ContextMismatchError(f"cannot combine a skew element with {other!r}")

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        ctx = self.context
        return SkewElement._raw(ctx, _accumulate({}, (
            (ctx.key_compose(mu, nu), a * ctx.act_key(mu, b))
            for mu, a in self.coeffs.items()
            for nu, b in other.coeffs.items()
        )))

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a skew element")
        out = SkewElement.one(self.context)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        return self.context is other.context and self.coeffs == other.coeffs

    __hash__ = None

    # -- rendering -----------------------------------------------------------

    def to_text(self):
        if not self.coeffs:
            return "0"
        names = self.context.table.names
        return " + ".join(
            f"{ratfunc_to_text(self.coeffs[key], names)} ⊗ {self.context.render_key(key)}"
            for key in sorted(self.coeffs)
        )

    def to_json(self):
        names = self.context.table.names
        return {
            "terms": [
                {"key": list(key), **ratfunc_to_json(self.coeffs[key], names)}
                for key in sorted(self.coeffs)
            ]
        }

    @classmethod
    def from_json(cls, context, obj):
        names = context.table.names
        coeffs = {}
        for term in obj["terms"]:
            key = tuple(term["key"])
            coeffs[key] = ratfunc_from_json(term, names)
        return cls(context, coeffs)

    def __repr__(self):
        return f"SkewElement<{self.to_text()}>"


def commutator(u, v):
    return u * v - v * u


# ---------------------------------------------------------------------------
# The G-action and orbit sums
# ---------------------------------------------------------------------------


def g_action(g, u):
    """(a mu)^g = g(a) (g.mu) for a PermutationAut g; an algebra automorphism."""
    ctx = u.context
    return SkewElement._raw(ctx, _accumulate(
        {}, ((ctx.conjugate_key(g, key), g.apply(a)) for key, a in u.coeffs.items())
    ))


def orbit_sum(a, mu):
    """[a mu] = sum over cosets g G_mu of g(a) (g.mu).

    Representatives are the first group element hitting each orbit key in the
    group's enumeration order; the coefficient must be G_mu-invariant, which
    makes the result representative-independent.
    """
    ctx = mu.context
    if isinstance(a, Polynomial):
        a = RatFunc.from_poly(a)
    if a.is_zero():
        raise StabilizerInvarianceError("orbit sum of a zero coefficient")
    buckets = {}
    for g in ctx.group:
        key = ctx.conjugate_key(g, mu.vector)
        buckets.setdefault(key, g)
        if key == mu.vector and not g.is_identity():
            if g.apply(a) != a:
                raise StabilizerInvarianceError(
                    "coefficient is not invariant under the stabilizer of the key"
                )
    out = {}
    for key, g in buckets.items():
        out[key] = a if g.is_identity() else g.apply(a)
    return SkewElement._raw(ctx, out)


def is_invariant(u, group=None):
    """True iff the normalized form of u is fixed by every element of G.

    g -> g_action(g, .) is a group action, so the generators of G suffice
    (every non-identity element for a group built without generators).
    """
    group = group if group is not None else u.context.group
    return all(g.is_identity() or g_action(g, u) == u for g in group.generator_elements())


def support(u):
    """The set of monoid elements carrying nonzero coefficients."""
    return {MonoidElement(u.context, key) for key in u.coeffs}


def kpart(u):
    """The coefficient at the identity key (the U-cap-K component)."""
    return u.coefficient(u.context.key_identity())


def decompose_orbits(u):
    """Split a G-invariant element into its orbit components.

    Returns a list of (representative MonoidElement, component) with
    representatives the lexicographically least key of each orbit, sorted.
    The components sum to u and have pairwise disjoint single-orbit supports.
    """
    ctx = u.context
    if not is_invariant(u):
        raise InvarianceError("element is not G-invariant")
    remaining = set(u.coeffs)
    components = []
    while remaining:
        seed = min(remaining)
        orbit_keys = {ctx.conjugate_key(g, seed) for g in ctx.group} & remaining
        rep = min(orbit_keys)
        remaining -= orbit_keys
        comp = SkewElement._raw(ctx, {k: u.coeffs[k] for k in orbit_keys})
        components.append((MonoidElement(ctx, rep), comp))
    components.sort(key=lambda pair: pair[0].vector)
    return components
